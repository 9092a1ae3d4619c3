//! Cross-crate integration tests: workload generation → memory-system
//! simulation → stream analysis → reports, plus trace serialization.

use tempstream_coherence::{MultiChipConfig, MultiChipSim, SingleChipConfig, SingleChipSim};
use tempstream_core::experiment::{ExperimentConfig, WorkloadResults};
use tempstream_core::origins::OriginTable;
use tempstream_core::report::{format_length_cdf, format_origin_table, format_reuse_pdf};
use tempstream_core::streams::StreamAnalysis;
use tempstream_core::stride::StrideDetector;
use tempstream_obsv::Registry;
use tempstream_runtime::{run_workloads, RuntimeConfig};
use tempstream_trace::io::{read_trace, write_trace};
use tempstream_trace::{AccessKind, IntraChipClass, MemoryAccess, MissClass, MissTrace};
use tempstream_workloads::{Scale, Workload, WorkloadSession};

fn quick() -> ExperimentConfig {
    ExperimentConfig::quick()
}

/// Runs `workloads` through the executor, results in input order.
fn run(cfg: ExperimentConfig, workloads: &[Workload]) -> Vec<WorkloadResults> {
    run_workloads(&cfg, RuntimeConfig::with_workers(2), workloads).0
}

fn run_one(cfg: ExperimentConfig, w: Workload) -> WorkloadResults {
    run(cfg, &[w]).remove(0)
}

#[test]
fn every_workload_runs_end_to_end() {
    for r in run(quick(), &Workload::ALL) {
        let w = r.workload;
        assert!(r.multi_chip.total_misses > 100, "{w}: multi-chip too few");
        assert!(r.single_chip.total_misses > 50, "{w}: single-chip too few");
        assert!(
            r.intra_chip.total_misses >= r.single_chip.total_misses,
            "{w}: intra-chip must include every off-chip L1 miss"
        );
        // Figure-1 breakdowns account for every miss.
        let mc_sum: u64 = MissClass::ALL
            .iter()
            .map(|&c| r.multi_chip.breakdown.count(c))
            .sum();
        assert_eq!(mc_sum as usize, r.multi_chip.total_misses, "{w}");
        let ic_sum: u64 = IntraChipClass::ALL
            .iter()
            .map(|&c| r.intra_chip.breakdown.count(c))
            .sum();
        assert_eq!(ic_sum as usize, r.intra_chip.total_misses, "{w}");
        for s in [
            &r.multi_chip.streams,
            &r.single_chip.streams,
            &r.intra_chip.streams,
        ] {
            // Stream labels partition the analyzed misses.
            let f = &s.stream_fraction;
            assert_eq!(
                (f.non_repetitive + f.new_stream + f.recurring_stream) as usize,
                s.analyzed_misses,
                "{w}"
            );
            // Stride joint breakdown covers the same misses.
            assert_eq!(s.stride_joint.total() as usize, s.analyzed_misses, "{w}");
            // Origin rows cover the same misses.
            let row_sum: u64 = s.origins.rows.iter().map(|row| row.misses).sum();
            assert_eq!(row_sum, s.origins.total_misses, "{w}");
        }
    }
}

#[test]
fn experiments_are_deterministic_end_to_end() {
    // Two runs of the same workloads, at different worker counts, must
    // agree on every result (`Debug` prints every counter and float).
    let workloads = [Workload::Zeus, Workload::Oltp];
    let (a, _) = run_workloads(&quick(), RuntimeConfig::with_workers(1), &workloads);
    let (b, _) = run_workloads(&quick(), RuntimeConfig::with_workers(2), &workloads);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

#[test]
fn determinism_across_runs() {
    // Repeated runs at the same worker count agree on every result.
    let a = run_one(quick(), Workload::Oltp);
    let b = run_one(quick(), Workload::Oltp);
    assert_eq!(a.multi_chip.total_misses, b.multi_chip.total_misses);
    assert_eq!(
        a.multi_chip.streams.stream_fraction.recurring_stream,
        b.multi_chip.streams.stream_fraction.recurring_stream
    );
    assert_eq!(a.intra_chip.total_misses, b.intra_chip.total_misses);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

#[test]
fn quick_experiment_produces_all_contexts() {
    let r = run_one(quick(), Workload::Apache);
    assert!(r.multi_chip.total_misses > 0, "multi-chip trace empty");
    assert!(r.single_chip.total_misses > 0, "single-chip trace empty");
    assert!(r.intra_chip.total_misses > 0, "intra-chip trace empty");
    // Intra-chip misses include all off-chip L1 misses, so there are at
    // least as many.
    assert!(r.intra_chip.total_misses >= r.single_chip.total_misses);
    // Labels and counts are internally consistent.
    assert_eq!(
        r.multi_chip.streams.stream_fraction.total() as usize,
        r.multi_chip.streams.analyzed_misses
    );
}

#[test]
fn origin_tables_cover_all_misses() {
    let r = run_one(quick(), Workload::Zeus);
    for t in [
        &r.multi_chip.streams.origins,
        &r.single_chip.streams.origins,
        &r.intra_chip.streams.origins,
    ] {
        let sum: u64 = t.rows.iter().map(|row| row.misses).sum();
        assert_eq!(sum, t.total_misses);
    }
}

#[test]
fn analysis_cap_is_respected() {
    let mut cfg = quick();
    cfg.max_analysis_misses = 100;
    let r = run_one(cfg, Workload::DssQ1);
    for (total, s) in [
        (r.multi_chip.total_misses, &r.multi_chip.streams),
        (r.single_chip.total_misses, &r.single_chip.streams),
        (r.intra_chip.total_misses, &r.intra_chip.streams),
    ] {
        assert_eq!(s.analyzed_misses, total.min(100));
        assert_eq!(s.stream_fraction.total() as usize, s.analyzed_misses);
    }
    // Class breakdowns still cover the whole multi-chip trace.
    let mc_sum: u64 = MissClass::ALL
        .iter()
        .map(|&c| r.multi_chip.breakdown.count(c))
        .sum();
    assert_eq!(mc_sum as usize, r.multi_chip.total_misses);
}

#[test]
fn different_seed_changes_traces() {
    let a = run_one(quick(), Workload::Oltp);
    let b = run_one(quick().with_seed(1234), Workload::Oltp);
    assert_ne!(
        (a.multi_chip.total_misses, a.single_chip.total_misses),
        (b.multi_chip.total_misses, b.single_chip.total_misses)
    );
}

#[test]
fn collected_traces_roundtrip_through_serialization() {
    // Collect a real multi-chip trace, write it, read it back, and verify
    // the analysis of both is identical.
    let mut session = WorkloadSession::new(Workload::Apache, 4, 11);
    let mut sim = MultiChipSim::new(MultiChipConfig::small(4));
    session.run(&mut sim, 120);
    let trace = sim.finish(10_000);
    assert!(!trace.is_empty());

    let mut buf = Vec::new();
    write_trace(&trace, &mut buf).expect("write");
    let back: MissTrace<MissClass> = read_trace(&buf[..]).expect("read");
    assert_eq!(back.records(), trace.records());
    assert_eq!(back.instructions(), trace.instructions());

    let a1 = StreamAnalysis::of_trace(&trace);
    let a2 = StreamAnalysis::of_trace(&back);
    assert_eq!(a1.label_counts(), a2.label_counts());
}

#[test]
fn intra_chip_trace_roundtrips_too() {
    let mut session = WorkloadSession::new(Workload::DssQ2, 2, 3);
    let mut sim = SingleChipSim::new(SingleChipConfig::small(2));
    session.run(&mut sim, 60);
    let traces = sim.finish(5_000);
    let mut buf = Vec::new();
    write_trace(&traces.intra_chip, &mut buf).expect("write");
    let back: MissTrace<IntraChipClass> = read_trace(&buf[..]).expect("read");
    assert_eq!(back.records(), traces.intra_chip.records());
}

#[test]
fn warmup_recording_split_reduces_compulsory() {
    // Measuring after a warmup phase must shrink the compulsory share
    // relative to measuring from cold caches.
    let run = |warmup: u64| {
        let mut session = WorkloadSession::new(Workload::Apache, 4, 5);
        let mut sim = MultiChipSim::new(MultiChipConfig::small(4));
        sim.set_recording(false);
        session.run(&mut sim, warmup);
        sim.set_recording(true);
        session.run(&mut sim, 150);
        let trace = sim.finish(1);
        let compulsory = trace.count_class(MissClass::Compulsory) as f64;
        compulsory / trace.len().max(1) as f64
    };
    let cold = run(0);
    let warm = run(400);
    assert!(
        warm < cold,
        "warmup must reduce compulsory share (cold {cold:.3}, warm {warm:.3})"
    );
}

#[test]
fn read_paths_account_for_every_read() {
    // Every read is either answered silently by a cache hit or probes
    // its block record, and both simulators export the split (plus the
    // block table's size) under their labelled prefix.
    let stream = |w: Workload, cpus: u32| {
        let mut accesses: Vec<MemoryAccess> = Vec::new();
        WorkloadSession::new(w, cpus, 7).run(&mut accesses, 150);
        let reads = accesses
            .iter()
            .filter(|a| a.kind == AccessKind::Read)
            .count() as u64;
        (accesses, reads)
    };
    for w in [Workload::Oltp, Workload::Apache] {
        let registry = Registry::new();
        let (accesses, mc_reads) = stream(w, 16);
        let mut mc = MultiChipSim::new(MultiChipConfig::paper());
        mc.run(&accesses);
        mc.export_obsv(&registry, "sim/w/multi_chip");
        let (accesses, sc_reads) = stream(w, 4);
        let mut sc = SingleChipSim::new(SingleChipConfig::paper());
        sc.run(&accesses);
        sc.export_obsv(&registry, "sim/w/single_chip");
        for (ctx, reads) in [("multi_chip", mc_reads), ("single_chip", sc_reads)] {
            let prefix = format!("sim/w/{ctx}");
            let silent = registry
                .counter(&format!("{prefix}/reads/silent_hits"))
                .get();
            let probed = registry.counter(&format!("{prefix}/reads/probed")).get();
            assert_eq!(silent + probed, reads, "{w:?} {ctx}");
            assert!(
                silent > 0 && probed > 0,
                "{w:?} {ctx}: {silent} silent, {probed} probed"
            );
            let bytes = registry.gauge(&format!("{prefix}/block_table/bytes")).get();
            assert!(bytes > 0, "{w:?} {ctx}: empty block table");
        }
    }
}

#[test]
fn origin_table_matches_manual_join() {
    // Rebuild an origin table by hand from a collected trace and compare.
    let mut session = WorkloadSession::new(Workload::Oltp, 4, 2);
    let mut sim = MultiChipSim::new(MultiChipConfig::small(4));
    session.run(&mut sim, 100);
    let trace = sim.finish(1);
    let symbols = session.into_symbols();
    let analysis = StreamAnalysis::of_trace(&trace);
    let table = OriginTable::build(
        trace.records(),
        analysis.labels(),
        &symbols,
        tempstream_trace::AppClass::Oltp,
    );
    // Manual totals.
    let mut by_cat = std::collections::HashMap::new();
    for r in trace.records() {
        *by_cat.entry(symbols.category(r.function)).or_insert(0u64) += 1;
    }
    for row in &table.rows {
        if let Some(&n) = by_cat.get(&row.category) {
            assert_eq!(row.misses, n, "{}", row.category);
        }
    }
}

#[test]
fn stride_and_stream_labels_align_with_trace() {
    let mut session = WorkloadSession::new(Workload::DssQ1, 2, 9);
    let mut sim = SingleChipSim::new(SingleChipConfig::small(2));
    session.run(&mut sim, 60);
    let traces = sim.finish(1);
    let analysis = StreamAnalysis::of_trace(&traces.off_chip);
    let strides = StrideDetector::of_trace(&traces.off_chip);
    assert_eq!(analysis.labels().len(), traces.off_chip.len());
    assert_eq!(strides.flags().len(), traces.off_chip.len());
    // DSS scans must show a healthy strided fraction.
    assert!(
        strides.strided_fraction() > 0.2,
        "DSS scan should be heavily strided, got {:.3}",
        strides.strided_fraction()
    );
}

#[test]
fn report_formatters_render_real_results() {
    let r = run_one(quick(), Workload::Apache);
    let s1 = format_origin_table(&r.multi_chip.streams.origins);
    assert!(s1.contains("Kernel STREAMS subsystem"));
    assert!(s1.contains("Overall % in streams"));
    let s2 = format_length_cdf(&r.multi_chip.streams.length_cdf);
    assert!(s2.contains("median stream length"));
    let s3 = format_reuse_pdf(&r.multi_chip.streams.reuse_pdf);
    assert!(s3.contains("dist ~10^0"));
    assert!(!r.multi_chip.breakdown.to_string().is_empty());
    assert!(!r.intra_chip.breakdown.to_string().is_empty());
}

#[test]
fn run_all_covers_six_workloads() {
    let mut cfg = quick();
    cfg.scale_override = Some(Scale {
        warmup_ops: 10,
        ops: 60,
    });
    let all = run(cfg, &Workload::ALL);
    assert_eq!(all.len(), 6);
    let names: Vec<_> = all.iter().map(|r| r.workload.name()).collect();
    assert_eq!(
        names,
        vec!["Apache", "Zeus", "DB2", "Qry1", "Qry2", "Qry17"]
    );
}
