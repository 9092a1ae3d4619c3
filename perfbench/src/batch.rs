//! The batch characterization: the product path (`run_workloads`), its
//! result checks, and a layer-by-layer replica with a timer around each
//! crate's public calls.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tempstream_coherence::{MultiChipSim, SingleChipSim};
use tempstream_core::experiment::{
    ExperimentConfig, IntraChipResults, OffChipResults, StreamResults, WorkloadResults,
};
use tempstream_core::report::{IntraClassBreakdown, MissClassBreakdown, StreamFractionReport};
use tempstream_core::stages::{self, PhasedSink, StreamsPartial};
use tempstream_core::StreamAnalysis;
use tempstream_runtime::RuntimeConfig;
use tempstream_sequitur::Sequitur;
use tempstream_trace::miss::MissRecord;
use tempstream_trace::sink::AccessSink;
use tempstream_trace::{IntraChipClass, MemoryAccess, MissClass, MissTrace, SymbolTable};
use tempstream_workloads::{Scale, Workload};

use crate::report::Report;

/// Worker threads of the characterization (the host's two cores).
pub const WORKERS: usize = 2;

/// Accesses the split emit/simulate sink buffers before each flush.
const FLUSH_ACCESSES: usize = 1 << 16;

/// The paper's systems at default scale.
pub fn paper_config(seed: u64) -> ExperimentConfig {
    ExperimentConfig::paper().with_seed(seed)
}

/// The paper's systems at smoke scale: the set-up warm-up.
pub fn warmup_config(seed: u64) -> ExperimentConfig {
    paper_config(seed).with_scale(Scale {
        warmup_ops: 20,
        ops: 150,
    })
}

/// One product run: all of `workloads` through the runtime's job DAG.
pub fn characterize(cfg: &ExperimentConfig, workloads: &[Workload]) -> Vec<WorkloadResults> {
    tempstream_runtime::run_workloads(cfg, RuntimeConfig::with_workers(WORKERS), workloads).0
}

/// FNV-1a over the results' `Debug` text, which prints every counter
/// and every float exactly: equal digests mean bit-identical results.
pub fn digest(results: &[WorkloadResults]) -> u64 {
    format!("{results:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Checks the invariants of every context of every workload; each
/// check counts as one attempted operation.
pub fn check_results(results: &[WorkloadResults], cap: usize, report: &mut Report) {
    for w in results {
        let name = w.workload.name();
        let mc = &w.multi_chip;
        let sc = &w.single_chip;
        let ic = &w.intra_chip;
        let mc_classes = MissClass::ALL.iter().map(|&c| mc.breakdown.count(c)).sum();
        let sc_classes = MissClass::ALL.iter().map(|&c| sc.breakdown.count(c)).sum();
        let ic_classes = IntraChipClass::ALL
            .iter()
            .map(|&c| ic.breakdown.count(c))
            .sum();
        for (context, streams, total, breakdown_total, class_sum) in [
            (
                "multi_chip",
                &mc.streams,
                mc.total_misses,
                mc.breakdown.total(),
                mc_classes,
            ),
            (
                "single_chip",
                &sc.streams,
                sc.total_misses,
                sc.breakdown.total(),
                sc_classes,
            ),
            (
                "intra_chip",
                &ic.streams,
                ic.total_misses,
                ic.breakdown.total(),
                ic_classes,
            ),
        ] {
            let at = format!("{name}/{context}");
            check_context(&at, streams, total, breakdown_total, class_sum, cap, report);
        }
    }
}

fn check_context(
    at: &str,
    s: &StreamResults,
    total_misses: usize,
    breakdown_total: u64,
    class_sum: u64,
    cap: usize,
    report: &mut Report,
) {
    let analyzed = s.analyzed_misses as u64;
    report.check(
        analyzed == total_misses.min(cap) as u64 && analyzed > 0,
        || format!("{at}: analyzed {analyzed} of {total_misses} misses (cap {cap})"),
    );
    report.check(s.stream_fraction.total() == analyzed, || {
        format!(
            "{at}: stream labels total {} != analyzed {analyzed}",
            s.stream_fraction.total()
        )
    });
    let rows: u64 = s.origins.rows.iter().map(|r| r.misses).sum();
    report.check(rows == s.origins.total_misses && rows == analyzed, || {
        format!(
            "{at}: origin rows sum {rows}, table total {}, analyzed {analyzed}",
            s.origins.total_misses
        )
    });
    report.check(s.stride_joint.total() == analyzed, || {
        format!(
            "{at}: stride joint total {} != analyzed {analyzed}",
            s.stride_joint.total()
        )
    });
    report.check(
        class_sum == total_misses as u64 && breakdown_total == total_misses as u64,
        || format!("{at}: class counts sum {class_sum}, breakdown {breakdown_total}, misses {total_misses}"),
    );
}

/// A simulator the split sink can flush a buffered batch into.
pub trait Simulator: PhasedSink {
    /// Simulates `batch` in order.
    fn run_batch(&mut self, batch: &[MemoryAccess]);
}

impl Simulator for MultiChipSim {
    fn run_batch(&mut self, batch: &[MemoryAccess]) {
        self.run(batch);
    }
}

impl Simulator for SingleChipSim {
    fn run_batch(&mut self, batch: &[MemoryAccess]) {
        self.run(batch);
    }
}

/// Buffers the emitted access stream and flushes it into a simulator
/// under a timer, so emit time and simulate time separate without
/// changing what the simulator sees.
pub struct SplitSink<'a, S: Simulator> {
    sim: &'a mut S,
    buf: Vec<MemoryAccess>,
    /// Time spent inside the simulator.
    pub sim_time: Duration,
    /// Accesses handed to the simulator.
    pub accesses: u64,
}

impl<'a, S: Simulator> SplitSink<'a, S> {
    /// A sink feeding `sim`.
    pub fn new(sim: &'a mut S) -> Self {
        SplitSink {
            sim,
            buf: Vec::with_capacity(FLUSH_ACCESSES),
            sim_time: Duration::ZERO,
            accesses: 0,
        }
    }

    /// Simulates everything buffered so far.
    pub fn flush(&mut self) {
        let t = Instant::now();
        self.sim.run_batch(&self.buf);
        self.sim_time += t.elapsed();
        self.accesses += self.buf.len() as u64;
        self.buf.clear();
    }
}

impl<S: Simulator> AccessSink for SplitSink<'_, S> {
    fn access(&mut self, access: &MemoryAccess) {
        self.buf.push(*access);
        if self.buf.len() == FLUSH_ACCESSES {
            self.flush();
        }
    }
}

impl<S: Simulator> PhasedSink for SplitSink<'_, S> {
    fn begin_measurement(&mut self) {
        self.flush();
        self.sim.begin_measurement();
    }
}

/// Emits `workload` into `sim` through a [`SplitSink`]; returns the
/// measured instruction count and symbols plus (emit, simulate) time
/// and the access count.
pub fn emit_split<S: Simulator>(
    cfg: &ExperimentConfig,
    workload: Workload,
    num_cpus: u32,
    sim: &mut S,
) -> (stages::EmitOutput, Duration, Duration, u64) {
    let t = Instant::now();
    let mut sink = SplitSink::new(sim);
    let out = stages::emit_workload(
        workload,
        num_cpus,
        cfg.seed,
        stages::scale_for(cfg, workload),
        &mut sink,
    );
    sink.flush();
    let total = t.elapsed();
    (
        out,
        total.saturating_sub(sink.sim_time),
        sink.sim_time,
        sink.accesses,
    )
}

/// Time and work per layer, summed over every job of a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTimes {
    /// `workloads`: building sessions and emitting accesses.
    pub emit: Duration,
    /// Accesses emitted (both systems).
    pub accesses: u64,
    /// `coherence`: the 16-node DSM simulator.
    pub multi_chip: Duration,
    /// `coherence`: the 4-core CMP simulator.
    pub single_chip: Duration,
    /// Off-chip misses of the DSM.
    pub misses_multi_chip: u64,
    /// Off-chip misses of the CMP.
    pub misses_single_chip: u64,
    /// On-chip-satisfied L1 misses of the CMP.
    pub misses_intra_chip: u64,
    /// `sequitur`: pushing every analyzed miss and closing the grammar.
    pub push: Duration,
    /// Symbols pushed.
    pub symbols: u64,
    /// Grammar rules built.
    pub rules: u64,
    /// `core`: the root walk and the label-derived reports.
    pub walk: Duration,
    /// `core`: stride detection.
    pub strides: Duration,
    /// `core`: origin attribution.
    pub origins: Duration,
    /// `core`: per-function attribution.
    pub functions: Duration,
}

impl LayerTimes {
    fn add(&mut self, o: &LayerTimes) {
        self.emit += o.emit;
        self.accesses += o.accesses;
        self.multi_chip += o.multi_chip;
        self.single_chip += o.single_chip;
        self.misses_multi_chip += o.misses_multi_chip;
        self.misses_single_chip += o.misses_single_chip;
        self.misses_intra_chip += o.misses_intra_chip;
        self.push += o.push;
        self.symbols += o.symbols;
        self.rules += o.rules;
        self.walk += o.walk;
        self.strides += o.strides;
        self.origins += o.origins;
        self.functions += o.functions;
    }

    /// Serial time of every timed layer.
    pub fn busy(&self) -> Duration {
        self.emit
            + self.multi_chip
            + self.single_chip
            + self.push
            + self.walk
            + self.strides
            + self.origins
            + self.functions
    }
}

/// The stream analyses of one context, each layer under its own timer.
fn analyze_context<C: Copy>(
    trace: &MissTrace<C>,
    symbols: &SymbolTable,
    workload: Workload,
    cap: usize,
    t: &mut LayerTimes,
) -> StreamResults {
    let records = stages::cap(trace.records(), cap);
    let num_cpus = trace.num_cpus();

    let start = Instant::now();
    let mut seq = Sequitur::with_capacity(records.len());
    for r in records {
        seq.push(r.block.raw());
    }
    let grammar = seq.into_grammar();
    t.push += start.elapsed();
    t.symbols += records.len() as u64;
    t.rules += grammar.rule_count() as u64;

    let start = Instant::now();
    let analysis = StreamAnalysis::of_grammar(&grammar, records, num_cpus);
    let (non_repetitive, new_stream, recurring_stream) = analysis.label_counts();
    let streams = StreamsPartial {
        stream_fraction: StreamFractionReport {
            non_repetitive,
            new_stream,
            recurring_stream,
        },
        labels: Arc::new(analysis.labels().to_vec()),
        length_cdf: analysis.length_cdf(),
        reuse_pdf: analysis.reuse_distance_pdf(),
        distinct_streams: analysis.distinct_streams(),
    };
    drop(grammar);
    t.walk += start.elapsed();

    let start = Instant::now();
    let flags = stages::analyze_strides(records, num_cpus);
    t.strides += start.elapsed();

    let start = Instant::now();
    let origins = stages::analyze_origins(records, &streams.labels, symbols, workload);
    t.origins += start.elapsed();

    let start = Instant::now();
    let functions = stages::analyze_functions(records, &streams.labels, symbols);
    t.functions += start.elapsed();

    stages::assemble_stream_results(streams, &flags, origins, functions, records.len())
}

/// What one layered job produced.
enum JobOut {
    Multi(Box<OffChipResults>, Option<Vec<MissRecord<MissClass>>>),
    Single(Box<(OffChipResults, IntraChipResults)>),
}

fn run_job(cfg: &ExperimentConfig, workload: Workload, multi: bool, t: &mut LayerTimes) -> JobOut {
    let cap = cfg.max_analysis_misses;
    if multi {
        let mut sim = MultiChipSim::new(cfg.multi_chip);
        sim.set_recording(false);
        let (out, emit, simulate, accesses) =
            emit_split(cfg, workload, cfg.multi_chip.nodes, &mut sim);
        let start = Instant::now();
        let trace = sim.finish(out.instructions);
        t.multi_chip += simulate + start.elapsed();
        t.emit += emit;
        t.accesses += accesses;
        t.misses_multi_chip += trace.len() as u64;
        let results = OffChipResults {
            breakdown: MissClassBreakdown::of_trace(&trace),
            total_misses: trace.len(),
            streams: analyze_context(&trace, &out.symbols, workload, cap, t),
        };
        let kept = (workload == Workload::Oltp).then(|| trace.records().to_vec());
        JobOut::Multi(Box::new(results), kept)
    } else {
        let mut sim = SingleChipSim::new(cfg.single_chip);
        sim.set_recording(false);
        let (out, emit, simulate, accesses) =
            emit_split(cfg, workload, cfg.single_chip.cores, &mut sim);
        let start = Instant::now();
        let traces = sim.finish(out.instructions);
        t.single_chip += simulate + start.elapsed();
        t.emit += emit;
        t.accesses += accesses;
        t.misses_single_chip += traces.off_chip.len() as u64;
        t.misses_intra_chip += traces.intra_chip.len() as u64;
        let off = OffChipResults {
            breakdown: MissClassBreakdown::of_trace(&traces.off_chip),
            total_misses: traces.off_chip.len(),
            streams: analyze_context(&traces.off_chip, &out.symbols, workload, cap, t),
        };
        let intra = IntraChipResults {
            breakdown: IntraClassBreakdown::of_trace(&traces.intra_chip),
            total_misses: traces.intra_chip.len(),
            streams: analyze_context(&traces.intra_chip, &out.symbols, workload, cap, t),
        };
        JobOut::Single(Box::new((off, intra)))
    }
}

/// The layered replica of [`characterize`].
pub struct Layered {
    /// Results, in `workloads` order (must equal the product's).
    pub results: Vec<WorkloadResults>,
    /// Per-layer time and work, summed over all jobs.
    pub times: LayerTimes,
    /// The DB2 multi-chip miss trace, when DB2 was among the workloads.
    pub db2_multi_chip: Option<Vec<MissRecord<MissClass>>>,
}

/// Runs every (workload, system) job on [`WORKERS`] threads with each
/// layer's calls timed separately.
pub fn layered(cfg: &ExperimentConfig, workloads: &[Workload]) -> Layered {
    let jobs: Vec<(usize, bool)> = (0..workloads.len())
        .flat_map(|i| [(i, true), (i, false)])
        .collect();
    let next = AtomicUsize::new(0);
    let outs: Mutex<Vec<Option<JobOut>>> = Mutex::new((0..jobs.len()).map(|_| None).collect());
    let total = Mutex::new(LayerTimes::default());
    std::thread::scope(|s| {
        for _ in 0..WORKERS {
            s.spawn(|| loop {
                let j = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(w, multi)) = jobs.get(j) else {
                    break;
                };
                let mut t = LayerTimes::default();
                let out = run_job(cfg, workloads[w], multi, &mut t);
                total.lock().expect("layer totals poisoned").add(&t);
                outs.lock().expect("job outputs poisoned")[j] = Some(out);
            });
        }
    });
    let mut outs = outs
        .into_inner()
        .expect("job outputs poisoned")
        .into_iter()
        .map(|o| o.expect("every job ran"));
    let mut db2_multi_chip = None;
    let mut results = Vec::with_capacity(workloads.len());
    for &workload in workloads {
        let (Some(JobOut::Multi(multi_chip, kept)), Some(JobOut::Single(single))) =
            (outs.next(), outs.next())
        else {
            unreachable!("jobs alternate multi-chip and single-chip");
        };
        let (single_chip, intra_chip) = *single;
        if kept.is_some() {
            db2_multi_chip = kept;
        }
        results.push(WorkloadResults {
            workload,
            multi_chip: *multi_chip,
            single_chip,
            intra_chip,
        });
    }
    Layered {
        results,
        times: total.into_inner().expect("layer totals poisoned"),
        db2_multi_chip,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExperimentConfig {
        ExperimentConfig::quick()
    }

    #[test]
    fn layered_results_match_the_runtime() {
        let cfg = quick();
        let workloads = [Workload::Oltp, Workload::DssQ2];
        let product = characterize(&cfg, &workloads);
        let layered = layered(&cfg, &workloads);
        assert_eq!(digest(&layered.results), digest(&product));
        let mut report = Report::default();
        check_results(&product, cfg.max_analysis_misses, &mut report);
        assert!(report.correct(), "{:?}", report.failures());
        let t = layered.times;
        assert!(t.accesses > 0 && t.symbols > 0 && t.rules > 0);
        assert_eq!(
            t.misses_multi_chip,
            product
                .iter()
                .map(|w| w.multi_chip.total_misses as u64)
                .sum::<u64>()
        );
        assert!(layered.db2_multi_chip.is_some());
    }

    /// A simulator that discards every batch: emitting into it through
    /// a [`SplitSink`] costs what emitting and buffering alone cost.
    struct NullSim;

    impl AccessSink for NullSim {
        fn access(&mut self, _: &MemoryAccess) {}
    }

    impl PhasedSink for NullSim {
        fn begin_measurement(&mut self) {}
    }

    impl Simulator for NullSim {
        fn run_batch(&mut self, batch: &[MemoryAccess]) {
            std::hint::black_box(batch);
        }
    }

    /// The split puts each share of the fused stage's time where it
    /// belongs: emit time matches an emit into a simulator that does
    /// nothing, emit plus simulate time matches the fused stage, and the
    /// miss trace is unchanged. Runs alternate so host drift hits all
    /// three alike.
    #[test]
    fn split_emit_and_simulate_add_up_to_the_fused_stage() {
        let cfg = quick().with_scale(Scale {
            warmup_ops: 100,
            ops: 1500,
        });
        let w = Workload::Apache;
        let (mut fused, mut split, mut emits, mut emit_only) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for _ in 0..7 {
            let start = Instant::now();
            let (fused_trace, _) = stages::collect_multi_chip(&cfg, w);
            fused.push(start.elapsed().as_secs_f64());

            let mut sim = MultiChipSim::new(cfg.multi_chip);
            sim.set_recording(false);
            let (out, emit, simulate, _) = emit_split(&cfg, w, cfg.multi_chip.nodes, &mut sim);
            let trace = sim.finish(out.instructions);
            split.push((emit + simulate).as_secs_f64());
            emits.push(emit.as_secs_f64());
            assert_eq!(
                trace.records(),
                fused_trace.records(),
                "split changed the trace"
            );

            let (_, emit, _, _) = emit_split(&cfg, w, cfg.multi_chip.nodes, &mut NullSim);
            emit_only.push(emit.as_secs_f64());
        }
        let m = crate::stats::median;
        let (fused, split, emit, emit_only) = (m(&fused), m(&split), m(&emits), m(&emit_only));
        let gap = (split - fused).abs() / fused;
        assert!(gap < 0.15, "emit+simulate {split:.4}s vs fused {fused:.4}s");
        let ratio = emit / emit_only;
        assert!(
            (0.67..1.5).contains(&ratio),
            "emit {emit:.4}s vs emit alone {emit_only:.4}s"
        );
    }
}
