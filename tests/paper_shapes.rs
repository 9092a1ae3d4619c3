//! Shape tests: the paper's qualitative findings must hold on reduced
//! configurations that preserve the relevant footprint-to-cache ratios.
//!
//! These use small caches (4 KB L1 / 64 KB L2) and short runs so they are
//! viable under `cargo test`; the full-scale reproduction is exercised by
//! the `reproduce` binary and recorded in EXPERIMENTS.md.

use tempstream_coherence::{MultiChipConfig, SingleChipConfig};
use tempstream_core::experiment::{ExperimentConfig, WorkloadResults};
use tempstream_runtime::{run_workloads, RuntimeConfig};
use tempstream_trace::{MissCategory, MissClass};
use tempstream_workloads::{Scale, Workload};

fn shape_config() -> ExperimentConfig {
    ExperimentConfig {
        seed: 0xA11CE,
        multi_chip: MultiChipConfig::small(8),
        single_chip: SingleChipConfig::small(4),
        scale_override: Some(Scale {
            warmup_ops: 150,
            ops: 700,
        }),
        max_analysis_misses: 500_000,
    }
}

fn run_with(cfg: ExperimentConfig, w: Workload) -> WorkloadResults {
    run_workloads(&cfg, RuntimeConfig::with_workers(2), &[w])
        .0
        .remove(0)
}

fn run(w: Workload) -> WorkloadResults {
    run_with(shape_config(), w)
}

/// §4.1 / Figure 1: a single-chip multiprocessor captures all (non-I/O)
/// coherence traffic on chip — no off-chip coherence misses.
#[test]
fn no_off_chip_coherence_in_single_chip() {
    for w in [Workload::Apache, Workload::Oltp, Workload::DssQ2] {
        let r = run(w);
        assert_eq!(
            r.single_chip.breakdown.count(MissClass::Coherence),
            0,
            "{w}: single-chip off-chip coherence must be zero"
        );
        assert!(
            r.multi_chip.breakdown.count(MissClass::Coherence) > 0,
            "{w}: multi-chip must show coherence misses"
        );
    }
}

/// §4.1 / [3]: with larger L2 caches, capacity misses melt away and
/// coherence comes to dominate the multi-chip off-chip profile — the
/// effect that motivates the paper's large-L2 configuration.
#[test]
fn coherence_share_grows_with_l2_capacity() {
    // Compare coherence against replacement (capacity/conflict) misses:
    // compulsory misses depend only on the footprint, not the caches, so
    // they are excluded from the ratio.
    let ratio_with_l2 = |l2_kb: u64| {
        let mut cfg = shape_config();
        cfg.multi_chip.l2 = tempstream_cache::CacheConfig::new(l2_kb * 1024, 16);
        let r = run_with(cfg, Workload::Oltp);
        let coh = r.multi_chip.breakdown.count(MissClass::Coherence) as f64;
        let repl = r.multi_chip.breakdown.count(MissClass::Replacement) as f64;
        coh / (coh + repl)
    };
    let small = ratio_with_l2(64);
    let large = ratio_with_l2(8192);
    assert!(
        large > 1.5 * small,
        "coherence:replacement ratio must grow with L2: 64KB -> {small:.3}, 8MB -> {large:.3}"
    );
    assert!(
        large > 0.3,
        "8MB-L2 coherence:(coh+repl) ratio too small: {large:.3}"
    );
}

/// §4.2 / Figure 2: web serving is the most stream-heavy workload class
/// and DSS scans the least; the ordering web > oltp > dss-q1 holds in the
/// multi-chip context.
#[test]
fn stream_fraction_ordering_across_classes() {
    let web = run(Workload::Apache)
        .multi_chip
        .streams
        .stream_fraction
        .in_streams();
    let oltp = run(Workload::Oltp)
        .multi_chip
        .streams
        .stream_fraction
        .in_streams();
    let dss = run(Workload::DssQ1)
        .multi_chip
        .streams
        .stream_fraction
        .in_streams();
    assert!(
        web > oltp && oltp > dss,
        "expected web > oltp > dss, got web {web:.2}, oltp {oltp:.2}, dss {dss:.2}"
    );
    assert!(web > 0.5, "web must be mostly repetitive, got {web:.2}");
}

/// §4.1: DSS query 1 visits most data exactly once — compulsory plus I/O
/// coherence dominate its off-chip misses.
#[test]
fn dss_scan_is_one_touch() {
    let r = run(Workload::DssQ1);
    let b = &r.single_chip.breakdown;
    let one_touch = b.fraction(MissClass::Compulsory) + b.fraction(MissClass::IoCoherence);
    assert!(
        one_touch > 0.5,
        "Q1 compulsory+I/O share too small: {one_touch:.3}"
    );
}

/// §4.3 / Figure 3: DSS is far more stride-predictable than web serving
/// (bulk page copies and sequential scans vs pointer chasing).
#[test]
fn dss_is_strided_web_is_not() {
    let dss = run(Workload::DssQ1)
        .single_chip
        .streams
        .stride_joint
        .strided_fraction();
    let web = run(Workload::Zeus)
        .multi_chip
        .streams
        .stride_joint
        .strided_fraction();
    assert!(dss > 0.3, "DSS strided fraction too small: {dss:.3}");
    assert!(
        web < dss,
        "web ({web:.3}) must be less strided than DSS ({dss:.3})"
    );
}

/// §4.4 / Figure 4: streams are long — the weighted median exceeds the
/// 2-4 block fixed depths of prior prefetchers for the stream-heavy
/// workloads.
#[test]
fn streams_are_long() {
    for w in [Workload::Apache, Workload::Oltp] {
        let r = run(w);
        let median = r
            .multi_chip
            .streams
            .length_cdf
            .median()
            .expect("streams exist");
        assert!(median >= 4, "{w}: median stream length {median} too short");
        let max = r.multi_chip.streams.length_cdf.max_len().unwrap();
        assert!(max >= 30, "{w}: longest stream {max} too short");
    }
}

/// §4.5 / Figure 4 (right): coherence-dominated (multi-chip) reuse
/// distances are shorter than capacity-dominated (single-chip) ones.
#[test]
fn reuse_distance_center_of_mass_shifts() {
    let r = run(Workload::Oltp);
    let mc_short = r.multi_chip.streams.reuse_pdf.fraction_below(10_000);
    let sc_short = r.single_chip.streams.reuse_pdf.fraction_below(10_000);
    assert!(
        mc_short >= sc_short,
        "multi-chip short-distance mass ({mc_short:.3}) should be >= single-chip ({sc_short:.3})"
    );
}

/// §2.1 example two / §5: the Solaris dispatcher's queue scans produce
/// repetitive coherence misses; the scheduler category is essentially
/// fully repetitive in OLTP's multi-chip profile.
#[test]
fn scheduler_misses_are_repetitive() {
    let r = run(Workload::Oltp);
    let row = r
        .multi_chip
        .streams
        .origins
        .row(MissCategory::KernelScheduler)
        .expect("scheduler row");
    assert!(row.misses > 0, "scheduler must miss");
    assert!(
        row.stream_fraction() > 0.8,
        "scheduler repetition too low: {:.3}",
        row.stream_fraction()
    );
}

/// §5.1: `Perl_sv_gets` is the most repetitive function-level category —
/// nearly all of its misses repeat a prior stream.
#[test]
fn perl_input_parsing_is_extremely_repetitive() {
    let r = run(Workload::Apache);
    let row = r
        .multi_chip
        .streams
        .origins
        .row(MissCategory::CgiPerlInput)
        .expect("perl input row");
    assert!(row.misses > 0);
    assert!(
        row.stream_fraction() > 0.9,
        "Perl_sv_gets repetition too low: {:.3}",
        row.stream_fraction()
    );
}

/// §5.3: DSS bulk copies dominate its miss profile, and most are not
/// repetitive (buffers are not reused at trace time-scales).
#[test]
fn dss_copies_dominate_and_mostly_do_not_repeat() {
    let r = run(Workload::DssQ1);
    let row = r
        .single_chip
        .streams
        .origins
        .row(MissCategory::BulkMemoryCopy)
        .expect("copy row");
    let share = row.miss_share(r.single_chip.streams.origins.total_misses);
    assert!(share > 0.3, "DSS copy share too small: {share:.3}");
    assert!(
        row.stream_fraction() < 0.6,
        "DSS copies too repetitive: {:.3}",
        row.stream_fraction()
    );
}

/// §5 headline: no single category dominates the stream origins of web
/// and OLTP ("no obvious, dominant memory bottlenecks remain").
#[test]
fn origins_are_spread_for_web_and_oltp() {
    for w in [Workload::Apache, Workload::Oltp] {
        let r = run(w);
        let t = &r.multi_chip.streams.origins;
        let max_share = t
            .rows
            .iter()
            .map(|row| row.miss_share(t.total_misses))
            .fold(0.0, f64::max);
        assert!(
            max_share < 0.55,
            "{w}: one category holds {max_share:.2} of misses"
        );
    }
}

/// Figure 2's headline range: across workloads and contexts, a
/// substantial fraction (but never all) of misses occur in streams.
#[test]
fn stream_fractions_in_headline_range() {
    for w in [Workload::Zeus, Workload::Oltp, Workload::DssQ17] {
        let r = run(w);
        for (ctx, s) in [
            ("multi", r.multi_chip.streams.stream_fraction.in_streams()),
            ("single", r.single_chip.streams.stream_fraction.in_streams()),
            ("intra", r.intra_chip.streams.stream_fraction.in_streams()),
        ] {
            assert!(
                (0.05..=0.995).contains(&s),
                "{w}/{ctx}: stream fraction {s:.3} out of range"
            );
        }
    }
}
