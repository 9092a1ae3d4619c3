//! SEQUITUR core throughput on synthetic inputs with known repetition
//! structure (the analysis's asymptotic cost driver), and on a real miss
//! trace at paper scale.
//!
//! The synthetic inputs are 100 k symbols: the builder's node arena and
//! digram index fit in a host L2, so they time the algorithm's compute
//! path. The paper-scale case pushes DB2's (OLTP) default-scale
//! multi-chip miss trace, capped at the analysis cap of 1.5 M misses as
//! the batch pipeline caps it; its index and arena are tens of MB, so it
//! also times the memory misses that index probes cost at that size.

use std::hint::black_box;
use tempstream_bench::harness::{criterion_group, criterion_main, Criterion, Throughput};
use tempstream_core::{stages, ExperimentConfig};
use tempstream_sequitur::Sequitur;
use tempstream_trace::rng::SmallRng;
use tempstream_workloads::Workload;

fn inputs() -> Vec<(&'static str, Vec<u64>)> {
    let n = 100_000usize;
    let mut rng = SmallRng::seed_from_u64(17);
    let periodic: Vec<u64> = (0..n).map(|i| (i % 64) as u64).collect();
    let random_small: Vec<u64> = (0..n).map(|_| rng.gen_range(0..256)).collect();
    let random_large: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1_000_000)).collect();
    // Miss-trace-like: repeated bursts (streams) separated by noise.
    let mut bursty = Vec::with_capacity(n);
    let streams: Vec<Vec<u64>> = (0..32)
        .map(|s| (0..24).map(|i| 1_000_000 + s * 1_000 + i).collect())
        .collect();
    while bursty.len() < n {
        if rng.gen_ratio(3, 5) {
            bursty.extend(&streams[rng.gen_range(0..streams.len())]);
        } else {
            for _ in 0..8 {
                bursty.push(rng.gen_range(0..1_000_000));
            }
        }
    }
    bursty.truncate(n);
    vec![
        ("periodic", periodic),
        ("random_small_alphabet", random_small),
        ("random_large_alphabet", random_large),
        ("bursty_streams", bursty),
    ]
}

/// DB2's paper-scale multi-chip miss-block sequence, capped as the
/// batch pipeline caps it before SEQUITUR.
fn db2_paper_trace() -> Vec<u64> {
    let cfg = ExperimentConfig::paper();
    let (trace, _symbols) = stages::collect_multi_chip(&cfg, Workload::Oltp);
    stages::cap(trace.records(), cfg.max_analysis_misses)
        .iter()
        .map(|r| r.block.raw())
        .collect()
}

fn sequitur_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("sequitur");
    g.sample_size(10);
    let db2 = db2_paper_trace();
    let paper = [(format!("db2_multi_chip_paper/{}sym", db2.len()), db2)];
    let synthetic = inputs()
        .into_iter()
        .map(|(name, input)| (name.to_string(), input));
    for (name, input) in synthetic.chain(paper) {
        g.throughput(Throughput::Elements(input.len() as u64));
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut s = Sequitur::with_capacity(input.len());
                s.extend(input.iter().copied());
                black_box(s.into_grammar().rule_count())
            });
        });
    }
    g.finish();
}

criterion_group!(benches, sequitur_throughput);
criterion_main!(benches);
