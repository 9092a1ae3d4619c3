//! Pipeline scaling: the quick-configuration reproduction run at 1, 2,
//! and 4 worker threads, with one worker as the baseline the speedup is
//! measured against. The pool clamps workers to the host's cores.

use std::hint::black_box;
use tempstream_bench::harness::{criterion_group, criterion_main, Criterion};
use tempstream_core::ExperimentConfig;
use tempstream_runtime::{run_workloads, RuntimeConfig};
use tempstream_workloads::Workload;

const WORKLOADS: [Workload; 3] = [Workload::Apache, Workload::Oltp, Workload::DssQ2];

fn runtime_scaling(c: &mut Criterion) {
    let cfg = ExperimentConfig::quick();
    let mut g = c.benchmark_group("runtime_scaling");
    g.sample_size(10).baseline("parallel/1w");

    for workers in [1usize, 2, 4] {
        g.bench_function(format!("parallel/{workers}w"), |b| {
            b.iter(|| {
                let (results, summary) =
                    run_workloads(&cfg, RuntimeConfig::with_workers(workers), &WORKLOADS);
                black_box((results.len(), summary.wall))
            });
        });
    }
    g.finish();
}

criterion_group!(benches, runtime_scaling);
criterion_main!(benches);
