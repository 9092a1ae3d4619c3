//! Memory-system simulator throughput (accesses per second) on a
//! pre-generated access stream, on the paper's systems: the 16-node
//! DSM over a 16-CPU stream and the 4-core CMP over a 4-CPU stream.
//!
//! Two streams per system:
//!
//! - a 300-op OLTP stream (~0.3 M accesses), whose per-block state fits
//!   in a host L2: it times the simulators' compute path;
//! - DSS Qry1 at its default scale (warmup plus measured ops, ~4.2 M
//!   accesses over ~1.6 M distinct blocks), whose per-block state is
//!   tens of MB: it also times the memory misses that per-block lookups
//!   cost at the footprints the paper-scale runs see.

use std::hint::black_box;
use tempstream_bench::harness::{
    criterion_group, criterion_main, BenchmarkGroup, Criterion, Throughput,
};
use tempstream_coherence::{MultiChipConfig, MultiChipSim, SingleChipConfig, SingleChipSim};
use tempstream_trace::MemoryAccess;
use tempstream_workloads::{Workload, WorkloadSession};

fn generate(w: Workload, cpus: u32, ops: u64) -> Vec<MemoryAccess> {
    let mut out: Vec<MemoryAccess> = Vec::new();
    let mut session = WorkloadSession::new(w, cpus, 1);
    session.run(&mut out, ops);
    out
}

/// Times both simulators on `w`'s stream of `ops` operations, naming
/// each case `{system}_paper/{label}{accesses}acc`. Each stream is
/// generated just before its cases and dropped after them.
fn bench_streams(g: &mut BenchmarkGroup<'_>, w: Workload, ops: u64, label: &str) {
    let paper = MultiChipConfig::paper();
    let accesses = generate(w, paper.nodes, ops);
    g.throughput(Throughput::Elements(accesses.len() as u64));
    g.bench_function(
        format!("multi_chip_paper/{label}{}acc", accesses.len()),
        |b| {
            b.iter(|| {
                let mut sim = MultiChipSim::new(paper);
                sim.run(accesses.iter());
                black_box(sim.miss_count())
            });
        },
    );
    drop(accesses);
    let accesses = generate(w, SingleChipConfig::paper().cores, ops);
    g.throughput(Throughput::Elements(accesses.len() as u64));
    g.bench_function(
        format!("single_chip_paper/{label}{}acc", accesses.len()),
        |b| {
            b.iter(|| {
                let mut sim = SingleChipSim::new(SingleChipConfig::paper());
                sim.run(accesses.iter());
                let t = sim.finish(1);
                black_box(t.off_chip.len() + t.intra_chip.len())
            });
        },
    );
}

fn simulator_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator");
    g.sample_size(10);
    bench_streams(&mut g, Workload::Oltp, 300, "");
    let qry1 = Workload::DssQ1.default_scale();
    bench_streams(
        &mut g,
        Workload::DssQ1,
        qry1.warmup_ops + qry1.ops,
        "qry1_default/",
    );
    g.finish();
}

criterion_group!(benches, simulator_throughput);
criterion_main!(benches);
