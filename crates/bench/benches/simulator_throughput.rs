//! Memory-system simulator throughput (accesses per second) on a
//! pre-generated access stream, on the paper's systems: the 16-node
//! DSM over a 16-CPU stream and the 4-core CMP over a 4-CPU stream.

use std::hint::black_box;
use tempstream_bench::harness::{criterion_group, criterion_main, Criterion, Throughput};
use tempstream_coherence::{MultiChipConfig, MultiChipSim, SingleChipConfig, SingleChipSim};
use tempstream_trace::MemoryAccess;
use tempstream_workloads::{Workload, WorkloadSession};

fn generate(w: Workload, cpus: u32, ops: u64) -> Vec<MemoryAccess> {
    let mut out: Vec<MemoryAccess> = Vec::new();
    let mut session = WorkloadSession::new(w, cpus, 1);
    session.run(&mut out, ops);
    out
}

fn simulator_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator");
    g.sample_size(10);
    let paper = MultiChipConfig::paper();
    let accesses = generate(Workload::Oltp, paper.nodes, 300);
    g.throughput(Throughput::Elements(accesses.len() as u64));
    g.bench_function(format!("multi_chip_paper/{}acc", accesses.len()), |b| {
        b.iter(|| {
            let mut sim = MultiChipSim::new(paper);
            sim.run(accesses.iter());
            black_box(sim.miss_count())
        });
    });
    let accesses4 = generate(Workload::Oltp, SingleChipConfig::paper().cores, 300);
    g.throughput(Throughput::Elements(accesses4.len() as u64));
    g.bench_function(format!("single_chip_paper/{}acc", accesses4.len()), |b| {
        b.iter(|| {
            let mut sim = SingleChipSim::new(SingleChipConfig::paper());
            sim.run(accesses4.iter());
            let t = sim.finish(1);
            black_box(t.off_chip.len() + t.intra_chip.len())
        });
    });
    g.finish();
}

criterion_group!(benches, simulator_throughput);
criterion_main!(benches);
