//! Criterion bench: the combinational fault-simulation engines on one
//! workload (supports experiment E2's cost discussion — §I-B calls fault
//! simulation "a very time-consuming, and hence, expensive task"): the
//! serial reference against PPSFP. For the multi-circuit throughput
//! matrix use the `tessera-bench` binary.

use criterion::{criterion_group, criterion_main, Criterion};
use dft_fault::{ppsfp, simulate, universe};
use dft_netlist::circuits::random_combinational;
use dft_sim::PatternSet;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_engines(c: &mut Criterion) {
    let n = random_combinational(16, 300, 5);
    let faults = universe(&n);
    let mut rng = StdRng::seed_from_u64(3);
    let patterns = PatternSet::random(16, 64, &mut rng);

    let mut group = c.benchmark_group("fault_sim");
    group.bench_function("pattern_parallel", |b| {
        b.iter(|| simulate(black_box(&n), black_box(&patterns), black_box(&faults)))
    });
    group.bench_function("ppsfp", |b| {
        b.iter(|| ppsfp(black_box(&n), black_box(&patterns), black_box(&faults)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_engines
}
criterion_main!(benches);
