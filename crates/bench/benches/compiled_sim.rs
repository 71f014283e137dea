//! Criterion bench: compiled-code simulation vs a levelized graph walk
//! ("compiled code Boolean simulation", §IV-A). The walk is
//! [`FaultyView::eval_block`] with no fault injected — the serial fault
//! simulator's per-gate traversal of the netlist.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dft_fault::FaultyView;
use dft_netlist::circuits::random_combinational;
use dft_sim::{CompiledSim, PatternSet};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_compiled(c: &mut Criterion) {
    let n = random_combinational(24, 2000, 9);
    let mut rng = StdRng::seed_from_u64(5);
    let patterns = PatternSet::random(24, 512, &mut rng);
    let walk = FaultyView::new(&n).unwrap();
    let compiled = CompiledSim::new(&n).unwrap();

    let mut group = c.benchmark_group("simulation_2000gates_512patterns");
    group.throughput(Throughput::Elements(512));
    group.bench_function("levelized_graph_walk", |b| {
        b.iter(|| {
            (0..patterns.block_count())
                .map(|blk| walk.eval_block(black_box(patterns.block(blk)), &[], None))
                .collect::<Vec<_>>()
        })
    });
    group.bench_function("compiled_straight_line", |b| {
        b.iter(|| compiled.run(black_box(&patterns)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_compiled
}
criterion_main!(benches);
