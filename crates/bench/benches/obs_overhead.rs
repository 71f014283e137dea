//! Criterion bench: observability overhead on the PPSFP hot loop.
//!
//! The `dft-obs` design promise is that a [`NullCollector`] costs
//! nothing: engines batch counts in local integers and flush once per
//! run, so the observed path differs from the plain path only by an
//! `Option` check outside the hot loop. This bench times both paths and
//! — beyond the usual eyeball numbers — *asserts* the contract: the
//! minimum-of-N observed time must be within 3% of the plain time.
//! Minimum (not mean/median) because overhead is a one-sided question —
//! scheduler noise only ever adds time, so the fastest sample of each
//! variant is the fairest comparison and the most stable in CI.

use criterion::{criterion_group, criterion_main, Criterion};
use dft_fault::{universe, FaultSimEngine, PpsfpEngine, PpsfpOptions};
use dft_netlist::circuits::random_combinational;
use dft_obs::NullCollector;
use dft_sim::PatternSet;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

const MAX_OVERHEAD: f64 = 0.03;

fn bench_obs_overhead(c: &mut Criterion) {
    let n = random_combinational(16, 300, 5);
    let faults = universe(&n);
    let mut rng = StdRng::seed_from_u64(3);
    let patterns = PatternSet::random(16, 256, &mut rng);
    // Single-threaded: thread scheduling jitter would swamp a 3% bound.
    let engine = PpsfpEngine {
        options: PpsfpOptions::new().with_threads(1),
    };

    let mut group = c.benchmark_group("obs_overhead");
    group.bench_function("ppsfp_plain", |b| {
        b.iter(|| engine.run(black_box(&n), black_box(&patterns), black_box(&faults)))
    });
    group.bench_function("ppsfp_null_collector", |b| {
        b.iter(|| {
            let mut null = NullCollector;
            engine.run_with(
                black_box(&n),
                black_box(&patterns),
                black_box(&faults),
                Some(&mut null),
            )
        })
    });
    group.finish();

    // The asserted measurement: interleave the two variants so drift
    // (thermal, frequency scaling) hits both equally, keep the minimum.
    for _ in 0..3 {
        let _ = engine.run(&n, &patterns, &faults);
    }
    let samples = 20;
    let (mut best_plain, mut best_null) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..samples {
        let t = Instant::now();
        let plain = engine.run(&n, &patterns, &faults).expect("levelizes");
        best_plain = best_plain.min(t.elapsed().as_secs_f64());

        let mut null = NullCollector;
        let t = Instant::now();
        let nulled = engine
            .run_with(&n, &patterns, &faults, Some(&mut null))
            .expect("levelizes");
        best_null = best_null.min(t.elapsed().as_secs_f64());
        assert_eq!(plain, nulled, "NullCollector changed the result");
    }
    let overhead = best_null / best_plain - 1.0;
    println!(
        "obs_overhead/assertion: plain {:.3} ms, null-collector {:.3} ms, overhead {:+.2}% (limit {:.0}%)",
        best_plain * 1e3,
        best_null * 1e3,
        overhead * 100.0,
        MAX_OVERHEAD * 100.0
    );
    assert!(
        overhead <= MAX_OVERHEAD,
        "NullCollector overhead {:.2}% exceeds the {:.0}% budget \
         (plain {best_plain:.6}s vs observed {best_null:.6}s)",
        overhead * 100.0,
        MAX_OVERHEAD * 100.0
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_obs_overhead
}
criterion_main!(benches);
