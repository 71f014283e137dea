//! Criterion bench: wide-word kernel sweep throughput across lane
//! widths.
//!
//! Sweeps the same 1024 patterns through the compiled [`Kernel`] at
//! every supported lane width (64 / 256 / 512 lanes per wide block),
//! flat and cache-blocked (band-major, [`Kernel::level_bands`]). Wider
//! blocks amortize per-op dispatch — kind match, CSR operand walk,
//! destination write — over `W` words of straight-line vector work;
//! banding keeps a band's value slots L1-resident across pattern
//! blocks instead of streaming the whole netlist state once per block.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dft_netlist::circuits::random_combinational;
use dft_sim::{Kernel, PatternSet};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

const PATTERNS: usize = 1024;

/// Packs the pattern set into wide PI groups: `pi[i][w]` is input `i`'s
/// word for narrow block `g*W + w` (the layout the fault engines use).
fn pack<const W: usize>(patterns: &PatternSet) -> Vec<Vec<[u64; W]>> {
    let nb = patterns.block_count();
    (0..nb.div_ceil(W))
        .map(|g| {
            let mut pis = vec![[0u64; W]; patterns.input_count()];
            for (w, b) in (g * W..(g * W + W).min(nb)).enumerate() {
                for (i, &word) in patterns.block(b).iter().enumerate() {
                    pis[i][w] = word;
                }
            }
            pis
        })
        .collect()
}

/// One full sweep of every wide group, flat or band-major. Returns the
/// value arrays so the result stays observable.
fn sweep<const W: usize>(
    kernel: &Kernel,
    pi_groups: &[Vec<[u64; W]>],
    banded: bool,
) -> Vec<Vec<[u64; W]>> {
    let mut blocks: Vec<Vec<[u64; W]>> = pi_groups
        .iter()
        .map(|pis| {
            let mut vals = vec![[0u64; W]; kernel.slot_count()];
            kernel.init_constants_wide(&mut vals);
            for (&slot, &b) in kernel.pi_slots().iter().zip(pis) {
                vals[slot as usize] = b;
            }
            vals
        })
        .collect();
    if banded {
        kernel.eval_blocks_banded(&kernel.level_bands_for_width(W), &mut blocks);
    } else {
        for vals in &mut blocks {
            kernel.eval_range_wide(0..kernel.op_count(), vals);
        }
    }
    blocks
}

fn bench_wide_word(c: &mut Criterion) {
    let n = random_combinational(24, 2000, 7);
    let kernel = Kernel::new(&n).unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let patterns = PatternSet::random(24, PATTERNS, &mut rng);
    let p1 = pack::<1>(&patterns);
    let p4 = pack::<4>(&patterns);
    let p8 = pack::<8>(&patterns);

    // Cross-width sanity: every layout must compute identical values.
    let w1 = sweep::<1>(&kernel, &p1, false);
    let w4 = sweep::<4>(&kernel, &p4, true);
    for b in 0..patterns.block_count() {
        for g in 0..kernel.gate_count() {
            assert_eq!(w1[b][g][0], w4[b / 4][g][b % 4], "block {b} gate {g}");
        }
    }

    let mut group = c.benchmark_group("wide_word_2000gates_1024patterns");
    group.throughput(Throughput::Elements(PATTERNS as u64));
    group.bench_function("w64_flat", |b| {
        b.iter(|| sweep::<1>(&kernel, black_box(&p1), false))
    });
    group.bench_function("w64_banded", |b| {
        b.iter(|| sweep::<1>(&kernel, black_box(&p1), true))
    });
    group.bench_function("w256_flat", |b| {
        b.iter(|| sweep::<4>(&kernel, black_box(&p4), false))
    });
    group.bench_function("w256_banded", |b| {
        b.iter(|| sweep::<4>(&kernel, black_box(&p4), true))
    });
    group.bench_function("w512_flat", |b| {
        b.iter(|| sweep::<8>(&kernel, black_box(&p8), false))
    });
    group.bench_function("w512_banded", |b| {
        b.iter(|| sweep::<8>(&kernel, black_box(&p8), true))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_wide_word
}
criterion_main!(benches);
