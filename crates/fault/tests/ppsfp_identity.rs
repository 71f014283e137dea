//! Bit-identity golden for PPSFP first detections.
//!
//! Each case folds every fault's first detecting pattern (in fault-list
//! order) into an FNV-1a digest and pins it together with the detected
//! count. The digests were recorded on the engine that still folded
//! gates by kind match and memoized propagation per forced root value,
//! before the branch-free op records and the observability memo
//! replaced both. Every case is checked at one and three threads and
//! streamed in chunks of 1, 97 and all faults, so the digests hold
//! whatever the worker count, chunking or memo state.
//!
//! The property test below ties `run_streamed` to the serial reference
//! engine on small random and layered circuits with fan-in up to 9 (the
//! spill past a record's four operand slots), over the full universe
//! and the collapsed representatives.

use dft_fault::stream::CollapsedUniverse;
use dft_fault::{
    universe, DetectionResult, Fault, FaultSimEngine, Ppsfp, PpsfpOptions, SerialEngine,
};
use dft_netlist::circuits::{
    c17, layered_random, random_combinational, random_pattern_resistant_pla, sn74181,
    LayeredCircuit, RandomCircuit,
};
use dft_netlist::Netlist;
use dft_sim::PatternSet;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a 64 over each fault's first detecting pattern (`u64::MAX` for
/// undetected), plus the detected count.
fn digest(r: &DetectionResult) -> (u64, usize) {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for first in &r.first_detected {
        let v = first.map_or(u64::MAX, |p| p as u64);
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (h, r.detected_count())
}

fn exhaustive(n: usize) -> PatternSet {
    let rows: Vec<Vec<bool>> = (0..1usize << n)
        .map(|v| (0..n).map(|i| v >> i & 1 == 1).collect())
        .collect();
    PatternSet::from_rows(n, &rows)
}

fn random(inputs: usize, count: usize, seed: u64) -> PatternSet {
    PatternSet::random(inputs, count, &mut StdRng::seed_from_u64(seed))
}

/// Every digest of one case: materialized at threads 1 and 3, then
/// streamed in chunks of 1, 97 and all faults at threads 1.
fn digests(n: &Netlist, p: &PatternSet, faults: &[Fault]) -> Vec<(u64, usize)> {
    let engine =
        |threads| Ppsfp::with_options(n, PpsfpOptions::new().with_threads(threads)).unwrap();
    let mut out: Vec<_> = [1, 3]
        .into_iter()
        .map(|t| digest(&engine(t).run(p, faults)))
        .collect();
    let one = engine(1);
    for chunk in [1, 97, faults.len().max(1)] {
        out.push(digest(&one.run_streamed(p, faults.iter().copied(), chunk)));
    }
    out
}

fn check(name: &str, n: &Netlist, p: &PatternSet, faults: &[Fault], want: (u64, usize)) {
    for (i, got) in digests(n, p, faults).into_iter().enumerate() {
        assert_eq!(
            got, want,
            "{name}: run {i} (threads 1/3, then chunks 1/97/all)"
        );
    }
}

#[test]
fn c17_exhaustive_is_pinned() {
    let n = c17();
    check(
        "c17",
        &n,
        &exhaustive(5),
        &universe(&n),
        (0x6914e1ba567520af, 46),
    );
}

#[test]
fn sn74181_is_pinned() {
    let n = sn74181().0;
    let p = random(n.primary_inputs().len(), 700, 3);
    check("sn74181", &n, &p, &universe(&n), (0xb34ae72381aeac2a, 494));
}

#[test]
fn wide_fanin_pla_is_pinned() {
    // Seven-literal product terms and ORs of about eight terms: every
    // AND and OR spills past the four operand slots of an op record.
    let n = random_pattern_resistant_pla(14, 24, 7, 3, 11).synthesize("pla");
    let p = random(14, 1_000, 5);
    check("pla", &n, &p, &universe(&n), (0x2d0056faf7d95d75, 522));
}

#[test]
fn rand_16x300_is_pinned() {
    let n = random_combinational(16, 300, 5);
    check(
        "rand_16x300",
        &n,
        &random(16, 256, 12),
        &universe(&n),
        (0xd2c7c7e0dbf4f006, 1_476),
    );
}

#[test]
fn rand_24x2000_is_pinned() {
    let n = random_combinational(24, 2_000, 7);
    check(
        "rand_24x2000",
        &n,
        &random(24, 1_024, 12),
        &universe(&n),
        (0x72c3db412d4fa394, 6_718),
    );
}

#[test]
fn layered_64x2k_collapsed_is_pinned() {
    let n = layered_random(64, 2_000, 42);
    let reps: Vec<Fault> = CollapsedUniverse::new(&n).representatives().collect();
    check(
        "layered_64x2k",
        &n,
        &random(64, 256, 12),
        &reps,
        (0xd7463ecaba5ba553, 5_526),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Streamed PPSFP equals the serial engine for every chunk size,
    /// thread count and fan-in, on the full universe and on the
    /// collapsed representatives.
    #[test]
    fn streamed_chunks_match_serial(
        layered: bool,
        inputs in 3usize..10,
        gates in 10usize..120,
        max_fanin in 2usize..=9,
        seed in 0u64..10_000,
        pattern_count in 1usize..600,
        threads in 1usize..=4,
        chunk_pick: u64,
        collapsed: bool,
    ) {
        let n = if layered {
            LayeredCircuit::new(inputs, gates).width(inputs + 3).max_fanin(max_fanin).seed(seed).build()
        } else {
            RandomCircuit::new(inputs, gates).max_fanin(max_fanin).seed(seed).build()
        };
        let faults: Vec<Fault> = if collapsed {
            CollapsedUniverse::new(&n).representatives().collect()
        } else {
            universe(&n)
        };
        let p = random(inputs, pattern_count, seed ^ 0x5EED);
        let reference = SerialEngine::default().run(&n, &p, &faults).unwrap();
        let chunk = 1 + (chunk_pick % faults.len() as u64) as usize;
        let engine = Ppsfp::with_options(&n, PpsfpOptions::new().with_threads(threads)).unwrap();
        let streamed = engine.run_streamed(&p, faults.iter().copied(), chunk);
        prop_assert_eq!(
            streamed,
            reference,
            "chunk {} threads {} (seed {}, layered {})",
            chunk,
            threads,
            seed,
            layered
        );
    }
}
