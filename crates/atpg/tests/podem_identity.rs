//! Bit-identity golden for the PODEM search.
//!
//! The solver's inner loop may be rewritten for speed (event-driven
//! forward implication, compiled flat arrays, reused scratch), but the
//! search itself must not change: the same decisions in the same order,
//! the same cubes, the same effort counters. Each test folds the
//! outcome, the cube and the search counters of every fault in a
//! universe into one FNV-1a digest and pins it.
//!
//! `SolveStats::gate_evals` is deliberately left out: it counts gate
//! re-evaluations, the work unit a faster forward implication is
//! allowed to cut. `forward_evals` (one per implication step) stays in.

use dft_atpg::{GenOutcome, Podem, PodemConfig, SolveStats, Unrolled};
use dft_fault::{universe, Fault};
use dft_netlist::circuits::{c17, random_combinational, shift_register};
use dft_netlist::Netlist;
use dft_sim::Logic;

/// FNV-1a 64.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn absorb(&mut self, outcome: &GenOutcome, stats: &SolveStats) {
        match outcome {
            GenOutcome::Test(cube) => {
                self.eat(&[0]);
                for v in &cube.assignment {
                    self.eat(&[match v {
                        Logic::Zero => b'0',
                        Logic::One => b'1',
                        Logic::X => b'X',
                    }]);
                }
            }
            GenOutcome::Untestable => self.eat(&[1]),
            GenOutcome::Aborted => self.eat(&[2]),
        }
        self.eat(&stats.backtracks.to_le_bytes());
        self.eat(&stats.forward_evals.to_le_bytes());
        self.eat(&stats.implication_conflicts.to_le_bytes());
    }
}

fn config(use_implications: bool) -> PodemConfig {
    PodemConfig::new().with_use_implications(use_implications)
}

/// Digest over every single-site fault of `n`'s stuck-at universe.
fn universe_digest(n: &Netlist, use_implications: bool) -> u64 {
    let solver = Podem::new(n, config(use_implications)).unwrap();
    let mut h = Fnv::new();
    for f in universe(n) {
        let (outcome, stats) = solver.solve(f);
        h.absorb(&outcome, &stats);
    }
    h.0
}

#[test]
fn c17_digests_are_pinned() {
    let n = c17();
    assert_eq!(universe_digest(&n, true), 9_688_975_456_579_058_203);
    assert_eq!(universe_digest(&n, false), 9_688_975_456_579_058_203);
}

#[test]
fn rand_12x80_digests_are_pinned() {
    let n = random_combinational(12, 80, 9);
    assert_eq!(universe_digest(&n, true), 12_620_494_331_176_899_891);
    assert_eq!(universe_digest(&n, false), 3_768_529_075_601_583_289);
}

#[test]
fn rand_15x140_digests_are_pinned() {
    let n = random_combinational(15, 140, 6);
    assert_eq!(universe_digest(&n, true), 9_912_666_993_306_759_245);
    assert_eq!(universe_digest(&n, false), 3_125_265_817_676_423_814);
}

/// The multi-site case: every fault of a 3-stage shift register,
/// replicated into each frame of a 4-frame unrolling and solved with
/// `solve_any_of` (the search behind `sequential_podem`).
#[test]
fn multi_site_sequential_digest_is_pinned() {
    let n = shift_register(3);
    let unrolled = Unrolled::build(&n, 4).unwrap();
    for (use_implications, expect) in [
        (true, 10_469_578_136_576_243_354u64),
        (false, 10_469_578_136_576_243_354),
    ] {
        let solver = Podem::new(unrolled.netlist(), config(use_implications)).unwrap();
        let mut h = Fnv::new();
        for f in universe(&n) {
            let sites: Vec<Fault> = unrolled.replicate_fault(f);
            if sites.is_empty() {
                h.eat(&[3]);
                continue;
            }
            let (outcome, stats) = solver.solve_any_of(&sites);
            h.absorb(&outcome, &stats);
        }
        assert_eq!(h.0, expect, "use_implications = {use_implications}");
    }
}
