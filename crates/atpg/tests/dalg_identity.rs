//! Bit-identity golden for the D-Algorithm.
//!
//! The D-Algorithm is PODEM's independent reference, so its answers
//! must not drift when its plumbing changes (how it evaluates the
//! faulty machine, how it verifies a candidate cube). Each test folds
//! the outcome and the cube of every fault in a stuck-at universe into
//! one FNV-1a digest and pins it, with and without the static
//! implication store.

use dft_atpg::{dalg, DalgConfig, GenOutcome};
use dft_fault::universe;
use dft_netlist::circuits::{
    c17, comparator, full_adder, majority, random_combinational, redundant_fixture,
};
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

    fn absorb(&mut self, outcome: &GenOutcome) {
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
    }
}

/// Digest over every fault of `n`'s stuck-at universe.
fn universe_digest(n: &Netlist, use_implications: bool) -> u64 {
    let config = DalgConfig::new().with_use_implications(use_implications);
    let mut h = Fnv::new();
    for f in universe(n) {
        h.absorb(&dalg(n, f, &config).unwrap());
    }
    h.0
}

/// Both configurations must reproduce the digest pinned on `n`.
fn assert_pinned(n: &Netlist, expect: u64) {
    for use_implications in [true, false] {
        assert_eq!(
            universe_digest(n, use_implications),
            expect,
            "{} with use_implications = {use_implications}",
            n.name()
        );
    }
}

#[test]
fn c17_digest_is_pinned() {
    assert_pinned(&c17(), 6_804_339_472_197_080_904);
}

#[test]
fn full_adder_digest_is_pinned() {
    assert_pinned(&full_adder(), 8_264_722_099_910_693_318);
}

#[test]
fn majority_digest_is_pinned() {
    assert_pinned(&majority(), 2_529_050_569_790_269_094);
}

#[test]
fn comparator_digest_is_pinned() {
    assert_pinned(&comparator(3), 2_076_945_080_117_010_016);
}

#[test]
fn redundant_fixture_digest_is_pinned() {
    assert_pinned(&redundant_fixture(), 2_480_069_329_307_351_173);
}

#[test]
fn rand_8x50_digest_is_pinned() {
    assert_pinned(&random_combinational(8, 50, 41), 9_597_093_973_877_525_937);
}
