//! Bit-identity golden for static learning and the untestability
//! verdicts.
//!
//! The learning pass and the verdict path may be rewritten for speed
//! (reused implication rows, batched excitation literals, epoch-stamped
//! scratch), but nothing they compute may change. Each test folds one
//! circuit's results into four FNV-1a digests and pins them:
//!
//! * every learned-edge list, in store order;
//! * every unsettable literal and implied constant;
//! * the `LearnStats` counters that describe *what* was learned
//!   (`rounds`, `learned_edges`, `unsettable_literals`,
//!   `implied_constants` — the work counters are allowed to move);
//! * every prefilter verdict over the stuck-at universe, with its
//!   witness.

use dft_fault::{prefilter_with, universe};
use dft_implic::{ImplicationEngine, UntestableReason};
use dft_netlist::circuits::{c17, random_combinational, redundant_fixture, shift_register};
use dft_netlist::Netlist;

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

    fn word(&mut self, x: usize) {
        self.eat(&(x as u64).to_le_bytes());
    }
}

/// `[edges, facts, stats, verdicts]` digests of `n`.
fn digests(n: &Netlist) -> [u64; 4] {
    let engine = ImplicationEngine::new(n);

    let mut edges = Fnv::new();
    for net in n.ids() {
        for value in [false, true] {
            let list = engine.learned_edges(net, value);
            edges.word(list.len());
            for lit in list {
                edges.word(lit.net.index());
                edges.eat(&[u8::from(lit.value)]);
            }
        }
    }

    let mut facts = Fnv::new();
    for net in n.ids() {
        facts.eat(&[
            u8::from(engine.is_unsettable(net, false)),
            u8::from(engine.is_unsettable(net, true)),
            match engine.implied_constant(net) {
                None => 2,
                Some(v) => u8::from(v),
            },
        ]);
    }

    let s = engine.stats();
    let mut stats = Fnv::new();
    for x in [
        s.rounds,
        s.learned_edges,
        s.unsettable_literals,
        s.implied_constants,
    ] {
        stats.word(x);
    }

    let faults = universe(n);
    let pf = prefilter_with(&engine, &faults);
    let mut verdicts = Fnv::new();
    for i in 0..faults.len() {
        match pf.verdict(i) {
            None => verdicts.eat(&[0]),
            Some(UntestableReason::Unexcitable {
                net,
                required,
                conflict,
            }) => {
                verdicts.eat(&[1, u8::from(*required)]);
                verdicts.word(net.index());
                verdicts.word(conflict.index());
            }
            Some(UntestableReason::Unobservable { origin }) => {
                verdicts.eat(&[2]);
                verdicts.word(origin.index());
            }
        }
    }

    [edges.0, facts.0, stats.0, verdicts.0]
}

fn check(name: &str, n: &Netlist, expect: [u64; 4]) {
    let got = digests(n);
    for (i, what) in ["edges", "facts", "stats", "verdicts"].iter().enumerate() {
        assert_eq!(
            got[i], expect[i],
            "{name}: {what} digest moved (all: {got:?})"
        );
    }
}

#[test]
fn c17_is_pinned() {
    check(
        "c17",
        &c17(),
        [
            1_889_907_886_397_808_153,
            3_671_513_935_539_145_085,
            17_333_173_032_995_097_670,
            15_843_971_433_684_068_701,
        ],
    );
}

#[test]
fn redundant_fixture_is_pinned() {
    check(
        "redundant_fixture",
        &redundant_fixture(),
        [
            7_991_707_620_415_779_571,
            5_573_147_223_297_517_557,
            10_413_781_990_728_921_094,
            4_426_119_929_977_525_983,
        ],
    );
}

#[test]
fn shift_register_is_pinned() {
    check(
        "shift_register(4)",
        &shift_register(4),
        [
            17_387_136_712_891_402_597,
            6_228_877_205_859_696_773,
            9_158_645_789_910_464_300,
            16_313_473_595_885_756_164,
        ],
    );
}

#[test]
fn rand_12x80_is_pinned() {
    check(
        "rand_12x80",
        &random_combinational(12, 80, 9),
        [
            1_283_928_933_058_352_172,
            6_137_612_309_621_069_782,
            13_817_679_720_651_896_411,
            156_460_156_218_832_503,
        ],
    );
}

#[test]
fn rand_15x140_is_pinned() {
    check(
        "rand_15x140",
        &random_combinational(15, 140, 6),
        [
            10_238_395_030_539_917_545,
            14_329_871_114_128_621_200,
            618_457_400_881_131_598,
            14_459_786_022_532_578_503,
        ],
    );
}

#[test]
fn rand_16x300_is_pinned() {
    check(
        "rand_16x300",
        &random_combinational(16, 300, 5),
        [
            3_295_552_479_054_200_755,
            4_157_022_798_376_674_624,
            215_718_746_144_331_997,
            3_428_964_826_687_896_659,
        ],
    );
}
