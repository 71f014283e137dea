//! Bit-identity golden for the repair autopilot's static ranking.
//!
//! Ranking may get cheaper (incremental learning, batched verdicts, a
//! reused baseline), but the plan and every ranked list must not move.
//! Each case pins two FNV-1a digests: the plan JSON of a full run, and
//! the complete ranked list (`top_k = usize::MAX`, every candidate with
//! its deltas, score and hardware) of every round the run went through.
//!
//! The digests were recorded with a from-scratch baseline per round,
//! full-round learning and per-fault verdicts.

use dft_lint::lint_with;
use dft_netlist::circuits::{
    binary_counter, johnson_counter, random_combinational, redundant_fixture,
};
use dft_netlist::Netlist;
use dft_repair::{expand_hints, rank_candidates, repair, Ranking, RepairOptions};

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
}

/// Every candidate of one round, scored and sorted.
fn rank_all(current: &Netlist, options: &RepairOptions, applied: &[String]) -> Option<Ranking> {
    let report = lint_with(current, options.lint_config.clone());
    let candidates = expand_hints(report.diagnostics(), applied);
    if candidates.is_empty() {
        return None;
    }
    Some(rank_candidates(current, candidates, usize::MAX))
}

/// `[plan, ranked lists]` digests of one autopilot run.
fn digests(n: &Netlist, seed: u64) -> [u64; 2] {
    let options = RepairOptions::new().with_threads(1).with_seed(seed);
    let outcome = repair(n, &options).unwrap();
    let mut plan = Fnv::new();
    plan.eat(outcome.plan.to_json().as_bytes());

    // Replay the run's rounds with the full ranked list each time,
    // advancing along the edits the plan accepted, as the autopilot
    // does.
    let mut ranked_digest = Fnv::new();
    let mut current = n.clone();
    let mut applied: Vec<String> = Vec::new();
    for round in 1..=options.max_rounds {
        let Some(Ranking {
            kept: ranked,
            pruned,
            ..
        }) = rank_all(&current, &options, &applied)
        else {
            break;
        };
        ranked_digest.eat(&(round as u64).to_le_bytes());
        ranked_digest.eat(&(pruned as u64).to_le_bytes());
        for rc in &ranked {
            ranked_digest.eat(rc.candidate.edit.key().as_bytes());
            ranked_digest.eat(rc.candidate.rule.as_bytes());
            for x in [rc.difficulty_delta, rc.untestable_delta, rc.score] {
                ranked_digest.eat(&x.to_le_bytes());
            }
            ranked_digest.eat(&rc.edited.extra_gates.to_le_bytes());
            ranked_digest.eat(&rc.edited.extra_pins.to_le_bytes());
        }
        let Some(accepted) = outcome
            .plan
            .records
            .iter()
            .find(|r| r.round == round && r.accepted)
        else {
            break;
        };
        let winner = ranked
            .into_iter()
            .find(|rc| rc.candidate.edit == accepted.edit)
            .expect("the accepted edit was ranked");
        applied.push(accepted.edit.key());
        current = winner.edited.netlist;
    }
    assert_eq!(
        current, outcome.netlist,
        "replay reaches the repaired netlist"
    );
    [plan.0, ranked_digest.0]
}

#[test]
fn rand_15x140_is_pinned() {
    let n = random_combinational(15, 140, 6);
    for (seed, expect) in [
        (0, [16_297_240_625_002_770_734, 10_059_450_189_841_396_887]),
        (1, [3_165_338_285_125_104_498, 10_059_450_189_841_396_887]),
        (2, [9_662_642_602_057_170_348, 10_059_450_189_841_396_887]),
    ] {
        assert_eq!(digests(&n, seed), expect, "seed {seed}");
    }
}

#[test]
fn redundant_fixture_is_pinned() {
    assert_eq!(
        digests(&redundant_fixture(), 0),
        [9_777_388_916_763_569_791, 12_764_818_584_236_664_928]
    );
}

// The sequential cases below were recorded before ranking rebased the
// implication engine per candidate. They reach what the combinational
// cases never do: add-reset and scan-convert edits, folds behind
// flip-flops, and nets whose value is not definite.

#[test]
fn ctr8_is_pinned() {
    assert_eq!(
        digests(&binary_counter(8), 0),
        [14_652_990_491_685_255_044, 6_107_323_168_098_003_453]
    );
}

#[test]
fn johnson8_is_pinned() {
    assert_eq!(
        digests(&johnson_counter(8), 0),
        [10_202_336_999_759_234_061, 10_820_548_037_219_778_537]
    );
}
