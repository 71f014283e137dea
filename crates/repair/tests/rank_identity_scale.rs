//! Bit-identity golden for ranking at scale: the rand_20x800 repair run.
//!
//! Like `rank_identity.rs`, the case pins two FNV-1a digests: the plan
//! JSON of a full run, and every candidate of every round's full ranked
//! list (`top_k = usize::MAX`: key, rule, deltas, score and hardware).
//! They were recorded before ranking counted verdicts from an index and
//! replayed only the learning slots an edit reaches.
//!
//! The test ranks the ~5,800 candidates of the run's four rounds twice,
//! so it is ignored by default; CI's repair gate runs it on a release
//! build:
//!
//! ```text
//! cargo test --release -p dft-repair --test rank_identity_scale -- --ignored
//! ```

use dft_lint::lint_with;
use dft_netlist::circuits::random_combinational;
use dft_netlist::Netlist;
use dft_repair::{expand_hints, rank_candidates, repair, RepairOptions};

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

/// `[plan, ranked lists]` digests of one autopilot run, replaying its
/// rounds with the full ranked list as `rank_identity.rs` does.
fn digests(n: &Netlist) -> [u64; 2] {
    let options = RepairOptions::new().with_threads(1);
    let outcome = repair(n, &options).unwrap();
    let mut plan = Fnv::new();
    plan.eat(outcome.plan.to_json().as_bytes());

    let mut ranked_digest = Fnv::new();
    let mut current = n.clone();
    let mut applied: Vec<String> = Vec::new();
    for round in 1..=options.max_rounds {
        let report = lint_with(&current, options.lint_config.clone());
        let candidates = expand_hints(report.diagnostics(), &applied);
        if candidates.is_empty() {
            break;
        }
        let ranking = rank_candidates(&current, candidates, usize::MAX);
        ranked_digest.eat(&(round as u64).to_le_bytes());
        ranked_digest.eat(&(ranking.pruned as u64).to_le_bytes());
        for rc in &ranking.kept {
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
        let winner = ranking
            .kept
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
#[ignore = "ranks ~5,800 candidates twice; run with --release --ignored"]
fn rand_20x800_is_pinned() {
    let mut n = random_combinational(20, 800, 6);
    n.set_name("rand_20x800");
    assert_eq!(
        digests(&n),
        [9_234_645_990_701_395_568, 15_947_209_562_220_339_930]
    );
}
