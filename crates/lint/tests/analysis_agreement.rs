//! Lint and the analysis cache agree on every shared analysis.
//!
//! `LintContext` runs SCOAP, constant propagation, X-propagation and the
//! observability dominators from scratch over its own structural view,
//! while tessera-serve and the repair autopilot read the same analyses
//! through `AnalysisCache`. A finding lint reports must rest on the
//! values those tools see, so both are built on each circuit and
//! compared net by net. SCOAP's `iterations` is not compared: the cache
//! sweeps in `(level, index)` order and lint in the levelization's
//! order, which can take one more relaxation sweep on sequential
//! designs to reach the same values.

use dft_analyze::AnalysisCache;
use dft_lint::{LintConfig, LintContext};
use dft_netlist::circuits::{
    binary_counter, c17, johnson_counter, layered_random, random_combinational, random_sequential,
    redundant_fixture, shift_register, sn74181,
};
use dft_netlist::{GateKind, Netlist};

fn circuits() -> Vec<Netlist> {
    let mut all = vec![
        c17(),
        sn74181().0,
        redundant_fixture(),
        binary_counter(8),
        johnson_counter(8),
        shift_register(8),
    ];
    all.extend((0..6).map(|seed| random_sequential(6, 8, 12, 3, seed)));
    all.push(random_combinational(15, 140, 6));
    all.push(layered_random(64, 5000, 42));
    all.push(tied_counter());
    all
}

/// An unresettable counter whose state also feeds an AND tied to 0: the
/// tie is X-tainted but structurally constant, so X-prop must read the
/// constants to clear it. No circuit above has such a net.
fn tied_counter() -> Netlist {
    let mut n = binary_counter(4);
    let q0 = n.find_output("q0").expect("counter state output");
    let zero = n.add_const(false);
    let tied = n.add_gate(GateKind::And, &[q0, zero]).expect("valid");
    n.mark_output(tied, "tied").expect("fresh output name");
    n
}

#[test]
fn lint_and_the_analysis_cache_agree_net_by_net() {
    for n in circuits() {
        let name = n.name().to_owned();
        let ctx = LintContext::new(&n, LintConfig::default());
        let mut cache = AnalysisCache::new(&n).expect("library circuits levelize");

        let scoap = ctx.scoap().expect("acyclic");
        let cached = cache.scoap();
        assert_eq!(scoap.cc, cached.cc, "{name}: SCOAP controllability");
        assert_eq!(scoap.co, cached.co, "{name}: SCOAP observability");

        let constants = ctx.constants().expect("acyclic");
        assert_eq!(constants, cache.constants(), "{name}: constants");

        let xprop = ctx.xprop().expect("acyclic");
        assert_eq!(xprop, cache.xprop(), "{name}: X-propagation witnesses");

        let dom = ctx.dominators().expect("acyclic");
        let cached = cache.dominators();
        for id in n.ids() {
            assert_eq!(dom.idom(id), cached.idom(id), "{name}: idom of {id}");
            assert_eq!(
                dom.dominated_count(id),
                cached.dominated_count(id),
                "{name}: region dominated by {id}"
            );
        }
    }
}
