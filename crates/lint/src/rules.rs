//! The rule table: every built-in rule, declared once.
//!
//! Each entry holds a rule's stable id, its `DFT-NNN` code, category,
//! default severity, description and check, so adding or renaming a rule
//! edits one entry. The 18 netlist rules run in table order; `tessera-lint
//! --list-rules` prints them, and DESIGN.md §2 maps each one to the paper
//! section it enforces. The four scan groundrules ([`SCAN_COMB_FEEDBACK`],
//! [`SCAN_COVERAGE`], [`SCAN_DEPTH`], [`SCAN_LATCH_RACE`]) have no netlist
//! check: `dft-scan` checks them over a scanned design and builds each
//! finding with [`Rule::diagnostic`].
//!
//! The implication-backed rules are powered by `dft-implic`'s static
//! implication engine: they catch redundancy that needs reasoning across
//! reconvergent paths (`x AND NOT x`), which simple constant propagation
//! and structural reachability cannot see.
//!
//! Rules that know a concrete repair attach a machine-applicable
//! [`FixHint`] alongside the free-text hint; `tessera-fix` (the
//! `dft-repair` crate) expands those into candidate netlist edits.

use dft_analyze::INFINITE;
use dft_netlist::cones::{exclusive_fanin_region, fanin_cone};
use dft_netlist::{GateId, GateKind, Netlist, Pin, Readers};

use crate::context::LintContext;
use crate::diag::{Category, LintReport, Message, Severity};
use crate::fix::FixHint;
use crate::registry::Rule;

/// Every rule, in run order: the 18 netlist rules
/// [`Registry::with_default_rules`](crate::Registry::with_default_rules)
/// runs, then the four scan groundrules `dft-scan` checks over a scanned
/// design. The rule-code and rule-name lookups read this table too.
pub(crate) static RULES: [Rule; 22] = [
    Rule {
        id: "comb-feedback",
        code: "DFT-001",
        category: Category::Structure,
        severity: Severity::Error,
        description:
            "combinational feedback loops (asynchronous behaviour the gate model cannot express)",
        check: Some(comb_feedback),
    },
    Rule {
        id: "unused-input",
        code: "DFT-002",
        category: Category::Structure,
        severity: Severity::Warning,
        description: "primary inputs with no readers (dead pins)",
        check: Some(unused_input),
    },
    Rule {
        id: "dead-logic",
        code: "DFT-003",
        category: Category::Testability,
        severity: Severity::Warning,
        description: "gates whose output can never reach a primary output (unobservable cones)",
        check: Some(dead_logic),
    },
    Rule {
        id: "constant-output",
        code: "DFT-004",
        category: Category::Testability,
        severity: Severity::Warning,
        description:
            "nets constant under every input assignment, and pins tied to noncontrolling values",
        check: Some(constant_output),
    },
    Rule {
        id: "excessive-fanout",
        code: "DFT-005",
        category: Category::Structure,
        severity: Severity::Warning,
        description: "nets driving more input pins than the configured bound",
        check: Some(excessive_fanout),
    },
    Rule {
        id: "deep-logic",
        code: "DFT-006",
        category: Category::Timing,
        severity: Severity::Warning,
        description: "combinational depth beyond the configured settle bound",
        check: Some(deep_logic),
    },
    Rule {
        id: "latch-race",
        code: "DFT-007",
        category: Category::Timing,
        severity: Severity::Warning,
        description:
            "storage data inputs driven directly by other storage (race without two-phase cells)",
        check: Some(latch_race),
    },
    Rule {
        id: "uninitializable-storage",
        code: "DFT-008",
        category: Category::Testability,
        severity: Severity::Warning,
        description: "storage elements that no input sequence can initialize (infinite SCOAP cost)",
        check: Some(uninitializable_storage),
    },
    Rule {
        id: "hard-to-control",
        code: "DFT-009",
        category: Category::Testability,
        severity: Severity::Warning,
        description: "nets with finite but excessive SCOAP controllability cost",
        check: Some(hard_to_control),
    },
    Rule {
        id: "hard-to-observe",
        code: "DFT-010",
        category: Category::Testability,
        severity: Severity::Warning,
        description: "nets with finite but excessive SCOAP observability cost",
        check: Some(hard_to_observe),
    },
    Rule {
        id: "reconvergent-fanout",
        code: "DFT-011",
        category: Category::Testability,
        severity: Severity::Info,
        description: "fanout branches that meet again (correlated paths; informational)",
        check: Some(reconvergent_fanout),
    },
    Rule {
        id: "redundant-logic",
        code: "DFT-012",
        category: Category::Testability,
        severity: Severity::Warning,
        description:
            "gates all of whose stuck-at faults are statically untestable (provably redundant)",
        check: Some(redundant_logic),
    },
    Rule {
        id: "constant-implied-net",
        code: "DFT-013",
        category: Category::Testability,
        severity: Severity::Warning,
        description:
            "nets fixed by the implication closure but invisible to plain constant propagation",
        check: Some(constant_implied_net),
    },
    Rule {
        id: "deep-unobservable-cone",
        code: "DFT-014",
        category: Category::Testability,
        severity: Severity::Warning,
        description: "cones of nets with excessive observability cost, reported at the cone exit",
        check: Some(deep_unobservable_cone),
    },
    Rule {
        id: "implication-dead-region",
        code: "DFT-015",
        category: Category::Testability,
        severity: Severity::Warning,
        description:
            "maximal implication-proven-constant nets with the region that only feeds them",
        check: Some(implication_dead_region),
    },
    Rule {
        id: "x-source-into-compare",
        code: "DFT-016",
        category: Category::Testability,
        severity: Severity::Warning,
        description: "XOR/XNOR comparisons consuming a power-up X from uninitializable storage",
        check: Some(x_source_into_compare),
    },
    Rule {
        id: "observability-dominator-bottleneck",
        code: "DFT-017",
        category: Category::Testability,
        severity: Severity::Warning,
        description: "poorly observable nets that funnel every observation path of a wide region",
        check: Some(observability_dominator_bottleneck),
    },
    Rule {
        id: "reconvergent-constant-mask",
        code: "DFT-018",
        category: Category::Testability,
        severity: Severity::Warning,
        description: "reconvergent branches that cancel into a provably constant meet gate",
        check: Some(reconvergent_constant_mask),
    },
    SCAN_COMB_FEEDBACK,
    SCAN_COVERAGE,
    SCAN_DEPTH,
    SCAN_LATCH_RACE,
];

/// Scan groundrule: no combinational feedback loops (level-sensitive
/// operation is impossible around an asynchronous loop).
pub const SCAN_COMB_FEEDBACK: Rule = Rule {
    id: "scan-comb-feedback",
    code: "DFT-101",
    category: Category::Scan,
    severity: Severity::Error,
    description: "no combinational feedback",
    check: None,
};

/// Scan groundrule: every storage element is on the scan chain
/// (full-scan discipline; partial access defeats the combinational
/// reduction).
pub const SCAN_COVERAGE: Rule = Rule {
    id: "scan-coverage",
    code: "DFT-102",
    category: Category::Scan,
    severity: Severity::Error,
    description: "all storage elements scanned",
    check: None,
};

/// Scan groundrule: combinational depth between storage stages is
/// bounded (the level-sensitive timing rule: data must settle within the
/// clock phase).
pub const SCAN_DEPTH: Rule = Rule {
    id: "scan-depth",
    code: "DFT-103",
    category: Category::Scan,
    severity: Severity::Warning,
    description: "bounded logic depth between latches",
    check: None,
};

/// Scan groundrule: a storage element must not directly feed another
/// storage element unless the style provides a two-phase (master/slave)
/// cell — the race the Scan Path flip-flop narrows and LSSD eliminates.
pub const SCAN_LATCH_RACE: Rule = Rule {
    id: "scan-latch-race",
    code: "DFT-104",
    category: Category::Scan,
    severity: Severity::Warning,
    description: "no direct latch-to-latch path",
    check: None,
};

/// Flags every combinational feedback loop (one diagnostic per strongly
/// connected component).
fn comb_feedback(rule: &'static Rule, ctx: &LintContext<'_>, report: &mut LintReport) {
    if ctx.levelization().is_ok() {
        return;
    }
    for scc in combinational_sccs(ctx.netlist(), ctx.topology().readers()) {
        let gate = scc[0];
        let related = scc[1..].to_vec();
        report.push(
            rule.diagnostic(gate, Message::FeedbackLoop { gates: scc.len() })
                .with_related(related),
        );
    }
}

/// Strongly connected components of the combinational dependency graph
/// (edges driver → reader, both non-source). Only real cycles are
/// returned: components of two or more gates, or a gate feeding itself.
fn combinational_sccs(netlist: &Netlist, fanout: &Readers) -> Vec<Vec<GateId>> {
    let n = netlist.gate_count();
    let is_comb: Vec<bool> = netlist
        .ids()
        .map(|id| !netlist.gate(id).kind().is_source())
        .collect();

    // Iterative Tarjan.
    const UNVISITED: usize = usize::MAX;
    let mut index = vec![UNVISITED; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<GateId>> = Vec::new();

    for root in 0..n {
        if !is_comb[root] || index[root] != UNVISITED {
            continue;
        }
        index[root] = next_index;
        low[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;
        let mut call: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(frame) = call.last_mut() {
            let v = frame.0;
            if frame.1 < fanout[v].len() {
                let w = fanout[v][frame.1].0.index();
                frame.1 += 1;
                if !is_comb[w] {
                    continue;
                }
                if index[w] == UNVISITED {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                call.pop();
                if let Some(parent) = call.last() {
                    low[parent.0] = low[parent.0].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack holds the component");
                        on_stack[w] = false;
                        comp.push(GateId::from_index(w));
                        if w == v {
                            break;
                        }
                    }
                    let self_loop =
                        comp.len() == 1 && netlist.gate(comp[0]).inputs().contains(&comp[0]);
                    if comp.len() > 1 || self_loop {
                        comp.sort();
                        sccs.push(comp);
                    }
                }
            }
        }
    }
    sccs.sort_by_key(|c| c[0]);
    sccs
}

/// Flags primary inputs that drive nothing.
fn unused_input(rule: &'static Rule, ctx: &LintContext<'_>, report: &mut LintReport) {
    let netlist = ctx.netlist();
    for &pi in netlist.primary_inputs() {
        let topology = ctx.topology();
        let feeds_logic = !topology.readers()[pi.index()].is_empty();
        if !feeds_logic && !topology.output_mask()[pi.index()] {
            let name = netlist.gate(pi).name().unwrap_or("?").into();
            report.push(rule.diagnostic(pi, Message::UnusedInput { name }));
        }
    }
}

/// Flags gates from which no primary output is structurally reachable:
/// their entire fanout cone — and every fault in it — is unobservable.
fn dead_logic(rule: &'static Rule, ctx: &LintContext<'_>, report: &mut LintReport) {
    let netlist = ctx.netlist();
    let roots: Vec<GateId> = netlist.primary_outputs().iter().map(|&(g, _)| g).collect();
    let observable = fanin_cone(netlist, &roots, true);
    for (id, gate) in netlist.iter() {
        // Inputs have their own rule; stray constants are harmless
        // construction artifacts (placeholder ties).
        if matches!(
            gate.kind(),
            GateKind::Input | GateKind::Const0 | GateKind::Const1
        ) || observable.contains(&id)
        {
            continue;
        }
        report.push(
            rule.diagnostic(id, Message::Unreachable)
                .with_fix(FixHint::ObservePoint { net: id }),
        );
    }
}

/// Flags structurally-constant nets and tied noncontrolling pins — both
/// make stuck-at faults provably untestable.
fn constant_output(rule: &'static Rule, ctx: &LintContext<'_>, report: &mut LintReport) {
    let Some(constants) = ctx.constants() else {
        return;
    };
    let netlist = ctx.netlist();
    for (id, gate) in netlist.iter() {
        if gate.kind().is_source() {
            continue;
        }
        if let Some(value) = constants[id.index()].to_bool() {
            report.push(rule.diagnostic(id, Message::ConstantOutput { value }));
            continue;
        }
        // Output not constant: a tied *noncontrolling* pin is still
        // redundant (the pin never decides the output).
        let Some(c) = gate.kind().controlling_value() else {
            continue;
        };
        for (pin, &src) in gate.inputs().iter().enumerate() {
            if let Some(value) = constants[src.index()].to_bool() {
                if value != c {
                    let kind = gate.kind();
                    report.push(
                        rule.diagnostic(id, Message::TiedPin { pin, value, kind })
                            .with_related(vec![src]),
                    );
                }
            }
        }
    }
}

/// Flags nets driving more input pins than the configured load bound.
fn excessive_fanout(rule: &'static Rule, ctx: &LintContext<'_>, report: &mut LintReport) {
    let limit = ctx.config().max_fanout;
    for id in ctx.netlist().ids() {
        let pins = ctx.topology().readers()[id.index()].len();
        if pins > limit {
            report.push(rule.diagnostic(id, Message::Fanout { pins, limit }));
        }
    }
}

/// Flags gates deeper than the configured logic-depth bound.
fn deep_logic(rule: &'static Rule, ctx: &LintContext<'_>, report: &mut LintReport) {
    let Ok(lv) = ctx.levelization() else {
        return;
    };
    let bound = ctx.config().max_depth;
    for (id, gate) in ctx.netlist().iter() {
        let level = lv.level(id);
        if !gate.kind().is_source() && level > bound {
            report.push(rule.diagnostic(id, Message::DeepLogic { level, bound }));
        }
    }
}

/// Flags storage elements fed directly by other storage elements — the
/// race the Scan Path flip-flop narrows and LSSD's two-phase SRL
/// eliminates.
fn latch_race(rule: &'static Rule, ctx: &LintContext<'_>, report: &mut LintReport) {
    let netlist = ctx.netlist();
    for dff in netlist.storage_elements() {
        let d = netlist.gate(dff).inputs()[0];
        if netlist.gate(d).kind().is_storage() {
            report.push(
                rule.diagnostic(dff, Message::LatchRace { driver: d })
                    .with_related(vec![d])
                    .with_fix(FixHint::ScanConvert { storage: dff }),
            );
        }
    }
}

/// Flags storage that can never be steered out of its power-up X state.
fn uninitializable_storage(rule: &'static Rule, ctx: &LintContext<'_>, report: &mut LintReport) {
    let Some(scoap) = ctx.scoap() else {
        return;
    };
    for dff in ctx.netlist().storage_elements() {
        let m = scoap.measure(dff);
        if m.cc0 >= INFINITE && m.cc1 >= INFINITE {
            report.push(
                rule.diagnostic(dff, Message::Uninitializable)
                    .with_fix(FixHint::AddReset),
            );
        }
    }
}

/// Flags nets whose (finite) SCOAP controllability exceeds the
/// configured threshold.
fn hard_to_control(rule: &'static Rule, ctx: &LintContext<'_>, report: &mut LintReport) {
    let Some(scoap) = ctx.scoap() else {
        return;
    };
    let limit = ctx.config().controllability_limit;
    for id in ctx.netlist().ids() {
        let m = scoap.measure(id);
        let cost = m.cc0.min(m.cc1);
        if cost < INFINITE && cost > limit {
            report.push(
                rule.diagnostic(id, Message::HardToControl { cost, limit })
                    .with_fix(FixHint::ControlPoint { net: id }),
            );
        }
    }
}

/// Flags nets whose (finite) SCOAP observability exceeds the configured
/// threshold.
fn hard_to_observe(rule: &'static Rule, ctx: &LintContext<'_>, report: &mut LintReport) {
    let Some(scoap) = ctx.scoap() else {
        return;
    };
    let limit = ctx.config().observability_limit;
    for id in ctx.netlist().ids() {
        let cost = scoap.co(id);
        if cost < INFINITE && cost > limit {
            report.push(
                rule.diagnostic(id, Message::HardToObserve { cost, limit })
                    .with_fix(FixHint::ObservePoint { net: id }),
            );
        }
    }
}

/// Notes every reconvergent fanout stem (informational).
fn reconvergent_fanout(rule: &'static Rule, ctx: &LintContext<'_>, report: &mut LintReport) {
    for rec in ctx.reconvergence() {
        report.push(
            rule.diagnostic(rec.stem, Message::Reconverges { meet: rec.meet })
                .with_related(vec![rec.meet]),
        );
    }
}

/// Flags gates all of whose stuck-at faults are statically provably
/// untestable: the gate contributes nothing a test could ever see, which
/// is the paper's definition of redundant logic. Detection uses
/// `dft-implic`'s FIRE-style identifier, so it also catches redundancy
/// that needs implication reasoning (a gate masked because a side input
/// is *implied* to its controlling value), not just structural
/// unreachability.
fn redundant_logic(rule: &'static Rule, ctx: &LintContext<'_>, report: &mut LintReport) {
    let Some(engine) = ctx.implications() else {
        return;
    };
    let netlist = ctx.netlist();
    // Every fault of a gate, in pin order: the output, then each
    // input, each stuck-at-0 then stuck-at-1.
    let faults_of = |id: GateId| {
        let pins = std::iter::once(Pin::Output)
            .chain((0..netlist.gate(id).fanin()).map(|p| Pin::Input(p as u8)));
        pins.flat_map(move |pin| [(id, pin, false), (id, pin, true)])
    };
    // Almost every gate is testable on its first fault, so one batch
    // screens each gate's output stuck-at-0 and a second decides the
    // remaining faults of the gates that survive the screen.
    let logic: Vec<GateId> = netlist
        .iter()
        .filter(|(_, g)| !g.kind().is_source())
        .map(|(id, _)| id)
        .collect();
    let screen: Vec<_> = logic.iter().map(|&id| (id, Pin::Output, false)).collect();
    let suspects: Vec<GateId> = logic
        .iter()
        .zip(engine.faults_untestable(&screen))
        .filter_map(|(&id, v)| v.map(|_| id))
        .collect();
    let rest: Vec<_> = suspects
        .iter()
        .flat_map(|&id| faults_of(id).skip(1))
        .collect();
    let mut verdicts = engine.faults_untestable(&rest).into_iter();
    for id in suspects {
        let gate = netlist.gate(id);
        let gate_verdicts: Vec<_> = verdicts.by_ref().take(2 * gate.fanin() + 1).collect();
        // Redundant only if every fault is untestable; the witness is
        // the last one (the last pin, stuck-at-1).
        let Some(reasons) = gate_verdicts.into_iter().collect::<Option<Vec<_>>>() else {
            continue;
        };
        let witness = reasons[reasons.len() - 1];
        // Both output stuck-at faults are untestable, so folding to
        // either value preserves function (§I-B); prefer the value
        // the closure proves the net holds, if it proves one.
        let value = engine.implied_constant(id).unwrap_or(false);
        let kind = gate.kind();
        report.push(
            rule.diagnostic(id, Message::Redundant { kind, witness })
                .with_fix(FixHint::RemoveRedundant { gate: id, value }),
        );
    }
}

/// Flags nets the implication closure proves constant even though simple
/// constant propagation cannot: the constant comes from reconvergent
/// structure (`x AND NOT x`), not from a tied source, so the
/// `constant-output` rule misses it. Stuck-at-the-constant faults on such
/// nets are untestable.
fn constant_implied_net(rule: &'static Rule, ctx: &LintContext<'_>, report: &mut LintReport) {
    let (Some(engine), Some(constants)) = (ctx.implications(), ctx.constants()) else {
        return;
    };
    for (id, gate) in ctx.netlist().iter() {
        if gate.kind().is_source() || constants[id.index()].is_known() {
            continue;
        }
        let Some(v) = engine.implied_constant(id) else {
            continue;
        };
        // The implication witness: driving the net to the opposite
        // value contradicts itself somewhere — name that somewhere.
        let conflict = engine.query(id, !v).conflict;
        let mut diag = rule
            .diagnostic(id, Message::ImpliedConstant { value: v })
            .with_fix(FixHint::FoldConstant { net: id, value: v });
        if let Some(at) = conflict {
            diag = diag.with_related(vec![at]);
        }
        report.push(diag);
    }
}

/// Flags buried cones: a net whose SCOAP observability cost crosses the
/// (strict) deep-cone threshold, none of whose readers do, and whose
/// fan-in cone contains at least `deep_cone_min_gates` further nets over
/// the threshold. One observation test point at the flagged net (the
/// cone's exit toward the outputs) rescues the whole region, which is
/// exactly the §III-B test-point placement argument — so the rule fires
/// once per cone, at the place the point belongs, instead of once per
/// buried net the way `hard-to-observe` would.
fn deep_unobservable_cone(rule: &'static Rule, ctx: &LintContext<'_>, report: &mut LintReport) {
    let Some(scoap) = ctx.scoap() else {
        return;
    };
    let netlist = ctx.netlist();
    let readers = ctx.topology().readers();
    let limit = ctx.config().deep_cone_observability_limit;
    let min_gates = ctx.config().deep_cone_min_gates;
    let over = |id: GateId| {
        let co = scoap.co(id);
        co < INFINITE && co > limit
    };
    for id in netlist.ids() {
        if !over(id) || readers[id.index()].iter().any(|&(r, _)| over(r)) {
            continue;
        }
        // `id` is a cone exit: over the limit, but everything it
        // feeds is not. Count how much of its cone is buried with it.
        let mut buried: Vec<GateId> = fanin_cone(netlist, &[id], false)
            .into_iter()
            .filter(|&g| g != id && over(g))
            .collect();
        if buried.len() + 1 < min_gates {
            continue;
        }
        buried.sort();
        let message = Message::BuriedCone {
            cost: scoap.co(id),
            limit,
            buried: buried.len(),
        };
        report.push(
            rule.diagnostic(id, message)
                .with_related(buried)
                .with_fix(FixHint::ObservePoint { net: id }),
        );
    }
}

/// Flags whole dead regions behind implication-proven constants: a
/// maximal implied-constant net (one that is a primary output or has a
/// reader the closure cannot fix) together with the gates that feed
/// *only* it. Folding the root to its constant and deleting the private
/// region is the paper's §I-B redundancy-removal transform, and the
/// attached fix says exactly that.
fn implication_dead_region(rule: &'static Rule, ctx: &LintContext<'_>, report: &mut LintReport) {
    let Some(engine) = ctx.implications() else {
        return;
    };
    let netlist = ctx.netlist();
    let topology = ctx.topology();
    for (id, gate) in netlist.iter() {
        if gate.kind().is_source() {
            continue;
        }
        let Some(value) = engine.implied_constant(id) else {
            continue;
        };
        // Maximality: folding a constant net whose every reader is
        // itself implied-constant would be subsumed by folding the
        // reader, so report only the outermost net of the region.
        let maximal = topology.output_mask()[id.index()]
            || topology.readers()[id.index()]
                .iter()
                .any(|&(r, _)| engine.implied_constant(r).is_none());
        if !maximal {
            continue;
        }
        let region = exclusive_fanin_region(netlist, id, topology);
        if region.is_empty() {
            continue;
        }
        let gates = region.len();
        report.push(
            rule.diagnostic(id, Message::DeadRegion { value, gates })
                .with_related(region)
                .with_fix(FixHint::FoldConstant { net: id, value }),
        );
    }
}

/// Flags XOR/XNOR gates fed by a power-up X that no input sequence is
/// guaranteed to flush. A comparison consuming such an X produces an
/// undefined result on every tester cycle until the offending storage is
/// initialized — the §III-B initialization argument, pointed at the place
/// the X actually does damage. The related nets name the uninitializable
/// storage elements (the X sources), and the fix targets the first of
/// them.
fn x_source_into_compare(rule: &'static Rule, ctx: &LintContext<'_>, report: &mut LintReport) {
    let Some(taint) = ctx.xprop() else {
        return;
    };
    for (id, gate) in ctx.netlist().iter() {
        if !matches!(gate.kind(), GateKind::Xor | GateKind::Xnor) {
            continue;
        }
        let mut sources: Vec<GateId> = gate
            .inputs()
            .iter()
            .filter_map(|&s| taint[s.index()])
            .collect();
        if sources.is_empty() {
            continue;
        }
        sources.sort();
        sources.dedup();
        let storage = sources[0];
        let kind = gate.kind();
        report.push(
            rule.diagnostic(id, Message::XIntoCompare { kind, storage })
                .with_related(sources)
                .with_fix(FixHint::ScanConvert { storage }),
        );
    }
}

/// Flags observability funnels: a net that every observation path of a
/// wide region passes through (a structural observability dominator)
/// while itself being expensive to observe. One observation test point
/// at the funnel rescues the entire dominated region at once — the best
/// value-per-pin placement §III-B argues for. Nested funnels are
/// deduplicated to the outermost qualifying net so a deep chain reports
/// once, not once per link.
fn observability_dominator_bottleneck(
    rule: &'static Rule,
    ctx: &LintContext<'_>,
    report: &mut LintReport,
) {
    let (Some(scoap), Some(dom)) = (ctx.scoap(), ctx.dominators()) else {
        return;
    };
    let netlist = ctx.netlist();
    let limit = ctx.config().observability_limit;
    let min_gates = ctx.config().dominator_min_gates;
    let qualifies = |id: GateId| {
        let co = scoap.co(id);
        co < INFINITE && co > limit && dom.dominated_count(id) >= min_gates
    };
    for id in netlist.ids() {
        if !qualifies(id) {
            continue;
        }
        // Outermost dedup: a funnel whose own (non-storage) reader is
        // a qualifying funnel too is subsumed by the reader.
        let subsumed = ctx.topology().readers()[id.index()]
            .iter()
            .any(|&(r, _)| !netlist.gate(r).kind().is_storage() && qualifies(r));
        if subsumed {
            continue;
        }
        let message = Message::Funnel {
            gates: dom.dominated_count(id),
            cost: scoap.co(id),
            limit,
        };
        report.push(
            rule.diagnostic(id, message)
                .with_fix(FixHint::ObservePoint { net: id }),
        );
    }
}

/// Flags reconvergent fanout whose meet gate is provably constant: the
/// correlated paths do not merely complicate sensitization (the
/// informational `reconvergent-fanout` note) — they cancel, so faults on
/// the stem are masked along these paths entirely. This is §I-B
/// redundancy created specifically by reconvergence, reported at the
/// stem with the constant meet as the witness.
fn reconvergent_constant_mask(rule: &'static Rule, ctx: &LintContext<'_>, report: &mut LintReport) {
    let Some(constants) = ctx.constants() else {
        return;
    };
    // One diagnostic per constant meet, at its first stem: several
    // stems can reconverge at the same dead gate.
    let mut seen = std::collections::BTreeSet::new();
    for rec in ctx.reconvergence() {
        let value = constants[rec.meet.index()].to_bool().or_else(|| {
            ctx.implications()
                .and_then(|eng| eng.implied_constant(rec.meet))
        });
        let Some(value) = value else {
            continue;
        };
        if !seen.insert(rec.meet) {
            continue;
        }
        let meet = rec.meet;
        report.push(
            rule.diagnostic(rec.stem, Message::ConstantMeet { meet, value })
                .with_related(vec![meet])
                .with_fix(FixHint::FoldConstant { net: meet, value }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::LintConfig;
    use crate::registry::Registry;
    use dft_netlist::circuits::{
        binary_counter, c17, parity_tree, redundant_fixture, ripple_carry_adder, shift_register,
    };
    use dft_netlist::Netlist as NL;

    fn lint(netlist: &NL) -> LintReport {
        Registry::with_default_rules().run(netlist)
    }

    fn lint_with(netlist: &NL, config: LintConfig) -> LintReport {
        Registry::with_default_rules().run_with(netlist, config)
    }

    fn count(report: &LintReport, rule: &str) -> usize {
        report.by_rule(rule).count()
    }

    // --- comb-feedback ---------------------------------------------------

    #[test]
    fn comb_feedback_triggers_on_a_cycle() {
        let mut n = NL::new("loop");
        let a = n.add_input("a");
        let g1 = n.add_gate(GateKind::And, &[a, a]).unwrap();
        let g2 = n.add_gate(GateKind::Or, &[g1, a]).unwrap();
        n.reconnect_input(g1, 1, g2).unwrap();
        n.mark_output(g2, "y").unwrap();
        let r = lint(&n);
        assert_eq!(count(&r, "comb-feedback"), 1);
        let d = r.by_rule("comb-feedback").next().unwrap();
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.related.len(), 1, "both loop gates are reported");
        assert!(r.has_errors());
    }

    #[test]
    fn comb_feedback_reports_each_loop_and_self_loops() {
        let mut n = NL::new("loops");
        let a = n.add_input("a");
        // Loop 1: g1 <-> g2. Loop 2: g3 -> g3 (self).
        let g1 = n.add_gate(GateKind::And, &[a, a]).unwrap();
        let g2 = n.add_gate(GateKind::Or, &[g1, a]).unwrap();
        n.reconnect_input(g1, 1, g2).unwrap();
        let g3 = n.add_gate(GateKind::Nand, &[a, a]).unwrap();
        n.reconnect_input(g3, 1, g3).unwrap();
        let r = lint(&n);
        assert_eq!(count(&r, "comb-feedback"), 2);
    }

    #[test]
    fn comb_feedback_clean_on_storage_feedback() {
        // binary_counter feeds state back through DFFs: legal.
        let r = lint(&binary_counter(4));
        assert_eq!(count(&r, "comb-feedback"), 0);
    }

    // --- unused-input ----------------------------------------------------

    #[test]
    fn unused_input_triggers() {
        let mut n = NL::new("t");
        let a = n.add_input("a");
        let _dangling = n.add_input("nc");
        let g = n.add_gate(GateKind::Not, &[a]).unwrap();
        n.mark_output(g, "y").unwrap();
        let r = lint(&n);
        assert_eq!(count(&r, "unused-input"), 1);
        let d = r.by_rule("unused-input").next().unwrap();
        assert_eq!(*d.message(), Message::UnusedInput { name: "nc".into() });
    }

    #[test]
    fn unused_input_clean_when_input_is_an_output() {
        // A feed-through pin: read by nothing but observed directly.
        let mut n = NL::new("t");
        let a = n.add_input("a");
        n.mark_output(a, "y").unwrap();
        assert_eq!(count(&lint(&n), "unused-input"), 0);
    }

    // --- dead-logic ------------------------------------------------------

    #[test]
    fn dead_logic_triggers_on_unobservable_cone() {
        let mut n = NL::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let live = n.add_gate(GateKind::And, &[a, b]).unwrap();
        let dead = n.add_gate(GateKind::Or, &[a, b]).unwrap();
        let deader = n.add_gate(GateKind::Not, &[dead]).unwrap();
        n.mark_output(live, "y").unwrap();
        let r = lint(&n);
        assert_eq!(count(&r, "dead-logic"), 2);
        let flagged: Vec<GateId> = r.by_rule("dead-logic").map(|d| d.gate).collect();
        assert!(flagged.contains(&dead) && flagged.contains(&deader));
    }

    #[test]
    fn dead_logic_sees_through_storage() {
        // gate -> DFF -> output: observable across the clock boundary.
        let mut n = NL::new("t");
        let a = n.add_input("a");
        let g = n.add_gate(GateKind::Not, &[a]).unwrap();
        let d = n.add_dff(g).unwrap();
        n.mark_output(d, "q").unwrap();
        assert_eq!(count(&lint(&n), "dead-logic"), 0);
    }

    #[test]
    fn dead_logic_clean_on_c17() {
        assert_eq!(count(&lint(&c17()), "dead-logic"), 0);
    }

    // --- constant-output -------------------------------------------------

    #[test]
    fn constant_output_triggers_on_controlled_gate() {
        let mut n = NL::new("t");
        let a = n.add_input("a");
        let zero = n.add_const(false);
        let g = n.add_gate(GateKind::And, &[a, zero]).unwrap();
        n.mark_output(g, "y").unwrap();
        let r = lint(&n);
        assert_eq!(count(&r, "constant-output"), 1);
        let d = r.by_rule("constant-output").next().unwrap();
        assert_eq!(d.gate, g);
        assert_eq!(*d.message(), Message::ConstantOutput { value: false });
    }

    #[test]
    fn constant_output_flags_tied_noncontrolling_pin() {
        let mut n = NL::new("t");
        let a = n.add_input("a");
        let zero = n.add_const(false);
        let g = n.add_gate(GateKind::Or, &[a, zero]).unwrap();
        n.mark_output(g, "y").unwrap();
        let r = lint(&n);
        assert_eq!(count(&r, "constant-output"), 1);
        let d = r.by_rule("constant-output").next().unwrap();
        let kind = GateKind::Or;
        assert_eq!(
            *d.message(),
            Message::TiedPin {
                pin: 1,
                value: false,
                kind
            }
        );
        assert_eq!(d.related, vec![zero]);
    }

    #[test]
    fn constant_output_clean_on_c17() {
        assert_eq!(count(&lint(&c17()), "constant-output"), 0);
    }

    // --- excessive-fanout ------------------------------------------------

    #[test]
    fn excessive_fanout_triggers_beyond_the_bound() {
        let mut n = NL::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        for i in 0..3 {
            let g = n.add_gate(GateKind::And, &[a, b]).unwrap();
            n.mark_output(g, format!("y{i}")).unwrap();
        }
        let tight = LintConfig {
            max_fanout: 2,
            ..LintConfig::default()
        };
        let r = lint_with(&n, tight);
        // a and b each drive 3 pins.
        assert_eq!(count(&r, "excessive-fanout"), 2);
        let d = r.by_rule("excessive-fanout").next().unwrap();
        assert_eq!(*d.message(), Message::Fanout { pins: 3, limit: 2 });
    }

    #[test]
    fn excessive_fanout_clean_at_default_on_library_circuits() {
        assert_eq!(count(&lint(&c17()), "excessive-fanout"), 0);
        assert_eq!(count(&lint(&ripple_carry_adder(8)), "excessive-fanout"), 0);
    }

    // --- deep-logic ------------------------------------------------------

    #[test]
    fn deep_logic_triggers_with_a_tight_bound() {
        let tight = LintConfig {
            max_depth: 5,
            ..LintConfig::default()
        };
        let r = lint_with(&ripple_carry_adder(16), tight);
        assert!(count(&r, "deep-logic") > 0);
        let d = r.by_rule("deep-logic").next().unwrap();
        assert!(matches!(d.message(), Message::DeepLogic { bound: 5, .. }));
    }

    #[test]
    fn deep_logic_clean_at_default() {
        assert_eq!(count(&lint(&ripple_carry_adder(16)), "deep-logic"), 0);
    }

    // --- latch-race ------------------------------------------------------

    #[test]
    fn latch_race_triggers_on_shift_register() {
        let r = lint(&shift_register(4));
        // Stages 1..3 are fed directly by the previous stage.
        assert_eq!(count(&r, "latch-race"), 3);
        let d = r.by_rule("latch-race").next().unwrap();
        assert_eq!(d.related.len(), 1);
        assert_eq!(
            *d.message(),
            Message::LatchRace {
                driver: d.related[0]
            }
        );
    }

    #[test]
    fn latch_race_clean_on_counter() {
        // Counter state feeds back through XOR/AND logic, never directly.
        assert_eq!(count(&lint(&binary_counter(4)), "latch-race"), 0);
    }

    // --- uninitializable-storage ----------------------------------------

    #[test]
    fn uninitializable_storage_triggers_on_counter() {
        // No reset: state can never be steered from power-up X.
        let r = lint(&binary_counter(4));
        assert_eq!(count(&r, "uninitializable-storage"), 4);
    }

    #[test]
    fn uninitializable_storage_clean_on_shift_register() {
        // Serial input reaches every stage.
        assert_eq!(
            count(&lint(&shift_register(4)), "uninitializable-storage"),
            0
        );
    }

    // --- hard-to-control / hard-to-observe -------------------------------

    #[test]
    fn hard_to_control_triggers_with_a_tight_limit() {
        let tight = LintConfig {
            controllability_limit: 5,
            ..LintConfig::default()
        };
        let r = lint_with(&ripple_carry_adder(16), tight);
        assert!(count(&r, "hard-to-control") > 0);
        let d = r.by_rule("hard-to-control").next().unwrap();
        assert!(matches!(
            d.message(),
            Message::HardToControl { limit: 5, .. }
        ));
    }

    #[test]
    fn hard_to_observe_triggers_with_a_tight_limit() {
        let tight = LintConfig {
            observability_limit: 5,
            ..LintConfig::default()
        };
        let r = lint_with(&ripple_carry_adder(16), tight);
        assert!(count(&r, "hard-to-observe") > 0);
    }

    #[test]
    fn scoap_rules_clean_at_default_limits() {
        for n in [c17(), ripple_carry_adder(16), parity_tree(16)] {
            let r = lint(&n);
            assert_eq!(count(&r, "hard-to-control"), 0, "{}", n.name());
            assert_eq!(count(&r, "hard-to-observe"), 0, "{}", n.name());
        }
    }

    #[test]
    fn infinite_costs_are_not_reported_as_hard() {
        // The counter's uncontrollable state is the uninitializable-storage
        // rule's finding, not a "hard but finite" one.
        let r = lint(&binary_counter(4));
        assert_eq!(count(&r, "hard-to-control"), 0);
    }

    // --- reconvergent-fanout ---------------------------------------------

    #[test]
    fn reconvergent_fanout_notes_c17() {
        let r = lint(&c17());
        assert!(count(&r, "reconvergent-fanout") > 0);
        for d in r.by_rule("reconvergent-fanout") {
            assert_eq!(d.severity, Severity::Info);
            assert_eq!(d.related.len(), 1);
        }
        // Info only: c17 still counts as clean.
        assert!(r.is_clean());
    }

    #[test]
    fn reconvergent_fanout_clean_on_fanout_free_tree() {
        assert_eq!(count(&lint(&parity_tree(8)), "reconvergent-fanout"), 0);
    }

    // --- redundant-logic / constant-implied-net --------------------------

    #[test]
    fn redundant_logic_fires_on_the_fixture() {
        // `live = OR(a,b)` is fully masked: its only reader ANDs it with
        // a net the implication closure proves constant 0.
        let n = redundant_fixture();
        let r = lint(&n);
        assert!(count(&r, "redundant-logic") > 0, "{}", r.to_text());
        let d = r.by_rule("redundant-logic").next().unwrap();
        assert_eq!(d.severity, Severity::Warning);
        assert!(matches!(d.message(), Message::Redundant { .. }));
    }

    #[test]
    fn redundant_logic_silent_on_c17() {
        assert_eq!(count(&lint(&c17()), "redundant-logic"), 0);
    }

    #[test]
    fn redundant_logic_matches_the_per_fault_reading() {
        // The batched rule must report exactly what asking the engine
        // fault by fault reports: same gates, witnesses and fold values.
        let circuits = [
            redundant_fixture(),
            shift_register(4),
            dft_netlist::circuits::random_combinational(15, 140, 6),
            dft_netlist::circuits::random_combinational(10, 90, 21),
        ];
        let mut flagged = 0;
        for n in circuits {
            let engine = dft_implic::ImplicationEngine::new(&n);
            let mut want = Vec::new();
            for (id, gate) in n.iter().filter(|(_, g)| !g.kind().is_source()) {
                let mut pins = vec![Pin::Output];
                pins.extend((0..gate.fanin()).map(|p| Pin::Input(p as u8)));
                let verdicts: Option<Vec<_>> = pins
                    .iter()
                    .flat_map(|&pin| [false, true].map(|s| engine.fault_untestable(id, pin, s)))
                    .collect();
                if let Some(reasons) = verdicts {
                    let value = engine.implied_constant(id).unwrap_or(false);
                    want.push((id, reasons.last().unwrap().to_string(), value));
                }
            }
            let report = lint(&n);
            let got: Vec<_> = report
                .by_rule("redundant-logic")
                .map(|d| {
                    let Some(FixHint::RemoveRedundant { gate, value }) = d.fix else {
                        panic!("redundant-logic carries a removal hint");
                    };
                    let Message::Redundant { witness, .. } = d.message() else {
                        panic!("redundant-logic names its witness");
                    };
                    (gate, witness.to_string(), value)
                })
                .collect();
            assert_eq!(got, want, "{}", n.name());
            flagged += got.len();
        }
        assert!(flagged > 1, "the circuits exercise the rule");
    }

    #[test]
    fn constant_implied_net_fires_on_the_fixture() {
        // `z = AND(a, NOT a)` is constant 0 only through implication —
        // no constant source feeds it, so `constant-output` stays silent
        // while this rule reports it with the conflict witness.
        let n = redundant_fixture();
        let r = lint(&n);
        assert_eq!(count(&r, "constant-output"), 0, "{}", r.to_text());
        assert!(count(&r, "constant-implied-net") > 0, "{}", r.to_text());
        let d = r.by_rule("constant-implied-net").next().unwrap();
        assert_eq!(*d.message(), Message::ImpliedConstant { value: false });
    }

    #[test]
    fn constant_implied_net_silent_on_c17() {
        assert_eq!(count(&lint(&c17()), "constant-implied-net"), 0);
    }

    #[test]
    fn implication_rules_silent_on_plainly_tied_constants() {
        // A net constant by simple propagation belongs to constant-output,
        // not to constant-implied-net.
        let mut n = NL::new("t");
        let a = n.add_input("a");
        let zero = n.add_const(false);
        let g = n.add_gate(GateKind::And, &[a, zero]).unwrap();
        n.mark_output(g, "y").unwrap();
        let r = lint(&n);
        assert_eq!(count(&r, "constant-output"), 1);
        assert_eq!(count(&r, "constant-implied-net"), 0);
    }

    // --- deep-unobservable-cone ------------------------------------------

    /// A linear XOR chain: observability cost climbs steadily away from
    /// the single output, so a tight limit buries the input end.
    fn xor_chain(stages: usize) -> NL {
        let mut n = NL::new("chain");
        let mut prev = n.add_input("a0");
        for i in 1..=stages {
            let b = n.add_input(format!("a{i}"));
            prev = n.add_gate(GateKind::Xor, &[prev, b]).unwrap();
        }
        n.mark_output(prev, "y").unwrap();
        n
    }

    #[test]
    fn deep_unobservable_cone_fires_once_at_the_cone_exit() {
        let tight = LintConfig {
            deep_cone_observability_limit: 10,
            deep_cone_min_gates: 4,
            ..LintConfig::default()
        };
        let r = lint_with(&xor_chain(30), tight);
        // The chain has one buried region, reported once at its exit —
        // not once per over-limit net.
        assert_eq!(count(&r, "deep-unobservable-cone"), 1, "{}", r.to_text());
        let d = r.by_rule("deep-unobservable-cone").next().unwrap();
        assert!(d.related.len() + 1 >= 4, "cone size: {}", d.related.len());
        assert_eq!(d.fix, Some(FixHint::ObservePoint { net: d.gate }));
    }

    #[test]
    fn deep_unobservable_cone_silent_at_defaults_on_library_circuits() {
        for n in [
            c17(),
            ripple_carry_adder(16),
            parity_tree(16),
            binary_counter(4),
            shift_register(4),
        ] {
            let r = lint(&n);
            assert_eq!(count(&r, "deep-unobservable-cone"), 0, "{}", n.name());
        }
    }

    #[test]
    fn deep_unobservable_cone_needs_a_cone_not_a_point() {
        // Same chain, but demand more buried gates than it has.
        let tight = LintConfig {
            deep_cone_observability_limit: 10,
            deep_cone_min_gates: 100,
            ..LintConfig::default()
        };
        let r = lint_with(&xor_chain(30), tight);
        assert_eq!(count(&r, "deep-unobservable-cone"), 0);
    }

    // --- implication-dead-region -----------------------------------------

    #[test]
    fn implication_dead_region_fires_on_the_fixture() {
        // y = AND(live, z) with z provably 0: y is the maximal constant
        // net, and na/z/live exist only to feed it.
        let n = redundant_fixture();
        let r = lint(&n);
        assert!(count(&r, "implication-dead-region") > 0, "{}", r.to_text());
        let d = r.by_rule("implication-dead-region").next().unwrap();
        assert!(!d.related.is_empty(), "region is the point of the rule");
        assert!(matches!(d.fix, Some(FixHint::FoldConstant { .. })));
    }

    #[test]
    fn implication_dead_region_silent_on_c17() {
        assert_eq!(count(&lint(&c17()), "implication-dead-region"), 0);
    }

    // --- x-source-into-compare -------------------------------------------

    #[test]
    fn x_source_into_compare_fires_on_the_counter_increment() {
        // The resetless counter's next-state XORs consume X from the
        // uninitializable state bits.
        let r = lint(&binary_counter(4));
        assert!(count(&r, "x-source-into-compare") > 0, "{}", r.to_text());
        let d = r.by_rule("x-source-into-compare").next().unwrap();
        assert!(!d.related.is_empty(), "the X sources are the witnesses");
        assert!(matches!(d.fix, Some(FixHint::ScanConvert { .. })));
        assert_eq!(d.code(), "DFT-016");
    }

    #[test]
    fn x_source_into_compare_silent_on_flushable_and_stateless_designs() {
        // Every shift-register stage can be steered from the serial
        // input; c17 has no storage at all.
        assert_eq!(count(&lint(&shift_register(4)), "x-source-into-compare"), 0);
        assert_eq!(count(&lint(&c17()), "x-source-into-compare"), 0);
    }

    // --- observability-dominator-bottleneck ------------------------------

    #[test]
    fn dominator_bottleneck_fires_once_at_the_outermost_funnel() {
        // Every chain gate dominates its whole tail; with a tight
        // observability limit a contiguous run of them qualifies, and the
        // outermost-dedup collapses that run to a single report.
        let tight = LintConfig {
            observability_limit: 10,
            ..LintConfig::default()
        };
        let r = lint_with(&xor_chain(30), tight);
        assert_eq!(
            count(&r, "observability-dominator-bottleneck"),
            1,
            "{}",
            r.to_text()
        );
        let d = r
            .by_rule("observability-dominator-bottleneck")
            .next()
            .unwrap();
        assert_eq!(d.fix, Some(FixHint::ObservePoint { net: d.gate }));
        assert_eq!(d.code(), "DFT-017");
    }

    #[test]
    fn dominator_bottleneck_needs_a_wide_region() {
        // Same chain and limit, but demand a wider dominated region than
        // any gate has.
        let tight = LintConfig {
            observability_limit: 10,
            dominator_min_gates: 1000,
            ..LintConfig::default()
        };
        let r = lint_with(&xor_chain(30), tight);
        assert_eq!(count(&r, "observability-dominator-bottleneck"), 0);
    }

    #[test]
    fn dominator_bottleneck_silent_at_defaults_on_library_circuits() {
        for n in [
            c17(),
            ripple_carry_adder(16),
            parity_tree(16),
            binary_counter(4),
            shift_register(4),
        ] {
            let r = lint(&n);
            assert_eq!(
                count(&r, "observability-dominator-bottleneck"),
                0,
                "{}",
                n.name()
            );
        }
    }

    // --- reconvergent-constant-mask --------------------------------------

    #[test]
    fn reconvergent_constant_mask_fires_on_the_fixture() {
        // In redundant_fixture the branches of `a` reconverge at
        // `z = AND(a, NOT a)`, constant 0 by implication.
        let n = redundant_fixture();
        let r = lint(&n);
        assert!(
            count(&r, "reconvergent-constant-mask") > 0,
            "{}",
            r.to_text()
        );
        let d = r.by_rule("reconvergent-constant-mask").next().unwrap();
        assert_eq!(d.related.len(), 1, "the constant meet is the witness");
        assert!(matches!(d.fix, Some(FixHint::FoldConstant { .. })));
        assert_eq!(d.code(), "DFT-018");
    }

    #[test]
    fn reconvergent_constant_mask_reports_each_meet_once() {
        let n = redundant_fixture();
        let r = lint(&n);
        let mut meets: Vec<GateId> = r
            .by_rule("reconvergent-constant-mask")
            .map(|d| d.related[0])
            .collect();
        meets.sort();
        meets.dedup();
        assert_eq!(
            meets.len(),
            count(&r, "reconvergent-constant-mask"),
            "one diagnostic per constant meet"
        );
    }

    #[test]
    fn reconvergent_constant_mask_silent_on_c17() {
        // c17 reconverges plenty, but no meet is constant.
        assert_eq!(count(&lint(&c17()), "reconvergent-constant-mask"), 0);
    }

    // --- fix hints ride along --------------------------------------------

    #[test]
    fn machine_applicable_fixes_are_attached() {
        let mut n = NL::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let live = n.add_gate(GateKind::And, &[a, b]).unwrap();
        let dead = n.add_gate(GateKind::Or, &[a, b]).unwrap();
        n.mark_output(live, "y").unwrap();
        let r = lint(&n);
        let d = r.by_rule("dead-logic").next().unwrap();
        assert_eq!(d.fix, Some(FixHint::ObservePoint { net: dead }));
        assert_eq!(d.code(), "DFT-003");
    }

    // --- whole-registry smoke --------------------------------------------

    #[test]
    fn c17_is_clean_overall() {
        let r = lint(&c17());
        assert!(r.is_clean(), "unexpected findings:\n{}", r.to_text());
        assert!(!r.has_errors());
    }
}
