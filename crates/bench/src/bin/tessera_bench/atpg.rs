//! The ATPG section (`BENCH_atpg.json`): PODEM over each circuit's
//! dominance-collapsed targets with the static implication engine off
//! and on (the pruning win of analyzing before searching), then the
//! threaded deterministic flow timed per thread count, with every
//! configuration's test set hashed to show the thread count never
//! changes it.

use std::time::Instant;

use dft_atpg::{generate_tests, AtpgConfig, DetDriver, GenOutcome, Podem, PodemConfig};
use dft_fault::{dominance_collapse, prefilter_untestable, universe};
use dft_json::Value;
use dft_netlist::Netlist;
use dft_obs::Recorder;
use dft_sim::PatternSet;

use crate::circuit;
use crate::doc::{fixed, flag, num, obj};

/// The implication-pruning roster; the first three are the `--quick`
/// roster.
const PRUNING: [&str; 4] = ["redundant-fixture", "c17", "rand_12x80", "rand_16x300"];

/// The flow-scaling roster: the pruning roster, plus under `--quick`
/// two deeper circuits, so per-fault solver work outweighs the flow's
/// fixed costs (solver compile, final compaction).
fn flow_roster(quick: bool) -> Vec<&'static str> {
    if quick {
        [&PRUNING[..3], &["rand_14x120", "rand_15x140"]].concat()
    } else {
        PRUNING.to_vec()
    }
}

/// The flow-scaling configurations: the no-dropping single-thread
/// baseline, then collateral dropping at 1/2/4/8 threads.
const CONFIGS: [(&str, usize, bool); 5] = [
    ("serial_nodrop", 1, false),
    ("t1", 1, true),
    ("t2", 2, true),
    ("t4", 4, true),
    ("t8", 8, true),
];

/// Runs the section.
pub fn run(quick: bool) -> Value {
    let records: Vec<Value> = PRUNING[..if quick { 3 } else { PRUNING.len() }]
        .iter()
        .map(|&name| pruning_record(name))
        .collect();
    let total = |mode: &str| -> u64 {
        let backtracks = |r: &Value| {
            r.get(mode)
                .and_then(|m| m.get("backtracks"))
                .and_then(Value::as_u64)
        };
        records.iter().filter_map(backtracks).sum()
    };
    let (without, with) = (total("without_implications"), total("with_implications"));
    let (flow_records, scaling) = flow_scaling(quick);
    let dropping: Vec<&Value> = scaling
        .iter()
        .filter(|r| flag(r, "collateral_dropping"))
        .collect();
    let identical = dropping
        .windows(2)
        .all(|w| w[0].get("pattern_hash") == w[1].get("pattern_hash"));
    // On one core this is pure work avoidance (fewer solver calls);
    // with real cores the thread scaling stacks on top.
    let speedup = num(&scaling[0], "seconds") / num(dropping[dropping.len() - 1], "seconds");
    obj! {
        "bench" => "atpg_implication_pruning",
        "quick" => quick,
        "records" => Value::Arr(records),
        "total_backtracks_without" => without,
        "total_backtracks_with" => with,
        "strictly_fewer" => with < without,
        "flow_records" => Value::Arr(flow_records),
        "flow_scaling" => Value::Arr(scaling),
        "identical_across_threads" => identical,
        "speedup_t8_vs_serial_nodrop" => fixed(speedup, 2),
    }
}

/// One circuit's PODEM effort over its dominance-collapsed targets,
/// implication pruning off and on; `static_untestable` counts the
/// targets `dft-implic` proves untestable with no search.
fn pruning_record(name: &str) -> Value {
    let n = circuit(name);
    let targets = dominance_collapse(&n);
    let pass = |use_implications: bool| {
        let config = PodemConfig::new().with_use_implications(use_implications);
        let podem = Podem::new(&n, config).expect("roster circuits levelize");
        let mut outcomes = [0usize; 3];
        let (mut backtracks, mut conflicts) = (0u64, 0u64);
        let t = Instant::now();
        for &fault in &targets {
            let (outcome, stats) = podem.solve(fault);
            outcomes[match outcome {
                GenOutcome::Test(_) => 0,
                GenOutcome::Untestable => 1,
                GenOutcome::Aborted => 2,
            }] += 1;
            backtracks += u64::from(stats.backtracks);
            conflicts += u64::from(stats.implication_conflicts);
        }
        let seconds = t.elapsed().as_secs_f64();
        obj! {
            "tested" => outcomes[0],
            "untestable" => outcomes[1],
            "aborted" => outcomes[2],
            "backtracks" => backtracks,
            "implication_conflicts" => conflicts,
            "seconds" => fixed(seconds, 6),
        }
    };
    obj! {
        "circuit" => name,
        "gates" => n.gate_count(),
        "faults" => universe(&n).len(),
        "targets" => targets.len(),
        "static_untestable" => prefilter_untestable(&n, &targets).untestable_count(),
        "without_implications" => pass(false),
        "with_implications" => pass(true),
    }
}

/// Times the deterministic phase of the full `generate_tests` flow
/// (random budget 0, so that phase dominates) over the flow roster, once
/// per configuration. Solver compile stays outside the timer; the
/// patterns come from the full flow, untimed, and `attempts` from the
/// totals the phase flushes onto its caller's span. Returns the last (t8)
/// configuration's per-circuit flow records and one row per
/// configuration; `pattern_hash` is FNV-1a over every final pattern bit,
/// roster order.
fn flow_scaling(quick: bool) -> (Vec<Value>, Vec<Value>) {
    let roster: Vec<(&str, Netlist)> = flow_roster(quick)
        .into_iter()
        .map(|name| (name, circuit(name)))
        .collect();
    let mut records = Vec::new();
    let rows = CONFIGS.map(|(config, threads, dropping)| {
        let atpg = AtpgConfig::new()
            .with_random_budget(0)
            .with_threads(threads)
            .with_collateral_dropping(dropping);
        let (mut seconds, mut patterns, mut attempts) = (0.0, 0, 0);
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        records.clear();
        for &(name, ref n) in &roster {
            let faults = universe(n);
            let queue: Vec<usize> = (0..faults.len()).collect();
            let driver = DetDriver::new(n, &atpg).expect("roster circuits levelize");
            let mut rec = Recorder::new();
            let t = Instant::now();
            let _ = driver.run(&faults, &queue, Some(&mut rec));
            seconds += t.elapsed().as_secs_f64();
            attempts += rec.finish(name).root.counter("attempts");
            let run = generate_tests(n, &faults, &atpg).expect("roster circuits levelize");
            patterns += run.patterns.len();
            hash_patterns(&mut hash, &run.patterns);
            records.push(obj! {
                "circuit" => name,
                "patterns" => run.patterns.len(),
                "coverage" => fixed(run.coverage(), 4),
                "detected_coverage" => fixed(run.detected_coverage(), 4),
            });
        }
        obj! {
            "config" => config,
            "threads" => threads,
            "collateral_dropping" => dropping,
            "seconds" => fixed(seconds, 6),
            "patterns" => patterns,
            "attempts" => attempts,
            "pattern_hash" => format!("{hash:#018x}"),
        }
    });
    (records, rows.into())
}

fn fnv1a(hash: &mut u64, byte: u8) {
    *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
}

fn hash_patterns(hash: &mut u64, set: &PatternSet) {
    for p in 0..set.len() {
        for bit in set.get(p) {
            fnv1a(hash, u8::from(bit));
        }
        fnv1a(hash, 0xFF); // row separator
    }
    fnv1a(hash, 0xFE); // set separator
}
