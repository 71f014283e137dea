//! The incremental-analysis section (`BENCH_analysis.json`): per roster
//! circuit, single-gate rewire ECOs stream through a warmed
//! [`AnalysisCache`], each apply-plus-resolve timed against a
//! from-scratch pass, and the maintained results are checked bit for bit
//! against a fresh cache over the final netlist.

use std::time::Instant;

use dft_analyze::{AnalysisCache, NetlistDelta};
use dft_json::Value;
use dft_netlist::GateId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::circuit;
use crate::doc::{fixed, flag, obj};

/// The analysis roster; the first two are the `--quick` roster.
const ROSTER: [&str; 4] = ["c17", "rand_16x300", "rand_24x2000", "rand_28x6000"];

/// ECOs streamed through each circuit's cache.
const EDITS: usize = 64;

/// Runs the section. `all_equivalent` is its self-check.
pub fn run(quick: bool) -> Value {
    let records: Vec<Value> = ROSTER[..if quick { 2 } else { ROSTER.len() }]
        .iter()
        .map(|&name| record(name))
        .collect();
    let all_equivalent = records.iter().all(|r| flag(r, "equivalent"));
    obj! {
        "bench" => "analysis_eco",
        "schema" => "tessera-analysis/1",
        "quick" => quick,
        "records" => Value::Arr(records),
        "all_equivalent" => all_equivalent,
    }
}

fn warm_analyses(cache: &mut AnalysisCache) {
    cache.scoap();
    cache.constants();
    cache.xprop();
}

/// One circuit's measurement: the mean from-scratch pass (cache build,
/// SCOAP, constants, X-prop) against the per-edit time of the ECO
/// stream. Per-edit latency is heavy-tailed (a rewire near the inputs of
/// a deep circuit cascades through most of it), so both the median (the
/// typical ECO, the headline `speedup`) and the mean (the whole stream's
/// amortized cost) are reported.
fn record(name: &str) -> Value {
    let n = circuit(name);
    let reps = if n.gate_count() >= 1000 { 5 } else { 20 };
    let t = Instant::now();
    for _ in 0..reps {
        warm_analyses(&mut AnalysisCache::new(&n).expect("roster circuits levelize"));
    }
    let full = t.elapsed().as_secs_f64() / f64::from(reps);

    let mut cache = AnalysisCache::new(&n).expect("roster circuits levelize");
    warm_analyses(&mut cache);
    let mut rng = StdRng::seed_from_u64(0x7e55_e7a5 ^ n.gate_count() as u64);
    let mut per_edit: Vec<f64> = Vec::with_capacity(EDITS);
    for _ in 0..EDITS {
        // Edit generation stays outside the timer.
        let Some(delta) = random_downhill_rewire(&cache, &mut rng) else {
            break;
        };
        let t = Instant::now();
        cache.apply(&delta).expect("downhill rewires cannot cycle");
        warm_analyses(&mut cache);
        per_edit.push(t.elapsed().as_secs_f64());
    }
    let edits = per_edit.len();
    let mean = per_edit.iter().sum::<f64>() / edits.max(1) as f64;
    per_edit.sort_by(f64::total_cmp);
    let median = per_edit.get(edits / 2).copied().unwrap_or(0.0);

    let mut fresh = AnalysisCache::new(cache.netlist()).expect("edited netlists levelize");
    let equivalent = cache.scoap().cc == fresh.scoap().cc
        && cache.scoap().co == fresh.scoap().co
        && cache.constants() == fresh.constants()
        && cache.xprop() == fresh.xprop();
    obj! {
        "circuit" => name,
        "gates" => n.gate_count(),
        "edits" => edits,
        "full_recompute_seconds" => fixed(full, 9),
        "per_eco_median_seconds" => fixed(median, 9),
        "per_eco_mean_seconds" => fixed(mean, 9),
        "speedup" => fixed(full / median.max(1e-12), 1),
        "mean_speedup" => fixed(full / mean.max(1e-12), 1),
        "equivalent" => equivalent,
    }
}

/// Picks a random logic gate and rewires one of its pins to a random
/// gate at a strictly lower level. Levels strictly increase along every
/// edge, so a downhill rewire never closes a cycle and every generated
/// ECO applies. The new source comes from a window a few levels below
/// the gate (any lower level when the window is empty), as a real
/// engineering change patches locally.
fn random_downhill_rewire(cache: &AnalysisCache, rng: &mut StdRng) -> Option<NetlistDelta> {
    let n = cache.netlist();
    let rewirable: Vec<GateId> = n
        .iter()
        .filter(|(_, g)| !g.kind().is_source())
        .map(|(id, _)| id)
        .collect();
    if rewirable.is_empty() {
        return None;
    }
    for _ in 0..64 {
        let gate = rewirable[rng.gen_range(0..rewirable.len())];
        let inputs = n.gate(gate).inputs();
        let pin = rng.gen_range(0..inputs.len());
        let level = cache.level(gate);
        let below = |floor: u32| -> Vec<GateId> {
            n.ids()
                .filter(|&s| (floor..level).contains(&cache.level(s)) && s != inputs[pin])
                .collect()
        };
        let mut lower = below(level.saturating_sub(3));
        if lower.is_empty() {
            lower = below(0);
        }
        if !lower.is_empty() {
            let new_src = lower[rng.gen_range(0..lower.len())];
            return Some(NetlistDelta::Rewire { gate, pin, new_src });
        }
    }
    None
}
