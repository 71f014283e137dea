//! Server telemetry: per-endpoint latency, artifact hit/build counters
//! and request-phase timings, snapshotted as the `/stats` document.
//!
//! Everything is lock-free atomics except the latency reservoirs (one
//! short `Mutex<Vec<u64>>` per endpoint, appended once per request).
//! The snapshot is a plain `dft-json` [`Value`] so the codec can embed
//! it verbatim and clients can navigate it without a schema of its own
//! beyond the `tessera-serve-stats/1` tag.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use dft_json::Value;

use crate::api::Request;

/// Latency samples kept per endpoint; older samples are dropped
/// reservoir-style (overwrite modulo capacity) so the percentiles track
/// recent behaviour without unbounded memory.
const LATENCY_CAPACITY: usize = 65_536;

/// The dispatch endpoints, in stats order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// `load`
    Load,
    /// `load-bench`
    LoadBench,
    /// `drop`
    Drop,
    /// `designs`
    Designs,
    /// `lint`
    Lint,
    /// `scoap`
    Scoap,
    /// `fault-sim`
    FaultSim,
    /// `dictionary`
    Dictionary,
    /// `podem`
    Podem,
    /// `eco`
    Eco,
    /// `stats`
    Stats,
    /// `shutdown`
    Shutdown,
}

impl Endpoint {
    /// All endpoints, in stats order.
    pub const ALL: [Endpoint; 12] = [
        Endpoint::Load,
        Endpoint::LoadBench,
        Endpoint::Drop,
        Endpoint::Designs,
        Endpoint::Lint,
        Endpoint::Scoap,
        Endpoint::FaultSim,
        Endpoint::Dictionary,
        Endpoint::Podem,
        Endpoint::Eco,
        Endpoint::Stats,
        Endpoint::Shutdown,
    ];

    /// The wire name (same as the request type).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Endpoint::Load => "load",
            Endpoint::LoadBench => "load-bench",
            Endpoint::Drop => "drop",
            Endpoint::Designs => "designs",
            Endpoint::Lint => "lint",
            Endpoint::Scoap => "scoap",
            Endpoint::FaultSim => "fault-sim",
            Endpoint::Dictionary => "dictionary",
            Endpoint::Podem => "podem",
            Endpoint::Eco => "eco",
            Endpoint::Stats => "stats",
            Endpoint::Shutdown => "shutdown",
        }
    }

    /// The endpoint a request dispatches to.
    #[must_use]
    pub fn of(req: &Request) -> Endpoint {
        match req {
            Request::Load { .. } => Endpoint::Load,
            Request::LoadBench { .. } => Endpoint::LoadBench,
            Request::Drop { .. } => Endpoint::Drop,
            Request::Designs => Endpoint::Designs,
            Request::Lint { .. } => Endpoint::Lint,
            Request::Scoap { .. } => Endpoint::Scoap,
            Request::FaultSim { .. } => Endpoint::FaultSim,
            Request::Dictionary { .. } => Endpoint::Dictionary,
            Request::Podem { .. } => Endpoint::Podem,
            Request::Eco { .. } => Endpoint::Eco,
            Request::Stats => Endpoint::Stats,
            Request::Shutdown => Endpoint::Shutdown,
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

#[derive(Debug, Default)]
struct EndpointStats {
    count: AtomicU64,
    errors: AtomicU64,
    total_ns: AtomicU64,
    samples: Mutex<Vec<u64>>,
}

/// The artifact hit/build counters — the observable proof that the
/// daemon reuses warm state instead of recomputing, and that ECO edits
/// ride the incremental path.
#[derive(Debug, Default)]
pub struct ArtifactCounters {
    /// Lint reports served from the warm cache.
    pub lint_hits: AtomicU64,
    /// Lint reports built.
    pub lint_builds: AtomicU64,
    /// SCOAP summaries served from a clean cache.
    pub scoap_hits: AtomicU64,
    /// SCOAP refreshes (full on first touch, incremental after ECO).
    pub scoap_refreshes: AtomicU64,
    /// Fault-sim figures served from the slot.
    pub fault_sim_hits: AtomicU64,
    /// Fault-sim runs computed.
    pub fault_sim_runs: AtomicU64,
    /// Dictionaries served from the slot.
    pub dictionary_hits: AtomicU64,
    /// Dictionaries built.
    pub dictionary_builds: AtomicU64,
    /// PODEM queries answered with all support artifacts already warm.
    pub podem_warm: AtomicU64,
    /// PODEM support warm-ups (universe/prefilter/kernel builds).
    pub podem_warmups: AtomicU64,
    /// PODEM verdicts the implication prefilter answered searchlessly.
    pub podem_prefiltered: AtomicU64,
    /// PODEM verdicts the CDCL prover settled after the search spent its
    /// budget.
    pub podem_cdcl: AtomicU64,
    /// ECO edits applied through `AnalysisCache::apply` — every one of
    /// them incremental (the session has no full-rebuild path).
    pub eco_incremental: AtomicU64,
    /// ECO edits rejected by validation.
    pub eco_rejected: AtomicU64,
    /// Sessions loaded.
    pub sessions_loaded: AtomicU64,
    /// Load requests that found the design already resident.
    pub sessions_reused: AtomicU64,
    /// Sessions dropped.
    pub sessions_dropped: AtomicU64,
}

/// Request-phase totals in nanoseconds (`serve.request` =
/// parse + dispatch + respond), fed by the HTTP layer's span recorder.
#[derive(Debug, Default)]
pub struct PhaseTotals {
    /// Bytes read off sockets.
    pub bytes_in: AtomicU64,
    /// Bytes written to sockets.
    pub bytes_out: AtomicU64,
    /// Time parsing requests.
    pub parse_ns: AtomicU64,
    /// Time dispatching into the service core.
    pub dispatch_ns: AtomicU64,
    /// Time serializing and writing responses.
    pub respond_ns: AtomicU64,
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Requests rejected before dispatch (oversize, malformed HTTP).
    pub transport_errors: AtomicU64,
}

/// All server telemetry.
#[derive(Debug)]
pub struct ServeStats {
    endpoints: Vec<EndpointStats>,
    /// Artifact reuse counters.
    pub artifacts: ArtifactCounters,
    /// Transport phase totals.
    pub phases: PhaseTotals,
}

impl Default for ServeStats {
    fn default() -> Self {
        ServeStats::new()
    }
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

impl ServeStats {
    /// Fresh, all-zero telemetry.
    #[must_use]
    pub fn new() -> Self {
        ServeStats {
            endpoints: Endpoint::ALL
                .iter()
                .map(|_| EndpointStats::default())
                .collect(),
            artifacts: ArtifactCounters::default(),
            phases: PhaseTotals::default(),
        }
    }

    /// Records one dispatched request.
    pub fn record(&self, endpoint: Endpoint, latency_ns: u64, is_error: bool) {
        let e = &self.endpoints[endpoint.index()];
        let n = e.count.fetch_add(1, Ordering::Relaxed);
        if is_error {
            bump(&e.errors);
        }
        e.total_ns.fetch_add(latency_ns, Ordering::Relaxed);
        let mut samples = e.samples.lock().expect("stats mutex poisoned");
        #[allow(clippy::cast_possible_truncation)]
        if samples.len() < LATENCY_CAPACITY {
            samples.push(latency_ns);
        } else {
            samples[(n as usize) % LATENCY_CAPACITY] = latency_ns;
        }
    }

    /// Increments a counter by reference — sugar for call sites outside
    /// this module.
    pub fn hit(counter: &AtomicU64) {
        bump(counter);
    }

    /// Adds `delta` to a counter.
    pub fn add(counter: &AtomicU64, delta: u64) {
        counter.fetch_add(delta, Ordering::Relaxed);
    }

    /// Total dispatched requests across all endpoints.
    #[must_use]
    pub fn total_requests(&self) -> u64 {
        self.endpoints
            .iter()
            .map(|e| e.count.load(Ordering::Relaxed))
            .sum()
    }

    /// The `/stats` document (`tessera-serve-stats/1`).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn snapshot(&self) -> Value {
        let mut endpoints = Vec::new();
        for (endpoint, e) in Endpoint::ALL.iter().zip(&self.endpoints) {
            let count = e.count.load(Ordering::Relaxed);
            if count == 0 {
                continue;
            }
            let mut samples = e.samples.lock().expect("stats mutex poisoned").clone();
            samples.sort_unstable();
            let pct = |q: f64| -> f64 {
                if samples.is_empty() {
                    return 0.0;
                }
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let idx = ((samples.len() - 1) as f64 * q).round() as usize;
                samples[idx] as f64 / 1_000.0
            };
            let total_ns = e.total_ns.load(Ordering::Relaxed);
            endpoints.push((
                endpoint.as_str().to_owned(),
                Value::Obj(vec![
                    ("count".into(), Value::Num(count as f64)),
                    (
                        "errors".into(),
                        Value::Num(e.errors.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "mean_us".into(),
                        Value::Num(total_ns as f64 / count as f64 / 1_000.0),
                    ),
                    ("p50_us".into(), Value::Num(pct(0.50))),
                    ("p99_us".into(), Value::Num(pct(0.99))),
                ]),
            ));
        }

        let a = &self.artifacts;
        let p = &self.phases;
        let num = |c: &AtomicU64| Value::Num(c.load(Ordering::Relaxed) as f64);
        Value::Obj(vec![
            ("schema".into(), Value::Str("tessera-serve-stats/1".into())),
            ("requests".into(), Value::Num(self.total_requests() as f64)),
            ("endpoints".into(), Value::Obj(endpoints)),
            (
                "artifacts".into(),
                Value::Obj(vec![
                    ("lint_hits".into(), num(&a.lint_hits)),
                    ("lint_builds".into(), num(&a.lint_builds)),
                    ("scoap_hits".into(), num(&a.scoap_hits)),
                    ("scoap_refreshes".into(), num(&a.scoap_refreshes)),
                    ("fault_sim_hits".into(), num(&a.fault_sim_hits)),
                    ("fault_sim_runs".into(), num(&a.fault_sim_runs)),
                    ("dictionary_hits".into(), num(&a.dictionary_hits)),
                    ("dictionary_builds".into(), num(&a.dictionary_builds)),
                    ("podem_warm".into(), num(&a.podem_warm)),
                    ("podem_warmups".into(), num(&a.podem_warmups)),
                    ("podem_prefiltered".into(), num(&a.podem_prefiltered)),
                    ("podem_cdcl".into(), num(&a.podem_cdcl)),
                    ("eco_incremental".into(), num(&a.eco_incremental)),
                    ("eco_rejected".into(), num(&a.eco_rejected)),
                    ("sessions_loaded".into(), num(&a.sessions_loaded)),
                    ("sessions_reused".into(), num(&a.sessions_reused)),
                    ("sessions_dropped".into(), num(&a.sessions_dropped)),
                ]),
            ),
            (
                "transport".into(),
                Value::Obj(vec![
                    ("connections".into(), num(&p.connections)),
                    ("bytes_in".into(), num(&p.bytes_in)),
                    ("bytes_out".into(), num(&p.bytes_out)),
                    ("parse_ns".into(), num(&p.parse_ns)),
                    ("dispatch_ns".into(), num(&p.dispatch_ns)),
                    ("respond_ns".into(), num(&p.respond_ns)),
                    ("transport_errors".into(), num(&p.transport_errors)),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_snapshots() {
        let s = ServeStats::new();
        s.record(Endpoint::Lint, 2_000, false);
        s.record(Endpoint::Lint, 4_000, false);
        s.record(Endpoint::Eco, 1_000, true);
        ServeStats::hit(&s.artifacts.lint_builds);
        ServeStats::add(&s.artifacts.eco_incremental, 3);
        assert_eq!(s.total_requests(), 3);

        let snap = s.snapshot();
        assert_eq!(
            snap.get("schema").and_then(Value::as_str),
            Some("tessera-serve-stats/1")
        );
        assert_eq!(snap.get("requests").and_then(Value::as_u64), Some(3));
        let lint = snap
            .get("endpoints")
            .and_then(|e| e.get("lint"))
            .expect("lint endpoint present");
        assert_eq!(lint.get("count").and_then(Value::as_u64), Some(2));
        assert_eq!(lint.get("errors").and_then(Value::as_u64), Some(0));
        assert!(lint.get("p99_us").and_then(Value::as_f64).unwrap() >= 2.0);
        let eco = snap.get("endpoints").and_then(|e| e.get("eco")).unwrap();
        assert_eq!(eco.get("errors").and_then(Value::as_u64), Some(1));
        // Untouched endpoints are omitted.
        assert!(snap.get("endpoints").unwrap().get("podem").is_none());
        let artifacts = snap.get("artifacts").unwrap();
        assert_eq!(
            artifacts.get("eco_incremental").and_then(Value::as_u64),
            Some(3)
        );
    }
}
