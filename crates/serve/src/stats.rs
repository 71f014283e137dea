//! Server telemetry: the `/stats` document is a fold over the dft-obs
//! span trees that requests record.
//!
//! Each request records one tree (see [`crate::http`] and
//! [`crate::Service::handle_with`]); [`ServeStats::absorb`] adds a
//! finished tree to the running totals under one short `Mutex`, and
//! [`ServeStats::snapshot`] renders them. The fold knows three rules:
//!
//! * every counter in a tree adds to the total of the same name;
//! * a span carrying a `requests` count is one endpoint sample, keyed by
//!   the span's name, with its `errors` count and its duration;
//! * the durations of `serve.parse`, `serve.dispatch` and
//!   `serve.respond` add to `parse_ns`, `dispatch_ns` and `respond_ns`.
//!
//! The snapshot is a plain `dft-json` [`Value`] so the codec can embed
//! it verbatim and clients can navigate it without a schema of its own
//! beyond the `tessera-serve-stats/1` tag.

use std::collections::HashMap;
use std::sync::Mutex;

use dft_json::Value;
use dft_obs::SpanNode;

/// Latency samples kept per endpoint; older samples are dropped
/// reservoir-style (overwrite modulo capacity) so the percentiles track
/// recent behaviour without unbounded memory.
const LATENCY_CAPACITY: usize = 65_536;

/// The artifact hit/build counters, in document order — the observable
/// proof that the daemon reuses warm state instead of recomputing, and
/// that ECO edits ride the incremental path.
const ARTIFACT_KEYS: [&str; 17] = [
    "lint_hits",
    "lint_builds",
    "scoap_hits",
    "scoap_refreshes",
    "fault_sim_hits",
    "fault_sim_runs",
    "dictionary_hits",
    "dictionary_builds",
    "podem_warm",
    "podem_warmups",
    "podem_prefiltered",
    "podem_cdcl",
    "eco_incremental",
    "eco_rejected",
    "sessions_loaded",
    "sessions_reused",
    "sessions_dropped",
];

/// The transport totals, in document order.
const TRANSPORT_KEYS: [&str; 7] = [
    "connections",
    "bytes_in",
    "bytes_out",
    "parse_ns",
    "dispatch_ns",
    "respond_ns",
    "transport_errors",
];

/// The request phases whose span durations add to a transport total.
const PHASES: [(&str, &str); 3] = [
    ("serve.parse", "parse_ns"),
    ("serve.dispatch", "dispatch_ns"),
    ("serve.respond", "respond_ns"),
];

/// One endpoint's request samples.
#[derive(Debug, Default)]
struct Latencies {
    count: u64,
    errors: u64,
    total_ns: u64,
    samples: Vec<u64>,
}

#[derive(Debug, Default)]
struct Totals {
    counters: HashMap<String, u64>,
    /// Endpoints in first-use order.
    endpoints: Vec<(String, Latencies)>,
}

impl Totals {
    fn add(&mut self, name: &str, delta: u64) {
        match self.counters.get_mut(name) {
            Some(total) => *total = total.saturating_add(delta),
            None => {
                self.counters.insert(name.to_owned(), delta);
            }
        }
    }

    fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    fn fold(&mut self, span: &SpanNode) {
        for (name, &delta) in &span.counters {
            self.add(name, delta);
        }
        if let Some(&(_, total)) = PHASES.iter().find(|(phase, _)| *phase == span.name) {
            self.add(total, span.duration_ns);
        }
        let requests = span.counter("requests");
        if requests > 0 {
            let e = match self.endpoints.iter().position(|(n, _)| *n == span.name) {
                Some(i) => &mut self.endpoints[i].1,
                None => {
                    self.endpoints
                        .push((span.name.clone(), Latencies::default()));
                    &mut self.endpoints.last_mut().expect("just pushed").1
                }
            };
            #[allow(clippy::cast_possible_truncation)]
            let slot = e.count as usize % LATENCY_CAPACITY;
            e.count += requests;
            e.errors += span.counter("errors");
            e.total_ns += span.duration_ns;
            if e.samples.len() < LATENCY_CAPACITY {
                e.samples.push(span.duration_ns);
            } else {
                e.samples[slot] = span.duration_ns;
            }
        }
        for child in &span.children {
            self.fold(child);
        }
    }
}

/// All server telemetry: running totals over every absorbed request,
/// all zero by default.
#[derive(Debug, Default)]
pub struct ServeStats {
    totals: Mutex<Totals>,
}

impl ServeStats {
    /// Adds one finished request's span tree to the totals.
    pub fn absorb(&self, tree: &SpanNode) {
        self.totals.lock().expect("stats mutex poisoned").fold(tree);
    }

    /// The `/stats` document (`tessera-serve-stats/1`).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn snapshot(&self) -> Value {
        let totals = self.totals.lock().expect("stats mutex poisoned");
        let endpoints = totals
            .endpoints
            .iter()
            .map(|(name, e)| {
                let mut samples = e.samples.clone();
                samples.sort_unstable();
                let pct = |q: f64| -> f64 {
                    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                    let idx = ((samples.len() - 1) as f64 * q).round() as usize;
                    samples[idx] as f64 / 1_000.0
                };
                let fields = vec![
                    ("count".into(), Value::Num(e.count as f64)),
                    ("errors".into(), Value::Num(e.errors as f64)),
                    (
                        "mean_us".into(),
                        Value::Num(e.total_ns as f64 / e.count as f64 / 1_000.0),
                    ),
                    ("p50_us".into(), Value::Num(pct(0.50))),
                    ("p99_us".into(), Value::Num(pct(0.99))),
                ];
                (name.clone(), Value::Obj(fields))
            })
            .collect();
        let group = |keys: &[&str]| {
            Value::Obj(
                keys.iter()
                    .map(|&key| (key.to_owned(), Value::Num(totals.get(key) as f64)))
                    .collect(),
            )
        };
        Value::Obj(vec![
            ("schema".into(), Value::Str("tessera-serve-stats/1".into())),
            ("requests".into(), Value::Num(totals.get("requests") as f64)),
            ("endpoints".into(), Value::Obj(endpoints)),
            ("artifacts".into(), group(&ARTIFACT_KEYS)),
            ("transport".into(), group(&TRANSPORT_KEYS)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_obs::{Obs, Recorder};

    /// One request tree: an endpoint span with its counters inside the
    /// transport's phase spans.
    fn request(kind: &'static str, error: bool, counters: &[(&'static str, u64)]) -> SpanNode {
        let mut rec = Recorder::new();
        let mut obs = Obs::new(Some(&mut rec));
        obs.count("bytes_in", 10);
        obs.enter("serve.request");
        obs.enter("serve.dispatch");
        obs.enter(kind);
        obs.count("requests", 1);
        obs.count("errors", u64::from(error));
        for &(name, delta) in counters {
            obs.count(name, delta);
        }
        drop(obs);
        rec.finish("serve.connection").root
    }

    #[test]
    fn absorbs_and_snapshots() {
        let s = ServeStats::default();
        s.absorb(&request("lint", false, &[("lint_builds", 1)]));
        s.absorb(&request("eco", true, &[("eco_incremental", 3)]));
        s.absorb(&request("lint", false, &[("lint_hits", 1)]));

        let snap = s.snapshot();
        assert_eq!(
            snap.get("schema").and_then(Value::as_str),
            Some("tessera-serve-stats/1")
        );
        assert_eq!(snap.get("requests").and_then(Value::as_u64), Some(3));
        let endpoints = snap.get("endpoints").unwrap();
        let kinds: Vec<&str> = endpoints
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(kinds, ["lint", "eco"], "first-use order");
        let lint = endpoints.get("lint").unwrap();
        assert_eq!(lint.get("count").and_then(Value::as_u64), Some(2));
        assert_eq!(lint.get("errors").and_then(Value::as_u64), Some(0));
        assert!(lint.get("p99_us").and_then(Value::as_f64).unwrap() > 0.0);
        let eco = endpoints.get("eco").unwrap();
        assert_eq!(eco.get("errors").and_then(Value::as_u64), Some(1));
        // Untouched endpoints are omitted.
        assert!(endpoints.get("podem").is_none());

        let count = |group: &str, key: &str| {
            snap.get(group)
                .and_then(|g| g.get(key))
                .and_then(Value::as_u64)
        };
        assert_eq!(count("artifacts", "lint_builds"), Some(1));
        assert_eq!(count("artifacts", "lint_hits"), Some(1));
        assert_eq!(count("artifacts", "eco_incremental"), Some(3));
        assert_eq!(count("artifacts", "podem_cdcl"), Some(0));
        assert_eq!(count("transport", "bytes_in"), Some(30));
        assert!(count("transport", "dispatch_ns").unwrap() > 0);
        assert_eq!(count("transport", "parse_ns"), Some(0));
    }
}
