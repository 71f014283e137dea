//! The tessera-serve golden corpus, replayed in-process.
//!
//! Each line of `crates/serve/corpus/requests.jsonl` goes through
//! `decode_request` → [`Service::handle`] → `encode_response` against a
//! fresh service on the daemon's own resolver, and must equal the same
//! line of `responses.golden.jsonl` byte for byte — the check CI's
//! serve-smoke job makes over HTTP, without the socket. The `/stats`
//! artifact counters the replay leaves behind are pinned too: they are
//! the observable proof of which requests hit warm state and which
//! built it.

use dft_bench::resolve_circuit;
use dft_json::Value;
use dft_serve::{decode_request, encode_response, LoadError, Request, Response, Service};

const CORPUS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../serve/corpus");

#[test]
fn corpus_replays_byte_identically_with_pinned_artifact_counts() {
    let service = Service::new(Box::new(|name: &str| {
        resolve_circuit(name).map_err(|e| LoadError {
            message: e.message,
            available: e.available,
        })
    }));
    let read = |file: &str| {
        std::fs::read_to_string(format!("{CORPUS}/{file}"))
            .unwrap_or_else(|e| panic!("cannot read {file}: {e}"))
    };
    let requests = read("requests.jsonl");
    let golden = read("responses.golden.jsonl");

    let lines: Vec<&str> = requests
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
        .collect();
    let expected: Vec<&str> = golden.lines().collect();
    assert_eq!(lines.len(), expected.len(), "one golden line per request");
    for (i, (line, want)) in lines.iter().zip(&expected).enumerate() {
        let req = decode_request(line).unwrap_or_else(|e| panic!("request {i}: {e}"));
        let got = encode_response(&service.handle(&req));
        assert_eq!(got, *want, "response {i} diverged for {line}");
    }

    let Response::Stats { stats } = service.handle(&Request::Stats) else {
        panic!("stats must answer");
    };
    let artifacts: Vec<(&str, u64)> = stats
        .get("artifacts")
        .and_then(Value::as_object)
        .expect("stats carries an artifacts object")
        .iter()
        .map(|(key, value)| (key.as_str(), value.as_u64().expect("counts are integers")))
        .collect();
    assert_eq!(
        artifacts,
        [
            ("lint_hits", 0),
            ("lint_builds", 2),
            ("scoap_hits", 0),
            ("scoap_refreshes", 4),
            ("fault_sim_hits", 1),
            ("fault_sim_runs", 1),
            ("dictionary_hits", 0),
            ("dictionary_builds", 1),
            ("podem_warm", 1),
            ("podem_warmups", 3),
            ("podem_prefiltered", 0),
            ("podem_cdcl", 1),
            ("eco_incremental", 1),
            ("eco_rejected", 0),
            ("sessions_loaded", 4),
            ("sessions_reused", 1),
            ("sessions_dropped", 3),
        ]
    );
}
