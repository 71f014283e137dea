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
//!
//! The same lines, mutated, check that the decoders and the service
//! survive malformed and unexpected input without panicking, and that
//! the service then still replays the clean corpus byte for byte.

use dft_bench::resolve_circuit;
use dft_json::Value;
use dft_serve::{
    decode_request, decode_response, encode_response, LoadError, Request, Response, Service,
};

const CORPUS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../serve/corpus");

/// A fresh service on the daemon's own resolver.
fn service() -> Service {
    Service::new(Box::new(|name: &str| {
        resolve_circuit(name).map_err(|e| LoadError {
            message: e.message,
            available: e.available,
        })
    }))
}

fn read(file: &str) -> String {
    std::fs::read_to_string(format!("{CORPUS}/{file}"))
        .unwrap_or_else(|e| panic!("cannot read {file}: {e}"))
}

/// The request lines of the corpus, comments and blank lines skipped.
fn request_lines(requests: &str) -> Vec<&str> {
    requests
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
        .collect()
}

#[test]
fn corpus_replays_byte_identically_with_pinned_artifact_counts() {
    let service = service();
    let requests = read("requests.jsonl");
    let golden = read("responses.golden.jsonl");

    let lines = request_lines(&requests);
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

/// The bytes a substitution writes: JSON's structural characters, a
/// digit and a space.
const SUBSTITUTES: [u8; 10] = [b'"', b'\\', b'{', b'}', b'[', b']', b',', b':', b'0', b' '];

/// Every truncation of `line`, then every single-byte substitution with
/// one of [`SUBSTITUTES`] that changes it. Mutants that are not UTF-8
/// (a cut or a substitution inside a multi-byte character) are skipped:
/// the decoders take `&str`.
fn mutants(line: &str) -> impl Iterator<Item = String> + '_ {
    let truncations = (0..line.len())
        .filter(|&end| line.is_char_boundary(end))
        .map(|end| line[..end].to_owned());
    let substitutions = (0..line.len()).flat_map(move |i| {
        SUBSTITUTES
            .iter()
            .filter(move |&&b| line.as_bytes()[i] != b)
            .filter_map(move |&b| {
                let mut bytes = line.as_bytes().to_vec();
                bytes[i] = b;
                String::from_utf8(bytes).ok()
            })
    });
    truncations.chain(substitutions)
}

#[test]
fn mutated_corpus_lines_never_panic_the_decoders_or_the_service() {
    let service = service();
    let requests = read("requests.jsonl");
    let (mut mutants_seen, mut answered) = (0, 0);
    for line in request_lines(&requests) {
        for mutant in mutants(line) {
            mutants_seen += 1;
            if let Ok(req) = decode_request(&mutant) {
                let _ = encode_response(&service.handle(&req));
                answered += 1;
            }
        }
        // The clean line moves the session state on as the replay does,
        // so the next line's mutants meet the designs it loaded.
        let req = decode_request(line).expect("corpus lines decode");
        let _ = service.handle(&req);
    }
    assert!(
        answered > 0 && answered < mutants_seen,
        "{answered} of {mutants_seen} mutated requests decoded"
    );

    // Whatever the mutants did, the service must still answer the clean
    // corpus exactly: drop every resident design, then replay it.
    let Response::Designs { designs } = service.handle(&Request::Designs) else {
        panic!("designs must answer");
    };
    for info in designs {
        let dropped = service.handle(&Request::Drop { design: info.key });
        assert!(matches!(dropped, Response::Dropped { .. }), "{dropped:?}");
    }
    let golden = read("responses.golden.jsonl");
    for (line, want) in request_lines(&requests).into_iter().zip(golden.lines()) {
        let req = decode_request(line).expect("corpus lines decode");
        let got = encode_response(&service.handle(&req));
        assert_eq!(
            got, want,
            "clean replay after the mutations diverged for {line}"
        );
    }

    for line in golden.lines() {
        for mutant in mutants(line) {
            let _ = decode_response(&mutant);
        }
    }
}
