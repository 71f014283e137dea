//! Full-stack round trip: typed request → codec → HTTP/1.1 → service →
//! codec → typed response, through a real TCP socket and the shipped
//! [`Client`].

use std::sync::Arc;

use dft_netlist::circuits;
use dft_serve::{
    serve, Client, EcoEdit, ErrorCode, LoadError, PodemOutcome, Request, Response, ServerConfig,
    Service,
};

fn test_service() -> Arc<Service> {
    Arc::new(Service::new(Box::new(|name: &str| match name {
        "c17" => Ok(circuits::c17()),
        other => Err(LoadError {
            message: format!("unknown circuit '{other}'"),
            available: vec!["c17".into()],
        }),
    })))
}

#[test]
fn typed_requests_survive_the_socket() {
    let service = test_service();
    let handle = serve(
        Arc::clone(&service),
        &ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 4,
            ..ServerConfig::default()
        },
    )
    .expect("bind an ephemeral port");
    let mut client = Client::new(handle.addr());

    let resp = client
        .request(&Request::Load {
            circuit: "c17".into(),
        })
        .expect("load round-trips");
    let Response::Loaded(info) = resp else {
        panic!("expected Loaded, got {resp:?}");
    };
    assert_eq!(info.design, "c17");
    assert_eq!(info.revision, 0);

    let resp = client
        .request(&Request::Lint {
            design: "c17".into(),
        })
        .expect("lint round-trips");
    let Response::Lint { design, infos, .. } = resp else {
        panic!("expected Lint, got {resp:?}");
    };
    assert_eq!(design, "c17");
    assert!(infos > 0, "c17 carries reconvergent-fanout notes");

    let resp = client
        .request(&Request::Podem {
            design: "c17".into(),
            gate: info.gates - 1,
            pin: None,
            stuck: false,
        })
        .expect("podem round-trips");
    let Response::Podem { outcome, cube, .. } = resp else {
        panic!("expected Podem, got {resp:?}");
    };
    assert_eq!(outcome, PodemOutcome::Test);
    assert!(cube.is_some());

    let resp = client
        .request(&Request::Eco {
            design: "c17".into(),
            edits: vec![EcoEdit::AddGate {
                kind: "nand".into(),
                inputs: vec![0, 1],
            }],
        })
        .expect("eco round-trips");
    let Response::Eco {
        revision,
        applied,
        incremental,
        ..
    } = resp
    else {
        panic!("expected Eco, got {resp:?}");
    };
    assert_eq!((revision, applied), (1, 1));
    assert!(incremental);

    // Errors keep their structure across the wire, menu included.
    let resp = client
        .request(&Request::Load {
            circuit: "nope".into(),
        })
        .expect("error round-trips");
    let Response::Error {
        code, available, ..
    } = resp
    else {
        panic!("expected Error, got {resp:?}");
    };
    assert_eq!(code, ErrorCode::UnknownCircuit);
    assert_eq!(available, vec!["c17".to_owned()]);

    // Stats reflects the traffic this test generated.
    let resp = client.request(&Request::Stats).expect("stats round-trips");
    let Response::Stats { stats } = resp else {
        panic!("expected Stats, got {resp:?}");
    };
    let requests = stats
        .get("requests")
        .and_then(dft_json::Value::as_u64)
        .expect("stats carries request totals");
    // The snapshot is taken before its own request is recorded, so it
    // sees the five completed round trips above.
    assert!(requests >= 5, "all round trips counted, got {requests}");

    // Both counter groups keep their keys in document order, and the
    // transport totals fold the completed round trips' span trees.
    let keys = |group: &str| -> Vec<String> {
        stats
            .get(group)
            .and_then(dft_json::Value::as_object)
            .unwrap_or_else(|| panic!("stats carries a {group} object"))
            .iter()
            .map(|(key, _)| key.clone())
            .collect()
    };
    assert_eq!(
        keys("artifacts"),
        [
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
        ]
    );
    assert_eq!(
        keys("transport"),
        [
            "connections",
            "bytes_in",
            "bytes_out",
            "parse_ns",
            "dispatch_ns",
            "respond_ns",
            "transport_errors",
        ]
    );
    let transport = stats.get("transport").expect("transport object");
    for key in [
        "connections",
        "bytes_in",
        "bytes_out",
        "parse_ns",
        "dispatch_ns",
        "respond_ns",
    ] {
        let value = transport
            .get(key)
            .and_then(dft_json::Value::as_u64)
            .unwrap_or(0);
        assert!(
            value > 0,
            "transport {key} is {value} after five round trips"
        );
    }

    let resp = client
        .request(&Request::Shutdown)
        .expect("shutdown round-trips");
    assert_eq!(resp, Response::Shutdown);
    handle.join();
}
