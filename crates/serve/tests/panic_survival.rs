//! A request that panics inside the service closes its own connection
//! and nothing else: the worker that ran it keeps serving.
//!
//! With one worker thread, a lost worker would leave the accept loop
//! without a receiver, and the daemon would stop answering anyone.

use std::sync::Arc;

use dft_netlist::circuits;
use dft_serve::{serve, Client, LoadError, Request, Response, ServerConfig, Service};

#[test]
fn a_panicking_request_leaves_the_daemon_serving() {
    let service = Arc::new(Service::new(Box::new(|name: &str| match name {
        "c17" => Ok(circuits::c17()),
        "boom" => panic!("resolver failure on '{name}'"),
        other => Err(LoadError {
            message: format!("unknown circuit '{other}'"),
            available: vec!["c17".into()],
        }),
    })));
    let handle = serve(
        Arc::clone(&service),
        &ServerConfig {
            threads: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind an ephemeral port");

    let mut client = Client::new(handle.addr());
    let boom = client.request(&Request::Load {
        circuit: "boom".into(),
    });
    assert!(
        boom.is_err(),
        "a panicking request gets no response: {boom:?}"
    );

    let mut fresh = Client::new(handle.addr());
    let resp = fresh
        .request(&Request::Load {
            circuit: "c17".into(),
        })
        .expect("the worker survived the panic");
    let Response::Loaded(info) = resp else {
        panic!("expected Loaded, got {resp:?}");
    };
    assert_eq!(info.design, "c17");

    assert_eq!(
        fresh.request(&Request::Shutdown).expect("shutdown answers"),
        Response::Shutdown
    );
    handle.join();
}
