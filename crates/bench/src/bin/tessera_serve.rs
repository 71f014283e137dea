//! `tessera-serve` — the concurrent testability-analysis daemon.
//!
//! ```text
//! cargo run --release -p dft-bench --bin tessera-serve -- \
//!     --port 3117 --threads 8 --preload c17,rand_16x300
//! ```
//!
//! Serves the `tessera-serve/1` API over HTTP/1.1 (see `dft-serve` and
//! `DESIGN.md` §10): lint, SCOAP, fault simulation, fault dictionaries,
//! PODEM and incremental ECO edits against a workspace of loaded
//! designs whose expensive artifacts stay warm between requests. The
//! circuit resolver behind `/load` accepts every built-in menu name
//! plus the benchmark-roster `rand_<inputs>x<gates>` circuits.
//!
//! The daemon drains gracefully on `POST /shutdown` and holds no
//! durable state, so SIGTERM is always safe.

use std::process::ExitCode;
use std::sync::Arc;

use dft_bench::cli::ToolExit;
use dft_bench::{circuit_names, resolve_circuit};
use dft_serve::{serve, LoadError, Request, Response, ServerConfig, Service};

const USAGE: &str = "\
tessera-serve: concurrent testability-analysis daemon

USAGE:
    tessera-serve [OPTIONS]

OPTIONS:
    --port <N>        TCP port on 127.0.0.1 (default 3117; 0 picks a
                      free port, printed on startup)
    --threads <N>     transport worker threads (default 8)
    --preload <LIST>  comma-separated circuit names to load at startup
    --list-circuits   print the loadable circuit names and exit
    -h, --help        print this help

Stop the daemon with POST /shutdown (graceful drain) or SIGTERM (safe:
the daemon holds no durable state).

EXIT CODES: 0 clean shutdown, 2 usage error (bad flags, bind failure,
unknown --preload name).";

struct Cli {
    port: u16,
    threads: usize,
    preload: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Option<Cli>, String> {
    let mut cli = Cli {
        port: 3117,
        threads: 8,
        preload: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} expects a value"))
        };
        match arg.as_str() {
            "-h" | "--help" => {
                println!("{USAGE}");
                return Ok(None);
            }
            "--list-circuits" => {
                for name in circuit_names() {
                    println!("{name}");
                }
                return Ok(None);
            }
            "--port" => {
                let v = value("--port")?;
                cli.port = v
                    .parse()
                    .map_err(|_| format!("--port: '{v}' is not a valid port"))?;
            }
            "--threads" => {
                let v = value("--threads")?;
                cli.threads = v
                    .parse()
                    .map_err(|_| format!("--threads: '{v}' is not a valid count"))?;
            }
            "--preload" => {
                cli.preload
                    .extend(value("--preload")?.split(',').map(str::to_owned));
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(Some(cli))
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(cli) = parse_args(args)? else {
        return Ok(ExitCode::from(ToolExit::Success));
    };

    let service = Arc::new(Service::new(Box::new(|name: &str| {
        resolve_circuit(name).map_err(|e| LoadError {
            message: e.message,
            available: e.available,
        })
    })));

    for name in &cli.preload {
        let resp = service.handle(&Request::Load {
            circuit: name.clone(),
        });
        match resp {
            Response::Loaded(info) => {
                eprintln!(
                    "preloaded {} ({} gates, key {})",
                    info.design, info.gates, info.key
                );
            }
            Response::Error { message, .. } => {
                return Err(format!("--preload {name}: {message}"));
            }
            other => return Err(format!("--preload {name}: unexpected response {other:?}")),
        }
    }

    let config = ServerConfig {
        addr: format!("127.0.0.1:{}", cli.port),
        threads: cli.threads,
        ..ServerConfig::default()
    };
    let handle =
        serve(service, &config).map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
    println!("tessera-serve listening on http://{}", handle.addr());
    handle.join();
    println!("tessera-serve drained");
    Ok(ExitCode::from(ToolExit::Success))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("tessera-serve: {msg}");
            eprintln!("{USAGE}");
            ExitCode::from(ToolExit::Usage)
        }
    }
}
