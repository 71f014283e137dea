//! `serve_mixed`: an in-process `tessera-serve` driven closed-loop.
//!
//! Two clients each hold one keep-alive connection to a two-worker
//! server and send requests back to back, in rounds of a fixed mix
//! whose order the seed shuffles. Reads go to one shared design, writes
//! to each client's private copy, so ECO edits run beside reads and
//! every shared response is interleaving-independent. Every cache the
//! mix reads is warmed during set-up, before the timer starts. Each
//! client reads the speed probe every few requests; the window's times
//! are scaled by the clients' mean probe speed.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use dft_fault::{universe, Ppsfp, PpsfpOptions};
use dft_json::Value;
use dft_netlist::Netlist;
use dft_obs::Obs;
use dft_serve::{
    encode_request, encode_response, serve, Client, EcoEdit, LoadError, Request, Response,
    ServerConfig, ServerHandle, Service,
};
use dft_sim::PatternSet;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::inputs::{ingest, write_trace, Setup};
use crate::metrics::{
    derive_seed, median, peak_rss_mb, percentile, ratio, Outcome, END_TO_END, PER_LAYER,
};
use crate::probe::{Probe, NOMINAL_MS};
use crate::RunConfig;

/// Server worker threads, one per client connection.
const WORKERS: usize = 2;

/// Concurrent closed-loop clients.
const CLIENTS: usize = 2;

/// Requests each client sends in a window at least, whatever the time.
const MIN_REQUESTS: usize = 4;

/// Pattern counts of the three shared fault-sim recipes.
const FAULT_SIM_PATTERNS: [usize; 3] = [64, 128, 256];

/// Pattern count of the shared fault-dictionary recipe.
const DICTIONARY_PATTERNS: usize = 128;

/// A client reads the speed probe before its first request and after
/// every this many.
const PROBE_EVERY: usize = 16;

/// Generator seed of the PODEM targets: part of the workload, like the
/// circuit, so every seed solves the same faults.
const PODEM_TARGET_SEED: u64 = 0x90DE;

/// Gate kinds an ECO may add.
const ECO_KINDS: [&str; 6] = ["and", "nand", "or", "nor", "xor", "xnor"];

/// One request class of the mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Lint,
    Scoap,
    FaultSim,
    Dictionary,
    Podem,
    Eco,
    PrivateScoap,
}

impl Kind {
    /// One round of the mix, per client: shared-design reads first,
    /// then writes and reads on the client's private copy. A client
    /// sends whole rounds, each in a fresh seeded order, so every run
    /// does the same work whatever the seed.
    const ROUND: [(Kind, usize); 7] = [
        (Kind::Lint, 30),
        (Kind::Scoap, 30),
        (Kind::FaultSim, 30),
        (Kind::Dictionary, 20),
        (Kind::Podem, 40),
        (Kind::Eco, 25),
        (Kind::PrivateScoap, 25),
    ];

    /// Whether the request reads the shared design, so identical
    /// requests must get identical responses.
    fn shared(self) -> bool {
        !matches!(self, Kind::Eco | Kind::PrivateScoap)
    }

    /// Per-layer metric names: count, p50 and p95.
    fn metric_names(self) -> [&'static str; 3] {
        match self {
            Kind::Lint => ["serve.lint.count", "serve.lint.p50_ms", "serve.lint.p95_ms"],
            Kind::Scoap => [
                "serve.scoap.count",
                "serve.scoap.p50_ms",
                "serve.scoap.p95_ms",
            ],
            Kind::FaultSim => [
                "serve.fault_sim.count",
                "serve.fault_sim.p50_ms",
                "serve.fault_sim.p95_ms",
            ],
            Kind::Dictionary => [
                "serve.dictionary.count",
                "serve.dictionary.p50_ms",
                "serve.dictionary.p95_ms",
            ],
            Kind::Podem => [
                "serve.podem.count",
                "serve.podem.p50_ms",
                "serve.podem.p95_ms",
            ],
            Kind::Eco => ["serve.eco.count", "serve.eco.p50_ms", "serve.eco.p95_ms"],
            Kind::PrivateScoap => [
                "serve.private_scoap.count",
                "serve.private_scoap.p50_ms",
                "serve.private_scoap.p95_ms",
            ],
        }
    }
}

/// A derived recipe seed the wire format can carry: JSON numbers are
/// exact only up to 2⁵³, so recipe seeds keep 32 bits.
fn wire_seed(seed: u64, stream: u64) -> u64 {
    derive_seed(seed, stream) >> 32
}

/// Everything a client needs to draw requests.
struct Plan {
    shared: String,
    private: Vec<String>,
    /// Gates of the shared design (ECO drivers are drawn below this).
    gates: usize,
    /// `(gate, pin, stuck)` faults the PODEM requests target.
    podem: Vec<(usize, Option<u32>, bool)>,
    fault_sim: [(usize, u64); 3],
    dictionary: (usize, u64),
}

impl Plan {
    fn new(netlist: &Netlist, seed: u64) -> Self {
        let shared = netlist.name().to_owned();
        let fanin: Vec<usize> = netlist.iter().map(|(_, g)| g.fanin()).collect();
        let mut rng = StdRng::seed_from_u64(PODEM_TARGET_SEED);
        let podem_per_round = Kind::ROUND
            .iter()
            .find(|(k, _)| *k == Kind::Podem)
            .map_or(0, |&(_, n)| n);
        let podem = (0..podem_per_round)
            .map(|_| {
                let gate = rng.gen_range(0..fanin.len());
                let pin = (fanin[gate] > 0 && rng.gen_bool(0.5))
                    .then(|| rng.gen_range(0..fanin[gate]) as u32);
                (gate, pin, rng.gen_bool(0.5))
            })
            .collect();
        Plan {
            private: (0..CLIENTS)
                .map(|c| format!("{shared}_client{c}"))
                .collect(),
            shared,
            gates: fanin.len(),
            podem,
            fault_sim: [0, 1, 2].map(|i| (FAULT_SIM_PATTERNS[i], wire_seed(seed, 100 + i as u64))),
            dictionary: (DICTIONARY_PATTERNS, wire_seed(seed, 200)),
        }
    }

    /// The `i`-th request of `kind` in a round.
    fn request(&self, kind: Kind, i: usize, client: usize, rng: &mut StdRng) -> Request {
        let design = self.shared.clone();
        match kind {
            Kind::Lint => Request::Lint { design },
            Kind::Scoap => Request::Scoap { design },
            Kind::FaultSim => {
                let (patterns, seed) = self.fault_sim[i % self.fault_sim.len()];
                Request::FaultSim {
                    design,
                    patterns,
                    seed,
                }
            }
            Kind::Dictionary => Request::Dictionary {
                design,
                patterns: self.dictionary.0,
                seed: self.dictionary.1,
            },
            Kind::Podem => {
                let (gate, pin, stuck) = self.podem[i % self.podem.len()];
                Request::Podem {
                    design,
                    gate,
                    pin,
                    stuck,
                }
            }
            Kind::Eco => Request::Eco {
                design: self.private[client].clone(),
                edits: vec![EcoEdit::AddGate {
                    kind: ECO_KINDS[rng.gen_range(0..ECO_KINDS.len())].to_owned(),
                    inputs: vec![rng.gen_range(0..self.gates), rng.gen_range(0..self.gates)],
                }],
            },
            Kind::PrivateScoap => Request::Scoap {
                design: self.private[client].clone(),
            },
        }
    }

    /// One round for `client`, in a seeded order.
    fn round(&self, client: usize, rng: &mut StdRng) -> Vec<(Kind, Request)> {
        let mut round: Vec<(Kind, Request)> = Kind::ROUND
            .iter()
            .flat_map(|&(kind, n)| (0..n).map(move |i| (kind, i)))
            .map(|(kind, i)| (kind, self.request(kind, i, client, rng)))
            .collect();
        round.shuffle(rng);
        round
    }

    /// One cold request per kind and recipe: what set-up warms.
    fn warm_requests(&self) -> Vec<Request> {
        let design = self.shared.clone();
        let mut reqs = vec![
            Request::Lint {
                design: design.clone(),
            },
            Request::Scoap {
                design: design.clone(),
            },
        ];
        reqs.extend(
            self.fault_sim
                .iter()
                .map(|&(patterns, seed)| Request::FaultSim {
                    design: design.clone(),
                    patterns,
                    seed,
                }),
        );
        reqs.push(Request::Dictionary {
            design: design.clone(),
            patterns: self.dictionary.0,
            seed: self.dictionary.1,
        });
        let (gate, pin, stuck) = self.podem[0];
        reqs.push(Request::Podem {
            design,
            gate,
            pin,
            stuck,
        });
        reqs.extend(
            self.private
                .iter()
                .map(|p| Request::Scoap { design: p.clone() }),
        );
        reqs
    }
}

/// A running in-process server.
struct Server {
    handle: ServerHandle,
}

impl Server {
    fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// Asks the server to drain and waits for every thread to end.
    fn stop(self) {
        let _ = Client::new(self.addr()).request(&Request::Shutdown);
        self.handle.join();
    }
}

/// One request that must succeed.
fn expect_ok(client: &mut Client, req: &Request) -> Result<Response, String> {
    match client.request(req) {
        Ok(resp) if !resp.is_error() => Ok(resp),
        Ok(resp) => Err(format!("{} failed: {}", req.kind(), encode_response(&resp))),
        Err(e) => Err(format!("{} failed: {e}", req.kind())),
    }
}

/// A warmed server and what the clients and oracles need from set-up.
struct Session {
    server: Server,
    netlist: Netlist,
    plan: Plan,
    /// Responses to the warm requests, keyed by encoded request.
    canonical: HashMap<String, Response>,
}

/// Set-up: ingest the design, bind, load the shared design and the
/// private copies, warm every cache the mix reads.
fn start(path: &Path, seed: u64, obs: &mut Obs) -> Result<Session, String> {
    let netlist = ingest(path, obs)?;
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let plan = Plan::new(&netlist, seed);

    obs.enter("serve.bind");
    let service = Arc::new(Service::new(Box::new(|name: &str| {
        Err(LoadError {
            message: format!("'{name}' is only loadable as .bench text"),
            available: Vec::new(),
        })
    })));
    let config = ServerConfig {
        threads: WORKERS,
        ..ServerConfig::default()
    };
    let server = Server {
        handle: serve(service, &config).map_err(|e| format!("cannot bind: {e}"))?,
    };
    obs.exit();

    match warm(server.addr(), &plan, &text, obs) {
        Ok(canonical) => Ok(Session {
            server,
            netlist,
            plan,
            canonical,
        }),
        Err(e) => {
            server.stop();
            Err(e)
        }
    }
}

/// Loads the shared design and the private copies, then sends one cold
/// request per kind and recipe, keeping the responses as canonical.
fn warm(
    addr: SocketAddr,
    plan: &Plan,
    text: &str,
    obs: &mut Obs,
) -> Result<HashMap<String, Response>, String> {
    let mut client = Client::new(addr);
    obs.enter("serve.load");
    for name in std::iter::once(&plan.shared).chain(&plan.private) {
        let load = Request::LoadBench {
            name: name.clone(),
            text: text.to_owned(),
        };
        expect_ok(&mut client, &load)?;
    }
    obs.exit();
    obs.enter("serve.warm");
    let mut canonical = HashMap::new();
    for req in plan.warm_requests() {
        let resp = expect_ok(&mut client, &req)?;
        canonical.insert(encode_request(&req), resp);
    }
    obs.exit();
    Ok(canonical)
}

/// What one client saw in one window.
#[derive(Default)]
struct ClientLog {
    latency_ms: Vec<f64>,
    kinds: Vec<Kind>,
    failed: u64,
    errors: Vec<String>,
    /// First response to each distinct shared request.
    responses: HashMap<String, Response>,
    mismatches: Vec<String>,
    podem_backtracks: u64,
    podem_prefiltered: u64,
    /// Speed-probe readings on this client's thread, in milliseconds.
    probe_ms: Vec<f64>,
}

/// One client's closed loop until `deadline`.
fn client_loop(
    addr: SocketAddr,
    plan: &Plan,
    client: usize,
    seed: u64,
    deadline: Instant,
    canonical: &HashMap<String, Response>,
) -> ClientLog {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut conn = Client::new(addr);
    let mut probe = Probe::new();
    let mut log = ClientLog::default();
    let mut round = Vec::new();
    while log.kinds.len() < MIN_REQUESTS || Instant::now() < deadline {
        if log.kinds.len() % PROBE_EVERY == 0 {
            log.probe_ms.push(probe.measure());
        }
        if round.is_empty() {
            round = plan.round(client, &mut rng);
        }
        let (kind, req) = round.pop().expect("a round is never empty");
        let t = Instant::now();
        let result = conn.request(&req);
        log.latency_ms.push(t.elapsed().as_secs_f64() * 1e3);
        log.kinds.push(kind);
        let resp = match result {
            Ok(resp) if !resp.is_error() => resp,
            Ok(resp) => {
                log.failed += 1;
                log.errors.push(encode_response(&resp));
                continue;
            }
            Err(e) => {
                log.failed += 1;
                log.errors.push(format!("{}: {e}", req.kind()));
                continue;
            }
        };
        match &resp {
            Response::Podem {
                backtracks,
                prefiltered,
                ..
            } => {
                log.podem_backtracks += backtracks;
                log.podem_prefiltered += u64::from(*prefiltered);
            }
            Response::Eco {
                applied, rejected, ..
            } if *applied != 1 || !rejected.is_empty() => {
                log.failed += 1;
                log.errors.push(encode_response(&resp));
            }
            _ => {}
        }
        if kind.shared() {
            let key = encode_request(&req);
            let first = canonical.get(&key).or_else(|| log.responses.get(&key));
            match first {
                Some(first) if *first != resp => log.mismatches.push(format!(
                    "{key}: {} then {}",
                    encode_response(first),
                    encode_response(&resp)
                )),
                Some(_) => {}
                None => {
                    log.responses.insert(key, resp);
                }
            }
        }
    }
    log
}

/// One measured window: every client's log and the window's length.
struct Window {
    logs: Vec<ClientLog>,
    seconds: f64,
}

impl Window {
    /// Every client's speed-probe readings, in milliseconds.
    fn probe_ms(&self) -> Vec<f64> {
        self.logs
            .iter()
            .flat_map(|l| l.probe_ms.iter().copied())
            .collect()
    }

    /// Every request's unscaled latency, in milliseconds.
    fn wall_ms(&self) -> Vec<f64> {
        self.logs
            .iter()
            .flat_map(|l| l.latency_ms.iter().copied())
            .collect()
    }

    /// The factor that scales the window's times to nominal speed: the
    /// clients' probe readings stand for the cores the whole mix ran
    /// on, and the mix's work rate follows their mean speed.
    fn scale(&self) -> f64 {
        let probes = self.probe_ms();
        probes.iter().map(|p| NOMINAL_MS / p).sum::<f64>() / probes.len().max(1) as f64
    }

    /// Requests per second at nominal speed.
    fn throughput(&self) -> f64 {
        ratio(self.requests() as f64, self.seconds) / self.scale()
    }

    /// Every request's latency at nominal speed.
    fn latencies(&self) -> Vec<f64> {
        let scale = self.scale();
        self.wall_ms().iter().map(|ms| ms * scale).collect()
    }

    fn requests(&self) -> u64 {
        self.logs.iter().map(|l| l.kinds.len() as u64).sum()
    }

    fn failed(&self) -> u64 {
        self.logs.iter().map(|l| l.failed).sum()
    }

    /// Error responses, transport failures and response mismatches,
    /// including identical requests answered differently across
    /// clients.
    fn problems(&self) -> Vec<String> {
        let mut problems: Vec<String> = self
            .logs
            .iter()
            .flat_map(|l| l.errors.iter().chain(&l.mismatches).cloned())
            .collect();
        let mut seen: HashMap<&str, &Response> = HashMap::new();
        for log in &self.logs {
            for (key, resp) in &log.responses {
                match seen.entry(key) {
                    Entry::Occupied(e) if *e.get() != resp => {
                        problems.push(format!("{key}: clients got different responses"));
                    }
                    Entry::Occupied(_) => {}
                    Entry::Vacant(e) => {
                        e.insert(resp);
                    }
                }
            }
        }
        problems
    }

    /// Latencies of the requests of one kind, at nominal speed.
    fn by_kind(&self, kind: Kind) -> Vec<f64> {
        let scale = self.scale();
        self.logs
            .iter()
            .flat_map(|l| l.kinds.iter().zip(&l.latency_ms))
            .filter(|(k, _)| **k == kind)
            .map(|(_, &ms)| ms * scale)
            .collect()
    }
}

/// Runs every client until `seconds` have passed.
fn run_window(
    addr: SocketAddr,
    plan: &Plan,
    seed: u64,
    seconds: f64,
    canonical: &HashMap<String, Response>,
) -> Window {
    let started = Instant::now();
    let deadline = started + std::time::Duration::from_secs_f64(seconds);
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let client_seed = derive_seed(seed, c as u64);
                scope.spawn(move || client_loop(addr, plan, c, client_seed, deadline, canonical))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    Window {
        logs,
        seconds: started.elapsed().as_secs_f64(),
    }
}

/// The server's `/stats` document.
fn stats(addr: SocketAddr) -> Result<Value, String> {
    match Client::new(addr).request(&Request::Stats) {
        Ok(Response::Stats { stats }) => Ok(stats),
        Ok(other) => Err(format!("stats failed: {}", encode_response(&other))),
        Err(e) => Err(format!("stats failed: {e}")),
    }
}

fn artifact(stats: &Value, key: &str) -> f64 {
    stats
        .get("artifacts")
        .and_then(|a| a.get(key))
        .and_then(Value::as_u64)
        .unwrap_or(0) as f64
}

/// Oracle: each warm fault-sim recipe's figures equal in-process PPSFP
/// on the same seeded patterns. Returns the recipes' mean coverage.
fn check_fault_sim(
    netlist: &Netlist,
    plan: &Plan,
    canonical: &HashMap<String, Response>,
) -> Result<f64, String> {
    let faults = universe(netlist);
    let engine = Ppsfp::with_options(netlist, PpsfpOptions::new().with_threads(1))
        .map_err(|e| e.to_string())?;
    let mut total = 0.0;
    for &(patterns, seed) in &plan.fault_sim {
        let req = Request::FaultSim {
            design: plan.shared.clone(),
            patterns,
            seed,
        };
        let Some(Response::FaultSim {
            faults: n,
            detected,
            coverage,
            ..
        }) = canonical.get(&encode_request(&req))
        else {
            return Err(format!(
                "no fault-sim response for {}",
                encode_request(&req)
            ));
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let set = PatternSet::random(netlist.primary_inputs().len(), patterns, &mut rng);
        let local = engine.run(&set, &faults);
        if (*n, *detected, *coverage) != (faults.len(), local.detected_count(), local.coverage()) {
            return Err(format!(
                "fault-sim ({patterns}, {seed}): server {detected}/{n}, in-process {}/{}",
                local.detected_count(),
                faults.len()
            ));
        }
        total += coverage;
    }
    Ok(total / plan.fault_sim.len() as f64)
}

/// A traced window with the server's `/stats` documents before and
/// after it.
struct Traced {
    window: Window,
    before: Value,
    after: Value,
}

/// The measured windows: one untraced window, or with tracing an
/// untraced and a traced half-window with the server's counters read
/// around the traced one. The traced half adds only those two reads, so
/// the two halves' latency ratio is the tracing overhead.
fn measure(cfg: &RunConfig, session: &Session) -> Result<(Window, Option<Traced>), String> {
    let addr = session.server.addr();
    let window_s = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let window = |stream| {
        run_window(
            addr,
            &session.plan,
            derive_seed(cfg.seed, stream),
            window_s,
            &session.canonical,
        )
    };
    let plain = window(1000);
    if !cfg.trace {
        return Ok((plain, None));
    }
    let before = stats(addr)?;
    let window = window(2000);
    let after = stats(addr)?;
    Ok((
        plain,
        Some(Traced {
            window,
            before,
            after,
        }),
    ))
}

/// Runs the `serve_mixed` workload.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let path = cfg.size.serve.materialize()?;
    let setup = Setup::repeat(
        cfg.trace,
        &mut Probe::new(),
        |obs| start(&path, cfg.seed, obs),
        |session| session.server.stop(),
    )?;
    let netlist_layers = setup.netlist_layers();
    let setup_s = median(&setup.seconds);
    let session = setup.value;
    let windows = measure(cfg, &session);
    let Session {
        server,
        netlist,
        plan,
        canonical,
    } = session;
    server.stop();
    let (plain, traced) = windows?;

    let mut problems = plain.problems();
    let mut attempted = plain.requests();
    let mut failed = plain.failed();
    if let Some(t) = &traced {
        problems.extend(t.window.problems());
        attempted += t.window.requests();
        failed += t.window.failed();
    }
    let coverage = match check_fault_sim(&netlist, &plan, &canonical) {
        Ok(coverage) => coverage,
        Err(e) => {
            problems.push(e);
            0.0
        }
    };
    for p in problems.iter().take(5) {
        eprintln!("tessera_perf: serve_mixed: {p}");
    }
    let correct = problems.is_empty() && failed == 0;

    let Some(Traced {
        window,
        before,
        after,
    }) = traced
    else {
        return Outcome::new(
            correct,
            attempted,
            failed,
            END_TO_END,
            &[
                ("setup_s", setup_s),
                ("latency_ms", median(&plain.latencies())),
                ("ops_per_s", plain.throughput()),
                ("peak_rss_mb", peak_rss_mb()?),
                ("coverage", coverage),
            ],
        );
    };

    write_trace(cfg.workload.name(), &after.to_compact())?;
    let delta = |key: &str| artifact(&after, key) - artifact(&before, key);
    let hits = [
        "lint_hits",
        "scoap_hits",
        "fault_sim_hits",
        "dictionary_hits",
        "podem_warm",
    ]
    .iter()
    .map(|k| delta(k))
    .sum::<f64>();
    let builds = [
        "lint_builds",
        "scoap_refreshes",
        "fault_sim_runs",
        "dictionary_builds",
        "podem_warmups",
    ]
    .iter()
    .map(|k| delta(k))
    .sum::<f64>();
    let podem = window.by_kind(Kind::Podem).len() as f64;
    let backtracks: u64 = window.logs.iter().map(|l| l.podem_backtracks).sum();
    let prefiltered: u64 = window.logs.iter().map(|l| l.podem_prefiltered).sum();

    let mut measured = netlist_layers;
    measured.push((
        "netlist.bytes_per_gate",
        netlist.memory_footprint().bytes_per_gate(),
    ));
    for &(kind, _) in &Kind::ROUND {
        let ms = window.by_kind(kind);
        let [count, p50, p95] = kind.metric_names();
        measured.push((count, ms.len() as f64));
        measured.push((p50, percentile(&ms, 0.50)));
        measured.push((p95, percentile(&ms, 0.95)));
    }
    measured.push(("serve.p99_ms", percentile(&window.latencies(), 0.99)));
    for (name, key) in [
        ("serve.lint_builds", "lint_builds"),
        ("serve.scoap_refreshes", "scoap_refreshes"),
        ("serve.fault_sim_runs", "fault_sim_runs"),
        ("serve.dictionary_builds", "dictionary_builds"),
        ("serve.podem_warmups", "podem_warmups"),
        ("serve.eco_incremental", "eco_incremental"),
        ("serve.eco_rejected", "eco_rejected"),
    ] {
        measured.push((name, delta(key)));
    }
    measured.push(("serve.cache_hit_ratio", ratio(hits, hits + builds)));
    measured.push((
        "serve.podem.backtracks_per_request",
        ratio(backtracks as f64, podem),
    ));
    measured.push((
        "serve.podem.prefiltered_share",
        ratio(prefiltered as f64, podem),
    ));
    measured.extend([
        (
            "trace_overhead",
            ratio(median(&window.latencies()), median(&plain.latencies())) - 1.0,
        ),
        ("host.probe_ms", median(&window.probe_ms())),
        ("host.wall_latency_ms", median(&window.wall_ms())),
    ]);
    Outcome::new(correct, attempted, failed, PER_LAYER, &measured)
}
