//! Benchmark inputs and the ingest step every flow starts with.
//!
//! The circuits are fixed ROADMAP-style roster rungs: generator seeds are
//! part of the circuit's identity, not of `--seed`, because a different
//! circuit is a different workload (ATPG effort on neighbouring random
//! circuits of one size differs by orders of magnitude). The benchmark
//! writes each circuit's `.bench` text to disk once per run and the
//! measured flows only ever read that file.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use dft_netlist::circuits::{c17, layered_random, random_combinational};
use dft_netlist::{bench_format, Levelization, Netlist};
use dft_obs::{Collector, Obs, Recorder, RunReport};

use crate::metrics::median;
use crate::probe::{at_nominal, Probe, NOMINAL_MS};

/// Where inputs, traces and suite results go, relative to the directory
/// the benchmark runs from.
pub const OUT_DIR: &str = "target/tessera_perf";

/// Set-up repeats at least this often, and until [`SETUP_BUDGET_S`]
/// has passed or [`SETUP_MAX`] repeats ran; `setup_s` is their median.
/// Small inputs set up in well under a millisecond, so they repeat
/// more.
const SETUP_MIN: usize = 5;
const SETUP_MAX: usize = 25;
const SETUP_BUDGET_S: f64 = 0.5;

/// One roster circuit.
#[derive(Clone, Copy, Debug)]
pub enum Circuit {
    /// `layered_<inputs>x<gates>`: fixed-width layered random logic,
    /// generator seed 42 (the `tessera-*` CLIs' `layered_*` specs).
    Layered {
        /// Primary inputs.
        inputs: usize,
        /// Logic gates.
        gates: usize,
    },
    /// `rand_<inputs>x<gates>`: sliding-window random logic with the
    /// roster's generator seed.
    Random {
        /// Primary inputs.
        inputs: usize,
        /// Logic gates.
        gates: usize,
        /// Generator seed.
        seed: u64,
    },
    /// ISCAS-85 c17.
    C17,
}

impl Circuit {
    /// The roster name, also the input file's stem and the design name.
    pub fn name(self) -> String {
        match self {
            Circuit::Layered { inputs, gates } => format!("layered_{inputs}x{}", scaled(gates)),
            Circuit::Random { inputs, gates, .. } => format!("rand_{inputs}x{gates}"),
            Circuit::C17 => "c17".to_owned(),
        }
    }

    fn build(self) -> Netlist {
        let mut netlist = match self {
            Circuit::Layered { inputs, gates } => layered_random(inputs, gates, 42),
            Circuit::Random {
                inputs,
                gates,
                seed,
            } => random_combinational(inputs, gates, seed),
            Circuit::C17 => c17(),
        };
        netlist.set_name(self.name());
        netlist
    }

    /// Writes the circuit's `.bench` text to `<OUT_DIR>/inputs/` and
    /// returns the path.
    ///
    /// # Errors
    ///
    /// The file cannot be written.
    pub fn materialize(self) -> Result<PathBuf, String> {
        let dir = Path::new(OUT_DIR).join("inputs");
        fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let path = dir.join(format!("{}.bench", self.name()));
        let text = bench_format::write(&self.build());
        if fs::read_to_string(&path).ok().as_deref() != Some(text.as_str()) {
            // Write-then-rename, so a reader never sees half a file.
            let tmp = path.with_extension(format!("bench.{}", std::process::id()));
            fs::write(&tmp, &text).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
            fs::rename(&tmp, &path).map_err(|e| format!("cannot rename {}: {e}", tmp.display()))?;
        }
        Ok(path)
    }
}

/// `100000` → `100k`, `1000000` → `1m`, as the roster names spell it.
fn scaled(n: usize) -> String {
    if n >= 1_000_000 && n.is_multiple_of(1_000_000) {
        format!("{}m", n / 1_000_000)
    } else if n >= 1_000 && n.is_multiple_of(1_000) {
        format!("{}k", n / 1_000)
    } else {
        n.to_string()
    }
}

/// Reads, parses and levelizes one input file: the first step of every
/// flow, with a span around each call.
///
/// # Errors
///
/// The file is unreadable, malformed or cyclic.
pub fn ingest(path: &Path, obs: &mut Obs) -> Result<Netlist, String> {
    let name = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("netlist");
    obs.enter("netlist.read");
    let text =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    obs.count("bytes", text.len() as u64);
    obs.exit();
    obs.enter("netlist.parse");
    let netlist = bench_format::parse(&text, name).map_err(|e| format!("{name}: {e}"))?;
    obs.exit();
    obs.enter("netlist.levelize");
    Levelization::compute(&netlist).map_err(|e| format!("{name}: {e}"))?;
    obs.exit();
    Ok(netlist)
}

/// Runs a set-up step several times and keeps the last result; every
/// earlier result goes to `teardown`.
pub struct Setup<T> {
    /// The last set-up's product.
    pub value: T,
    /// Time of each repeat at nominal speed, in seconds.
    pub seconds: Vec<f64>,
    /// One span tree per repeat when tracing, with the factor that
    /// scales its times to nominal speed.
    pub reports: Vec<(RunReport, f64)>,
}

impl<T> Setup<T> {
    /// Repeats `once` (see [`SETUP_MIN`]), timing each repeat between
    /// two speed-probe readings.
    ///
    /// # Errors
    ///
    /// The first error `once` returns.
    pub fn repeat(
        trace: bool,
        probe: &mut Probe,
        mut once: impl FnMut(&mut Obs) -> Result<T, String>,
        mut teardown: impl FnMut(T),
    ) -> Result<Self, String> {
        let started = Instant::now();
        let mut seconds = Vec::new();
        let mut reports = Vec::new();
        loop {
            let mut rec = trace.then(Recorder::new);
            let mut obs = Obs::new(rec.as_mut().map(|r| r as &mut dyn Collector));
            let (value, ms, probe_ms) = probe.around(|| once(&mut obs));
            drop(obs);
            let value = value?;
            seconds.push(at_nominal(ms, probe_ms) / 1e3);
            reports.extend(rec.map(|r| (r.finish("setup"), NOMINAL_MS / probe_ms)));
            let done = seconds.len() >= SETUP_MAX
                || (seconds.len() >= SETUP_MIN
                    && started.elapsed().as_secs_f64() >= SETUP_BUDGET_S);
            if done {
                return Ok(Setup {
                    value,
                    seconds,
                    reports,
                });
            }
            teardown(value);
        }
    }

    /// The ingest per-layer metrics: median parse and levelize time.
    pub fn netlist_layers(&self) -> Vec<(&'static str, f64)> {
        vec![
            (
                "netlist.parse_ms",
                median_of(&self.reports, |r| span_ms(r, "netlist.parse")),
            ),
            (
                "netlist.levelize_ms",
                median_of(&self.reports, |r| span_ms(r, "netlist.levelize")),
            ),
        ]
    }
}

/// Total milliseconds spent in every span named `name`.
pub fn span_ms(report: &RunReport, name: &str) -> f64 {
    fn walk(node: &dft_obs::SpanNode, name: &str) -> u64 {
        let own = if node.name == name {
            node.duration_ns
        } else {
            0
        };
        node.children
            .iter()
            .fold(own, |acc, c| acc.saturating_add(walk(c, name)))
    }
    walk(&report.root, name) as f64 / 1e6
}

/// Number of spans named `name`.
pub fn span_count(report: &RunReport, name: &str) -> usize {
    fn walk(node: &dft_obs::SpanNode, name: &str) -> usize {
        usize::from(node.name == name) + node.children.iter().map(|c| walk(c, name)).sum::<usize>()
    }
    walk(&report.root, name)
}

/// Median over `reports` of a time `f` reads from each, scaled to
/// nominal speed by the report's factor.
pub fn median_of(reports: &[(RunReport, f64)], f: impl Fn(&RunReport) -> f64) -> f64 {
    median(
        &reports
            .iter()
            .map(|(r, scale)| f(r) * scale)
            .collect::<Vec<_>>(),
    )
}

/// Writes a traced run's artifact to `<OUT_DIR>/trace_<workload>.json`.
///
/// # Errors
///
/// The file cannot be written.
pub fn write_trace(workload: &str, json: &str) -> Result<(), String> {
    fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let path = Path::new(OUT_DIR).join(format!("trace_{workload}.json"));
    fs::write(&path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))
}
