//! The typed request/response vocabulary of the `tessera-serve/1` API.
//!
//! Every operation the daemon supports is one [`Request`] variant with
//! one (success) [`Response`] shape; failures all land in
//! [`Response::Error`] with a stable [`ErrorCode`] and, where the error
//! is "no such thing", the list of things that *do* exist — the
//! structured form of the CLI's `--list-circuits` advice. The wire
//! encoding of both enums lives in [`crate::codec`]; nothing here knows
//! about JSON or HTTP.

use dft_json::Value;
use dft_netlist::GateKind;

/// One client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Load a circuit by resolver name (built-in menu entry or, where
    /// the resolver supports it, a generator pattern). Loading an
    /// already-loaded design is a cheap no-op returning its info.
    Load {
        /// Resolver-visible circuit name.
        circuit: String,
    },
    /// Load a netlist shipped inline as `.bench` text.
    LoadBench {
        /// Design name for the session.
        name: String,
        /// The `.bench` netlist body.
        text: String,
    },
    /// Drop a loaded session (by name or content key).
    Drop {
        /// Design name or content key.
        design: String,
    },
    /// List the loaded sessions.
    Designs,
    /// Run the DFT design-rule checker (default configuration) over a
    /// loaded design.
    Lint {
        /// Design name or content key.
        design: String,
    },
    /// SCOAP controllability/observability summary of a loaded design.
    Scoap {
        /// Design name or content key.
        design: String,
    },
    /// PPSFP fault simulation of the full stuck-at universe under a
    /// seeded random pattern set.
    FaultSim {
        /// Design name or content key.
        design: String,
        /// Number of random patterns, at most [`MAX_PATTERNS`].
        patterns: usize,
        /// Pattern RNG seed.
        seed: u64,
    },
    /// Build (or reuse) the full-response fault dictionary and report
    /// its diagnostic resolution. A design with [`MAX_DICTIONARY_OUTPUTS`]
    /// or more primary outputs is rejected with
    /// [`ErrorCode::BadRequest`].
    Dictionary {
        /// Design name or content key.
        design: String,
        /// Number of random patterns.
        patterns: usize,
        /// Pattern RNG seed.
        seed: u64,
    },
    /// Deterministic PODEM on a single stuck-at fault.
    Podem {
        /// Design name or content key.
        design: String,
        /// Gate index of the fault site.
        gate: usize,
        /// Input-pin index; `None` targets the gate's output pin.
        pin: Option<u32>,
        /// Stuck-at value.
        stuck: bool,
    },
    /// Apply a batch of ECO edits through the incremental
    /// [`dft_analyze::AnalysisCache`] path.
    Eco {
        /// Design name or content key.
        design: String,
        /// The edits, applied in order; each is validated independently
        /// and a rejected edit does not stop the batch.
        edits: Vec<EcoEdit>,
    },
    /// Server telemetry snapshot.
    Stats,
    /// Begin graceful shutdown: stop accepting connections, drain
    /// in-flight requests, exit.
    Shutdown,
}

impl Request {
    /// The stable kebab-case wire name of this request type (also the
    /// HTTP endpoint path without the leading slash).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Load { .. } => "load",
            Request::LoadBench { .. } => "load-bench",
            Request::Drop { .. } => "drop",
            Request::Designs => "designs",
            Request::Lint { .. } => "lint",
            Request::Scoap { .. } => "scoap",
            Request::FaultSim { .. } => "fault-sim",
            Request::Dictionary { .. } => "dictionary",
            Request::Podem { .. } => "podem",
            Request::Eco { .. } => "eco",
            Request::Stats => "stats",
            Request::Shutdown => "shutdown",
        }
    }
}

/// One ECO edit in wire form — the JSON-friendly mirror of
/// [`dft_analyze::NetlistDelta`] (gate ids as indices, kinds as
/// strings).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EcoEdit {
    /// Append a gate.
    AddGate {
        /// Gate kind name (`and`, `nand`, `or`, `nor`, `xor`, `xnor`,
        /// `not`, `buf`).
        kind: String,
        /// Driver net indices.
        inputs: Vec<usize>,
    },
    /// Fold a gate to a constant.
    RemoveGate {
        /// Gate index.
        gate: usize,
        /// Tied constant value.
        value: bool,
    },
    /// Redirect one input pin.
    Rewire {
        /// Reading gate index.
        gate: usize,
        /// Input pin.
        pin: usize,
        /// New driver net index.
        new_src: usize,
    },
    /// Replace a gate in place.
    ReplaceGate {
        /// Gate index.
        gate: usize,
        /// Replacement kind name.
        kind: String,
        /// Replacement driver indices.
        inputs: Vec<usize>,
    },
}

/// Parses a wire gate-kind name into the combinational [`GateKind`]
/// vocabulary ECO edits may introduce.
#[must_use]
pub fn parse_gate_kind(name: &str) -> Option<GateKind> {
    Some(match name {
        "and" => GateKind::And,
        "nand" => GateKind::Nand,
        "or" => GateKind::Or,
        "nor" => GateKind::Nor,
        "xor" => GateKind::Xor,
        "xnor" => GateKind::Xnor,
        "not" => GateKind::Not,
        "buf" => GateKind::Buf,
        _ => return None,
    })
}

/// Identity and shape of one loaded session.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DesignInfo {
    /// Content key: hex FNV-1a over design name + `.bench` text at load
    /// time. The stable handle — ECO edits advance `revision`, not the
    /// key.
    pub key: String,
    /// Design name.
    pub design: String,
    /// Total gate count (including sources).
    pub gates: usize,
    /// Primary-input count.
    pub inputs: usize,
    /// Primary-output count.
    pub outputs: usize,
    /// Edit revision: 0 at load, +1 per applied ECO edit.
    pub revision: u64,
}

/// The SCOAP roll-up the `scoap` endpoint returns.
#[derive(Clone, Debug, PartialEq)]
pub struct ScoapSummary {
    /// Worst finite 0-controllability.
    pub max_cc0: u32,
    /// Worst finite 1-controllability.
    pub max_cc1: u32,
    /// Worst finite observability.
    pub max_co: u32,
    /// Mean per-net testability difficulty (CC + CO based).
    pub mean_difficulty: f64,
    /// The hardest nets: `(net name, difficulty)`, worst first, at most
    /// five.
    pub hardest: Vec<(String, u32)>,
}

/// PODEM outcome on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PodemOutcome {
    /// A test cube was found.
    Test,
    /// Proven untestable (by the static implication check, search or
    /// the CDCL prover).
    Untestable,
    /// Backtrack limit hit.
    Aborted,
}

impl PodemOutcome {
    /// Stable wire name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            PodemOutcome::Test => "test",
            PodemOutcome::Untestable => "untestable",
            PodemOutcome::Aborted => "aborted",
        }
    }

    /// Inverse of [`PodemOutcome::as_str`].
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "test" => PodemOutcome::Test,
            "untestable" => PodemOutcome::Untestable,
            "aborted" => PodemOutcome::Aborted,
            _ => return None,
        })
    }
}

/// The largest `patterns` count a `fault-sim` or `dictionary` request
/// may ask for: 65,536 patterns, 1,024 64-bit words per net. Pattern
/// generation and simulation grow with the count under the session's
/// write lock, so a larger count is rejected with
/// [`ErrorCode::BadRequest`] before any session is touched.
pub const MAX_PATTERNS: usize = 65_536;

/// The primary-output count at which a `dictionary` request is
/// rejected with [`ErrorCode::BadRequest`]: a dictionary stores output
/// positions as `u16`, so [`dft_fault::FaultDictionary::build`] panics on
/// a design with this many outputs or more.
pub const MAX_DICTIONARY_OUTPUTS: usize = u16::MAX as usize;

/// Stable machine-readable error classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The named circuit is not resolvable; `available` lists the menu.
    UnknownCircuit,
    /// The named design is not loaded; `available` lists loaded designs.
    UnknownDesign,
    /// The request referenced a gate/pin that does not exist.
    BadTarget,
    /// The request was structurally valid JSON but semantically wrong.
    BadRequest,
    /// The netlist failed to load/levelize.
    LoadFailed,
    /// The server is draining and no longer accepts work.
    ShuttingDown,
}

impl ErrorCode {
    /// Stable wire name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::UnknownCircuit => "unknown-circuit",
            ErrorCode::UnknownDesign => "unknown-design",
            ErrorCode::BadTarget => "bad-target",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::LoadFailed => "load-failed",
            ErrorCode::ShuttingDown => "shutting-down",
        }
    }

    /// Inverse of [`ErrorCode::as_str`].
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "unknown-circuit" => ErrorCode::UnknownCircuit,
            "unknown-design" => ErrorCode::UnknownDesign,
            "bad-target" => ErrorCode::BadTarget,
            "bad-request" => ErrorCode::BadRequest,
            "load-failed" => ErrorCode::LoadFailed,
            "shutting-down" => ErrorCode::ShuttingDown,
            _ => return None,
        })
    }
}

/// One server response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Session loaded (or already present).
    Loaded(DesignInfo),
    /// Session dropped.
    Dropped {
        /// Design name of the dropped session.
        design: String,
    },
    /// The loaded sessions.
    Designs {
        /// One entry per session, sorted by content key.
        designs: Vec<DesignInfo>,
    },
    /// A lint run.
    Lint {
        /// Design name.
        design: String,
        /// Revision the report is of.
        revision: u64,
        /// No findings at warning level or above.
        clean: bool,
        /// Error-severity finding count.
        errors: usize,
        /// Warning-severity finding count.
        warnings: usize,
        /// Info-severity finding count.
        infos: usize,
        /// The full `LintReport` JSON document. Shared (`Arc`) because
        /// the server caches the parsed document per revision and hands
        /// it out to every concurrent reader without a deep clone.
        report: std::sync::Arc<Value>,
    },
    /// A SCOAP summary.
    Scoap {
        /// Design name.
        design: String,
        /// Revision the summary is of.
        revision: u64,
        /// Gate count analysed.
        gates: usize,
        /// The roll-up.
        summary: ScoapSummary,
    },
    /// A fault-simulation result.
    FaultSim {
        /// Design name.
        design: String,
        /// Revision simulated.
        revision: u64,
        /// Stuck-at universe size.
        faults: usize,
        /// Faults detected at least once.
        detected: usize,
        /// `detected / faults`.
        coverage: f64,
    },
    /// A fault-dictionary build.
    Dictionary {
        /// Design name.
        design: String,
        /// Revision the dictionary is of.
        revision: u64,
        /// Faults covered.
        faults: usize,
        /// Patterns per syndrome.
        patterns: usize,
        /// Fraction of faults with a unique syndrome.
        resolution: f64,
    },
    /// A single-fault PODEM solve.
    Podem {
        /// Design name.
        design: String,
        /// Revision solved against.
        revision: u64,
        /// Display form of the fault (`g3.in1 s-a-0`).
        fault: String,
        /// The outcome.
        outcome: PodemOutcome,
        /// Search backtracks (0 when prefiltered).
        backtracks: u64,
        /// The static implication check proved the fault untestable
        /// with zero search.
        prefiltered: bool,
        /// The test cube as a `01X` string over the primary inputs.
        cube: Option<String>,
        /// Expected good-machine response at the primary outputs under
        /// the cube (X filled with 0), evaluated on the session's cached
        /// compiled kernel — the `(pattern, expected response)` pair a
        /// tester applies.
        response: Option<String>,
    },
    /// An ECO batch result.
    Eco {
        /// Design name.
        design: String,
        /// Revision after the batch.
        revision: u64,
        /// Edits applied.
        applied: usize,
        /// Rejection messages for edits that did not apply (in batch
        /// order, rejected edits only).
        rejected: Vec<String>,
        /// All applied edits went through the incremental
        /// `AnalysisCache::apply` path (never a full rebuild).
        incremental: bool,
    },
    /// A telemetry snapshot (schema `tessera-serve-stats/1`).
    Stats {
        /// The snapshot document.
        stats: Value,
    },
    /// Graceful shutdown acknowledged.
    Shutdown,
    /// Any failure.
    Error {
        /// Machine-readable class.
        code: ErrorCode,
        /// Human-readable description.
        message: String,
        /// What exists, when the failure is a bad name (menu names for
        /// `unknown-circuit`, loaded designs for `unknown-design`).
        available: Vec<String>,
    },
}

impl Response {
    /// The stable kebab-case wire name of this response type.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Response::Loaded(_) => "loaded",
            Response::Dropped { .. } => "dropped",
            Response::Designs { .. } => "designs",
            Response::Lint { .. } => "lint-report",
            Response::Scoap { .. } => "scoap",
            Response::FaultSim { .. } => "fault-sim",
            Response::Dictionary { .. } => "dictionary",
            Response::Podem { .. } => "podem",
            Response::Eco { .. } => "eco",
            Response::Stats { .. } => "stats",
            Response::Shutdown => "shutdown",
            Response::Error { .. } => "error",
        }
    }

    /// Whether this is an error response.
    #[must_use]
    pub fn is_error(&self) -> bool {
        matches!(self, Response::Error { .. })
    }
}
