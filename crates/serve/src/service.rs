//! Request dispatch: the transport-independent service core.
//!
//! [`Service::handle`] maps one [`Request`] to one [`Response`] against
//! the shared [`Workspace`], taking the cheapest lock that can answer:
//!
//! 1. **Read pass** — under the session's read lock, answer from warm
//!    artifacts only ([`DesignSession`]'s `try_*` path). Concurrent
//!    queries on the same design all run here simultaneously.
//! 2. **Write pass** — only if the read pass came back cold, retake the
//!    session's write lock, build the missing artifact, answer. (The
//!    build is re-checked under the write lock: a racing writer may
//!    have warmed it already.)
//!
//! ECO requests go straight to the write pass. Every pass bumps the
//! matching [`ServeStats`] artifact counter, so `/stats` is the
//! observable proof of reuse (`*_hits` vs `*_builds`) and of the
//! incremental ECO path (`eco_incremental`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::api::{ErrorCode, Request, Response, MAX_PATTERNS};
use crate::session::DesignSession;
use crate::stats::{Endpoint, ServeStats};
use crate::workspace::{LoadError, Resolver, SessionHandle, Workspace};

/// The service core: workspace + telemetry + lifecycle flag.
#[derive(Debug)]
pub struct Service {
    workspace: Workspace,
    stats: Arc<ServeStats>,
    shutting_down: AtomicBool,
}

impl Service {
    /// A service over a fresh workspace using `resolver` for `load`.
    #[must_use]
    pub fn new(resolver: Resolver) -> Self {
        Service {
            workspace: Workspace::new(resolver),
            stats: Arc::new(ServeStats::new()),
            shutting_down: AtomicBool::new(false),
        }
    }

    /// The telemetry sink (shared with the transport layer).
    #[must_use]
    pub fn stats(&self) -> &Arc<ServeStats> {
        &self.stats
    }

    /// The workspace (exposed for preloading and tests).
    #[must_use]
    pub fn workspace(&self) -> &Workspace {
        &self.workspace
    }

    /// Whether a shutdown request has been accepted.
    #[must_use]
    pub fn shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    /// Dispatches one request, recording per-endpoint latency and the
    /// error flag in the stats.
    pub fn handle(&self, req: &Request) -> Response {
        let endpoint = Endpoint::of(req);
        let start = Instant::now();
        let resp = self.dispatch(req);
        let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.stats.record(endpoint, elapsed, resp.is_error());
        resp
    }

    fn dispatch(&self, req: &Request) -> Response {
        if self.shutting_down() && !matches!(req, Request::Stats | Request::Shutdown) {
            return Response::Error {
                code: ErrorCode::ShuttingDown,
                message: "server is draining".into(),
                available: Vec::new(),
            };
        }
        if let Request::FaultSim { patterns, .. } | Request::Dictionary { patterns, .. } = req {
            if *patterns > MAX_PATTERNS {
                return Response::Error {
                    code: ErrorCode::BadRequest,
                    message: format!("patterns {patterns} exceeds the cap of {MAX_PATTERNS}"),
                    available: Vec::new(),
                };
            }
        }
        match req {
            Request::Load { circuit } => match self.workspace.load(circuit) {
                Ok((handle, reused)) => self.loaded(&handle, reused),
                Err(e) => load_error(&e),
            },
            Request::LoadBench { name, text } => {
                match dft_netlist::bench_format::parse(text, name.as_str()) {
                    Ok(netlist) => match self.workspace.adopt(&netlist) {
                        Ok((handle, reused)) => self.loaded(&handle, reused),
                        Err(e) => load_error(&e),
                    },
                    Err(e) => Response::Error {
                        code: ErrorCode::LoadFailed,
                        message: format!("cannot parse '{name}': {e}"),
                        available: Vec::new(),
                    },
                }
            }
            Request::Drop { design } => match self.workspace.drop_design(design) {
                Some(name) => {
                    ServeStats::hit(&self.stats.artifacts.sessions_dropped);
                    Response::Dropped { design: name }
                }
                None => self.unknown_design(design),
            },
            Request::Designs => Response::Designs {
                designs: self.workspace.infos(),
            },
            Request::Lint { design } => self.with_session(design, |s| self.lint(s)),
            Request::Scoap { design } => self.with_session(design, |s| self.scoap(s)),
            Request::FaultSim {
                design,
                patterns,
                seed,
            } => self.with_session(design, |s| self.fault_sim(s, *patterns, *seed)),
            Request::Dictionary {
                design,
                patterns,
                seed,
            } => self.with_session(design, |s| self.dictionary(s, *patterns, *seed)),
            Request::Podem {
                design,
                gate,
                pin,
                stuck,
            } => self.with_session(design, |s| self.podem(s, *gate, *pin, *stuck)),
            Request::Eco { design, edits } => self.with_session(design, |s| {
                let mut session = s.write().expect("session lock poisoned");
                let outcome = session.apply_eco(edits);
                ServeStats::add(
                    &self.stats.artifacts.eco_incremental,
                    outcome.applied as u64,
                );
                ServeStats::add(
                    &self.stats.artifacts.eco_rejected,
                    outcome.rejected.len() as u64,
                );
                Response::Eco {
                    design: session.name().to_owned(),
                    revision: session.revision(),
                    applied: outcome.applied,
                    rejected: outcome.rejected,
                    incremental: true,
                }
            }),
            Request::Stats => Response::Stats {
                stats: self.stats.snapshot(),
            },
            Request::Shutdown => {
                self.shutting_down.store(true, Ordering::SeqCst);
                Response::Shutdown
            }
        }
    }

    fn loaded(&self, handle: &SessionHandle, reused: bool) -> Response {
        ServeStats::hit(if reused {
            &self.stats.artifacts.sessions_reused
        } else {
            &self.stats.artifacts.sessions_loaded
        });
        Response::Loaded(handle.read().expect("session lock poisoned").info())
    }

    fn unknown_design(&self, design: &str) -> Response {
        Response::Error {
            code: ErrorCode::UnknownDesign,
            message: format!("design '{design}' is not loaded"),
            available: self.workspace.design_names(),
        }
    }

    fn with_session(&self, design: &str, f: impl FnOnce(&SessionHandle) -> Response) -> Response {
        match self.workspace.find(design) {
            Some(handle) => f(&handle),
            None => self.unknown_design(design),
        }
    }

    fn lint(&self, handle: &SessionHandle) -> Response {
        {
            let s = handle.read().expect("session lock poisoned");
            if let Some((report, doc)) = s.lint_ready() {
                ServeStats::hit(&self.stats.artifacts.lint_hits);
                let doc = Arc::clone(doc);
                return lint_response(&s, report, doc);
            }
        }
        let mut s = handle.write().expect("session lock poisoned");
        let (report, doc, built) = s.ensure_lint();
        ServeStats::hit(if built {
            &self.stats.artifacts.lint_builds
        } else {
            // A racing writer warmed it between our locks.
            &self.stats.artifacts.lint_hits
        });
        let (report, doc) = (report.clone(), Arc::clone(doc));
        lint_response(&s, &report, doc)
    }

    fn scoap(&self, handle: &SessionHandle) -> Response {
        {
            let s = handle.read().expect("session lock poisoned");
            if let Some(summary) = s.try_scoap_summary() {
                ServeStats::hit(&self.stats.artifacts.scoap_hits);
                return Response::Scoap {
                    design: s.name().to_owned(),
                    revision: s.revision(),
                    gates: s.netlist().gate_count(),
                    summary,
                };
            }
        }
        let mut s = handle.write().expect("session lock poisoned");
        let (summary, refreshed) = s.scoap_summary();
        ServeStats::hit(if refreshed {
            &self.stats.artifacts.scoap_refreshes
        } else {
            &self.stats.artifacts.scoap_hits
        });
        Response::Scoap {
            design: s.name().to_owned(),
            revision: s.revision(),
            gates: s.netlist().gate_count(),
            summary,
        }
    }

    fn fault_sim(&self, handle: &SessionHandle, patterns: usize, seed: u64) -> Response {
        {
            let s = handle.read().expect("session lock poisoned");
            if let Some(figures) = s.try_fault_sim(patterns, seed) {
                ServeStats::hit(&self.stats.artifacts.fault_sim_hits);
                return fault_sim_response(&s, figures);
            }
        }
        let mut s = handle.write().expect("session lock poisoned");
        let (figures, computed) = s.run_fault_sim(patterns, seed);
        ServeStats::hit(if computed {
            &self.stats.artifacts.fault_sim_runs
        } else {
            &self.stats.artifacts.fault_sim_hits
        });
        fault_sim_response(&s, figures)
    }

    fn dictionary(&self, handle: &SessionHandle, patterns: usize, seed: u64) -> Response {
        {
            let s = handle.read().expect("session lock poisoned");
            if let Some(figures) = s.try_dictionary(patterns, seed) {
                ServeStats::hit(&self.stats.artifacts.dictionary_hits);
                return dictionary_response(&s, figures);
            }
        }
        let mut s = handle.write().expect("session lock poisoned");
        let (figures, built) = s.run_dictionary(patterns, seed);
        ServeStats::hit(if built {
            &self.stats.artifacts.dictionary_builds
        } else {
            &self.stats.artifacts.dictionary_hits
        });
        dictionary_response(&s, figures)
    }

    fn podem(
        &self,
        handle: &SessionHandle,
        gate: usize,
        pin: Option<u32>,
        stuck: bool,
    ) -> Response {
        {
            let s = handle.read().expect("session lock poisoned");
            if let Some(run) = s.try_podem(gate, pin, stuck) {
                ServeStats::hit(&self.stats.artifacts.podem_warm);
                return podem_response(&self.stats, &s, run);
            }
        }
        let mut s = handle.write().expect("session lock poisoned");
        if s.warm_podem_support() {
            ServeStats::hit(&self.stats.artifacts.podem_warmups);
        } else {
            ServeStats::hit(&self.stats.artifacts.podem_warm);
        }
        let run = s.try_podem(gate, pin, stuck).expect("support just warmed");
        podem_response(&self.stats, &s, run)
    }
}

fn load_error(e: &LoadError) -> Response {
    Response::Error {
        code: if e.available.is_empty() {
            ErrorCode::LoadFailed
        } else {
            ErrorCode::UnknownCircuit
        },
        message: e.message.clone(),
        available: e.available.clone(),
    }
}

fn lint_response(
    s: &DesignSession,
    report: &dft_lint::LintReport,
    doc: Arc<dft_json::Value>,
) -> Response {
    let (errors, warnings, infos) = DesignSession::severity_counts(report);
    Response::Lint {
        design: s.name().to_owned(),
        revision: s.revision(),
        clean: report.is_clean(),
        errors,
        warnings,
        infos,
        report: doc,
    }
}

fn fault_sim_response(
    s: &DesignSession,
    (faults, detected, coverage): (usize, usize, f64),
) -> Response {
    Response::FaultSim {
        design: s.name().to_owned(),
        revision: s.revision(),
        faults,
        detected,
        coverage,
    }
}

fn dictionary_response(
    s: &DesignSession,
    (faults, patterns, resolution): (usize, usize, f64),
) -> Response {
    Response::Dictionary {
        design: s.name().to_owned(),
        revision: s.revision(),
        faults,
        patterns,
        resolution,
    }
}

fn podem_response(
    stats: &ServeStats,
    s: &DesignSession,
    run: Result<crate::session::PodemRun, String>,
) -> Response {
    match run {
        Ok(run) => {
            if run.prefiltered {
                ServeStats::hit(&stats.artifacts.podem_prefiltered);
            }
            if run.cdcl {
                ServeStats::hit(&stats.artifacts.podem_cdcl);
            }
            Response::Podem {
                design: s.name().to_owned(),
                revision: s.revision(),
                fault: run.fault,
                outcome: run.outcome,
                backtracks: run.backtracks,
                prefiltered: run.prefiltered,
                cube: run.cube,
                response: run.response,
            }
        }
        Err(message) => Response::Error {
            code: ErrorCode::BadTarget,
            message,
            available: Vec::new(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::EcoEdit;
    use dft_json::Value;
    use dft_netlist::circuits;

    fn test_service() -> Service {
        Service::new(Box::new(|name| match name {
            "c17" => Ok(circuits::c17()),
            "rand_15x140" => Ok(circuits::random_combinational(15, 140, 6)),
            other => Err(LoadError {
                message: format!("unknown circuit '{other}'"),
                available: vec!["c17".into()],
            }),
        }))
    }

    fn artifact(svc: &Service, key: &str) -> u64 {
        let snap = svc.stats().snapshot();
        snap.get("artifacts")
            .and_then(|a| a.get(key))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    }

    #[test]
    fn full_request_cycle_with_hit_counters() {
        let svc = test_service();
        let Response::Loaded(info) = svc.handle(&Request::Load {
            circuit: "c17".into(),
        }) else {
            panic!("load failed")
        };
        assert_eq!(info.design, "c17");
        assert_eq!(info.revision, 0);

        // First lint builds, second hits.
        assert!(!svc
            .handle(&Request::Lint {
                design: "c17".into()
            })
            .is_error());
        assert!(!svc
            .handle(&Request::Lint {
                design: "c17".into()
            })
            .is_error());
        assert_eq!(artifact(&svc, "lint_builds"), 1);
        assert_eq!(artifact(&svc, "lint_hits"), 1);

        // Same for fault-sim (keyed by recipe).
        let fs = Request::FaultSim {
            design: "c17".into(),
            patterns: 64,
            seed: 7,
        };
        let first = svc.handle(&fs);
        let second = svc.handle(&fs);
        assert_eq!(first, second, "identical queries must answer identically");
        assert_eq!(artifact(&svc, "fault_sim_runs"), 1);
        assert_eq!(artifact(&svc, "fault_sim_hits"), 1);

        // ECO invalidates and counts the incremental path.
        let eco = svc.handle(&Request::Eco {
            design: "c17".into(),
            edits: vec![EcoEdit::AddGate {
                kind: "nand".into(),
                inputs: vec![0, 1],
            }],
        });
        let Response::Eco {
            revision,
            applied,
            incremental,
            ..
        } = eco
        else {
            panic!("eco failed: {eco:?}")
        };
        assert_eq!((revision, applied, incremental), (1, 1, true));
        assert_eq!(artifact(&svc, "eco_incremental"), 1);

        // Post-ECO lint is a rebuild, not a hit.
        assert!(!svc
            .handle(&Request::Lint {
                design: "c17".into()
            })
            .is_error());
        assert_eq!(artifact(&svc, "lint_builds"), 2);
    }

    #[test]
    fn podem_paths_and_counters() {
        let svc = test_service();
        svc.handle(&Request::Load {
            circuit: "c17".into(),
        });
        let req = Request::Podem {
            design: "c17".into(),
            gate: 8,
            pin: None,
            stuck: false,
        };
        let Response::Podem { outcome, .. } = svc.handle(&req) else {
            panic!("podem failed")
        };
        assert_eq!(outcome, crate::api::PodemOutcome::Test);
        assert_eq!(artifact(&svc, "podem_warmups"), 1);
        svc.handle(&req);
        assert_eq!(artifact(&svc, "podem_warm"), 1);

        let bad = svc.handle(&Request::Podem {
            design: "c17".into(),
            gate: 10_000,
            pin: None,
            stuck: false,
        });
        assert!(matches!(
            bad,
            Response::Error {
                code: ErrorCode::BadTarget,
                ..
            }
        ));

        // A redundant fault the search cannot exhaust within its budget:
        // the CDCL prover settles it, and /stats counts it.
        assert_eq!(artifact(&svc, "podem_cdcl"), 0);
        let Response::Loaded(info) = svc.handle(&Request::Load {
            circuit: "rand_15x140".into(),
        }) else {
            panic!("load failed")
        };
        let Response::Podem {
            outcome,
            prefiltered,
            ..
        } = svc.handle(&Request::Podem {
            design: info.design,
            gate: 110,
            pin: Some(0),
            stuck: true,
        })
        else {
            panic!("podem failed")
        };
        assert_eq!(outcome, crate::api::PodemOutcome::Untestable);
        assert!(!prefiltered);
        assert_eq!(artifact(&svc, "podem_cdcl"), 1);
    }

    #[test]
    fn structured_errors_list_available() {
        let svc = test_service();
        let Response::Error {
            code, available, ..
        } = svc.handle(&Request::Load {
            circuit: "c99".into(),
        })
        else {
            panic!("expected error")
        };
        assert_eq!(code, ErrorCode::UnknownCircuit);
        assert_eq!(available, vec!["c17".to_string()]);

        svc.handle(&Request::Load {
            circuit: "c17".into(),
        });
        let Response::Error {
            code, available, ..
        } = svc.handle(&Request::Lint {
            design: "c99".into(),
        })
        else {
            panic!("expected error")
        };
        assert_eq!(code, ErrorCode::UnknownDesign);
        assert_eq!(available, vec!["c17".to_string()]);
    }

    #[test]
    fn pattern_counts_over_the_cap_are_rejected() {
        let svc = test_service();
        assert!(!svc
            .handle(&Request::Load {
                circuit: "c17".into()
            })
            .is_error());
        let fault_sim = |patterns| Request::FaultSim {
            design: "c17".into(),
            patterns,
            seed: 1,
        };
        let over = [
            fault_sim(usize::MAX / 2),
            fault_sim(MAX_PATTERNS + 1),
            Request::Dictionary {
                design: "c17".into(),
                patterns: usize::MAX / 2,
                seed: 1,
            },
        ];
        for req in &over {
            let Response::Error { code, .. } = svc.handle(req) else {
                panic!("{req:?} must be rejected")
            };
            assert_eq!(code, ErrorCode::BadRequest);
        }
        assert_eq!(artifact(&svc, "fault_sim_runs"), 0, "nothing simulated");
        // The session is not pinned: the next request answers normally.
        let Response::FaultSim { detected, .. } = svc.handle(&fault_sim(64)) else {
            panic!("fault-sim after a rejected request must answer")
        };
        assert!(detected > 0);
        assert!(!svc.handle(&fault_sim(MAX_PATTERNS)).is_error());
    }

    #[test]
    fn shutdown_drains() {
        let svc = test_service();
        assert_eq!(svc.handle(&Request::Shutdown), Response::Shutdown);
        assert!(svc.shutting_down());
        let resp = svc.handle(&Request::Designs);
        assert!(matches!(
            resp,
            Response::Error {
                code: ErrorCode::ShuttingDown,
                ..
            }
        ));
        // Stats stay reachable while draining.
        assert!(!svc.handle(&Request::Stats).is_error());
    }
}
