//! Request dispatch: the transport-independent service core.
//!
//! [`Service::handle_with`] maps one [`Request`] to one [`Response`]
//! against the shared [`Workspace`] and records the request as one
//! dft-obs span named after its kind, carrying a `requests` count, an
//! `errors` count and the artifact events it caused (`lint_hits`,
//! `scoap_refreshes`, `eco_incremental`, ...). `/stats` is the fold of
//! those spans ([`ServeStats::absorb`]), so it is the observable proof
//! of reuse (`*_hits` vs `*_builds`) and of the incremental ECO path.
//!
//! The five cached-artifact requests (lint, SCOAP, fault-sim,
//! dictionary, PODEM) share one read-then-warm path, taking the
//! cheapest lock that can answer:
//!
//! 1. **Read** — under the session's read lock, answer from warm
//!    artifacts only ([`DesignSession`]'s `&self` methods). Concurrent
//!    queries on the same design all run here simultaneously.
//! 2. **Warm** — only if the read came back cold, take the session's
//!    write lock and call the artifact's warm-up (`ensure_*` or
//!    [`DesignSession::warm_podem_support`]), which builds what is
//!    missing and says whether it built anything: a racing writer may
//!    have warmed it already. That verdict counts a build or a hit,
//!    and the answer is read again under the same lock.
//!
//! ECO requests go straight to the write lock.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use dft_obs::{Obs, Recorder};

use crate::api::{ErrorCode, Request, Response, MAX_DICTIONARY_OUTPUTS, MAX_PATTERNS};
use crate::session::{DesignSession, PodemRun};
use crate::stats::ServeStats;
use crate::workspace::{LoadError, Resolver, SessionHandle, Workspace};

/// The service core: workspace + telemetry + lifecycle flag.
#[derive(Debug)]
pub struct Service {
    workspace: Workspace,
    stats: ServeStats,
    shutting_down: AtomicBool,
}

impl Service {
    /// A service over a fresh workspace using `resolver` for `load`.
    #[must_use]
    pub fn new(resolver: Resolver) -> Self {
        Service {
            workspace: Workspace::new(resolver),
            stats: ServeStats::default(),
            shutting_down: AtomicBool::new(false),
        }
    }

    /// The telemetry every request's span tree folds into.
    #[must_use]
    pub fn stats(&self) -> &ServeStats {
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

    /// Dispatches one request, recording it in a span tree of its own
    /// that the stats then absorb.
    pub fn handle(&self, req: &Request) -> Response {
        let mut rec = Recorder::new();
        let resp = self.handle_with(req, &mut Obs::new(Some(&mut rec)));
        self.stats.absorb(&rec.finish("serve.handle").root);
        resp
    }

    /// Dispatches one request inside a span named after its kind,
    /// counting `requests`, `errors` and the artifact events on `obs`.
    /// The caller absorbs the finished tree into [`Service::stats`].
    pub fn handle_with(&self, req: &Request, obs: &mut Obs) -> Response {
        obs.enter(req.kind());
        let resp = self.dispatch(req, obs);
        obs.count("requests", 1);
        obs.count("errors", u64::from(resp.is_error()));
        obs.exit();
        resp
    }

    fn dispatch(&self, req: &Request, obs: &mut Obs) -> Response {
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
            Request::Load { circuit } => self.loaded(self.workspace.load(circuit), obs),
            Request::LoadBench { name, text } => {
                match dft_netlist::bench_format::parse(text, name.as_str()) {
                    Ok(netlist) => self.loaded(self.workspace.adopt(&netlist), obs),
                    Err(e) => Response::Error {
                        code: ErrorCode::LoadFailed,
                        message: format!("cannot parse '{name}': {e}"),
                        available: Vec::new(),
                    },
                }
            }
            Request::Drop { design } => match self.workspace.drop_design(design) {
                Some(name) => {
                    obs.count("sessions_dropped", 1);
                    Response::Dropped { design: name }
                }
                None => self.unknown_design(design),
            },
            Request::Designs => Response::Designs {
                designs: self.workspace.infos(),
            },
            Request::Lint { design } => self.with_session(design, |h| {
                let counters = ("lint_hits", "lint_builds");
                read_then_warm(h, obs, counters, DesignSession::ensure_lint, |s, _| {
                    let (report, doc) = s.lint_ready()?;
                    let (errors, warnings, infos) = DesignSession::severity_counts(report);
                    Some(Response::Lint {
                        design: s.name().to_owned(),
                        revision: s.revision(),
                        clean: report.is_clean(),
                        errors,
                        warnings,
                        infos,
                        report: Arc::clone(doc),
                    })
                })
            }),
            Request::Scoap { design } => self.with_session(design, |h| {
                let counters = ("scoap_hits", "scoap_refreshes");
                read_then_warm(h, obs, counters, DesignSession::ensure_scoap, |s, _| {
                    Some(Response::Scoap {
                        design: s.name().to_owned(),
                        revision: s.revision(),
                        gates: s.netlist().gate_count(),
                        summary: s.try_scoap_summary()?,
                    })
                })
            }),
            &Request::FaultSim {
                ref design,
                patterns,
                seed,
            } => self.with_session(design, |h| {
                let warm = |s: &mut DesignSession| s.ensure_fault_sim(patterns, seed);
                let counters = ("fault_sim_hits", "fault_sim_runs");
                read_then_warm(h, obs, counters, warm, |s, _| {
                    let (faults, detected, coverage) = s.try_fault_sim(patterns, seed)?;
                    Some(Response::FaultSim {
                        design: s.name().to_owned(),
                        revision: s.revision(),
                        faults,
                        detected,
                        coverage,
                    })
                })
            }),
            &Request::Dictionary {
                ref design,
                patterns,
                seed,
            } => self.with_session(design, |h| {
                let outputs = h
                    .read()
                    .expect("session lock poisoned")
                    .netlist()
                    .primary_outputs()
                    .len();
                if outputs >= MAX_DICTIONARY_OUTPUTS {
                    let cap = MAX_DICTIONARY_OUTPUTS - 1;
                    return Response::Error {
                        code: ErrorCode::BadRequest,
                        message: format!("'{design}' has {outputs} outputs, over the cap of {cap}"),
                        available: Vec::new(),
                    };
                }
                let warm = |s: &mut DesignSession| s.ensure_dictionary(patterns, seed);
                let counters = ("dictionary_hits", "dictionary_builds");
                read_then_warm(h, obs, counters, warm, |s, _| {
                    let (faults, patterns, resolution) = s.try_dictionary(patterns, seed)?;
                    Some(Response::Dictionary {
                        design: s.name().to_owned(),
                        revision: s.revision(),
                        faults,
                        patterns,
                        resolution,
                    })
                })
            }),
            &Request::Podem {
                ref design,
                gate,
                pin,
                stuck,
            } => self.with_session(design, |h| {
                read_then_warm(
                    h,
                    obs,
                    ("podem_warm", "podem_warmups"),
                    DesignSession::warm_podem_support,
                    |s, obs| Some(podem_response(s, s.try_podem(gate, pin, stuck)?, obs)),
                )
            }),
            Request::Eco { design, edits } => self.with_session(design, |h| {
                let mut session = h.write().expect("session lock poisoned");
                let outcome = session.apply_eco(edits);
                obs.count("eco_incremental", outcome.applied as u64);
                obs.count("eco_rejected", outcome.rejected.len() as u64);
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

    fn loaded(&self, loaded: Result<(SessionHandle, bool), LoadError>, obs: &mut Obs) -> Response {
        match loaded {
            Ok((handle, reused)) => {
                let key = if reused {
                    "sessions_reused"
                } else {
                    "sessions_loaded"
                };
                obs.count(key, 1);
                Response::Loaded(handle.read().expect("session lock poisoned").info())
            }
            Err(e) => Response::Error {
                code: if e.available.is_empty() {
                    ErrorCode::LoadFailed
                } else {
                    ErrorCode::UnknownCircuit
                },
                message: e.message,
                available: e.available,
            },
        }
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
}

/// Answers from warm state under the read lock; on a miss, takes the
/// write lock, calls `warm` (which reports whether it built anything)
/// and answers from the now-warm state. Counts one of the `(hit,
/// build)` counters.
fn read_then_warm(
    handle: &SessionHandle,
    obs: &mut Obs,
    (hit, build): (&'static str, &'static str),
    warm: impl FnOnce(&mut DesignSession) -> bool,
    answer: impl Fn(&DesignSession, &mut Obs) -> Option<Response>,
) -> Response {
    if let Some(resp) = answer(&handle.read().expect("session lock poisoned"), obs) {
        obs.count(hit, 1);
        return resp;
    }
    let mut session = handle.write().expect("session lock poisoned");
    obs.count(if warm(&mut session) { build } else { hit }, 1);
    answer(&session, obs).expect("the warm-up leaves the artifact warm")
}

fn podem_response(s: &DesignSession, run: Result<PodemRun, String>, obs: &mut Obs) -> Response {
    match run {
        Ok(run) => {
            obs.count("podem_prefiltered", u64::from(run.prefiltered));
            obs.count("podem_cdcl", u64::from(run.cdcl));
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
    use dft_netlist::{circuits, GateKind, Netlist};

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

    /// A dictionary on a design with 65,535 outputs is refused before
    /// anything is built, and a session whose lock a panicking request
    /// poisoned still shows in the workspace's listings and can be
    /// dropped.
    #[test]
    fn oversized_dictionaries_are_rejected_and_poisoned_sessions_still_list() {
        let svc = Service::new(Box::new(|name| match name {
            "c17" => Ok(circuits::c17()),
            "wide" => {
                // 65,535 inputs, each driving one output buffer.
                let mut n = Netlist::new("wide");
                for i in 0..MAX_DICTIONARY_OUTPUTS {
                    let a = n.add_input(format!("i{i}"));
                    let y = n.add_gate(GateKind::Buf, &[a]).unwrap();
                    n.mark_output(y, format!("o{i}")).unwrap();
                }
                Ok(n)
            }
            other => Err(LoadError {
                message: format!("unknown circuit '{other}'"),
                available: vec!["c17".into(), "wide".into()],
            }),
        }));
        for circuit in ["c17", "wide"] {
            let load = Request::Load {
                circuit: circuit.into(),
            };
            assert!(!svc.handle(&load).is_error());
        }
        let Response::Error { code, .. } = svc.handle(&Request::Dictionary {
            design: "wide".into(),
            patterns: 64,
            seed: 1,
        }) else {
            panic!("a 65,535-output dictionary must be rejected")
        };
        assert_eq!(code, ErrorCode::BadRequest);
        assert_eq!(artifact(&svc, "dictionary_builds"), 0, "nothing built");

        // Poison c17's session: a panic while its write lock is held.
        let handle = svc.workspace().find("c17").unwrap();
        let poisoner = std::thread::spawn(move || {
            let _session = handle.write().unwrap();
            panic!("a request failed under the write lock");
        });
        assert!(poisoner.join().is_err());

        let Response::Designs { designs } = svc.handle(&Request::Designs) else {
            panic!("designs must answer beside a poisoned session")
        };
        let mut names: Vec<String> = designs.into_iter().map(|d| d.design).collect();
        names.sort();
        assert_eq!(names, ["c17", "wide"]);
        for design in ["wide", "c17"] {
            assert!(svc.workspace().find(design).is_some(), "{design}");
        }
        let Response::Error { available, .. } = svc.handle(&Request::Lint {
            design: "c99".into(),
        }) else {
            panic!("an unknown design is an error")
        };
        assert_eq!(available.len(), 2);
        // And it can be dropped.
        let drop = Request::Drop {
            design: "c17".into(),
        };
        assert!(!svc.handle(&drop).is_error());
        assert!(svc.workspace().find("c17").is_none());
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
