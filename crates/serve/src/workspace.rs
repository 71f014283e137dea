//! The content-hash-keyed session store.
//!
//! A [`Workspace`] owns every loaded [`DesignSession`], each behind its
//! own `RwLock` so queries on different designs never contend and
//! read-only queries on the *same* design run in parallel. The outer
//! map lock is held only for lookups and load/drop bookkeeping, never
//! across analysis work.
//!
//! Designs resolve by name through a pluggable resolver (the binaries
//! install `dft-bench`'s circuit menu; tests install a closure). A
//! failed resolve produces a [`LoadError`] carrying the available names
//! — the structured what-exists error the CLIs and the `/load` endpoint
//! share.
//!
//! A request that panics under a session's write lock poisons that
//! lock. The read-only listings (name lookup, `design_names`, `infos`)
//! and `drop_design` read a poisoned session's key, name and info
//! anyway: plain values that stay readable whatever step the panic
//! interrupted, so one failed request never takes the workspace's
//! listings down with it.

use std::collections::BTreeMap;
use std::sync::{Arc, PoisonError, RwLock};

use dft_netlist::Netlist;

use crate::session::DesignSession;

/// A structured "that name does not resolve" error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoadError {
    /// What went wrong.
    pub message: String,
    /// The names that would have worked (empty when the failure is not
    /// a naming problem, e.g. a cyclic netlist).
    pub available: Vec<String>,
}

/// Resolves a circuit name to a netlist (or a structured error).
pub type Resolver = Box<dyn Fn(&str) -> Result<Netlist, LoadError> + Send + Sync>;

/// A shared handle to one session.
pub type SessionHandle = Arc<RwLock<DesignSession>>;

/// The session store.
pub struct Workspace {
    resolver: Resolver,
    /// Content key → session. `BTreeMap` keeps `designs` listings in a
    /// deterministic order.
    sessions: RwLock<BTreeMap<String, SessionHandle>>,
}

impl std::fmt::Debug for Workspace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workspace").finish_non_exhaustive()
    }
}

impl Workspace {
    /// A workspace resolving names through `resolver`.
    #[must_use]
    pub fn new(resolver: Resolver) -> Self {
        Workspace {
            resolver,
            sessions: RwLock::new(BTreeMap::new()),
        }
    }

    /// Loads `circuit` by name. If the resolved content is already
    /// resident, returns the existing session (`reused = true`).
    ///
    /// # Errors
    ///
    /// [`LoadError`] when the name does not resolve or the netlist
    /// cannot be levelized.
    pub fn load(&self, circuit: &str) -> Result<(SessionHandle, bool), LoadError> {
        let netlist = (self.resolver)(circuit)?;
        self.adopt(&netlist)
    }

    /// Loads an inline netlist (already parsed). Same reuse semantics
    /// as [`Workspace::load`].
    ///
    /// # Errors
    ///
    /// [`LoadError`] when the netlist cannot be levelized.
    pub fn adopt(&self, netlist: &Netlist) -> Result<(SessionHandle, bool), LoadError> {
        let key = crate::session::content_key(netlist);
        {
            let map = self.sessions.read().expect("workspace lock poisoned");
            if let Some(existing) = map.get(&key) {
                return Ok((Arc::clone(existing), true));
            }
        }
        let session = DesignSession::new(netlist).map_err(|e| LoadError {
            message: format!("cannot load '{}': {e}", netlist.name()),
            available: Vec::new(),
        })?;
        let handle = Arc::new(RwLock::new(session));
        let mut map = self.sessions.write().expect("workspace lock poisoned");
        // Two racers may both have missed: first insert wins, the loser
        // adopts the winner's session.
        let entry = map.entry(key).or_insert_with(|| Arc::clone(&handle));
        let reused = !Arc::ptr_eq(entry, &handle);
        Ok((Arc::clone(entry), reused))
    }

    /// Finds a session by content key or design name. Name lookup scans
    /// the (small) map; the first match in key order wins.
    #[must_use]
    pub fn find(&self, design: &str) -> Option<SessionHandle> {
        let map = self.sessions.read().expect("workspace lock poisoned");
        if let Some(h) = map.get(design) {
            return Some(Arc::clone(h));
        }
        map.values()
            .find(|h| h.read().unwrap_or_else(PoisonError::into_inner).name() == design)
            .map(Arc::clone)
    }

    /// Drops a session by key or name; returns its design name if it
    /// was resident.
    #[must_use]
    pub fn drop_design(&self, design: &str) -> Option<String> {
        let handle = self.find(design)?;
        let (key, name) = {
            let s = handle.read().unwrap_or_else(PoisonError::into_inner);
            (s.key().to_owned(), s.name().to_owned())
        };
        let mut map = self.sessions.write().expect("workspace lock poisoned");
        map.remove(&key).map(|_| name)
    }

    /// The loaded design names (and keys) — the `available` list for
    /// unknown-design errors.
    #[must_use]
    pub fn design_names(&self) -> Vec<String> {
        let map = self.sessions.read().expect("workspace lock poisoned");
        map.values()
            .map(|h| {
                h.read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .name()
                    .to_owned()
            })
            .collect()
    }

    /// Info for every loaded session, in key order.
    #[must_use]
    pub fn infos(&self) -> Vec<crate::api::DesignInfo> {
        let map = self.sessions.read().expect("workspace lock poisoned");
        map.values()
            .map(|h| h.read().unwrap_or_else(PoisonError::into_inner).info())
            .collect()
    }

    /// Number of resident sessions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sessions.read().expect("workspace lock poisoned").len()
    }

    /// Whether no sessions are resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_netlist::circuits;

    fn menu_workspace() -> Workspace {
        Workspace::new(Box::new(|name| match name {
            "c17" => Ok(circuits::c17()),
            "full-adder" => Ok(circuits::full_adder()),
            other => Err(LoadError {
                message: format!("unknown circuit '{other}'"),
                available: vec!["c17".into(), "full-adder".into()],
            }),
        }))
    }

    #[test]
    fn load_find_drop() {
        let ws = menu_workspace();
        let (first, reused) = ws.load("c17").unwrap();
        assert!(!reused);
        let (second, reused) = ws.load("c17").unwrap();
        assert!(reused);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(ws.len(), 1);

        ws.load("full-adder").unwrap();
        assert_eq!(ws.infos().len(), 2);
        assert!(ws.find("c17").is_some());
        let key = first.read().unwrap().key().to_owned();
        assert!(ws.find(&key).is_some());

        assert_eq!(ws.drop_design("c17").as_deref(), Some("c17"));
        assert!(ws.find("c17").is_none());
        assert!(ws.drop_design("c17").is_none());
        assert_eq!(ws.len(), 1);
    }

    #[test]
    fn unknown_names_list_the_menu() {
        let ws = menu_workspace();
        let err = ws.load("c99").unwrap_err();
        assert!(err.message.contains("c99"));
        assert_eq!(err.available, vec!["c17".to_string(), "full-adder".into()]);
    }
}
