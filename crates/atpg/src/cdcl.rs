//! A small conflict-driven clause-learning (CDCL) SAT solver: the
//! complete prover behind PODEM's search budget (Larrabee, "Test
//! pattern generation using Boolean satisfiability", IEEE TCAD 1992).
//!
//! Two watched literals per clause, first-UIP learning with
//! non-chronological backjumping, VSIDS-style variable activities with
//! phase saving, and Luby restarts. Every choice is deterministic:
//! activity ties break toward the lower variable index, and the only
//! stop besides a verdict is a fixed conflict limit — no clock and no
//! randomness — so a replay gives the same verdict and counters.
//!
//! Learned clauses are never deleted; the conflict limit bounds how
//! many there can be.

/// A literal: variable `v` positive is `2v`, negated `2v + 1`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Lit(u32);

impl Lit {
    fn var(self) -> usize {
        (self.0 >> 1) as usize
    }

    fn index(self) -> usize {
        self.0 as usize
    }

    /// The literal asserting this one has value `b`: itself for `true`,
    /// its negation for `false`.
    pub(crate) fn is(self, b: bool) -> Lit {
        if b {
            self
        } else {
            !self
        }
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

/// A solver verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// A satisfying assignment exists (and is held in the solver).
    Sat,
    /// No assignment satisfies the clauses.
    Unsat,
    /// The conflict limit ran out first.
    Unknown,
}

/// Per-variable value: a literal's value is the variable's XOR its sign.
const FALSE: u8 = 0;
const TRUE: u8 = 1;
const UNDEF: u8 = 2;

/// `reason` of a decision or a level-0 unit.
const NO_REASON: u32 = u32::MAX;
/// `heap_pos` of a variable not in the decision heap.
const NOT_IN_HEAP: u32 = u32::MAX;

const ACTIVITY_DECAY: f64 = 0.95;
/// Conflicts per Luby restart unit.
const RESTART_UNIT: u64 = 64;

#[derive(Clone, Copy, Debug)]
struct Watch {
    clause: u32,
    /// A literal of the clause: when it is true, the clause is
    /// satisfied and need not be visited.
    blocker: Lit,
}

/// The solver: clauses over variables `0..vars`, added at level 0, then
/// one [`Solver::solve`] call.
#[derive(Debug, Default)]
pub(crate) struct Solver {
    /// Clause arena: clause `c` is `lits[start[c]..start[c + 1]]`, its
    /// two watched literals first.
    lits: Vec<Lit>,
    start: Vec<u32>,
    /// Clauses watching each literal, indexed by literal.
    watches: Vec<Vec<Watch>>,
    assigns: Vec<u8>,
    level: Vec<u32>,
    reason: Vec<u32>,
    trail: Vec<Lit>,
    /// Trail length at the start of each decision level.
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    /// Binary max-heap of unassigned decision candidates.
    heap: Vec<u32>,
    heap_pos: Vec<u32>,
    /// Saved phase: the value each variable last held.
    phase: Vec<bool>,
    seen: Vec<bool>,
    conflicts: u64,
    /// `false` once the clauses are known unsatisfiable at level 0.
    ok: bool,
    scratch: Vec<Lit>,
}

impl Solver {
    pub(crate) fn new() -> Self {
        Solver {
            start: vec![0],
            var_inc: 1.0,
            ok: true,
            ..Solver::default()
        }
    }

    /// A fresh variable's positive literal.
    pub(crate) fn new_lit(&mut self) -> Lit {
        let v = self.assigns.len() as u32;
        self.assigns.push(UNDEF);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.heap_pos.push(NOT_IN_HEAP);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap_insert(v);
        Lit(v << 1)
    }

    /// Conflicts met so far.
    pub(crate) fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// The value `lit` holds in the model after [`Verdict::Sat`].
    #[cfg(test)]
    pub(crate) fn model(&self, lit: Lit) -> bool {
        self.value(lit) == TRUE
    }

    fn value(&self, lit: Lit) -> u8 {
        match self.assigns[lit.var()] {
            UNDEF => UNDEF,
            a => a ^ (lit.0 & 1) as u8,
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Adds a clause (level 0 only, before [`Solver::solve`]).
    /// Duplicate literals are merged, tautologies and clauses already
    /// satisfied are dropped, and literals already false are removed;
    /// an empty result makes the formula unsatisfiable and a unit is
    /// assigned at once.
    pub(crate) fn add_clause(&mut self, lits: &[Lit]) {
        debug_assert_eq!(self.decision_level(), 0);
        if !self.ok {
            return;
        }
        let mut c = std::mem::take(&mut self.scratch);
        c.clear();
        c.extend_from_slice(lits);
        c.sort_unstable();
        c.dedup();
        let satisfied =
            c.windows(2).any(|w| w[1] == !w[0]) || c.iter().any(|&l| self.value(l) == TRUE);
        if !satisfied {
            c.retain(|&l| self.value(l) == UNDEF);
            match c.len() {
                0 => self.ok = false,
                1 => self.enqueue(c[0], NO_REASON),
                _ => {
                    self.attach(&c);
                }
            }
        }
        self.scratch = c;
    }

    /// Stores a clause of two or more literals and watches its first
    /// two; returns its index.
    fn attach(&mut self, c: &[Lit]) -> u32 {
        let idx = (self.start.len() - 1) as u32;
        self.lits.extend_from_slice(c);
        self.start.push(self.lits.len() as u32);
        for &l in &c[..2] {
            self.watches[l.index()].push(Watch {
                clause: idx,
                blocker: c[0],
            });
        }
        idx
    }

    fn enqueue(&mut self, lit: Lit, reason: u32) {
        let v = lit.var();
        self.assigns[v] = (lit.0 & 1) as u8 ^ TRUE;
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(lit);
    }

    /// Unit propagation over the watch lists; returns a conflicting
    /// clause, if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let false_lit = !self.trail[self.qhead];
            self.qhead += 1;
            let mut ws = std::mem::take(&mut self.watches[false_lit.index()]);
            let (mut i, mut j) = (0, 0);
            let mut conflict = None;
            while i < ws.len() {
                let w = ws[i];
                i += 1;
                if self.value(w.blocker) == TRUE {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let c = w.clause as usize;
                let (s, e) = (self.start[c] as usize, self.start[c + 1] as usize);
                // Keep the falsified watch in slot 1.
                if self.lits[s] == false_lit {
                    self.lits.swap(s, s + 1);
                }
                let first = self.lits[s];
                let kept = Watch {
                    clause: w.clause,
                    blocker: first,
                };
                if first != w.blocker && self.value(first) == TRUE {
                    ws[j] = kept;
                    j += 1;
                    continue;
                }
                if let Some(k) = (s + 2..e).find(|&k| self.value(self.lits[k]) != FALSE) {
                    self.lits.swap(s + 1, k);
                    self.watches[self.lits[s + 1].index()].push(kept);
                    continue;
                }
                ws[j] = kept;
                j += 1;
                if self.value(first) == FALSE {
                    conflict = Some(w.clause);
                    while i < ws.len() {
                        ws[j] = ws[i];
                        j += 1;
                        i += 1;
                    }
                } else {
                    self.enqueue(first, w.clause);
                }
            }
            ws.truncate(j);
            self.watches[false_lit.index()] = ws;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    /// First-UIP conflict analysis: the learned clause (asserting
    /// literal first, a literal of the backjump level second) and the
    /// level to backjump to.
    fn analyze(&mut self, mut confl: u32) -> (Vec<Lit>, u32) {
        let current = self.decision_level();
        let mut learnt = vec![Lit(0)];
        let mut open = 0usize;
        let mut idx = self.trail.len();
        let mut skip_first = false;
        let uip = loop {
            let c = confl as usize;
            let from = self.start[c] as usize + usize::from(skip_first);
            for k in from..self.start[c + 1] as usize {
                let q = self.lits[k];
                let v = q.var();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump(v);
                    if self.level[v] >= current {
                        open += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            loop {
                idx -= 1;
                if self.seen[self.trail[idx].var()] {
                    break;
                }
            }
            let p = self.trail[idx];
            self.seen[p.var()] = false;
            open -= 1;
            if open == 0 {
                break p;
            }
            confl = self.reason[p.var()];
            skip_first = true;
        };
        learnt[0] = !uip;

        // Drop literals implied by the rest of the clause (their reason's
        // other literals are all in the clause or fixed at level 0).
        let mut kept = vec![learnt[0]];
        for &l in &learnt[1..] {
            let r = self.reason[l.var()];
            let redundant = r != NO_REASON && {
                let (s, e) = (self.start[r as usize] as usize, self.start[r as usize + 1]);
                self.lits[s + 1..e as usize].iter().all(|q| {
                    let v = q.var();
                    self.seen[v] || self.level[v] == 0
                })
            };
            if !redundant {
                kept.push(l);
            }
        }
        for &l in &learnt[1..] {
            self.seen[l.var()] = false;
        }
        let mut learnt = kept;
        debug_assert!(self.seen.iter().all(|&s| !s), "analysis leaves no marks");

        let mut back = 0;
        if learnt.len() > 1 {
            let mut best = 1;
            for k in 2..learnt.len() {
                if self.level[learnt[k].var()] > self.level[learnt[best].var()] {
                    best = k;
                }
            }
            learnt.swap(1, best);
            back = self.level[learnt[1].var()];
        }
        (learnt, back)
    }

    fn cancel_until(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let keep = self.trail_lim[level as usize];
        for k in (keep..self.trail.len()).rev() {
            let l = self.trail[k];
            let v = l.var();
            self.phase[v] = self.assigns[v] == TRUE;
            self.assigns[v] = UNDEF;
            self.reason[v] = NO_REASON;
            if self.heap_pos[v] == NOT_IN_HEAP {
                self.heap_insert(v as u32);
            }
        }
        self.trail.truncate(keep);
        self.trail_lim.truncate(level as usize);
        self.qhead = keep;
    }

    /// Decides the formula, giving up after `conflict_limit` conflicts.
    pub(crate) fn solve(&mut self, conflict_limit: u64) -> Verdict {
        if !self.ok {
            return Verdict::Unsat;
        }
        let mut restarts = 0u32;
        let mut next_restart = luby(restarts) * RESTART_UNIT;
        let mut since_restart = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                self.conflicts += 1;
                since_restart += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return Verdict::Unsat;
                }
                let (learnt, back) = self.analyze(confl);
                self.cancel_until(back);
                if learnt.len() == 1 {
                    self.enqueue(learnt[0], NO_REASON);
                } else {
                    let c = self.attach(&learnt);
                    self.enqueue(learnt[0], c);
                }
                self.var_inc /= ACTIVITY_DECAY;
                if self.conflicts >= conflict_limit {
                    return Verdict::Unknown;
                }
            } else {
                if since_restart >= next_restart {
                    self.cancel_until(0);
                    restarts += 1;
                    next_restart = luby(restarts) * RESTART_UNIT;
                    since_restart = 0;
                }
                let Some(v) = self.pick_branch() else {
                    return Verdict::Sat;
                };
                self.trail_lim.push(self.trail.len());
                self.enqueue(Lit((v as u32) << 1).is(self.phase[v]), NO_REASON);
            }
        }
    }

    /// The most active unassigned variable.
    fn pick_branch(&mut self) -> Option<usize> {
        while let Some(v) = self.heap_pop() {
            if self.assigns[v as usize] == UNDEF {
                return Some(v as usize);
            }
        }
        None
    }

    fn bump(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        if self.heap_pos[v] != NOT_IN_HEAP {
            self.sift_up(self.heap_pos[v] as usize);
        }
    }

    /// Heap order: higher activity first, then lower index.
    fn before(&self, a: u32, b: u32) -> bool {
        let (x, y) = (self.activity[a as usize], self.activity[b as usize]);
        x > y || (x == y && a < b)
    }

    fn heap_insert(&mut self, v: u32) {
        self.heap_pos[v as usize] = self.heap.len() as u32;
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1);
    }

    fn heap_pop(&mut self) -> Option<u32> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty");
        self.heap_pos[top as usize] = NOT_IN_HEAP;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.heap_pos[last as usize] = 0;
            self.sift_down(0);
        }
        Some(top)
    }

    fn sift_up(&mut self, mut i: usize) {
        let v = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.heap[parent];
            if !self.before(v, p) {
                break;
            }
            self.heap[i] = p;
            self.heap_pos[p as usize] = i as u32;
            i = parent;
        }
        self.heap[i] = v;
        self.heap_pos[v as usize] = i as u32;
    }

    fn sift_down(&mut self, mut i: usize) {
        let v = self.heap[i];
        loop {
            let left = 2 * i + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let child = if right < self.heap.len() && self.before(self.heap[right], self.heap[left])
            {
                right
            } else {
                left
            };
            let c = self.heap[child];
            if !self.before(c, v) {
                break;
            }
            self.heap[i] = c;
            self.heap_pos[c as usize] = i as u32;
            i = child;
        }
        self.heap[i] = v;
        self.heap_pos[v as usize] = i as u32;
    }
}

/// The `i`-th term (from 0) of the Luby sequence 1, 1, 2, 1, 1, 2, 4, …
fn luby(i: u32) -> u64 {
    let mut x = u64::from(i);
    let (mut size, mut seq) = (1u64, 0u32);
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) >> 1;
        seq -= 1;
        x %= size;
    }
    1 << seq
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn lits(s: &mut Solver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| s.new_lit()).collect()
    }

    #[test]
    fn luby_sequence() {
        let got: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(got, [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn trivial_verdicts() {
        let mut s = Solver::new();
        let x = lits(&mut s, 2);
        s.add_clause(&[x[0], x[1]]);
        s.add_clause(&[!x[0]]);
        assert_eq!(s.solve(100), Verdict::Sat);
        assert!(s.model(x[1]) && !s.model(x[0]));

        let mut s = Solver::new();
        let x = lits(&mut s, 1);
        s.add_clause(&[x[0]]);
        s.add_clause(&[!x[0]]);
        assert_eq!(s.solve(100), Verdict::Unsat);

        let mut s = Solver::new();
        s.add_clause(&[]);
        assert_eq!(s.solve(100), Verdict::Unsat);
    }

    /// Pigeonhole PHP(n+1, n): unsatisfiable, and hard enough to need
    /// learning and backjumping.
    fn pigeonhole(s: &mut Solver, holes: usize) {
        let pigeons = holes + 1;
        let p: Vec<Vec<Lit>> = (0..pigeons).map(|_| lits(s, holes)).collect();
        for row in &p {
            s.add_clause(row);
        }
        for h in 0..holes {
            for (a, pa) in p.iter().enumerate() {
                for pb in &p[a + 1..] {
                    s.add_clause(&[!pa[h], !pb[h]]);
                }
            }
        }
    }

    #[test]
    fn pigeonhole_is_unsat_and_the_limit_stops_early() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 5);
        assert_eq!(s.solve(1_000_000), Verdict::Unsat);
        let full = s.conflicts();
        assert!(full > 10, "PHP(6,5) needs real search, took {full}");

        let mut s = Solver::new();
        pigeonhole(&mut s, 5);
        assert_eq!(s.solve(5), Verdict::Unknown);
        assert_eq!(s.conflicts(), 5);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random CNF around the phase transition: the verdict matches
        /// brute force, and every model satisfies every clause.
        #[test]
        fn agrees_with_brute_force(
            clauses in proptest::collection::vec(
                proptest::collection::vec((0u32..14, any::<bool>()), 2..5),
                40..90,
            ),
        ) {
            let mut s = Solver::new();
            let x = lits(&mut s, 14);
            let cnf: Vec<Vec<Lit>> = clauses
                .iter()
                .map(|c| c.iter().map(|&(v, b)| x[v as usize].is(b)).collect())
                .collect();
            for c in &cnf {
                s.add_clause(c);
            }
            let holds = |m: u32, l: Lit| ((m >> l.var()) & 1 == 1) == (l.0 & 1 == 0);
            let brute = (0..1u32 << 14).any(|m| cnf.iter().all(|c| c.iter().any(|&l| holds(m, l))));
            let verdict = s.solve(1_000_000);
            prop_assert_eq!(verdict == Verdict::Sat, brute);
            prop_assert_ne!(verdict, Verdict::Unknown);
            if verdict == Verdict::Sat {
                for c in &cnf {
                    prop_assert!(c.iter().any(|&l| s.model(l)));
                }
            }
        }
    }
}
