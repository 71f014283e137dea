//! [`Topology`]: the structure every consumer of one netlist revision
//! reads — the levelization (or its cycle error), every gate's readers
//! and the primary-output mask — built once and memoized by
//! [`Netlist::topology`].

use std::ops::Index;

use crate::{GateId, Levelization, LevelizeError, Netlist};

/// The structural facts of one netlist revision.
///
/// [`Netlist::topology`] builds it on first use and keeps it until the
/// netlist's next structural edit, so SCOAP, lint, fault collapse, the
/// simulators and the test generators all borrow one copy instead of
/// re-deriving it. The reader table exists for cyclic netlists too (the
/// feedback lint and fault collapse read it there); only the
/// levelization reports the cycle.
///
/// ```
/// use dft_netlist::circuits::c17;
///
/// let c17 = c17();
/// let topo = c17.topology();
/// let a = c17.primary_inputs()[0];
/// // Every reader list is in (reader id, pin) order.
/// assert!(topo.readers()[a.index()].windows(2).all(|w| w[0] < w[1]));
/// assert_eq!(topo.levelization().unwrap().depth(), 3);
/// assert_eq!(topo.output_mask().iter().filter(|&&o| o).count(), 2);
/// ```
#[derive(Debug)]
pub struct Topology {
    levelization: Result<Levelization, LevelizeError>,
    readers: Readers,
    is_output: Vec<bool>,
}

impl Topology {
    /// The one structure pass: the reader table, Kahn's levelization
    /// over it, and the output mask.
    pub(crate) fn build(netlist: &Netlist) -> Topology {
        let readers = Readers::build(netlist);
        let levelization = Levelization::kahn(netlist, &readers);
        let mut is_output = vec![false; netlist.gate_count()];
        for &(g, _) in netlist.primary_outputs() {
            is_output[g.index()] = true;
        }
        Topology {
            levelization,
            readers,
            is_output,
        }
    }

    /// The levelization of the combinational frame, or the cycle error.
    ///
    /// # Errors
    ///
    /// Returns [`LevelizeError`] if a cycle of combinational gates
    /// exists.
    pub fn levelization(&self) -> Result<&Levelization, LevelizeError> {
        self.levelization.as_ref().map_err(|&e| e)
    }

    /// Every gate's `(reader, input pin)` list.
    #[must_use]
    pub fn readers(&self) -> &Readers {
        &self.readers
    }

    /// Whether each gate drives at least one primary output, indexed by
    /// [`GateId::index`].
    #[must_use]
    pub fn output_mask(&self) -> &[bool] {
        &self.is_output
    }
}

/// Every gate's `(reader, input pin)` list, indexed by
/// [`GateId::index`]: `readers[g.index()]` is the slice of pins that
/// consume `g`'s output net.
///
/// A pin list, not a reader set: a gate reading a net on two pins
/// appears twice. A fresh table lists each gate's readers in (reader id,
/// pin) order. The lists are `(offset, len)` spans into one shared pool,
/// the way [`Netlist`] stores fan-in, so a table costs one flat
/// allocation instead of one vector per gate.
///
/// The table can also be edited in place, for callers that keep their
/// own copy in step with a stream of edits (`dft-analyze`'s
/// `AnalysisCache`): [`Readers::append`] and [`Readers::retain`] cost
/// the length of the one list they touch. A list that grows moves to the
/// end of the pool, orphaning its old slots, and the pool compacts once
/// orphaned slots outnumber live ones.
#[derive(Clone, Debug)]
pub struct Readers {
    /// Per-gate start of its list in `pool`.
    off: Vec<u32>,
    /// Per-gate list length.
    len: Vec<u32>,
    /// Every list back to back, plus the orphaned slots of edited ones.
    pool: Vec<(GateId, u8)>,
    /// Number of listed entries (the sum of `len`).
    live: usize,
}

impl Readers {
    /// Builds the table with one counting pass over the fan-in lists.
    fn build(netlist: &Netlist) -> Readers {
        let n = netlist.gate_count();
        let mut len = vec![0u32; n];
        for (_, gate) in netlist.iter() {
            for &src in gate.inputs() {
                len[src.index()] += 1;
            }
        }
        let mut off = Vec::with_capacity(n);
        let mut live = 0u32;
        for &l in &len {
            off.push(live);
            live += l;
        }
        let mut pool = vec![(GateId::from_index(0), 0); live as usize];
        let mut next = off.clone();
        for (id, gate) in netlist.iter() {
            for (pin, &src) in gate.inputs().iter().enumerate() {
                let slot = &mut next[src.index()];
                pool[*slot as usize] = (id, pin as u8);
                *slot += 1;
            }
        }
        Readers {
            off,
            len,
            pool,
            live: live as usize,
        }
    }

    /// Number of gates in the table.
    #[must_use]
    pub fn len(&self) -> usize {
        self.off.len()
    }

    /// Whether the table covers no gate.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.off.is_empty()
    }

    /// Adds a gate with an empty list (an appended arena row).
    ///
    /// # Panics
    ///
    /// Panics if the pool outgrows `u32` offsets.
    pub fn push_gate(&mut self) {
        self.off
            .push(u32::try_from(self.pool.len()).expect("reader pool overflow"));
        self.len.push(0);
    }

    /// Appends `entry` to the end of `src`'s list.
    ///
    /// # Panics
    ///
    /// Panics if `src` is outside the table or the pool outgrows `u32`
    /// offsets.
    pub fn append(&mut self, src: GateId, entry: (GateId, u8)) {
        let i = src.index();
        let (off, len) = (self.off[i] as usize, self.len[i] as usize);
        if off + len != self.pool.len() {
            // Only the pool's last list can grow in place.
            self.off[i] = u32::try_from(self.pool.len()).expect("reader pool overflow");
            self.pool.extend_from_within(off..off + len);
        }
        self.pool.push(entry);
        self.len[i] += 1;
        self.live += 1;
        self.compact_if_sparse();
    }

    /// Drops every entry of `src`'s list that `keep` rejects; the rest
    /// keep their order.
    ///
    /// # Panics
    ///
    /// Panics if `src` is outside the table.
    pub fn retain(&mut self, src: GateId, mut keep: impl FnMut(&(GateId, u8)) -> bool) {
        let i = src.index();
        let off = self.off[i] as usize;
        let list = &mut self.pool[off..off + self.len[i] as usize];
        let mut kept = 0;
        for j in 0..list.len() {
            if keep(&list[j]) {
                list[kept] = list[j];
                kept += 1;
            }
        }
        self.live -= list.len() - kept;
        self.len[i] = kept as u32;
        self.compact_if_sparse();
    }

    /// Rewrites the pool without orphans once they outnumber live
    /// entries, so edits cost amortized O(1) pool space per entry.
    fn compact_if_sparse(&mut self) {
        if self.pool.len() - self.live <= self.live {
            return;
        }
        let mut pool = Vec::with_capacity(self.live);
        for (off, &len) in self.off.iter_mut().zip(&self.len) {
            let start = *off as usize;
            *off = pool.len() as u32;
            pool.extend_from_slice(&self.pool[start..start + len as usize]);
        }
        self.pool = pool;
    }
}

impl Index<usize> for Readers {
    type Output = [(GateId, u8)];

    fn index(&self, i: usize) -> &Self::Output {
        let off = self.off[i] as usize;
        &self.pool[off..off + self.len[i] as usize]
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::circuits::{c17, LayeredCircuit, RandomCircuit};
    use crate::GateKind;

    /// The reader lists built the direct way — one vector per gate, one
    /// push per input pin in arena order — as the reference the span
    /// table must reproduce list for list, order included.
    fn reference_readers(netlist: &Netlist) -> Vec<Vec<(GateId, u8)>> {
        let mut map = vec![Vec::new(); netlist.gate_count()];
        for (id, gate) in netlist.iter() {
            for (pin, &src) in gate.inputs().iter().enumerate() {
                map[src.index()].push((id, pin as u8));
            }
        }
        map
    }

    fn same_lists(table: &Readers, model: &[Vec<(GateId, u8)>]) -> bool {
        table.len() == model.len() && model.iter().enumerate().all(|(i, l)| table[i] == l[..])
    }

    /// Field-by-field equality: a reader table's pool layout does not
    /// participate.
    fn same_topology(a: &Topology, b: &Topology) -> bool {
        let lists = |t: &Topology| {
            (0..t.readers.len())
                .map(|i| t.readers[i].to_vec())
                .collect::<Vec<_>>()
        };
        a.levelization == b.levelization
            && a.is_output == b.is_output
            && same_lists(&a.readers, &lists(b))
    }

    /// Checks a levelization against its definition: every gate after
    /// its non-source drivers, sources at level 0, every other gate one
    /// past its deepest driver.
    fn check_levels(n: &Netlist, lv: &Levelization) -> bool {
        let mut pos = vec![usize::MAX; n.gate_count()];
        for (p, &g) in lv.order().iter().enumerate() {
            pos[g.index()] = p;
        }
        n.iter().all(|(id, gate)| {
            let drivers = gate
                .inputs()
                .iter()
                .filter(|s| !n.gate(**s).kind().is_source());
            let want = if gate.kind().is_source() {
                0
            } else {
                1 + gate
                    .inputs()
                    .iter()
                    .map(|&s| lv.level(s))
                    .max()
                    .unwrap_or(0)
            };
            pos[id.index()] != usize::MAX
                && drivers.clone().all(|s| pos[s.index()] < pos[id.index()])
                && lv.level(id) == want
        }) && lv.depth() == lv.levels().iter().copied().max().unwrap_or(0)
    }

    const LOGIC: [GateKind; 6] = [
        GateKind::And,
        GateKind::Or,
        GateKind::Nand,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
    ];

    /// Applies one random structural mutator to `n`; every kind of edit
    /// is drawn, cyclic results included.
    fn random_edit(n: &mut Netlist, rng: &mut StdRng, step: usize) {
        let count = n.gate_count();
        let any = |rng: &mut StdRng| GateId::from_index(rng.gen_range(0..count));
        let logic: Vec<GateId> = n
            .ids()
            .filter(|&id| {
                let k = n.gate(id).kind();
                !k.is_source() && !k.is_storage()
            })
            .collect();
        match rng.gen_range(0..9) {
            0 => {
                n.add_input(format!("p{step}"));
            }
            1 => {
                n.add_const(rng.gen_bool(0.5));
            }
            2 => {
                let kind = LOGIC[rng.gen_range(0..LOGIC.len())];
                let inputs: Vec<GateId> = (0..rng.gen_range(2..5)).map(|_| any(rng)).collect();
                n.add_gate(kind, &inputs).unwrap();
            }
            3 => {
                n.add_named_gate(GateKind::Not, &[any(rng)], Some(format!("g{step}")))
                    .unwrap();
            }
            4 => {
                n.add_dff(any(rng)).unwrap();
            }
            5 => n.mark_output(any(rng), format!("o{step}")).unwrap(),
            6 if !logic.is_empty() => {
                let g = logic[rng.gen_range(0..logic.len())];
                let pin = rng.gen_range(0..n.gate(g).fanin());
                n.reconnect_input(g, pin, any(rng)).unwrap();
            }
            7 if !logic.is_empty() => {
                let g = logic[rng.gen_range(0..logic.len())];
                let kind = LOGIC[rng.gen_range(0..LOGIC.len())];
                let inputs: Vec<GateId> = (0..rng.gen_range(2..6)).map(|_| any(rng)).collect();
                n.replace_gate(g, kind, &inputs).unwrap();
            }
            8 if !logic.is_empty() => {
                let g = logic[rng.gen_range(0..logic.len())];
                n.replace_with_const(g, rng.gen_bool(0.5)).unwrap();
            }
            _ => n.set_name(format!("renamed{step}")),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// After every structural edit the memo equals a fresh build, and
        /// every reader list equals the reference lists.
        #[test]
        fn memo_tracks_every_mutator(
            layered in 0u8..2,
            gates in 5usize..120,
            seed in 0u64..1_000,
            steps in 1usize..40,
        ) {
            let mut n = if layered == 1 {
                LayeredCircuit::new(6, gates).width(8).seed(seed).build()
            } else {
                RandomCircuit::new(6, gates).seed(seed).build()
            };
            let mut rng = StdRng::seed_from_u64(seed);
            for step in 0..=steps {
                let memo = Arc::clone(n.topology());
                prop_assert!(same_topology(&memo, &Topology::build(&n)));
                prop_assert!(same_lists(memo.readers(), &reference_readers(&n)));
                if let Ok(lv) = n.levelize() {
                    prop_assert!(check_levels(&n, lv));
                }
                random_edit(&mut n, &mut rng, step);
            }
        }

        /// Random single-entry appends and removals, the edits an
        /// incremental cache makes, keep the table equal to a vector
        /// model list for list and in order; the pool compacts on the way.
        #[test]
        fn in_place_edits_match_a_vector_model(
            gates in 4usize..60,
            seed in 0u64..1_000,
            steps in 200usize..600,
        ) {
            let n = RandomCircuit::new(4, gates).seed(seed).build();
            let mut table = Topology::build(&n).readers;
            let mut model = reference_readers(&n);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut compactions = 0;
            for _ in 0..steps {
                let before = table.pool.len();
                let src = GateId::from_index(rng.gen_range(0..model.len()));
                if rng.gen_range(0..8) == 0 {
                    table.push_gate();
                    model.push(Vec::new());
                } else if rng.gen_bool(0.5) || model[src.index()].is_empty() {
                    let entry = (GateId::from_index(rng.gen_range(0..model.len())), rng.gen_range(0..4u8));
                    table.append(src, entry);
                    model[src.index()].push(entry);
                } else {
                    let list = &model[src.index()];
                    let victim = list[rng.gen_range(0..list.len())];
                    table.retain(src, |&e| e != victim);
                    model[src.index()].retain(|&e| e != victim);
                }
                compactions += usize::from(table.pool.len() < before);
                prop_assert!(same_lists(&table, &model));
                prop_assert_eq!(table.live, model.iter().map(Vec::len).sum::<usize>());
                prop_assert!(table.pool.len() - table.live <= table.live.max(1));
            }
            prop_assert!(compactions > 0, "the pool never compacted");
        }
    }

    #[test]
    fn the_memo_is_shared_until_a_structural_edit() {
        let n = c17();
        let first = Arc::clone(n.topology());
        assert!(Arc::ptr_eq(&first, n.topology()), "one build per revision");
        let clone = n.clone();
        assert!(Arc::ptr_eq(&first, clone.topology()), "clones share it");

        let mut renamed = n.clone();
        renamed.set_name("renamed");
        assert!(
            Arc::ptr_eq(&first, renamed.topology()),
            "a name is not structure"
        );

        let (a, g) = (n.primary_inputs()[0], n.primary_outputs()[0].0);
        type Edit = fn(&mut Netlist, GateId, GateId);
        let edits: [(&str, Edit); 9] = [
            ("add_input", |n, _, _| {
                n.add_input("fresh");
            }),
            ("add_const", |n, _, _| {
                n.add_const(true);
            }),
            ("add_gate", |n, a, g| {
                n.add_gate(GateKind::And, &[a, g]).unwrap();
            }),
            ("add_named_gate", |n, a, _| {
                n.add_named_gate(GateKind::Not, &[a], Some("inv")).unwrap();
            }),
            ("add_dff", |n, _, g| {
                n.add_dff(g).unwrap();
            }),
            ("mark_output", |n, a, _| n.mark_output(a, "fresh").unwrap()),
            ("reconnect_input", |n, a, g| {
                n.reconnect_input(g, 0, a).unwrap()
            }),
            ("replace_gate", |n, a, g| {
                n.replace_gate(g, GateKind::Or, &[a, a]).unwrap();
            }),
            ("replace_with_const", |n, _, g| {
                n.replace_with_const(g, false).unwrap();
            }),
        ];
        for (name, edit) in edits {
            let mut edited = n.clone();
            edit(&mut edited, a, g);
            assert!(
                !Arc::ptr_eq(&first, edited.topology()),
                "{name} kept a stale memo"
            );
            assert!(
                same_topology(edited.topology(), &Topology::build(&edited)),
                "{name}"
            );
        }
        // A rejected edit changes nothing and keeps the memo.
        let mut rejected = n.clone();
        assert!(rejected.mark_output(a, "22").is_err());
        assert!(Arc::ptr_eq(&first, rejected.topology()));
        // Equality and the footprint ignore the memo.
        assert_eq!(Netlist::clone(&n), c17());
        assert_eq!(n.memory_footprint(), c17().memory_footprint());
    }

    #[test]
    fn netlists_stay_send_and_sync() {
        fn send_sync<T: Send + Sync>() {}
        send_sync::<Netlist>();
        send_sync::<Topology>();
    }

    #[test]
    fn racing_first_calls_build_one_topology() {
        let n = LayeredCircuit::new(16, 4_000).width(32).seed(7).build();
        // Every worker is released at once, so the first calls overlap.
        let start = std::sync::Barrier::new(4);
        let seen: Vec<Arc<Topology>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        Arc::clone(n.topology())
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert!(seen.iter().all(|t| Arc::ptr_eq(t, &seen[0])));
        assert!(Arc::ptr_eq(&seen[0], n.topology()));
    }

    #[test]
    fn cyclic_netlists_keep_their_readers() {
        let mut n = Netlist::new("loop");
        let a = n.add_input("a");
        let g1 = n.add_gate(GateKind::And, &[a, a]).unwrap();
        let g2 = n.add_gate(GateKind::Or, &[g1, a]).unwrap();
        n.reconnect_input(g1, 1, g2).unwrap();
        let topo = n.topology();
        assert!(topo.levelization().is_err());
        assert_eq!(topo.readers()[a.index()], [(g1, 0), (g2, 1)]);
        assert_eq!(topo.readers()[g2.index()], [(g1, 1)]);
    }
}
