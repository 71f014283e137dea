//! The netlist arena and its construction/query API.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, DefaultHasher, Hash, Hasher};
use std::sync::{Arc, OnceLock};

use crate::{Gate, GateId, GateKind, Levelization, LevelizeError, NetlistError, Topology};

/// Sentinel in the per-gate name-span table for "unnamed".
const NO_NAME: u32 = u32::MAX;

/// The 64-bit hash a primary input or output name is indexed under.
fn name_hash(name: &str) -> u64 {
    let mut h = DefaultHasher::new();
    name.hash(&mut h);
    h.finish()
}

/// A set of [`name_hash`] values. The hasher has fixed keys, so `Debug`
/// lists a netlist's hashes in the same order on every run.
type HashIndex = HashSet<u64, BuildHasherDefault<DefaultHasher>>;

/// [`name_hash`] of every primary input name and of every primary output
/// name. A duplicate check compares names only on a hash match, so adding
/// n inputs or outputs costs O(n) string compares, not O(n²).
#[derive(Clone, Debug, Default)]
struct NameHashes {
    inputs: HashIndex,
    outputs: HashIndex,
}

/// A gate-level logic network.
///
/// Gates live in an append-only arena and are referenced by [`GateId`].
/// Every net is identified with its (unique) driving gate. Primary inputs
/// are `Input` gates; primary outputs are named references to arbitrary
/// gates; storage elements are `Dff` gates clocked by an implicit single
/// system clock (refined by the scan styles in `dft-scan`).
///
/// Storage is struct-of-arrays: per-gate kind, edge-span and name-span
/// tables index into one shared edge arena and one interned name-byte
/// arena, so a gate costs a handful of flat bytes instead of a
/// `Vec<GateId>` plus `Option<String>` heap pair. [`Netlist::gate`]
/// assembles a cheap [`Gate`] view on access; the construction and
/// query API is unchanged. [`Netlist::memory_footprint`] reports the
/// resulting bytes/gate.
///
/// The revision's [`Topology`] (levelization, reader lists, output mask)
/// is built on the first [`Netlist::topology`] call and kept until the
/// next structural edit; clones share it.
///
/// ```
/// use dft_netlist::{Netlist, GateKind};
///
/// # fn main() -> Result<(), dft_netlist::NetlistError> {
/// // Fig. 1 of the paper: a single AND gate.
/// let mut n = Netlist::new("fig1");
/// let a = n.add_input("A");
/// let b = n.add_input("B");
/// let c = n.add_gate(GateKind::And, &[a, b])?;
/// n.mark_output(c, "C")?;
/// assert!(n.is_combinational());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Netlist {
    name: String,
    /// Per-gate primitive kind.
    kinds: Vec<GateKind>,
    /// Per-gate start of its input-pin span in `edges`.
    edge_off: Vec<u32>,
    /// Per-gate fan-in (length of the span in `edges`).
    edge_len: Vec<u32>,
    /// Shared input-pin arena. In-place edits that *grow* a gate's
    /// fan-in (`replace_gate`) append a fresh span and orphan the old
    /// one, so `edges.len()` can exceed the live pin count; all queries
    /// go through the per-gate spans and never see orphaned slots.
    edges: Vec<GateId>,
    /// Per-gate start of its name in `name_bytes` (`NO_NAME` = unnamed).
    name_off: Vec<u32>,
    /// Per-gate name length in bytes.
    name_len: Vec<u32>,
    /// Interned name arena: every gate name's UTF-8 bytes, back to back.
    name_bytes: Vec<u8>,
    inputs: Vec<GateId>,
    outputs: Vec<(GateId, String)>,
    /// The primary I/O name hashes, shared by clones until one adds a
    /// name: repair clones the netlist for every candidate.
    name_hashes: Arc<NameHashes>,
    /// This revision's structure, built on first use; every structural
    /// mutator drops it.
    topology: OnceLock<Arc<Topology>>,
}

impl Netlist {
    /// Creates an empty netlist with the given design name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            kinds: Vec::new(),
            edge_off: Vec::new(),
            edge_len: Vec::new(),
            edges: Vec::new(),
            name_off: Vec::new(),
            name_len: Vec::new(),
            name_bytes: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            name_hashes: Arc::default(),
            topology: OnceLock::new(),
        }
    }

    /// The design name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the design. The name is not structure: the memoized
    /// [`Topology`] survives.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Drops the memoized topology ahead of a structural edit.
    fn edit(&mut self) {
        self.topology.take();
    }

    /// Appends one gate row to the SoA tables.
    ///
    /// # Panics
    ///
    /// Panics if an arena index overflows `u32` (a netlist with over
    /// 4 × 10⁹ pins or name bytes is out of this model's scope).
    fn push_gate(&mut self, kind: GateKind, inputs: &[GateId], name: Option<&str>) -> GateId {
        self.edit();
        let id = GateId::from_index(self.kinds.len());
        self.kinds.push(kind);
        self.edge_off
            .push(u32::try_from(self.edges.len()).expect("edge arena overflow"));
        self.edge_len
            .push(u32::try_from(inputs.len()).expect("edge arena overflow"));
        self.edges.extend_from_slice(inputs);
        match name {
            Some(s) => {
                self.name_off
                    .push(u32::try_from(self.name_bytes.len()).expect("name arena overflow"));
                self.name_len
                    .push(u32::try_from(s.len()).expect("name arena overflow"));
                self.name_bytes.extend_from_slice(s.as_bytes());
            }
            None => {
                self.name_off.push(NO_NAME);
                self.name_len.push(0);
            }
        }
        id
    }

    /// The input-pin span of gate `i` (row index, not a `GateId`).
    fn gate_inputs(&self, i: usize) -> &[GateId] {
        let off = self.edge_off[i] as usize;
        &self.edges[off..off + self.edge_len[i] as usize]
    }

    /// The interned name of gate `i`, if any.
    fn gate_name(&self, i: usize) -> Option<&str> {
        let off = self.name_off[i];
        if off == NO_NAME {
            return None;
        }
        let off = off as usize;
        let bytes = &self.name_bytes[off..off + self.name_len[i] as usize];
        // Spans are only ever created from whole `&str`s, so they sit on
        // UTF-8 boundaries by construction.
        Some(std::str::from_utf8(bytes).expect("name arena corrupted"))
    }

    /// Adds a primary input with the given name.
    ///
    /// # Panics
    ///
    /// Panics if an input with the same name already exists; input names
    /// come from the designer and a clash is a programming error. Use
    /// [`Netlist::try_add_input`] to handle the clash as an error instead.
    pub fn add_input(&mut self, name: impl Into<String>) -> GateId {
        self.try_add_input(name).expect("duplicate input name")
    }

    /// Adds a primary input, failing on a duplicate name.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateInputName`] if the name is taken.
    pub fn try_add_input(&mut self, name: impl Into<String>) -> Result<GateId, NetlistError> {
        let name = name.into();
        let hash = name_hash(&name);
        if self.name_hashes.inputs.contains(&hash)
            && self
                .inputs
                .iter()
                .any(|&id| self.gate_name(id.index()) == Some(name.as_str()))
        {
            return Err(NetlistError::DuplicateInputName(name));
        }
        let id = self.push_gate(GateKind::Input, &[], Some(&name));
        self.inputs.push(id);
        Arc::make_mut(&mut self.name_hashes).inputs.insert(hash);
        Ok(id)
    }

    /// Adds a constant-0 or constant-1 source gate.
    pub fn add_const(&mut self, value: bool) -> GateId {
        let kind = if value {
            GateKind::Const1
        } else {
            GateKind::Const0
        };
        self.push_gate(kind, &[], None)
    }

    /// Adds a logic gate of `kind` driven by `inputs`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::BadFanin`] if the fan-in is outside the legal
    /// range for `kind`, and [`NetlistError::UnknownGate`] if any input id
    /// is not part of this netlist.
    pub fn add_gate(&mut self, kind: GateKind, inputs: &[GateId]) -> Result<GateId, NetlistError> {
        self.add_named_gate(kind, inputs, None::<&str>)
    }

    /// Adds a logic gate with an optional instance name.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Netlist::add_gate`].
    pub fn add_named_gate(
        &mut self,
        kind: GateKind,
        inputs: &[GateId],
        name: Option<impl Into<String>>,
    ) -> Result<GateId, NetlistError> {
        let (min, max) = kind.fanin_range();
        if inputs.len() < min || inputs.len() > max {
            return Err(NetlistError::BadFanin {
                kind,
                got: inputs.len(),
            });
        }
        for &src in inputs {
            if src.index() >= self.kinds.len() {
                return Err(NetlistError::UnknownGate(src));
            }
        }
        let name = name.map(Into::into);
        Ok(self.push_gate(kind, inputs, name.as_deref()))
    }

    /// Adds a gate whose input pins all point at the gate itself, to be
    /// patched afterwards with [`Netlist::reconnect_input`]. Arity is
    /// validated; sources are trivially in range (the self id). This is
    /// the two-pass format parsers' pass-1 primitive: it reserves a row
    /// for a forward-referenced signal without inventing a placeholder
    /// source gate that would otherwise linger in the arena.
    pub(crate) fn add_pending_gate(
        &mut self,
        kind: GateKind,
        fanin: usize,
        name: Option<&str>,
    ) -> Result<GateId, NetlistError> {
        let (min, max) = kind.fanin_range();
        if fanin < min || fanin > max {
            return Err(NetlistError::BadFanin { kind, got: fanin });
        }
        let self_id = GateId::from_index(self.kinds.len());
        let pins = vec![self_id; fanin];
        Ok(self.push_gate(kind, &pins, name))
    }

    /// Adds a D flip-flop whose data input is `d`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownGate`] if `d` is not part of this
    /// netlist.
    pub fn add_dff(&mut self, d: GateId) -> Result<GateId, NetlistError> {
        self.add_gate(GateKind::Dff, &[d])
    }

    /// Marks `gate`'s output net as a primary output called `name`.
    ///
    /// A single gate may drive several outputs (under different names), but
    /// each output name is unique.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownGate`] for a foreign id and
    /// [`NetlistError::DuplicateOutputName`] for a name clash.
    pub fn mark_output(
        &mut self,
        gate: GateId,
        name: impl Into<String>,
    ) -> Result<(), NetlistError> {
        if gate.index() >= self.kinds.len() {
            return Err(NetlistError::UnknownGate(gate));
        }
        let name = name.into();
        let hash = name_hash(&name);
        if self.name_hashes.outputs.contains(&hash) && self.outputs.iter().any(|(_, n)| *n == name)
        {
            return Err(NetlistError::DuplicateOutputName(name));
        }
        self.edit();
        self.outputs.push((gate, name));
        Arc::make_mut(&mut self.name_hashes).outputs.insert(hash);
        Ok(())
    }

    /// Access a gate by id, as a cheap borrowed [`Gate`] view.
    ///
    /// Convenience wrapper over [`Netlist::try_gate`] for callers holding
    /// an id obtained from this netlist (construction returns, iteration,
    /// levelization) — for such ids the lookup cannot fail. Use
    /// [`Netlist::try_gate`] when the id's provenance is uncertain (e.g.
    /// it crossed a serialization boundary or came from another netlist).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this netlist.
    #[must_use]
    pub fn gate(&self, id: GateId) -> Gate<'_> {
        self.try_gate(id).expect("gate id out of range")
    }

    /// Access a gate by id, failing on a foreign id.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownGate`] if `id` is out of range for
    /// this netlist.
    pub fn try_gate(&self, id: GateId) -> Result<Gate<'_>, NetlistError> {
        let i = id.index();
        if i >= self.kinds.len() {
            return Err(NetlistError::UnknownGate(id));
        }
        let off = self.name_off[i];
        Ok(Gate {
            kind: self.kinds[i],
            inputs: self.gate_inputs(i),
            name: (off != NO_NAME)
                .then(|| &self.name_bytes[off as usize..(off + self.name_len[i]) as usize]),
        })
    }

    /// Number of gates in the arena (including inputs and constants).
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.kinds.len()
    }

    /// Number of *logic* gates (excluding primary inputs and constants, but
    /// including storage elements) — the paper's "gate count" N in Eq. (1).
    #[must_use]
    pub fn logic_gate_count(&self) -> usize {
        self.kinds
            .iter()
            .filter(|k| !matches!(k, GateKind::Input | GateKind::Const0 | GateKind::Const1))
            .count()
    }

    /// Iterates over `(id, gate)` pairs in arena order.
    pub fn iter(&self) -> impl Iterator<Item = (GateId, Gate<'_>)> + '_ {
        self.ids().map(move |id| (id, self.gate(id)))
    }

    /// All gate ids in arena order.
    pub fn ids(&self) -> impl Iterator<Item = GateId> {
        (0..self.kinds.len()).map(GateId::from_index)
    }

    /// The primary inputs, in declaration order.
    #[must_use]
    pub fn primary_inputs(&self) -> &[GateId] {
        &self.inputs
    }

    /// The primary outputs as `(driving gate, name)` pairs, in declaration
    /// order.
    #[must_use]
    pub fn primary_outputs(&self) -> &[(GateId, String)] {
        &self.outputs
    }

    /// Ids of all storage elements, in arena order.
    #[must_use]
    pub fn storage_elements(&self) -> Vec<GateId> {
        self.iter()
            .filter(|(_, g)| g.kind.is_storage())
            .map(|(id, _)| id)
            .collect()
    }

    /// Whether the netlist contains no storage elements.
    #[must_use]
    pub fn is_combinational(&self) -> bool {
        self.kinds.iter().all(|k| !k.is_storage())
    }

    /// Looks up a primary input by name.
    #[must_use]
    pub fn find_input(&self, name: &str) -> Option<GateId> {
        self.inputs
            .iter()
            .copied()
            .find(|&id| self.gate_name(id.index()) == Some(name))
    }

    /// Looks up a primary output by name, returning its driving gate.
    #[must_use]
    pub fn find_output(&self, name: &str) -> Option<GateId> {
        self.outputs
            .iter()
            .find(|(_, n)| n == name)
            .map(|&(id, _)| id)
    }

    /// Redirects input pin `pin` of `gate` to a new source.
    ///
    /// This is the primitive used by netlist transforms (scan insertion,
    /// test-point insertion, degating): splice a new driver into an
    /// existing connection.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownGate`] naming whichever id is
    /// foreign, and [`NetlistError::InvalidPin`] if `pin` is out of range
    /// for `gate`.
    pub fn reconnect_input(
        &mut self,
        gate: GateId,
        pin: usize,
        new_src: GateId,
    ) -> Result<(), NetlistError> {
        if new_src.index() >= self.kinds.len() {
            return Err(NetlistError::UnknownGate(new_src));
        }
        if gate.index() >= self.kinds.len() {
            return Err(NetlistError::UnknownGate(gate));
        }
        let i = gate.index();
        let fanin = self.edge_len[i] as usize;
        if pin >= fanin {
            return Err(NetlistError::InvalidPin { gate, pin, fanin });
        }
        self.edit();
        self.edges[self.edge_off[i] as usize + pin] = new_src;
        Ok(())
    }

    /// Replaces a logic gate with a tied constant, dropping its input
    /// edges. Readers keep their connections (the gate id is unchanged),
    /// output markings on the gate survive, and the arena keeps its
    /// shape — so every other `GateId` stays valid.
    ///
    /// This is the redundancy-removal primitive: a net proven constant
    /// under every input assignment (or proven unobservable) can be
    /// folded to a constant without changing any primary output, and the
    /// logic that only fed it becomes structurally dead.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownGate`] on a foreign id and
    /// [`NetlistError::NotALogicGate`] when the target is a primary
    /// input, a constant, or a storage element (sources keep the
    /// interface; storage keeps the state model).
    pub fn replace_with_const(&mut self, id: GateId, value: bool) -> Result<(), NetlistError> {
        let kind = self.try_gate(id)?.kind();
        if kind.is_source() || kind.is_storage() {
            return Err(NetlistError::NotALogicGate { gate: id, kind });
        }
        self.edit();
        let i = id.index();
        self.kinds[i] = if value {
            GateKind::Const1
        } else {
            GateKind::Const0
        };
        self.edge_len[i] = 0;
        Ok(())
    }

    /// Replaces a logic gate in place: new kind, new input list, same
    /// `GateId`. Readers keep their connections and output markings on
    /// the gate survive, so every other id stays valid — this is the
    /// ECO primitive behind `dft-analyze`'s `NetlistDelta::ReplaceGate`.
    ///
    /// Both the target and the replacement must be combinational logic:
    /// sources keep the interface, storage keeps the state model (use
    /// [`Netlist::replace_with_const`] to fold a net to a constant, and
    /// [`Netlist::add_dff`] to introduce new state).
    ///
    /// No cycle check is performed; callers that must stay acyclic
    /// re-levelize (or go through `dft-analyze`'s delta API, which
    /// validates before mutating).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::NotALogicGate`] when the target or the
    /// replacement kind is a source or storage element,
    /// [`NetlistError::BadFanin`] if `inputs` is outside the legal range
    /// for `kind`, and [`NetlistError::UnknownGate`] on foreign ids.
    pub fn replace_gate(
        &mut self,
        id: GateId,
        kind: GateKind,
        inputs: &[GateId],
    ) -> Result<(), NetlistError> {
        let old_kind = self.try_gate(id)?.kind();
        if old_kind.is_source() || old_kind.is_storage() {
            return Err(NetlistError::NotALogicGate {
                gate: id,
                kind: old_kind,
            });
        }
        if kind.is_source() || kind.is_storage() {
            return Err(NetlistError::NotALogicGate { gate: id, kind });
        }
        let (min, max) = kind.fanin_range();
        if inputs.len() < min || inputs.len() > max {
            return Err(NetlistError::BadFanin {
                kind,
                got: inputs.len(),
            });
        }
        for &src in inputs {
            if src.index() >= self.kinds.len() {
                return Err(NetlistError::UnknownGate(src));
            }
        }
        self.edit();
        let i = id.index();
        self.kinds[i] = kind;
        let old_len = self.edge_len[i] as usize;
        if inputs.len() <= old_len {
            // Shrink or same-size: rewrite the existing span in place.
            let off = self.edge_off[i] as usize;
            self.edges[off..off + inputs.len()].copy_from_slice(inputs);
        } else {
            // Grow: append a fresh span, orphaning the old slots.
            self.edge_off[i] = u32::try_from(self.edges.len()).expect("edge arena overflow");
            self.edges.extend_from_slice(inputs);
        }
        self.edge_len[i] = u32::try_from(inputs.len()).expect("edge arena overflow");
        Ok(())
    }

    /// Diffs `edited` against `self`, an earlier snapshot of the same
    /// append-only arena: gate ids are stable, gates may be rewritten in
    /// place or appended. Runs in O(gates + pins).
    ///
    /// Returns `None` when `edited` has fewer gates than `self`, i.e. it
    /// is not an append-only evolution of this arena.
    #[must_use]
    pub fn arena_diff(&self, edited: &Netlist) -> Option<ArenaDiff> {
        let (old, new) = (self.kinds.len(), edited.kinds.len());
        if new < old {
            return None;
        }
        let rewritten = (0..old)
            .filter(|&i| {
                self.kinds[i] != edited.kinds[i] || self.gate_inputs(i) != edited.gate_inputs(i)
            })
            .map(GateId::from_index)
            .collect();
        let mut flags = vec![0u8; new];
        for &(g, _) in &self.outputs {
            flags[g.index()] |= 1;
        }
        for &(g, _) in &edited.outputs {
            flags[g.index()] |= 2;
        }
        Some(ArenaDiff {
            rewritten,
            appended: (old..new).map(GateId::from_index).collect(),
            outputs: (0..new)
                .filter(|&i| matches!(flags[i], 1 | 2))
                .map(GateId::from_index)
                .collect(),
        })
    }

    /// This revision's structure: the levelization (or its cycle
    /// error), every gate's reader list and the output mask. Built on
    /// first use and kept until the next structural edit — appending a
    /// gate, [`Netlist::mark_output`], [`Netlist::reconnect_input`],
    /// [`Netlist::replace_gate`] or [`Netlist::replace_with_const`];
    /// [`Netlist::set_name`] keeps it. Clones share it, and concurrent
    /// first calls build it once.
    pub fn topology(&self) -> &Arc<Topology> {
        self.topology
            .get_or_init(|| Arc::new(Topology::build(self)))
    }

    /// The levelization of the combinational frame, from
    /// [`Netlist::topology`].
    ///
    /// # Errors
    ///
    /// Returns [`LevelizeError`] if a combinational cycle exists.
    pub fn levelize(&self) -> Result<&Levelization, LevelizeError> {
        self.topology().levelization()
    }

    /// Structural statistics: gate counts by kind, pin totals, I/O counts.
    #[must_use]
    pub fn stats(&self) -> NetlistStats {
        let mut by_kind = HashMap::new();
        let mut pin_count = 0usize;
        for i in 0..self.kinds.len() {
            *by_kind.entry(self.kinds[i]).or_insert(0usize) += 1;
            pin_count += self.edge_len[i] as usize + 1; // input pins + output pin
        }
        NetlistStats {
            gate_count: self.kinds.len(),
            logic_gate_count: self.logic_gate_count(),
            by_kind,
            pin_count,
            primary_input_count: self.inputs.len(),
            primary_output_count: self.outputs.len(),
            storage_count: self.kinds.iter().filter(|k| k.is_storage()).count(),
        }
    }

    /// The netlist's heap footprint, broken down by arena.
    ///
    /// Accounting is by live length (`len × element size`), not reserved
    /// capacity, so the number is allocation-order independent; orphaned
    /// edge slots left behind by fan-in-growing [`Netlist::replace_gate`]
    /// calls *are* counted (they are real bytes), the memoized
    /// [`Topology`] is not (it is a cache, shared between clones). The
    /// headline number is
    /// [`MemoryFootprint::bytes_per_gate`] — the scale benchmarks gate on
    /// it not regressing.
    #[must_use]
    pub fn memory_footprint(&self) -> MemoryFootprint {
        use std::mem::size_of;
        let gate_bytes = self.kinds.len() * size_of::<GateKind>()
            + self.edge_off.len() * size_of::<u32>()
            + self.edge_len.len() * size_of::<u32>()
            + self.name_off.len() * size_of::<u32>()
            + self.name_len.len() * size_of::<u32>();
        let edge_bytes = self.edges.len() * size_of::<GateId>();
        let name_bytes = self.name_bytes.len();
        let io_bytes = self.inputs.len() * size_of::<GateId>()
            + self.outputs.len() * size_of::<(GateId, String)>()
            + self.outputs.iter().map(|(_, n)| n.len()).sum::<usize>()
            + (self.name_hashes.inputs.len() + self.name_hashes.outputs.len()) * size_of::<u64>();
        MemoryFootprint {
            gate_count: self.kinds.len(),
            gate_bytes,
            edge_bytes,
            name_bytes,
            io_bytes,
        }
    }
}

impl PartialEq for Netlist {
    /// Logical equality: same design name, same per-gate
    /// (kind, inputs, name) rows, same primary I/O. Orphaned edge spans
    /// (an artifact of in-place edit history), the name-hash sets (a
    /// function of the primary I/O) and the memoized
    /// [`Topology`] do not participate, so two
    /// netlists that answer every query identically compare equal even
    /// if their edit histories differ.
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.kinds == other.kinds
            && self.inputs == other.inputs
            && self.outputs == other.outputs
            && (0..self.kinds.len()).all(|i| {
                self.gate_inputs(i) == other.gate_inputs(i)
                    && self.gate_name(i) == other.gate_name(i)
            })
    }
}

impl Eq for Netlist {}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} gates ({} logic, {} storage), {} PIs, {} POs",
            self.name,
            self.kinds.len(),
            self.logic_gate_count(),
            self.kinds.iter().filter(|k| k.is_storage()).count(),
            self.inputs.len(),
            self.outputs.len()
        )
    }
}

/// How an edited netlist differs from an earlier snapshot of the same
/// arena, as reported by [`Netlist::arena_diff`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ArenaDiff {
    /// Gates of the earlier arena whose kind or inputs changed, in id
    /// order.
    pub rewritten: Vec<GateId>,
    /// Gates appended after the earlier arena's end, in id order.
    pub appended: Vec<GateId>,
    /// Nets that became, or stopped being, primary outputs, in id order.
    pub outputs: Vec<GateId>,
}

/// Heap-byte breakdown of a [`Netlist`], as reported by
/// [`Netlist::memory_footprint`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemoryFootprint {
    /// Total arena size (all gates including inputs and constants).
    pub gate_count: usize,
    /// Per-gate SoA tables: kind, edge span, name span.
    pub gate_bytes: usize,
    /// The shared input-pin arena.
    pub edge_bytes: usize,
    /// The interned name arena.
    pub name_bytes: usize,
    /// Primary input list and primary output list (including the output
    /// name strings).
    pub io_bytes: usize,
}

impl MemoryFootprint {
    /// Total heap bytes across all arenas.
    #[must_use]
    pub fn total_bytes(&self) -> usize {
        self.gate_bytes + self.edge_bytes + self.name_bytes + self.io_bytes
    }

    /// Heap bytes per arena gate — the scale benchmarks' headline
    /// memory metric. `0.0` for an empty netlist.
    #[must_use]
    pub fn bytes_per_gate(&self) -> f64 {
        if self.gate_count == 0 {
            0.0
        } else {
            self.total_bytes() as f64 / self.gate_count as f64
        }
    }
}

impl fmt::Display for MemoryFootprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} gates, {} bytes ({:.1} B/gate: {} gate tables, {} edges, {} names, {} io)",
            self.gate_count,
            self.total_bytes(),
            self.bytes_per_gate(),
            self.gate_bytes,
            self.edge_bytes,
            self.name_bytes,
            self.io_bytes
        )
    }
}

/// Structural statistics of a [`Netlist`], as reported by
/// [`Netlist::stats`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NetlistStats {
    /// Total arena size (all gates including inputs and constants).
    pub gate_count: usize,
    /// Logic gates only — the paper's N.
    pub logic_gate_count: usize,
    /// Gate counts broken down by kind.
    pub by_kind: HashMap<GateKind, usize>,
    /// Total pin count (every gate's fan-in plus one output pin).
    pub pin_count: usize,
    /// Number of primary inputs.
    pub primary_input_count: usize,
    /// Number of primary outputs.
    pub primary_output_count: usize,
    /// Number of storage elements.
    pub storage_count: usize,
}

impl NetlistStats {
    /// Count of gates of one kind.
    #[must_use]
    pub fn count(&self, kind: GateKind) -> usize {
        self.by_kind.get(&kind).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn and_net() -> (Netlist, GateId) {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(GateKind::And, &[a, b]).unwrap();
        n.mark_output(g, "y").unwrap();
        (n, g)
    }

    #[test]
    fn build_and_query() {
        let (n, g) = and_net();
        assert_eq!(n.gate_count(), 3);
        assert_eq!(n.logic_gate_count(), 1);
        assert_eq!(n.primary_inputs().len(), 2);
        assert_eq!(n.primary_outputs().len(), 1);
        assert_eq!(n.gate(g).kind(), GateKind::And);
        assert_eq!(n.find_input("a"), Some(n.primary_inputs()[0]));
        assert_eq!(n.find_output("y"), Some(g));
        assert_eq!(n.find_input("zzz"), None);
        assert!(n.is_combinational());
    }

    #[test]
    fn fanin_rules_are_enforced() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        assert!(matches!(
            n.add_gate(GateKind::And, &[a]),
            Err(NetlistError::BadFanin { .. })
        ));
        assert!(matches!(
            n.add_gate(GateKind::Not, &[a, a]),
            Err(NetlistError::BadFanin { .. })
        ));
        assert!(n.add_gate(GateKind::Not, &[a]).is_ok());
        // wide gates allowed
        let b = n.add_input("b");
        let c = n.add_input("c");
        assert!(n.add_gate(GateKind::Nand, &[a, b, c]).is_ok());
    }

    #[test]
    fn fanin_is_capped_at_256_pins() {
        // Input pins are `u8`: a 257th pin would alias pin 0.
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        assert!(n.add_gate(GateKind::And, &[a; 256]).is_ok());
        assert_eq!(
            n.add_gate(GateKind::And, &[a; 257]),
            Err(NetlistError::BadFanin {
                kind: GateKind::And,
                got: 257
            })
        );
        let g = n.add_gate(GateKind::Or, &[a, a]).unwrap();
        assert!(matches!(
            n.replace_gate(g, GateKind::Xor, &[a; 257]),
            Err(NetlistError::BadFanin { got: 257, .. })
        ));
    }

    #[test]
    fn unknown_gate_rejected() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let bogus = GateId::from_index(99);
        assert_eq!(
            n.add_gate(GateKind::And, &[a, bogus]),
            Err(NetlistError::UnknownGate(bogus))
        );
        assert_eq!(
            n.mark_output(bogus, "y"),
            Err(NetlistError::UnknownGate(bogus))
        );
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        assert!(matches!(
            n.try_add_input("a"),
            Err(NetlistError::DuplicateInputName(_))
        ));
        n.mark_output(a, "y").unwrap();
        assert!(matches!(
            n.mark_output(a, "y"),
            Err(NetlistError::DuplicateOutputName(_))
        ));
        // Same gate under a second name is fine.
        assert!(n.mark_output(a, "y2").is_ok());
    }

    #[test]
    fn duplicate_checks_scale_to_many_names() {
        const N: usize = 1 << 17;
        let mut n = Netlist::new("wide");
        for i in 0..N {
            let id = n.add_input(format!("i{i}"));
            n.mark_output(id, format!("o{i}")).unwrap();
        }
        assert_eq!(n.primary_inputs().len(), N);
        assert_eq!(n.primary_outputs().len(), N);
        let first = n.primary_inputs()[0];
        for name in ["i0", &format!("i{}", N - 1)] {
            assert_eq!(
                n.try_add_input(name),
                Err(NetlistError::DuplicateInputName(name.to_owned()))
            );
        }
        for name in ["o0", &format!("o{}", N - 1)] {
            assert_eq!(
                n.mark_output(first, name),
                Err(NetlistError::DuplicateOutputName(name.to_owned()))
            );
        }
        // A clone checks against the same names, and still equals its source.
        let mut copy = n.clone();
        assert!(copy.try_add_input("i7").is_err());
        assert_eq!(copy, n);
        assert!(copy.try_add_input("fresh").is_ok());
        assert_eq!(n.find_input("fresh"), None);
    }

    #[test]
    fn topology_readers_track_pins() {
        let (n, g) = and_net();
        let readers = n.topology().readers();
        let a = n.primary_inputs()[0];
        let b = n.primary_inputs()[1];
        assert_eq!(readers[a.index()], [(g, 0)]);
        assert_eq!(readers[b.index()], [(g, 1)]);
        assert!(readers[g.index()].is_empty());
    }

    #[test]
    fn reconnect_input_splices() {
        let (mut n, g) = and_net();
        let c = n.add_input("c");
        n.reconnect_input(g, 1, c).unwrap();
        assert_eq!(n.gate(g).inputs()[1], c);
        assert_eq!(
            n.reconnect_input(g, 5, c),
            Err(NetlistError::InvalidPin {
                gate: g,
                pin: 5,
                fanin: 2
            })
        );
        let bogus = GateId::from_index(99);
        assert_eq!(
            n.reconnect_input(g, 0, bogus),
            Err(NetlistError::UnknownGate(bogus))
        );
        assert_eq!(
            n.reconnect_input(bogus, 0, c),
            Err(NetlistError::UnknownGate(bogus))
        );
    }

    #[test]
    fn try_gate_rejects_foreign_ids() {
        let (n, g) = and_net();
        assert_eq!(n.try_gate(g).unwrap().kind(), GateKind::And);
        let bogus = GateId::from_index(99);
        assert_eq!(n.try_gate(bogus), Err(NetlistError::UnknownGate(bogus)));
    }

    #[test]
    fn stats_counts_everything() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let d = n.add_dff(a).unwrap();
        let g = n.add_gate(GateKind::Or, &[a, d]).unwrap();
        n.mark_output(g, "y").unwrap();
        let s = n.stats();
        assert_eq!(s.gate_count, 3);
        assert_eq!(s.logic_gate_count, 2);
        assert_eq!(s.storage_count, 1);
        assert_eq!(s.count(GateKind::Or), 1);
        assert_eq!(s.count(GateKind::Xor), 0);
        // pins: input 1, dff 2, or 3
        assert_eq!(s.pin_count, 6);
        assert!(!n.is_combinational());
        assert_eq!(n.storage_elements(), vec![d]);
    }

    #[test]
    fn display_summarizes() {
        let (n, _) = and_net();
        assert_eq!(
            n.to_string(),
            "t: 3 gates (1 logic, 0 storage), 2 PIs, 1 POs"
        );
    }

    #[test]
    fn replace_with_const_folds_in_place() {
        let (mut n, g) = and_net();
        let reader = n.add_gate(GateKind::Not, &[g]).unwrap();
        n.mark_output(reader, "z").unwrap();
        n.replace_with_const(g, true).unwrap();
        assert_eq!(n.gate(g).kind(), GateKind::Const1);
        assert!(n.gate(g).inputs().is_empty());
        // Arena shape, readers and output markings are untouched.
        assert_eq!(n.gate_count(), 4);
        assert_eq!(n.gate(reader).inputs(), &[g]);
        assert_eq!(n.find_output("y"), Some(g));
        assert!(n.levelize().is_ok());
    }

    #[test]
    fn replace_with_const_refuses_sources_and_storage() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let c = n.add_const(false);
        let d = n.add_dff(a).unwrap();
        for id in [a, c, d] {
            assert!(matches!(
                n.replace_with_const(id, false),
                Err(NetlistError::NotALogicGate { .. })
            ));
        }
        assert!(matches!(
            n.replace_with_const(GateId::from_index(99), false),
            Err(NetlistError::UnknownGate(_))
        ));
    }

    #[test]
    fn replace_gate_grows_and_shrinks_in_place() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let g = n.add_gate(GateKind::And, &[a, b]).unwrap();
        n.mark_output(g, "y").unwrap();
        // Grow past the original span: appends a fresh span.
        n.replace_gate(g, GateKind::Or, &[a, b, c]).unwrap();
        assert_eq!(n.gate(g).kind(), GateKind::Or);
        assert_eq!(n.gate(g).inputs(), &[a, b, c]);
        // Shrink back: rewrites in place.
        n.replace_gate(g, GateKind::Nand, &[c, a]).unwrap();
        assert_eq!(n.gate(g).inputs(), &[c, a]);
        assert_eq!(n.gate(g).fanin(), 2);
        // Reader lists never see orphaned slots: b is no longer read.
        let readers = n.topology().readers();
        assert!(readers[b.index()].is_empty());
        assert_eq!(readers[a.index()], [(g, 1)]);
    }

    #[test]
    fn equality_ignores_orphaned_edit_history() {
        let build = || {
            let mut n = Netlist::new("t");
            let a = n.add_input("a");
            let b = n.add_input("b");
            let c = n.add_input("c");
            let g = n.add_gate(GateKind::And, &[a, b, c]).unwrap();
            n.mark_output(g, "y").unwrap();
            (n, a, b, c, g)
        };
        let plain = build().0;
        // Same logical content reached via shrink-then-grow edits that
        // leave an orphaned span behind.
        let (mut edited, a, b, c, g) = build();
        edited.replace_gate(g, GateKind::Or, &[a, b]).unwrap();
        edited.replace_gate(g, GateKind::And, &[a, b, c]).unwrap();
        assert_eq!(plain, edited);
        assert_eq!(edited, plain);
    }

    #[test]
    fn named_gates_intern_and_resolve() {
        let mut n = Netlist::new("t");
        let a = n.add_input("sig_a");
        let g = n
            .add_named_gate(GateKind::Not, &[a], Some("inv_out"))
            .unwrap();
        let h = n.add_gate(GateKind::Buf, &[g]).unwrap();
        assert_eq!(n.gate(a).name(), Some("sig_a"));
        assert_eq!(n.gate(g).name(), Some("inv_out"));
        assert_eq!(n.gate(h).name(), None);
    }

    #[test]
    fn memory_footprint_accounts_all_arenas() {
        let (n, _) = and_net();
        let fp = n.memory_footprint();
        assert_eq!(fp.gate_count, 3);
        // 3 gates × (1 kind + 4×4 span bytes) = 51.
        assert_eq!(fp.gate_bytes, 3 * 17);
        // One AND gate with two pins.
        assert_eq!(fp.edge_bytes, 2 * 4);
        // Interned "a" + "b".
        assert_eq!(fp.name_bytes, 2);
        assert_eq!(
            fp.total_bytes(),
            fp.gate_bytes + fp.edge_bytes + fp.name_bytes + fp.io_bytes
        );
        assert!(fp.bytes_per_gate() > 0.0);
        assert_eq!(Netlist::new("e").memory_footprint().bytes_per_gate(), 0.0);
        // Display mentions the headline metric.
        assert!(fp.to_string().contains("B/gate"));
    }

    #[test]
    fn pending_gates_self_loop_until_patched() {
        let mut n = Netlist::new("t");
        let g = n.add_pending_gate(GateKind::And, 2, Some("later")).unwrap();
        assert_eq!(n.gate(g).inputs(), &[g, g]);
        assert_eq!(n.gate(g).name(), Some("later"));
        let a = n.add_input("a");
        let b = n.add_input("b");
        n.reconnect_input(g, 0, a).unwrap();
        n.reconnect_input(g, 1, b).unwrap();
        assert_eq!(n.gate(g).inputs(), &[a, b]);
        assert!(matches!(
            n.add_pending_gate(GateKind::Not, 2, None),
            Err(NetlistError::BadFanin { .. })
        ));
    }

    #[test]
    fn arena_diff_lists_rewrites_appends_and_output_flips() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(GateKind::And, &[a, b]).unwrap();
        let h = n.add_gate(GateKind::Or, &[a, g]).unwrap();
        n.mark_output(h, "y").unwrap();
        assert_eq!(n.arena_diff(&n), Some(ArenaDiff::default()));

        let mut e = n.clone();
        e.replace_with_const(g, false).unwrap();
        let k = e.add_gate(GateKind::Not, &[b]).unwrap();
        e.mark_output(k, "z").unwrap();
        e.mark_output(b, "b_obs").unwrap();
        assert_eq!(
            n.arena_diff(&e),
            Some(ArenaDiff {
                rewritten: vec![g],
                appended: vec![k],
                outputs: vec![b, k],
            })
        );
        // A shrunken arena is not an evolution of this one.
        assert_eq!(e.arena_diff(&n), None);
    }
}
