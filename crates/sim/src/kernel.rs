//! The compiled simulation kernel: a flattened, cache-friendly program.
//!
//! [`Kernel`] lowers a levelized netlist into one straight-line op
//! stream in evaluation order. Each op is one fixed-size record: its
//! destination slot, four operand slots, and the gate kind compiled to
//! three mode bits. No graph traversal, no per-gate `Vec` rebuilding, no
//! pointer chasing, and no branch on the gate kind or the fan-in — the
//! fold reads one record and four operands and runs the same
//! straight-line word code for every op. It is the shared execution
//! core behind [`CompiledSim`](crate::CompiledSim) (whole-netlist runs)
//! and the PPSFP fault simulator in `dft-fault` (cone-restricted
//! incremental runs).
//!
//! **The record fold.** Every kind the kernel compiles is an AND or a
//! parity of its operands with optional inversions:
//!
//! | kind        | invert in | invert out | parity |
//! |-------------|-----------|------------|--------|
//! | `Buf`/`And` |           |            |        |
//! | `Not`/`Nand`|           | ✓          |        |
//! | `Or`        | ✓         | ✓          |        |
//! | `Nor`       | ✓         |            |        |
//! | `Xor`       |           |            | ✓      |
//! | `Xnor`      |           | ✓          | ✓      |
//!
//! The fold expands the three bits into all-zeros/all-ones masks and
//! computes `out = ((AND of (xᵢ ^ in)) & !par | (XOR of xᵢ) & par) ^ out`
//! word by word. An op with fewer than four operands pads its record
//! with an *identity slot*: one of two constant slots that every value
//! array carries after the gate slots (see [`Kernel::slot_count`]),
//! all-ones where the padded operand feeds the AND unchanged, all-zeros
//! where it is complemented first or feeds the parity. Ops with more
//! than four operands keep the first four in the record and spill the
//! rest to a CSR pool the fold walks after the record slots; that walk
//! is empty, and its loop exits at once, for every narrower op.
//! [`word::fold_wide`](crate::word::fold_wide) stays as the reference
//! the records are tested against.
//!
//! Because ops are emitted in levelization order, an op's index is also a
//! topological timestamp: any subset of ops replayed in ascending index
//! order evaluates each gate after all of its in-subset drivers. The
//! cone-restricted fault engines rely on exactly this property.

use std::ops::Range;

use dft_netlist::{GateId, GateKind, LevelizeError, Netlist};

/// Operand slots held inline in an op record.
const SLOTS: usize = 4;

/// Mode bit: complement every operand before the AND.
const INVERT_IN: u8 = 1;
/// Mode bit: complement the result.
const INVERT_OUT: u8 = 2;
/// Mode bit: the result is the operands' parity, not their AND.
const PARITY: u8 = 4;

/// One compiled op: a fixed record the fold reads without branching on
/// the gate kind or the fan-in.
#[derive(Clone, Copy, Debug)]
struct Op {
    /// Operand slots in pin order; past the fan-in, the identity slot of
    /// the op's mode.
    args: [u32; SLOTS],
    /// Destination slot.
    dst: u32,
    /// Start in the spill pool of the operands past the fourth (`0`, with
    /// nothing to read, for ops of fan-in four or less).
    rest: u32,
    /// Number of real operands.
    fanin: u16,
    /// `INVERT_IN | INVERT_OUT | PARITY` bits.
    mode: u8,
}

impl Op {
    /// The spill-pool range of the operands past the fourth.
    #[inline]
    fn rest(&self) -> Range<usize> {
        let start = self.rest as usize;
        start..start + usize::from(self.fanin).saturating_sub(SLOTS)
    }
}

/// The mode bits of a compiled (non-source) kind.
fn mode_of(kind: GateKind) -> u8 {
    match kind {
        GateKind::Buf | GateKind::And => 0,
        GateKind::Not | GateKind::Nand => INVERT_OUT,
        GateKind::Or => INVERT_IN | INVERT_OUT,
        GateKind::Nor => INVERT_IN,
        GateKind::Xor => PARITY,
        GateKind::Xnor => PARITY | INVERT_OUT,
        GateKind::Input | GateKind::Const0 | GateKind::Const1 | GateKind::Dff => {
            unreachable!("sources are not compiled to ops")
        }
    }
}

/// All-ones if `bit` is set in `mode`, else all-zeros.
#[inline]
fn mask(mode: u8, bit: u8) -> u64 {
    0u64.wrapping_sub(u64::from(mode & bit != 0))
}

/// A netlist compiled into a flat op program over packed words.
///
/// Value state lives outside the kernel in a caller-owned array of
/// [`Kernel::slot_count`] words (gate slots indexed by
/// [`GateId::index`], then the two identity slots), so one kernel can
/// serve many concurrent evaluation contexts (one per thread) without
/// aliasing.
#[derive(Clone, Debug)]
pub struct Kernel {
    gate_count: usize,
    /// One record per op, in levelized evaluation order.
    ops: Vec<Op>,
    /// Every operand, in pin order, of each op with fan-in above four.
    spill: Vec<u32>,
    /// Gate index → op index (`u32::MAX` for sources, which have no op).
    op_of_gate: Vec<u32>,
    /// Primary-input slots, in `Netlist::primary_inputs` order.
    pi_slots: Vec<u32>,
    /// Slots of `Const1` gates (sources whose word is all-ones).
    const1_slots: Vec<u32>,
}

impl Kernel {
    /// Compiles `netlist` into a flat op program over its levelization.
    ///
    /// # Errors
    ///
    /// Returns [`LevelizeError`] on combinational cycles.
    pub fn new(netlist: &Netlist) -> Result<Self, LevelizeError> {
        let lv = netlist.levelize()?;
        let n = netlist.gate_count();
        let (zeros, ones) = (n as u32, n as u32 + 1);
        let mut ops = Vec::new();
        let mut spill = Vec::new();
        let mut op_of_gate = vec![u32::MAX; n];
        for &id in lv.order() {
            let gate = netlist.gate(id);
            if gate.kind().is_source() {
                continue;
            }
            let mode = mode_of(gate.kind());
            let inputs = gate.inputs();
            // The padding must leave the AND (after input inversion) or
            // the parity unchanged.
            let identity = if mode & (INVERT_IN | PARITY) == 0 {
                ones
            } else {
                zeros
            };
            let mut args = [identity; SLOTS];
            for (slot, src) in args.iter_mut().zip(inputs) {
                *slot = src.index() as u32;
            }
            let mut rest = 0;
            if inputs.len() > SLOTS {
                rest = (spill.len() + SLOTS) as u32;
                spill.extend(inputs.iter().map(|s| s.index() as u32));
            }
            op_of_gate[id.index()] = ops.len() as u32;
            ops.push(Op {
                args,
                dst: id.index() as u32,
                rest,
                fanin: u16::try_from(inputs.len()).expect("fan-in is at most 256"),
                mode,
            });
        }
        Ok(Kernel {
            gate_count: n,
            ops,
            spill,
            op_of_gate,
            pi_slots: netlist
                .primary_inputs()
                .iter()
                .map(|g| g.index() as u32)
                .collect(),
            const1_slots: netlist
                .iter()
                .filter(|(_, g)| g.kind() == GateKind::Const1)
                .map(|(id, _)| id.index() as u32)
                .collect(),
        })
    }

    /// Number of gate slots (= gate count of the compiled netlist).
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.gate_count
    }

    /// Length of a value array: the gate slots, then the all-zeros and
    /// the all-ones identity slot that pad narrow op records. Zero-fill
    /// plus [`Kernel::init_constants`] (or its wide twin) sets both.
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.gate_count + 2
    }

    /// Number of compiled ops (non-source gates).
    #[must_use]
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// The op that computes `gate`, or `None` if it is a source (primary
    /// input or storage output — its slot is written by the caller).
    #[must_use]
    pub fn op_of_gate(&self, gate: GateId) -> Option<usize> {
        match self.op_of_gate[gate.index()] {
            u32::MAX => None,
            op => Some(op as usize),
        }
    }

    /// Kind of op `i`, read back from its record's mode bits and fan-in.
    #[must_use]
    pub fn op_kind(&self, i: usize) -> GateKind {
        let op = &self.ops[i];
        match (op.mode, op.fanin) {
            (0, 1) => GateKind::Buf,
            (INVERT_OUT, 1) => GateKind::Not,
            (0, _) => GateKind::And,
            (INVERT_OUT, _) => GateKind::Nand,
            (m, _) if m == INVERT_IN | INVERT_OUT => GateKind::Or,
            (INVERT_IN, _) => GateKind::Nor,
            (PARITY, _) => GateKind::Xor,
            _ => GateKind::Xnor,
        }
    }

    /// Destination slot of op `i`.
    #[must_use]
    pub fn op_dst(&self, i: usize) -> u32 {
        self.ops[i].dst
    }

    /// Operand slots of op `i`, in pin order (no identity padding).
    #[must_use]
    pub fn op_args(&self, i: usize) -> &[u32] {
        let op = &self.ops[i];
        let fanin = usize::from(op.fanin);
        if fanin <= SLOTS {
            &op.args[..fanin]
        } else {
            &self.spill[op.rest as usize - SLOTS..][..fanin]
        }
    }

    /// Primary-input slots, in `Netlist::primary_inputs` order.
    #[must_use]
    pub fn pi_slots(&self) -> &[u32] {
        &self.pi_slots
    }

    /// Folds op `i` over the value array `vals` ([`Kernel::slot_count`]
    /// wide blocks of `64 × W` lanes): the record fold of the module
    /// docs.
    #[inline]
    #[must_use]
    pub fn fold_op<const W: usize>(&self, i: usize, vals: &[[u64; W]]) -> [u64; W] {
        self.fold(i, vals, None)
    }

    /// [`Kernel::fold_op`] with input pin `pin` of the op reading
    /// `value` instead of its driver's slot — the value a stuck input
    /// pin forces onto the gate's output. A `pin` past the op's fan-in
    /// forces nothing, as in the serial engine's faulty frame.
    #[must_use]
    pub fn fold_op_forced<const W: usize>(
        &self,
        i: usize,
        vals: &[[u64; W]],
        pin: usize,
        value: [u64; W],
    ) -> [u64; W] {
        let forced = (pin < usize::from(self.ops[i].fanin)).then_some((pin, value));
        self.fold(i, vals, forced)
    }

    /// The one fold behind [`Kernel::fold_op`] and
    /// [`Kernel::fold_op_forced`]; `forced` is a constant `None` on the
    /// hot path, so its checks compile away there.
    #[inline(always)]
    fn fold<const W: usize>(
        &self,
        i: usize,
        vals: &[[u64; W]],
        forced: Option<(usize, [u64; W])>,
    ) -> [u64; W] {
        let op = &self.ops[i];
        let inv_in = mask(op.mode, INVERT_IN);
        let inv_out = mask(op.mode, INVERT_OUT);
        let parity = mask(op.mode, PARITY);
        let mut x = op.args.map(|a| vals[a as usize]);
        if let Some((pin, value)) = forced {
            if pin < SLOTS {
                x[pin] = value;
            }
        }
        let mut and = [0u64; W];
        let mut xor = [0u64; W];
        for w in 0..W {
            and[w] =
                (x[0][w] ^ inv_in) & (x[1][w] ^ inv_in) & (x[2][w] ^ inv_in) & (x[3][w] ^ inv_in);
            xor[w] = x[0][w] ^ x[1][w] ^ x[2][w] ^ x[3][w];
        }
        for (k, &a) in self.spill[op.rest()].iter().enumerate() {
            let v = match forced {
                Some((pin, value)) if pin == SLOTS + k => value,
                _ => vals[a as usize],
            };
            for w in 0..W {
                and[w] &= v[w] ^ inv_in;
                xor[w] ^= v[w];
            }
        }
        let mut out = [0u64; W];
        for w in 0..W {
            out[w] = ((and[w] & !parity) | (xor[w] & parity)) ^ inv_out;
        }
        out
    }

    /// Writes the constant words into `vals`: `Const1` slots and the
    /// all-ones identity slot become all-ones; `Const0` slots and the
    /// all-zeros identity slot are left for the caller's zero-fill.
    /// Constants are sources in this netlist model, so they are not ops —
    /// call this (or zero-init plus it) before [`Kernel::eval_into`].
    pub fn init_constants(&self, vals: &mut [u64]) {
        for &slot in &self.const1_slots {
            vals[slot as usize] = u64::MAX;
        }
        vals[self.gate_count + 1] = u64::MAX;
    }

    /// Runs the whole program over `vals` in place. Source slots (primary
    /// inputs, storage, constants — see [`Kernel::init_constants`]) must
    /// already hold their words; every other gate slot is overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `vals.len() != slot_count`.
    pub fn eval_into(&self, vals: &mut [u64]) {
        let (wide, _) = vals.as_chunks_mut::<1>();
        self.eval_range_wide(0..self.op_count(), wide);
    }

    /// Evaluates one packed 64-lane block with storage held at 0,
    /// returning a freshly allocated value array of the gate slots.
    ///
    /// # Panics
    ///
    /// Panics if `pi_words.len()` disagrees with the primary input count.
    #[must_use]
    pub fn eval_block(&self, pi_words: &[u64]) -> Vec<u64> {
        assert_eq!(
            pi_words.len(),
            self.pi_slots.len(),
            "pattern width must match primary input count"
        );
        let mut vals = vec![0u64; self.slot_count()];
        self.init_constants(&mut vals);
        for (&slot, &w) in self.pi_slots.iter().zip(pi_words) {
            vals[slot as usize] = w;
        }
        self.eval_into(&mut vals);
        vals.truncate(self.gate_count);
        vals
    }

    /// Writes the constant wide blocks into `vals` (the wide twin of
    /// [`Kernel::init_constants`]).
    pub fn init_constants_wide<const W: usize>(&self, vals: &mut [[u64; W]]) {
        for &slot in &self.const1_slots {
            vals[slot as usize] = [u64::MAX; W];
        }
        vals[self.gate_count + 1] = [u64::MAX; W];
    }

    /// Runs ops `range` over wide-block `vals` in place, assuming every
    /// slot an in-range op reads is already valid — either a source slot
    /// or the destination of an earlier op. `0..op_count` is one full
    /// sweep (the `[u64; W]` twin of [`Kernel::eval_into`]); calling this
    /// with consecutive ranges covering `0..op_count` is equivalent, and
    /// the cache-blocked drivers use exactly that decomposition (see
    /// [`Kernel::level_bands`]).
    ///
    /// # Panics
    ///
    /// Panics if `vals.len() != slot_count` or `range` is out of bounds.
    pub fn eval_range_wide<const W: usize>(&self, range: Range<usize>, vals: &mut [[u64; W]]) {
        assert_eq!(vals.len(), self.slot_count(), "value array width mismatch");
        assert!(range.end <= self.ops.len(), "op range out of bounds");
        for i in range {
            let block = self.fold_op(i, vals);
            vals[self.ops[i].dst as usize] = block;
        }
    }

    /// Default per-band working-set budget in bytes, sized to leave a
    /// comfortable share of a typical 32 KiB L1d for the band's op
    /// metadata and the pattern blocks being swept.
    pub const BAND_BYTES: usize = 16 * 1024;

    /// [`Kernel::level_bands`] with the slot budget derived from
    /// [`Kernel::BAND_BYTES`] for wide blocks of `words` × `u64` (never
    /// fewer than 32 slots per band, so tiny budgets cannot degenerate
    /// into per-op bands).
    #[must_use]
    pub fn level_bands_for_width(&self, words: usize) -> Vec<Range<usize>> {
        self.level_bands((Self::BAND_BYTES / (8 * words.max(1))).max(32))
    }

    /// Partitions the op stream into contiguous *bands* whose slot
    /// working sets stay within `max_slots` distinct slots (destinations
    /// plus operands), for cache-blocked sweeps: evaluating one band
    /// across many pattern blocks back-to-back keeps both the band's op
    /// metadata and its value slots hot instead of streaming the whole
    /// netlist's state through cache once per block.
    ///
    /// Bands preserve op order, so replaying every band in sequence is a
    /// full levelized sweep; a band always contains at least one op even
    /// if that op alone exceeds the budget.
    #[must_use]
    pub fn level_bands(&self, max_slots: usize) -> Vec<Range<usize>> {
        let mut bands = Vec::new();
        let mut start = 0usize;
        // Epoch-stamped membership test: slot_seen[s] == epoch means slot
        // s is already counted in the current band.
        let mut slot_seen = vec![0u32; self.gate_count];
        let mut epoch = 0u32;
        let mut band_slots = 0usize;
        for i in 0..self.ops.len() {
            let mut op_new = 0usize;
            let dst = self.ops[i].dst as usize;
            if slot_seen[dst] != epoch + 1 {
                op_new += 1;
            }
            for &a in self.op_args(i) {
                if slot_seen[a as usize] != epoch + 1 {
                    op_new += 1;
                }
            }
            if band_slots + op_new > max_slots && i > start {
                bands.push(start..i);
                start = i;
                epoch += 1;
                band_slots = 0;
            }
            // (Re)count this op's slots against the current band.
            if slot_seen[dst] != epoch + 1 {
                slot_seen[dst] = epoch + 1;
                band_slots += 1;
            }
            for &a in self.op_args(i) {
                if slot_seen[a as usize] != epoch + 1 {
                    slot_seen[a as usize] = epoch + 1;
                    band_slots += 1;
                }
            }
        }
        if start < self.ops.len() {
            bands.push(start..self.ops.len());
        }
        bands
    }

    /// Evaluates many wide pattern blocks band-major: for each level band
    /// (see [`Kernel::level_bands`]), sweep that band across *all* blocks
    /// before moving on. Each entry of `blocks` is a full value array
    /// (`slot_count` wide slots) with sources already loaded; on return it
    /// holds the fully evaluated values, identical to one
    /// `eval_range_wide(0..op_count)` sweep per block.
    ///
    /// `bands` must come from [`Kernel::level_bands`] on this kernel (or
    /// otherwise tile `0..op_count` in order).
    ///
    /// # Panics
    ///
    /// Panics if any block's length differs from `slot_count`.
    pub fn eval_blocks_banded<const W: usize>(
        &self,
        bands: &[Range<usize>],
        blocks: &mut [Vec<[u64; W]>],
    ) {
        for band in bands {
            for vals in blocks.iter_mut() {
                self.eval_range_wide(band.clone(), vals);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_netlist::circuits::{c17, random_combinational};
    use dft_netlist::GateKind;

    /// One full wide sweep over `pi_blocks` with storage held at 0.
    fn eval_wide<const W: usize>(k: &Kernel, pi_blocks: &[[u64; W]]) -> Vec<[u64; W]> {
        let mut vals = vec![[0u64; W]; k.slot_count()];
        k.init_constants_wide(&mut vals);
        for (&slot, &b) in k.pi_slots().iter().zip(pi_blocks) {
            vals[slot as usize] = b;
        }
        k.eval_range_wide(0..k.op_count(), &mut vals);
        vals
    }

    #[test]
    fn ops_are_in_ascending_topological_order() {
        let n = random_combinational(10, 150, 11);
        let k = Kernel::new(&n).unwrap();
        for i in 0..k.op_count() {
            for &a in k.op_args(i) {
                let src = GateId::from_index(a as usize);
                if let Some(src_op) = k.op_of_gate(src) {
                    assert!(src_op < i, "op {i} reads slot written by later op");
                }
            }
        }
    }

    #[test]
    fn matches_direct_levelized_eval() {
        let n = c17();
        let k = Kernel::new(&n).unwrap();
        for v in 0..32u64 {
            let pi: Vec<u64> = (0..5)
                .map(|i| if v >> i & 1 == 1 { u64::MAX } else { 0 })
                .collect();
            let vals = k.eval_block(&pi);
            let lv = n.levelize().unwrap();
            let mut direct = vec![0u64; n.gate_count()];
            for (i, &g) in n.primary_inputs().iter().enumerate() {
                direct[g.index()] = pi[i];
            }
            for &id in lv.order() {
                let gate = n.gate(id);
                if gate.kind().is_source() {
                    continue;
                }
                let words: Vec<u64> = gate.inputs().iter().map(|&s| direct[s.index()]).collect();
                direct[id.index()] = gate.kind().eval_word(&words);
            }
            assert_eq!(vals, direct, "input {v:05b}");
        }
    }

    #[test]
    fn sources_have_no_op() {
        let n = c17();
        let k = Kernel::new(&n).unwrap();
        for &pi in n.primary_inputs() {
            assert_eq!(k.op_of_gate(pi), None);
        }
        assert_eq!(k.op_count(), 6);
    }

    #[test]
    fn wide_block_matches_per_word_blocks() {
        let n = random_combinational(12, 200, 3);
        let k = Kernel::new(&n).unwrap();
        // Four distinct 64-lane input blocks, evaluated once as a single
        // 256-lane wide block and once word-by-word.
        let pi_blocks: Vec<[u64; 4]> = (0..12u32)
            .map(|i| {
                [
                    0x0123_4567_89AB_CDEFu64.rotate_left(i),
                    0xFEDC_BA98_7654_3210u64.rotate_right(i),
                    u64::from(i).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    !u64::from(i),
                ]
            })
            .collect();
        let wide = eval_wide(&k, &pi_blocks);
        for w in 0..4 {
            let pi: Vec<u64> = pi_blocks.iter().map(|b| b[w]).collect();
            let narrow = k.eval_block(&pi);
            for (slot, &v) in narrow.iter().enumerate() {
                assert_eq!(wide[slot][w], v, "slot {slot} word {w}");
            }
        }
    }

    #[test]
    fn banded_eval_matches_full_sweep() {
        let n = random_combinational(12, 300, 9);
        let k = Kernel::new(&n).unwrap();
        let pi_blocks: Vec<[u64; 4]> = (0..12u32)
            .map(|i| [u64::from(i) * 3, !(u64::from(i) << 7), 0xAAAA, u64::MAX])
            .collect();
        let reference = eval_wide(&k, &pi_blocks);
        // Absurdly small budget forces many bands; results must not change.
        for budget in [1, 7, 64, 100_000] {
            let bands = k.level_bands(budget);
            assert_eq!(bands.last().unwrap().end, k.op_count());
            assert_eq!(bands[0].start, 0);
            for pair in bands.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "bands must tile the op stream");
            }
            let mut vals = vec![[0u64; 4]; k.slot_count()];
            k.init_constants_wide(&mut vals);
            for (&slot, &b) in k.pi_slots().iter().zip(&pi_blocks) {
                vals[slot as usize] = b;
            }
            let mut blocks = vec![vals];
            k.eval_blocks_banded(&bands, &mut blocks);
            assert_eq!(blocks[0], reference, "budget {budget}");
        }
    }

    #[test]
    fn constants_are_compiled_as_ops() {
        let mut n = dft_netlist::Netlist::new("t");
        let one = n.add_const(true);
        let a = n.add_input("a");
        let y = n.add_gate(GateKind::And, &[one, a]).unwrap();
        n.mark_output(y, "y").unwrap();
        let k = Kernel::new(&n).unwrap();
        let vals = k.eval_block(&[u64::MAX]);
        assert_eq!(vals[one.index()], u64::MAX);
        assert_eq!(vals[y.index()], u64::MAX);
    }

    /// Operand words for a fold test: distinct, irregular, and with each
    /// lane pattern of two operands covered.
    fn operand<const W: usize>(pin: usize) -> [u64; W] {
        std::array::from_fn(|w| {
            0x9E37_79B9_7F4A_7C15u64
                .wrapping_mul(pin as u64 * 8 + w as u64 + 1)
                .rotate_left(pin as u32 * 7)
        })
    }

    /// Compiles one gate of `kind` over `fanin` fresh inputs and checks
    /// its record fold, plain and with each pin forced, against
    /// `GateKind::eval_word` and the `word::fold_wide` reference.
    fn check_record<const W: usize>(kind: GateKind, fanin: usize) {
        let mut n = dft_netlist::Netlist::new("t");
        let ins: Vec<GateId> = (0..fanin).map(|i| n.add_input(format!("x{i}"))).collect();
        let y = n.add_gate(kind, &ins).unwrap();
        n.mark_output(y, "y").unwrap();
        let k = Kernel::new(&n).unwrap();
        assert_eq!(k.op_count(), 1);
        assert_eq!(k.op_kind(0), kind, "kind reads back");
        let args: Vec<u32> = ins.iter().map(|g| g.index() as u32).collect();
        assert_eq!(k.op_args(0), &args[..], "operands read back");
        let mut vals = vec![[0u64; W]; k.slot_count()];
        k.init_constants_wide(&mut vals);
        let words: Vec<[u64; W]> = (0..fanin).map(operand::<W>).collect();
        for (g, &v) in ins.iter().zip(&words) {
            vals[g.index()] = v;
        }
        let expect = |words: &[[u64; W]]| -> [u64; W] {
            std::array::from_fn(|w| kind.eval_word(&words.iter().map(|v| v[w]).collect::<Vec<_>>()))
        };
        let folded = k.fold_op(0, &vals);
        assert_eq!(folded, expect(&words), "{kind:?}/{fanin} W={W}");
        assert_eq!(folded, crate::word::fold_wide(kind, words.iter().copied()));
        for pin in 0..fanin {
            let stuck = [u64::MAX; W];
            let mut forced = words.clone();
            forced[pin] = stuck;
            assert_eq!(
                k.fold_op_forced(0, &vals, pin, stuck),
                expect(&forced),
                "{kind:?}/{fanin} W={W} pin {pin} forced"
            );
        }
        // A pin past the fan-in (a padded slot included) forces nothing.
        for pin in fanin..fanin + 4 {
            assert_eq!(k.fold_op_forced(0, &vals, pin, [!0; W]), folded);
        }
    }

    #[test]
    fn record_fold_matches_eval_word_for_every_kind_and_fanin() {
        for fanin in 1..=9 {
            for kind in GateKind::ALL {
                let (lo, hi) = kind.fanin_range();
                if kind.is_source() || fanin < lo || fanin > hi {
                    continue;
                }
                check_record::<1>(kind, fanin);
                check_record::<4>(kind, fanin);
            }
        }
    }

    #[test]
    fn repeated_operands_fold_per_pin() {
        // One driver on several pins: forcing a pin must not force the
        // others, and the parity must count every pin.
        let mut n = dft_netlist::Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        for (kind, pins) in [
            (GateKind::Xor, vec![a, a, b]),
            (GateKind::And, vec![a, b, a, a, b, a]),
            (GateKind::Xnor, vec![a, a, a, a, a]),
        ] {
            let mut n = n.clone();
            let y = n.add_gate(kind, &pins).unwrap();
            n.mark_output(y, "y").unwrap();
            let k = Kernel::new(&n).unwrap();
            let mut vals = vec![[0u64; 1]; k.slot_count()];
            k.init_constants_wide(&mut vals);
            vals[a.index()] = [0b1100];
            vals[b.index()] = [0b1010];
            let words: Vec<u64> = pins.iter().map(|g| vals[g.index()][0]).collect();
            assert_eq!(k.fold_op(0, &vals)[0], kind.eval_word(&words), "{kind:?}");
            for pin in 0..pins.len() {
                let mut forced = words.clone();
                forced[pin] = 0;
                assert_eq!(
                    k.fold_op_forced(0, &vals, pin, [0])[0],
                    kind.eval_word(&forced),
                    "{kind:?} pin {pin}"
                );
            }
        }
    }
}
