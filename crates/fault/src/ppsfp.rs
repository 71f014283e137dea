//! PPSFP: parallel-pattern single-fault propagation.
//!
//! The high-throughput fault-grading engine. Where the classic parallel
//! method packs 63 faulty *machines* per word under one pattern, PPSFP
//! packs **many patterns per wide block under one fault** — the dual
//! layout — and then refuses to do almost all of the work a naive engine
//! would:
//!
//! * **Compiled kernel.** Good-machine responses come from the flat op
//!   program of [`Kernel`](dft_sim::Kernel) shared with
//!   [`CompiledSim`](dft_sim::CompiledSim), evaluated once per pattern
//!   block and cached for every gate (not just the outputs). Every gate
//!   fold — baseline sweep, injection and event propagation — reads one
//!   fixed op record and runs the same straight-line word code whatever
//!   the gate's kind or fan-in ([`Kernel::fold_op`]).
//! * **Wide words.** Blocks are `[u64; W]` wide words carrying `64 × W`
//!   patterns. The engine picks `W` from the workload's 64-pattern block
//!   count: 256 lanes (`W = 4`) from 4 blocks up, plain 64-lane words
//!   below that, where wide blocks would only fold empty tail words.
//!   One op dispatch — record load, operand gather, event scheduling —
//!   is amortized over the whole wide block, and the unrolled `W`-word
//!   loops vectorize.
//! * **Cache-blocked baseline sweep.** The good-machine pass partitions
//!   the op stream into level bands whose slot working sets fit in L1
//!   (see [`Kernel::level_bands`]) and sweeps each band across all
//!   pattern blocks before the next, so band metadata and slots stay hot
//!   instead of streaming the whole netlist's state per block.
//! * **Cone-restricted event propagation.** A fault can only disturb its
//!   structural fanout cone. Disturbed slots schedule their readers (a
//!   global op-indexed CSR, built once per engine) into a levelized
//!   event bitset, so each block folds exactly the gates an event
//!   actually reached — inert faults cost one block compare per wide
//!   block, and no per-fault cone is ever materialized. A count of the
//!   pending events ends the scan at the last one.
//! * **Observability table, then memo.** Call a moment of a propagation
//!   a *collapse point* when the gate just folded, `h`, changed on lanes
//!   `d` and no other event is pending. Every other disturbed gate then
//!   has all of its readers behind it, so no later fold reads anything
//!   disturbed except `h` and what `h` disturbs: from here on the faulty
//!   machine is the good machine with `h` flipped on `d`, lane by lane.
//!   The output difference still to come is therefore `d & obs(h)`,
//!   where `obs(h)` — the lanes on which flipping `h` reaches a primary
//!   output — belongs to the good machine and the wide block alone, not
//!   to the fault. The fault site's own disturbance is always a collapse
//!   point.
//!
//!   Wide block 0, where every fault is still alive, gets a dense
//!   *table* of `obs` before any fault runs: once every gate reading a
//!   gate is tabled, the engine flips the gate on every lane and runs
//!   the event loop to its first collapse point past the gate itself,
//!   whose gate is downstream and tabled already — critical-path
//!   tracing with stem analysis (Abramovici, Menon & Miller, DAC 1983)
//!   on the engine's own fold. A fault then costs one lookup in block 0,
//!   `d & obs(site)`.
//!
//!   The build also stops lane by lane, at *clean cuts*: op indices
//!   before which no logic gate has reader ops on both sides (sources
//!   are left out, since only the root can be a disturbed source).
//!   Every level boundary of a layered netlist is one; a sliding-window
//!   random netlist has almost none. Once the root's last reader is
//!   folded, at each clean cut the event loop crosses, every other
//!   disturbed gate has had all of its readers folded, so it can change
//!   nothing still to come, or none: it is *live*. The faulty machine
//!   past the cut is the good machine with the live gates flipped on
//!   their changed lanes, and folds are lane-independent, so on a lane
//!   where exactly one live gate `h` differs, the difference still to
//!   come is `obs(h)` on that lane. The build answers such a lane from
//!   the table, restores it to its good value, and drops the pending
//!   events once no lane is left disturbed. Every entry is the same as
//!   without the cuts; only the folds are fewer. Only gates whose
//!   readers lie past the next cut are recorded as they are written,
//!   so the rule costs one compare per event where there are no cuts.
//!
//!   Later blocks see only the faults block 0 left
//!   undetected, so there each worker keeps a *lazy memo* instead: `obs`
//!   on exactly the lanes it has propagated through `h`, and a later
//!   propagation that collapses onto `h` on known lanes stops there
//!   instead of folding `h`'s cone. Site groups run downstream-first, so
//!   a gate's own faults tend to fill its entry before the faults
//!   upstream of it arrive. The table pays only when the run grades at
//!   least 1.5 faults per gate (the measured crossover lies between 1
//!   and 2); below that, block 0 takes the lazy memo too.
//! * **Fault dropping.** A fault detected in any lane leaves the active
//!   list; remaining blocks are never simulated for it.
//! * **Multi-threaded fault partitioning.** The collapsed fault list is
//!   grouped by fault site (groups share one site load) and the groups
//!   are pulled from a shared atomic work queue by `std::thread::scope`
//!   workers. Each worker's baseline copy and memo live for the whole
//!   run, across every streamed chunk; per-fault results are merged at
//!   the end. The table is built once per run and shared read-only.
//!   Its build splits the same way: gates whose readers are all tabled
//!   are independent (every gate of a level is, once the deeper levels
//!   are done), so the workers pull them from one shared ready list,
//!   each folding on its own working copy. Results are deterministic
//!   regardless of scheduling because faults are independent and the
//!   table and memo are exact.
//!
//! Detection semantics are identical to [`crate::simulate`] and
//! independent of lane width (first detecting pattern per fault;
//! cross-checked against serial by tests and proptests on both sides of
//! the width switch — tail lanes of a ragged final block are masked at
//! detection only).

use std::cmp::Reverse;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use dft_netlist::{GateId, LevelizeError, Netlist, Pin};
use dft_obs::{Collector, Obs};
use dft_sim::word::stuck_wide;
use dft_sim::{Kernel, PatternSet};

use crate::{DetectionResult, Fault};

/// Tuning knobs for a PPSFP run.
///
/// `#[non_exhaustive]`: construct via [`Default`] and the `with_*`
/// builders so new knobs can be added without breaking downstream
/// crates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct PpsfpOptions {
    /// Worker threads. `0` (the default) uses the machine's available
    /// parallelism, capped by the number of fault-site groups.
    pub threads: usize,
}

impl PpsfpOptions {
    /// Defaults (same as [`Default`], spelled for builder chains).
    #[must_use]
    pub fn new() -> Self {
        PpsfpOptions::default()
    }

    /// Sets [`PpsfpOptions::threads`].
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// Words per wide block for a workload of `block_count` 64-pattern
/// blocks: 4 (256 lanes) from 4 blocks up, else 1. Narrow workloads
/// would waste folds on empty tail words; 512 lanes does not pay on the
/// event-propagation path, where the fold *count* barely drops with
/// width (disturbances are dense across blocks) while the word work per
/// fold scales with `W`.
fn lane_words(block_count: usize) -> usize {
    if block_count >= 4 {
        4
    } else {
        1
    }
}

/// Whether a run grading `faults` faults on a netlist of `gates` gates
/// tables wide block 0's observability before any fault runs (see the
/// module docs): from 1.5 faults per gate. The table costs about one
/// propagation to a first collapse point per gate; the lazy memo costs
/// one per fault until the entries it needs fill, so the table wins
/// once faults outnumber gates by enough. The measured crossover lies
/// between 1 and 2 faults per gate (about 1.2 on `rand_16x300`, about
/// 2 on `layered_64x5000`, 256 patterns). A fixed rule, not an option:
/// below it the table ran up to 3× slower, above it up to 2× faster.
fn tables_block_zero(faults: usize, gates: usize) -> bool {
    faults.saturating_mul(2) >= gates.saturating_mul(3)
}

/// Gates of the block-0 table build per worker thread: a netlist
/// smaller than this is tabled on one thread, whose spawn would cost
/// more than the share of the build it takes over.
const TABLE_GATES_PER_WORKER: usize = 128;

/// Wide block 0's observability table (see the module docs): `obs(g)`
/// on every lane, indexed by gate. Atomic words, so the workers that
/// build it share it without locks; once built it is only read.
type ObsTable<const W: usize> = Vec<[AtomicU64; W]>;

/// Worker-local effort counters, merged across threads after the run
/// (plain integer bumps in the hot loop; never shared while the workers
/// are live, so there is no synchronization cost).
#[derive(Clone, Copy, Debug, Default)]
struct WorkCounters {
    /// Fault-site groups loaded (one per distinct fault-site gate per
    /// chunk).
    cones_loaded: u64,
    /// Fault × wide-block injection attempts.
    block_scans: u64,
    /// Injection attempts that actually disturbed the cone.
    excited_blocks: u64,
    /// `u64` words folded for disturbed cone gates (gate evaluations ×
    /// lane width — the hot loop's unit of work, comparable across
    /// widths).
    words_folded: u64,
    /// Collapse points reached by faults (see the module docs), fault
    /// sites included; the table build's are not counted.
    collapse_points: u64,
    /// Collapse points the block-0 table or a lazy memo answered.
    memo_hits: u64,
    /// Lanes the table build answered at clean cuts ([`Worker::resolve`]).
    lanes_resolved: u64,
}

impl WorkCounters {
    fn merge(&mut self, other: WorkCounters) {
        self.cones_loaded += other.cones_loaded;
        self.block_scans += other.block_scans;
        self.excited_blocks += other.excited_blocks;
        self.words_folded += other.words_folded;
        self.collapse_points += other.collapse_points;
        self.memo_hits += other.memo_hits;
        self.lanes_resolved += other.lanes_resolved;
    }
}

/// A PPSFP engine compiled for one netlist, reusable across pattern
/// batches (the random-ATPG grading loop calls [`Ppsfp::run`] once per
/// 64-pattern chunk without recompiling).
#[derive(Debug)]
pub struct Ppsfp<'n> {
    netlist: &'n Netlist,
    kernel: Kernel,
    /// Global reader CSR: the op indices of the distinct non-storage
    /// readers of slot `g` are
    /// `reader_pool[reader_start[g]..reader_start[g + 1]]`. Because op
    /// index order is levelized order, every reader op of a slot has a
    /// strictly higher index than the op driving that slot — the
    /// invariant the event loop's single-pass scan rests on.
    reader_start: Vec<u32>,
    reader_pool: Vec<u32>,
    /// Whether a combinational path leads from gate `g` to any primary
    /// output (gates that are POs themselves included). Faults at
    /// unreachable sites are structurally undetectable; the per-fault
    /// loop exits before touching any pattern block.
    reaches_output: Vec<bool>,
    /// Whether gate `g` is a primary output: the netlist's memoized
    /// [`dft_netlist::Topology::output_mask`].
    is_output: &'n [bool],
    /// The clean cuts, ascending: op indices `c` in `1..op_count` such
    /// that no logic gate has reader ops both below `c` and at or above
    /// it (see the module docs). Sources are left out: only the root of
    /// a propagation can be a disturbed source.
    cuts: Vec<u32>,
    /// Whether logic gate `g` has readers and they all lie past the first
    /// clean cut after its own op: a disturbed `g` is then live at that
    /// cut. False for sources.
    past_cut: Vec<bool>,
    /// The worker count before any task cap: [`PpsfpOptions::threads`],
    /// or the machine's available parallelism when that is 0, asked once
    /// at construction rather than per chunk (the query can read cgroup
    /// files).
    threads: usize,
}

/// Cached good-machine state for one pattern set, in wide blocks.
struct Baseline<const W: usize> {
    /// `blocks[wb][slot]`: packed good values of every kernel slot in
    /// wide block `wb` (`64 × W` patterns).
    blocks: Vec<Vec<[u64; W]>>,
    /// Valid-lane mask per wide block: tail words of a ragged final
    /// block are zero, the last ragged word is a low-lane mask.
    lane_masks: Vec<[u64; W]>,
}

impl<'n> Ppsfp<'n> {
    /// Compiles the engine for `netlist` with default options.
    ///
    /// # Errors
    ///
    /// Returns [`LevelizeError`] on combinational cycles.
    pub fn new(netlist: &'n Netlist) -> Result<Self, LevelizeError> {
        Ppsfp::with_options(netlist, PpsfpOptions::default())
    }

    /// Compiles the engine for `netlist` with explicit options. A
    /// [`PpsfpOptions::threads`] of 0 resolves here, once, to the
    /// machine's available parallelism.
    ///
    /// # Errors
    ///
    /// Returns [`LevelizeError`] on combinational cycles.
    pub fn with_options(
        netlist: &'n Netlist,
        options: PpsfpOptions,
    ) -> Result<Self, LevelizeError> {
        let kernel = Kernel::new(netlist)?;
        // The reader CSR by counting sort over the ops' distinct
        // operands. Storage elements are sources, not ops: a storage
        // reader captures into next state only, and within the
        // combinational frame its output cannot change.
        let distinct = |op: usize| {
            let args = kernel.op_args(op);
            (0..args.len())
                .filter(move |&k| !args[..k].contains(&args[k]))
                .map(move |k| args[k] as usize)
        };
        let mut reader_start = vec![0u32; netlist.gate_count() + 1];
        for op in 0..kernel.op_count() {
            for a in distinct(op) {
                reader_start[a + 1] += 1;
            }
        }
        for g in 0..netlist.gate_count() {
            reader_start[g + 1] += reader_start[g];
        }
        let mut fill = reader_start.clone();
        let mut reader_pool = vec![0u32; reader_start[netlist.gate_count()] as usize];
        for op in 0..kernel.op_count() {
            for a in distinct(op) {
                reader_pool[fill[a] as usize] = op as u32;
                fill[a] += 1;
            }
        }
        let is_output = netlist.topology().output_mask();
        // Reverse levelized sweep: a gate reaches an output iff it is one
        // or drives (through combinational ops) a gate that does.
        let mut reaches_output = is_output.to_vec();
        for op in (0..kernel.op_count()).rev() {
            if reaches_output[kernel.op_dst(op) as usize] {
                for &a in kernel.op_args(op) {
                    reaches_output[a as usize] = true;
                }
            }
        }
        // Clean cuts: a logic gate whose first and last reader ops are
        // `lo < hi` rules out every cut in `lo + 1..=hi`. Each gate's
        // readers are in ascending op order, so they are the ends of its
        // CSR span.
        let readers =
            |g: usize| &reader_pool[reader_start[g] as usize..reader_start[g + 1] as usize];
        let op_count = kernel.op_count();
        let mut straddling = vec![0i32; op_count + 1];
        for op in 0..op_count {
            if let [lo, .., hi] = *readers(kernel.op_dst(op) as usize) {
                straddling[lo as usize + 1] += 1;
                straddling[hi as usize + 1] -= 1;
            }
        }
        let mut cuts = Vec::new();
        let mut open = 0;
        for (c, step) in straddling.iter().enumerate().take(op_count).skip(1) {
            open += step;
            if open == 0 {
                cuts.push(c as u32);
            }
        }
        let mut past_cut = vec![false; netlist.gate_count()];
        let mut next = 0;
        for op in 0..op_count {
            while cuts.get(next).is_some_and(|&c| c as usize <= op) {
                next += 1;
            }
            let g = kernel.op_dst(op) as usize;
            past_cut[g] =
                matches!((readers(g).first(), cuts.get(next)), (Some(lo), Some(c)) if lo >= c);
        }
        Ok(Ppsfp {
            netlist,
            kernel,
            reader_start,
            reader_pool,
            reaches_output,
            is_output,
            cuts,
            past_cut,
            threads: match options.threads {
                0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
                n => n,
            },
        })
    }

    /// The op indices reading slot `g` (combinational readers only).
    #[inline]
    fn reader_ops(&self, g: usize) -> &[u32] {
        &self.reader_pool[self.reader_start[g] as usize..self.reader_start[g + 1] as usize]
    }

    /// The compiled netlist.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// Fault-simulates `faults` against `patterns`, producing the same
    /// [`DetectionResult`] as [`crate::simulate`].
    ///
    /// # Panics
    ///
    /// Panics if the pattern width disagrees with the netlist.
    #[must_use]
    pub fn run(&self, patterns: &PatternSet, faults: &[Fault]) -> DetectionResult {
        self.run_with(patterns, faults, None)
    }

    /// [`Ppsfp::run`] feeding telemetry to an optional collector.
    ///
    /// Opens a `fault_sim.ppsfp` span with counters `faults`,
    /// `patterns`, `good_evals` (baseline 64-lane block equivalents),
    /// `lane_words` (words per wide block: 1 below 4 blocks, else 4),
    /// `cones_loaded`, `block_scans`, `excited_blocks`, `words_folded`
    /// (disturbed-gate evaluations × lane width — the engine's unit of
    /// hot-loop work), `collapse_points` and `memo_hits` (see the module
    /// docs; block-0 table lookups count as answered collapse points),
    /// `detected`, `dropped`, plus a `coverage` gauge. Three child spans
    /// time the phases: `fault_sim.baseline` (the good-machine sweep),
    /// `fault_sim.observability` (the block-0 table build, with counters
    /// `tabled_gates`, 0 when the run grades too few faults to build it,
    /// the build's own `words_folded`, the engine's `clean_cuts` and the
    /// `lanes_resolved` at them) and `fault_sim.propagate` (fault
    /// injection and propagation). `words_folded` on the
    /// `fault_sim.ppsfp` span includes the table build's folds.
    /// Workers count into private integers merged after the run, so the
    /// hot loop never crosses a `dyn` boundary and `None` costs nothing
    /// measurable.
    ///
    /// # Panics
    ///
    /// Panics if the pattern width disagrees with the netlist.
    #[must_use]
    pub fn run_with(
        &self,
        patterns: &PatternSet,
        faults: &[Fault],
        obs: Option<&mut dyn Collector>,
    ) -> DetectionResult {
        let tabled = tables_block_zero(faults.len(), self.netlist.gate_count());
        self.grade(patterns, tabled, |grade| grade(faults), obs)
    }

    /// [`Ppsfp::run`] over a fault *stream*: faults are pulled from the
    /// iterator in chunks of `chunk_faults` and simulated against a
    /// baseline computed once, so no full `Vec<Fault>` is ever
    /// materialized — the working set is one chunk plus the per-fault
    /// result vector. With a streaming enumerator
    /// ([`crate::stream::FaultUniverse::iter`] or
    /// [`crate::stream::CollapsedUniverse::representatives`]) a
    /// 10⁶-gate netlist fault-grades without the ~10⁷-entry fault list.
    ///
    /// Detection is **bit-identical** to [`Ppsfp::run`] on the
    /// materialized list: faults are independent, dropping is per-fault,
    /// and results concatenate in stream order. `chunk_faults == 0`
    /// grades in chunks of one.
    ///
    /// Whether block 0's observability is tabled up front is decided
    /// from the stream's `size_hint` lower bound; both enumerators above
    /// report their exact length. A stream that cannot tell its length
    /// grades with the lazy memo on every block: the same detections,
    /// at the speed of a run below the table's threshold.
    ///
    /// # Panics
    ///
    /// Panics if the pattern width disagrees with the netlist.
    #[must_use]
    pub fn run_streamed(
        &self,
        patterns: &PatternSet,
        faults: impl IntoIterator<Item = Fault>,
        chunk_faults: usize,
    ) -> DetectionResult {
        self.run_streamed_with(patterns, faults, chunk_faults, None)
    }

    /// [`Ppsfp::run_streamed`] feeding telemetry to an optional
    /// collector: the same `fault_sim.ppsfp` span, child spans and
    /// counters as [`Ppsfp::run_with`], with `faults` counting the whole
    /// stream.
    ///
    /// # Panics
    ///
    /// Panics if the pattern width disagrees with the netlist.
    #[must_use]
    pub fn run_streamed_with(
        &self,
        patterns: &PatternSet,
        faults: impl IntoIterator<Item = Fault>,
        chunk_faults: usize,
        obs: Option<&mut dyn Collector>,
    ) -> DetectionResult {
        let chunk_faults = chunk_faults.max(1);
        let mut faults = faults.into_iter();
        let tabled = tables_block_zero(faults.size_hint().0, self.netlist.gate_count());
        let mut chunk: Vec<Fault> = Vec::new();
        self.grade(
            patterns,
            tabled,
            |grade| loop {
                chunk.clear();
                chunk.extend(faults.by_ref().take(chunk_faults));
                if chunk.is_empty() {
                    break;
                }
                grade(&chunk);
            },
            obs,
        )
    }

    /// The one detection driver behind [`Ppsfp::run_with`] and
    /// [`Ppsfp::run_streamed_with`]: opens the span, dispatches on the
    /// lane width and flushes the counters. `tabled` says whether block
    /// 0's observability is tabled up front; `feed` hands each fault
    /// chunk in order to the grading callback.
    fn grade(
        &self,
        patterns: &PatternSet,
        tabled: bool,
        feed: impl FnOnce(&mut dyn FnMut(&[Fault])),
        obs: Option<&mut dyn Collector>,
    ) -> DetectionResult {
        let mut obs = Obs::new(obs);
        obs.enter("fault_sim.ppsfp");
        let (result, work) = match lane_words(patterns.block_count()) {
            4 => self.grade_width::<4>(patterns, tabled, feed, &mut obs),
            _ => self.grade_width::<1>(patterns, tabled, feed, &mut obs),
        };
        let detected = result.detected_count() as u64;
        self.flush(&mut obs, result.first_detected.len(), patterns, &work);
        obs.count("detected", detected);
        obs.count("dropped", detected);
        obs.gauge("coverage", result.coverage());
        obs.exit();
        result
    }

    /// [`Ppsfp::grade`] monomorphized for one wide-block width: builds
    /// the baseline, the workers and (if `tabled`) the block-0 table
    /// once, then partitions each chunk across the workers and
    /// concatenates the results in chunk order.
    fn grade_width<const W: usize>(
        &self,
        patterns: &PatternSet,
        tabled: bool,
        feed: impl FnOnce(&mut dyn FnMut(&[Fault])),
        obs: &mut Obs<'_>,
    ) -> (DetectionResult, WorkCounters) {
        obs.enter("fault_sim.baseline");
        let baseline = self.baseline::<W>(patterns);
        obs.exit();
        obs.enter("fault_sim.observability");
        let mut workers = Vec::new();
        let table = (tabled && !baseline.blocks.is_empty())
            .then(|| self.observability_table(&mut workers, &baseline));
        let build = merged_counters(&workers);
        obs.count("tabled_gates", table.as_ref().map_or(0, Vec::len) as u64);
        obs.count("words_folded", build.words_folded);
        obs.count("clean_cuts", self.cuts.len() as u64);
        obs.count("lanes_resolved", build.lanes_resolved);
        obs.exit();
        obs.enter("fault_sim.propagate");
        let table = table.as_deref();
        let mut site_of = vec![u32::MAX; self.netlist.gate_count()];
        let mut first_detected: Vec<Option<usize>> = Vec::new();
        feed(&mut |chunk| {
            let at = first_detected.len();
            first_detected.resize(at + chunk.len(), None);
            self.run_partitioned(
                &mut workers,
                &mut site_of,
                chunk,
                &mut first_detected[at..],
                |worker, fault| worker.detect(fault, &baseline, table),
            );
        });
        obs.exit();
        let result = DetectionResult {
            first_detected,
            pattern_count: patterns.len(),
        };
        (result, merged_counters(&workers))
    }

    /// Full-syndrome fault simulation: for every fault, the complete set
    /// of `(pattern, output)` observations it corrupts (no dropping) —
    /// the payload a [`crate::FaultDictionary`] needs.
    ///
    /// # Panics
    ///
    /// Panics if the pattern width disagrees with the netlist, or if the
    /// netlist has more than 65,534 primary outputs: a syndrome stores
    /// output positions as `u16`.
    #[must_use]
    pub fn run_syndromes(
        &self,
        patterns: &PatternSet,
        faults: &[Fault],
    ) -> Vec<BTreeSet<(u32, u16)>> {
        self.run_syndromes_with(patterns, faults, None)
    }

    /// [`Ppsfp::run_syndromes`] feeding telemetry to an optional
    /// collector (the `fault_sim.ppsfp` span and work counters of
    /// [`Ppsfp::run_with`], plus `syndrome_bits` for the total
    /// observations collected; no `detected`/`dropped` since syndromes
    /// never drop, and no table or memo, since a syndrome needs every
    /// output's difference rather than their union).
    ///
    /// # Panics
    ///
    /// Panics if the pattern width disagrees with the netlist, or if the
    /// netlist has more than 65,534 primary outputs: a syndrome stores
    /// output positions as `u16`.
    #[must_use]
    pub fn run_syndromes_with(
        &self,
        patterns: &PatternSet,
        faults: &[Fault],
        obs: Option<&mut dyn Collector>,
    ) -> Vec<BTreeSet<(u32, u16)>> {
        assert!(
            self.netlist.primary_outputs().len() < usize::from(u16::MAX),
            "more than 65534 primary outputs"
        );
        let mut obs = Obs::new(obs);
        obs.enter("fault_sim.ppsfp");
        let (syndromes, work) = match lane_words(patterns.block_count()) {
            4 => self.syndromes_width::<4>(patterns, faults),
            _ => self.syndromes_width::<1>(patterns, faults),
        };
        self.flush(&mut obs, faults.len(), patterns, &work);
        obs.count(
            "syndrome_bits",
            syndromes.iter().map(|s| s.len() as u64).sum(),
        );
        obs.exit();
        syndromes
    }

    /// [`Ppsfp::run_syndromes_with`] monomorphized for one width.
    fn syndromes_width<const W: usize>(
        &self,
        patterns: &PatternSet,
        faults: &[Fault],
    ) -> (Vec<BTreeSet<(u32, u16)>>, WorkCounters) {
        let baseline = self.baseline::<W>(patterns);
        // Gate index → primary-output position (`u16::MAX` if none).
        let mut output_of = vec![u16::MAX; self.netlist.gate_count()];
        for (oi, &(g, _)) in self.netlist.primary_outputs().iter().enumerate() {
            output_of[g.index()] = oi as u16;
        }
        let mut workers = Vec::new();
        let mut site_of = vec![u32::MAX; self.netlist.gate_count()];
        let mut syndromes = vec![BTreeSet::new(); faults.len()];
        self.run_partitioned(
            &mut workers,
            &mut site_of,
            faults,
            &mut syndromes,
            |worker, fault| worker.syndromes(fault, &baseline, &output_of),
        );
        (syndromes, merged_counters(&workers))
    }

    /// Flushes the merged worker counters into a collector.
    fn flush(
        &self,
        obs: &mut Obs<'_>,
        fault_count: usize,
        patterns: &PatternSet,
        w: &WorkCounters,
    ) {
        obs.count("faults", fault_count as u64);
        obs.count("patterns", patterns.len() as u64);
        obs.count("good_evals", patterns.block_count() as u64);
        obs.count("lane_words", lane_words(patterns.block_count()) as u64);
        obs.count("cones_loaded", w.cones_loaded);
        obs.count("block_scans", w.block_scans);
        obs.count("excited_blocks", w.excited_blocks);
        obs.count("words_folded", w.words_folded);
        obs.count("collapse_points", w.collapse_points);
        obs.count("memo_hits", w.memo_hits);
    }

    /// Computes the good-machine baseline in wide blocks, band-major:
    /// each level band is swept across every wide block before the next
    /// band runs (the cache-blocked levelized sweep).
    fn baseline<const W: usize>(&self, patterns: &PatternSet) -> Baseline<W> {
        assert_eq!(
            patterns.input_count(),
            self.netlist.primary_inputs().len(),
            "pattern width must match primary input count"
        );
        let nb = patterns.block_count();
        let wide_count = nb.div_ceil(W);
        let mut blocks = Vec::with_capacity(wide_count);
        let mut lane_masks = Vec::with_capacity(wide_count);
        for wb in 0..wide_count {
            let mut vals = vec![[0u64; W]; self.kernel.slot_count()];
            self.kernel.init_constants_wide(&mut vals);
            for (i, &slot) in self.kernel.pi_slots().iter().enumerate() {
                let mut wide = [0u64; W];
                for (w, lane) in wide.iter_mut().enumerate() {
                    let b = wb * W + w;
                    if b < nb {
                        *lane = patterns.block(b)[i];
                    }
                }
                vals[slot as usize] = wide;
            }
            blocks.push(vals);
            let mut mask = [0u64; W];
            for (w, m) in mask.iter_mut().enumerate() {
                let b = wb * W + w;
                if b < nb {
                    let lanes = patterns.lanes_in_block(b);
                    *m = if lanes == 64 {
                        u64::MAX
                    } else {
                        (1u64 << lanes) - 1
                    };
                }
            }
            lane_masks.push(mask);
        }
        let bands = self.kernel.level_bands_for_width(W);
        self.kernel.eval_blocks_banded(&bands, &mut blocks);
        Baseline { blocks, lane_masks }
    }

    /// Runs `per_fault` over every fault of one chunk, partitioned by
    /// fault-site group across the engine's worker count (resolved by
    /// [`Ppsfp::with_options`], capped by the chunk's group count),
    /// writing each fault's result to its position in `out`.
    /// Groups run downstream-first: in descending op order of their
    /// site, sources last. `workers` carries the run's workers from chunk
    /// to chunk and grows to the largest thread count a chunk uses;
    /// `site_of`, the run's gate-indexed site map, is all `u32::MAX`
    /// between chunks.
    fn run_partitioned<'w, const W: usize, R, F>(
        &'w self,
        workers: &mut Vec<Worker<'w, W>>,
        site_of: &mut [u32],
        faults: &[Fault],
        out: &mut [R],
        per_fault: F,
    ) where
        R: Send,
        F: Fn(&mut Worker<'w, W>, Fault) -> R + Sync,
    {
        debug_assert_eq!(out.len(), faults.len(), "one result per fault");
        // Sites numbered by first appearance, then a counting sort lays
        // each site's fault indices out contiguously.
        let mut roots: Vec<u32> = Vec::new();
        let mut start = vec![0u32];
        let sites: Vec<u32> = faults
            .iter()
            .map(|f| {
                let site = &mut site_of[f.site.gate.index()];
                if *site == u32::MAX {
                    *site = roots.len() as u32;
                    roots.push(f.site.gate.index() as u32);
                    start.push(0);
                }
                start[*site as usize + 1] += 1;
                *site
            })
            .collect();
        for &root in &roots {
            site_of[root as usize] = u32::MAX;
        }
        for g in 1..start.len() {
            start[g] += start[g - 1];
        }
        let mut fill = start.clone();
        let mut members = vec![0u32; faults.len()];
        for (fi, &g) in sites.iter().enumerate() {
            members[fill[g as usize] as usize] = fi as u32;
            fill[g as usize] += 1;
        }
        // Keyed by first appearance too, so the unstable sort keeps the
        // sources in that order.
        let mut order: Vec<(Reverse<i64>, usize)> = roots
            .iter()
            .enumerate()
            .map(|(g, &root)| {
                let site = GateId::from_index(root as usize);
                (
                    Reverse(self.kernel.op_of_gate(site).map_or(-1, |op| op as i64)),
                    g,
                )
            })
            .collect();
        order.sort_unstable();
        // The `k`-th group to run: its site and its faults.
        let group = |k: usize| {
            order
                .get(k)
                .map(|&(_, g)| (roots[g], &members[start[g] as usize..start[g + 1] as usize]))
        };

        let threads = self.hire(workers, roots.len());
        if threads == 1 {
            let worker = &mut workers[0];
            for (root, fids) in (0..).map_while(group) {
                worker.load_group(root);
                for &fi in fids {
                    out[fi as usize] = per_fault(worker, faults[fi as usize]);
                }
            }
        } else {
            let cursor = AtomicUsize::new(0);
            let (cursor, group, per_fault) = (&cursor, &group, &per_fault);
            let outs = std::thread::scope(|s| {
                let handles: Vec<_> = workers[..threads]
                    .iter_mut()
                    .map(|worker| {
                        s.spawn(move || {
                            let mut out: Vec<(u32, R)> = Vec::new();
                            while let Some((root, fids)) =
                                group(cursor.fetch_add(1, Ordering::Relaxed))
                            {
                                worker.load_group(root);
                                for &fi in fids {
                                    out.push((fi, per_fault(worker, faults[fi as usize])));
                                }
                            }
                            out
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("ppsfp worker panicked"))
                    .collect::<Vec<_>>()
            });
            for (fi, r) in outs.into_iter().flatten() {
                out[fi as usize] = r;
            }
        }
    }

    /// The worker count for `tasks` independent tasks — the engine's
    /// worker count, resolved once by [`Ppsfp::with_options`], capped by
    /// `tasks` — with `workers` grown to at least that many.
    fn hire<'w, const W: usize>(&'w self, workers: &mut Vec<Worker<'w, W>>, tasks: usize) -> usize {
        let threads = self.threads.clamp(1, tasks.max(1));
        while workers.len() < threads {
            workers.push(Worker::new(self));
        }
        threads
    }

    /// Wide block 0's observability table: `obs(g)` on every lane, for
    /// every gate (see the module docs). A gate is tabled once every op
    /// reading it is, so its propagation ends at its first collapse
    /// point past the gate, whose gate is downstream and tabled already.
    /// Gates whose readers are all tabled are independent of each other
    /// — every gate of a level is, once the deeper levels are done — so
    /// at `threads > 1` the workers pull them from one shared ready
    /// list, each folding on its own working copy. The table and the
    /// folds counted into `words_folded` are the same whatever the
    /// order.
    fn observability_table<'w, const W: usize>(
        &'w self,
        workers: &mut Vec<Worker<'w, W>>,
        baseline: &Baseline<W>,
    ) -> ObsTable<W> {
        let n = self.netlist.gate_count();
        let table: ObsTable<W> = (0..n)
            .map(|_| std::array::from_fn(|_| AtomicU64::new(0)))
            .collect();
        // Per gate, the reader ops not yet tabled; the gates no op reads
        // are ready from the start.
        let untabled: Vec<AtomicU32> = (0..n)
            .map(|g| AtomicU32::new(self.reader_ops(g).len() as u32))
            .collect();
        let ready = Mutex::new(
            (0..n as u32)
                .filter(|&g| self.reader_ops(g as usize).is_empty())
                .collect::<Vec<_>>(),
        );
        let left = AtomicUsize::new(n);
        let build = |worker: &mut Worker<'w, W>| {
            worker.ensure_work(baseline);
            while left.load(Ordering::Acquire) > 0 {
                let next = ready
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .pop();
                let Some(g) = next else {
                    std::thread::yield_now(); // another worker holds the rest
                    continue;
                };
                let entry = worker.tabulate(&table, g);
                for (word, value) in table[g as usize].iter().zip(entry) {
                    word.store(value, Ordering::Relaxed);
                }
                if let Some(op) = self.kernel.op_of_gate(GateId::from_index(g as usize)) {
                    let args = self.kernel.op_args(op);
                    for (k, &a) in args.iter().enumerate() {
                        if !args[..k].contains(&a)
                            && untabled[a as usize].fetch_sub(1, Ordering::AcqRel) == 1
                        {
                            ready
                                .lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner)
                                .push(a);
                        }
                    }
                }
                left.fetch_sub(1, Ordering::Release);
            }
        };
        let threads = self.hire(workers, n / TABLE_GATES_PER_WORKER);
        let (own, others) = workers[..threads]
            .split_first_mut()
            .expect("hire returns at least one worker");
        if others.is_empty() {
            build(own);
        } else {
            let build = &build;
            std::thread::scope(|s| {
                for worker in others {
                    s.spawn(move || build(worker));
                }
                build(own);
            });
        }
        table
    }
}

/// The workers' effort counters, summed.
fn merged_counters<const W: usize>(workers: &[Worker<'_, W>]) -> WorkCounters {
    let mut total = WorkCounters::default();
    for w in workers {
        total.merge(w.counters);
    }
    total
}

/// `a ^ b` word by word: the lanes on which two wide values differ.
#[inline]
fn differ<const W: usize>(a: [u64; W], b: [u64; W]) -> [u64; W] {
    std::array::from_fn(|w| a[w] ^ b[w])
}

/// `a & b` word by word.
#[inline]
fn and<const W: usize>(a: [u64; W], b: [u64; W]) -> [u64; W] {
    std::array::from_fn(|w| a[w] & b[w])
}

/// A table entry's value.
#[inline]
fn load<const W: usize>(entry: &[AtomicU64; W]) -> [u64; W] {
    std::array::from_fn(|w| entry[w].load(Ordering::Relaxed))
}

/// Where [`Worker::propagate`] looks up its collapse points.
#[derive(Clone, Copy)]
enum Lookup<'t, const W: usize> {
    /// Nowhere: the propagation runs to its end (syndromes).
    Nowhere,
    /// Wide block `wb`'s lazy memo, which records the points it cannot
    /// answer.
    Memo(usize),
    /// The block-0 table being built: it answers every collapse point
    /// past the root, whose gates are all tabled already.
    Table(&'t [[AtomicU64; W]]),
}

/// One wide block's lazy observability memo: for each gate, the lanes
/// whose observability is known and, within them, the observable ones
/// (see the module docs). Allocated on the first collapse point it
/// records.
#[derive(Clone, Default)]
struct ObsMemo<const W: usize> {
    /// Gate index → entry index, `u32::MAX` if none.
    entry_of: Vec<u32>,
    /// `(known lanes, observable lanes ⊆ known)` per recorded gate.
    entries: Vec<([u64; W], [u64; W])>,
}

impl<const W: usize> ObsMemo<W> {
    /// `lanes & obs(gate)` if the memo knows every lane of `lanes`.
    #[inline]
    fn lookup(&self, gate: usize, lanes: [u64; W]) -> Option<[u64; W]> {
        let &e = self.entry_of.get(gate)?;
        let (known, obs) = self.entries.get(e as usize)?;
        (0..W)
            .all(|w| lanes[w] & !known[w] == 0)
            .then(|| and(lanes, *obs))
    }

    /// Records that `obs ⊆ lanes` are the observable lanes of `gate`
    /// among `lanes`.
    fn record(&mut self, gate_count: usize, gate: usize, lanes: [u64; W], obs: [u64; W]) {
        debug_assert!((0..W).all(|w| obs[w] & !lanes[w] == 0), "obs outside lanes");
        if self.entry_of.is_empty() {
            self.entry_of = vec![u32::MAX; gate_count];
        }
        let e = &mut self.entry_of[gate];
        if *e == u32::MAX {
            *e = self.entries.len() as u32;
            self.entries.push(([0; W], [0; W]));
        }
        let (known, seen) = &mut self.entries[*e as usize];
        for w in 0..W {
            known[w] |= lanes[w];
            seen[w] |= obs[w];
        }
    }
}

/// Per-thread scratch state: the current fault site plus a private
/// mutable copy of the baseline that faulty values are written into
/// directly and rolled back from an undo list after every block — so
/// the hot loop reads one value array with no faulty/good merge branch.
/// Monomorphized per wide-block width; lives for a whole run.
///
/// There is no explicit cone computation: the engine's global reader
/// CSR ([`Ppsfp::reader_ops`]) restricts propagation to the fault's
/// structural fanout cone implicitly, because only readers of disturbed
/// slots are ever scheduled.
///
/// Workers sit side by side in one vector and each bumps its counters
/// and root per fault, so the struct is aligned to 128 bytes (two cache
/// lines, the span adjacent-line prefetch pairs): no two workers' hot
/// fields share a line.
#[repr(align(128))]
struct Worker<'a, const W: usize> {
    eng: &'a Ppsfp<'a>,
    root: u32,
    /// The root gate's own op, if it has one (None for sources/storage).
    root_op: Option<u32>,
    /// First event-bitset word the root's readers can occupy — the scan
    /// start (all later events sit at strictly higher op indices).
    root_word: usize,
    /// Worker-private baseline copy. Propagation mutates it in place and
    /// [`Worker::revert`] restores it bit-for-bit, so between blocks it
    /// always equals the shared baseline.
    work: Vec<Vec<[u64; W]>>,
    /// `(slot, baseline value)` of every slot overwritten this block.
    /// Each slot appears at most once (the event loop folds each op at
    /// most once per block), so restore order is irrelevant.
    undo: Vec<(u32, [u64; W])>,
    /// Event bitset over op indices: bit set = op has a disturbed
    /// driver and must be folded. Always all-zero between blocks (every
    /// set bit is consumed by the propagate loop, and a memo answer
    /// only ends the loop when no bit is pending).
    sched: Vec<u64>,
    /// `(slot, baseline value)` of primary outputs disturbed in the
    /// current block, collected while writing so detection touches only
    /// them instead of scanning every output in the cone.
    touched_outputs: Vec<(u32, [u64; W])>,
    /// The current propagation's unanswered collapse points: `(gate,
    /// changed lanes, touched_outputs.len() before the gate's write)`.
    points: Vec<(u32, [u64; W], u32)>,
    /// `undo` positions of the gates the table build wrote whose readers
    /// lie past the first clean cut after them ([`Ppsfp::past_cut`]):
    /// the candidates for the live gates at the next cut the event loop
    /// crosses, which drops those no longer live.
    live: Vec<u32>,
    /// One lazy observability memo per wide block (block 0's stays
    /// empty when the run tables that block).
    memo: Vec<ObsMemo<W>>,
    /// Thread-private effort counters.
    counters: WorkCounters,
}

impl<'a, const W: usize> Worker<'a, W> {
    fn new(eng: &'a Ppsfp<'a>) -> Self {
        Worker {
            eng,
            root: 0,
            root_op: None,
            root_word: 0,
            work: Vec::new(),
            undo: Vec::new(),
            sched: vec![0; eng.kernel.op_count().div_ceil(64)],
            touched_outputs: Vec::new(),
            points: Vec::new(),
            live: Vec::new(),
            memo: Vec::new(),
            counters: WorkCounters::default(),
        }
    }

    /// Points the worker at a fault-site gate. O(fanout of the site):
    /// all propagation structure is global and precomputed.
    fn load_group(&mut self, root: u32) {
        self.counters.cones_loaded += 1;
        self.point_at(root);
    }

    /// Makes `root` the gate that [`Worker::propagate`] forces.
    fn point_at(&mut self, root: u32) {
        self.root = root;
        self.root_op = self
            .eng
            .kernel
            .op_of_gate(GateId::from_index(root as usize))
            .map(|op| op as u32);
        self.root_word = self
            .eng
            .reader_ops(root as usize)
            .iter()
            .map(|&q| q as usize / 64)
            .min()
            .unwrap_or(0);
    }

    /// Sets the event bits of `slot`'s readers, returning how many were
    /// not already pending.
    #[inline]
    fn schedule(&mut self, slot: usize) -> u32 {
        let mut fresh = 0;
        for &q in self.eng.reader_ops(slot) {
            let (word, bit) = (q as usize / 64, 1u64 << (q % 64));
            fresh += u32::from(self.sched[word] & bit == 0);
            self.sched[word] |= bit;
        }
        fresh
    }

    /// Overwrites `slot` with its faulty value, logging the baseline
    /// value for [`Worker::revert`] (and for detection, if it is an
    /// output).
    #[inline]
    fn write(&mut self, work: &mut [[u64; W]], slot: usize, value: [u64; W]) {
        let old = work[slot];
        self.undo.push((slot as u32, old));
        if self.eng.is_output[slot] {
            self.touched_outputs.push((slot as u32, old));
        }
        work[slot] = value;
    }

    /// Clones the shared baseline into this worker's mutable working
    /// copy and sizes the memo. Runs at most once per worker per run:
    /// every propagate is rolled back, so once cloned the copy stays
    /// equal to the baseline between blocks.
    fn ensure_work(&mut self, baseline: &Baseline<W>) {
        if self.work.len() != baseline.blocks.len() {
            self.work = baseline.blocks.clone();
            self.memo = vec![ObsMemo::default(); baseline.blocks.len()];
        }
    }

    /// Restores the working block to baseline by replaying the undo log.
    fn revert(&mut self, work: &mut [[u64; W]]) {
        for (slot, old) in self.undo.drain(..) {
            work[slot as usize] = old;
        }
    }

    /// The wide value `fault` forces on its site gate's output in this
    /// block, or `None` when the fault is invisible to the combinational
    /// frame (a stuck data pin on a storage element corrupts the
    /// *captured* state only).
    fn faulty_root(&self, fault: Fault, work: &[[u64; W]]) -> Option<[u64; W]> {
        match fault.site.pin {
            // Forced output block (source or logic gate alike). Tail
            // lanes are forced too; they are masked at detection.
            Pin::Output => Some(stuck_wide::<W>(fault.stuck)),
            Pin::Input(p) => self.root_op.map(|op| {
                self.eng.kernel.fold_op_forced(
                    op as usize,
                    work,
                    usize::from(p),
                    stuck_wide::<W>(fault.stuck),
                )
            }),
        }
    }

    /// Forces the root to `fw` (which must differ from its baseline
    /// value) in the working block `work` and event-propagates through
    /// the cone, overwriting disturbed slots in place and logging their
    /// baseline values in `undo`; the caller must [`revert`].
    ///
    /// Every collapse point consults `lookup` (see [`Worker::collapse`]):
    /// an answer ends the propagation and is returned (the output lanes
    /// the rest of the cone would have disturbed). Without one the
    /// propagation runs to the end and returns zero. The table build
    /// also answers lanes at clean cuts ([`Worker::resolve`]); those
    /// answers are part of the return value.
    ///
    /// [`revert`]: Worker::revert
    fn propagate(
        &mut self,
        fw: [u64; W],
        work: &mut [[u64; W]],
        lookup: Lookup<'_, W>,
    ) -> [u64; W] {
        debug_assert!(self.undo.is_empty(), "previous block not reverted");
        self.touched_outputs.clear();
        self.points.clear();
        self.live.clear();
        let eng = self.eng;
        let kernel = &eng.kernel;
        // Event loop: always pop the lowest pending bit from the LIVE
        // bitset word (never a stale local copy, which could leapfrog an
        // event scheduled mid-word at a lower index). Ascending bit
        // position is ascending op index is levelized order, and a fold
        // only schedules strictly higher indices (readers sit at higher
        // levels), so indices at or below the current minimum can never
        // be re-set: every op is folded at most once per block, after
        // all of its disturbed drivers, and the bitset drains to
        // all-zero by exit. A fold reads `work` directly — disturbed
        // drivers already hold their final faulty value, everything else
        // is baseline — and `work[dst]` still holds baseline (each dst
        // has exactly one driver op, folded at most once), so the
        // compare with it is the disturbance test. `pending` counts the
        // set bits, so the scan stops at the last event and a changed
        // fold with nothing else pending is a collapse point. Telemetry
        // stays in a register-resident local, folded into the worker
        // counter once per block.
        let mut folded = 0u64;
        let root = self.root as usize;
        // The table build also resolves lanes at every clean cut past the
        // root's last reader (see [`Worker::resolve`]): `next` indexes
        // the first of them in `eng.cuts`, and `cut` is its op index, or
        // `usize::MAX` once none is left and for every other lookup.
        let mut next = match lookup {
            Lookup::Table(_) => eng
                .reader_ops(root)
                .last()
                .map_or(eng.cuts.len(), |&hi| eng.cuts.partition_point(|&c| c <= hi)),
            _ => eng.cuts.len(),
        };
        let mut cut = eng.cuts.get(next).map_or(usize::MAX, |&c| c as usize);
        let mut answered = [0; W];
        let tail = 'events: {
            if let Some(tail) = self.collapse(lookup, root, differ(fw, work[root])) {
                break 'events tail;
            }
            self.write(work, root, fw);
            let mut pending = self.schedule(root);
            let mut wi = self.root_word;
            while pending > 0 {
                let word = self.sched[wi];
                if word == 0 {
                    wi += 1;
                    continue;
                }
                self.sched[wi] = word & (word - 1);
                pending -= 1;
                let op = wi * 64 + word.trailing_zeros() as usize;
                if op >= cut {
                    if let Lookup::Table(table) = lookup {
                        // Every event below the last cut at or before
                        // `op` is folded.
                        while eng.cuts.get(next + 1).is_some_and(|&c| c as usize <= op) {
                            next += 1;
                        }
                        let left =
                            self.resolve(table, eng.cuts[next] as usize, work, &mut answered);
                        next += 1;
                        cut = eng.cuts.get(next).map_or(usize::MAX, |&c| c as usize);
                        if !left {
                            // Every pending event would fold to baseline.
                            while pending > 0 {
                                pending -= self.sched[wi].count_ones();
                                self.sched[wi] = 0;
                                wi += 1;
                            }
                            break 'events [0; W];
                        }
                    }
                }
                let out = kernel.fold_op(op, work);
                folded += 1;
                let dst = kernel.op_dst(op) as usize;
                if out == work[dst] {
                    continue;
                }
                if pending == 0 {
                    if let Some(tail) = self.collapse(lookup, dst, differ(out, work[dst])) {
                        break 'events tail;
                    }
                }
                self.write(work, dst, out);
                if cut != usize::MAX && eng.past_cut[dst] {
                    self.live.push(self.undo.len() as u32 - 1);
                }
                pending += self.schedule(dst);
            }
            [0; W]
        };
        self.counters.words_folded += folded * W as u64;
        std::array::from_fn(|w| tail[w] | answered[w])
    }

    /// The table build's step at clean cut `cut`, which the event loop
    /// has just crossed past the root's last reader. Every gate written
    /// so far has had all of its readers folded, and can change nothing
    /// still to come, or none: it is *live*. Past the cut the faulty
    /// machine is the good machine with the live gates flipped on their
    /// changed lanes, and folds are lane-independent, so on a lane where
    /// exactly one live gate `h` differs, the output difference still to
    /// come is `obs(h)` on that lane. Such a lane is answered from
    /// `table` into `answered` and restored to its good value in `h`, so
    /// the rest of the propagation no longer carries it. Returns whether
    /// any live gate still differs on some lane.
    fn resolve(
        &mut self,
        table: &[[AtomicU64; W]],
        cut: usize,
        work: &mut [[u64; W]],
        answered: &mut [u64; W],
    ) -> bool {
        let (eng, undo) = (self.eng, &self.undo);
        self.live
            .retain(|&u| eng.reader_ops(undo[u as usize].0 as usize)[0] as usize >= cut);
        let (mut once, mut twice) = ([0u64; W], [0u64; W]);
        for &u in &self.live {
            let (slot, old) = undo[u as usize];
            let d = differ(work[slot as usize], old);
            for w in 0..W {
                twice[w] |= once[w] & d[w];
                once[w] |= d[w];
            }
        }
        let single: [u64; W] = std::array::from_fn(|w| once[w] & !twice[w]);
        if single != [0; W] {
            for &u in &self.live {
                let (slot, old) = undo[u as usize];
                let lanes = and(differ(work[slot as usize], old), single);
                if lanes != [0; W] {
                    let obs = load(&table[slot as usize]);
                    for w in 0..W {
                        answered[w] |= lanes[w] & obs[w];
                        work[slot as usize][w] ^= lanes[w];
                        self.counters.lanes_resolved += u64::from(lanes[w].count_ones());
                    }
                }
            }
        }
        twice != [0; W]
    }

    /// A collapse point: the disturbance has narrowed to `gate` changing
    /// on `lanes`, with no other event pending. Returns `lanes &
    /// obs(gate)` if `lookup` knows it; a memo that does not queues the
    /// point for [`Worker::observe`] to record. The table being built
    /// answers every point but the root's own, whose entry is the one
    /// being computed.
    #[inline]
    fn collapse(
        &mut self,
        lookup: Lookup<'_, W>,
        gate: usize,
        lanes: [u64; W],
    ) -> Option<[u64; W]> {
        match lookup {
            Lookup::Nowhere => None,
            Lookup::Table(table) => {
                (gate != self.root as usize).then(|| and(lanes, load(&table[gate])))
            }
            Lookup::Memo(wb) => {
                self.counters.collapse_points += 1;
                if let Some(obs) = self.memo[wb].lookup(gate, lanes) {
                    self.counters.memo_hits += 1;
                    return Some(obs);
                }
                self.points
                    .push((gate as u32, lanes, self.touched_outputs.len() as u32));
                None
            }
        }
    }

    /// The OR over primary outputs of the faulty-vs-good difference with
    /// the root forced to `fw` in the working block `work`, propagated
    /// through `lookup`. Every queued collapse point learns its
    /// observable lanes on the way out: the outputs touched after it,
    /// plus the answer that ended the propagation, if any.
    fn observe(&mut self, lookup: Lookup<'_, W>, fw: [u64; W], work: &mut [[u64; W]]) -> [u64; W] {
        let mut diff = self.propagate(fw, work, lookup);
        let mut t = self.touched_outputs.len();
        let gate_count = self.eng.netlist.gate_count();
        let mut learn = |diff: &mut [u64; W], before: usize| {
            while t > before {
                t -= 1;
                let (slot, old) = self.touched_outputs[t];
                let changed = differ(work[slot as usize], old);
                for w in 0..W {
                    diff[w] |= changed[w];
                }
            }
        };
        if let Lookup::Memo(wb) = lookup {
            for &(gate, lanes, before) in self.points.iter().rev() {
                learn(&mut diff, before as usize);
                self.memo[wb].record(gate_count, gate as usize, lanes, diff);
            }
        }
        // The memo's root is its first point; the table's is none.
        learn(&mut diff, 0);
        self.revert(work);
        diff
    }

    /// `obs(gate)` on every lane of wide block 0, for the table: the
    /// gate flipped on all lanes, propagated to its first collapse point
    /// past itself. Every gate at a higher level must be in `table`.
    fn tabulate(&mut self, table: &[[AtomicU64; W]], gate: u32) -> [u64; W] {
        if !self.eng.reaches_output[gate as usize] {
            return [0; W];
        }
        self.point_at(gate);
        let mut blocks = std::mem::take(&mut self.work);
        let block = &mut blocks[0];
        let flipped = block[gate as usize].map(|v| !v);
        let obs = self.observe(Lookup::Table(table), flipped, block);
        self.work = blocks;
        obs
    }

    /// First detecting pattern of `fault`, or `None`. Block 0 answers
    /// from `table` when the run built one. The wide pattern index
    /// decomposes as `(wide_block × W + word) × 64 + lane`, so scanning
    /// blocks, then words, then trailing zeros yields the same "first
    /// detecting pattern" the 64-lane engine reports.
    fn detect(
        &mut self,
        fault: Fault,
        baseline: &Baseline<W>,
        table: Option<&[[AtomicU64; W]]>,
    ) -> Option<usize> {
        let root = self.root as usize;
        if !self.eng.reaches_output[root] {
            return None; // no structural path to any output
        }
        self.ensure_work(baseline);
        let mut blocks = std::mem::take(&mut self.work);
        let mut first = None;
        for (wb, block) in blocks.iter_mut().enumerate() {
            self.counters.block_scans += 1;
            let Some(fw) = self.faulty_root(fault, block) else {
                break; // frame-invisible: true for every block
            };
            let lanes = differ(fw, block[root]);
            if lanes == [0; W] {
                continue; // not excited this block
            }
            self.counters.excited_blocks += 1;
            let diff = match table {
                Some(table) if wb == 0 => {
                    self.counters.collapse_points += 1;
                    self.counters.memo_hits += 1;
                    and(lanes, load(&table[root]))
                }
                _ => self.observe(Lookup::Memo(wb), fw, block),
            };
            let mask = &baseline.lane_masks[wb];
            for w in 0..W {
                let d = diff[w] & mask[w];
                if d != 0 {
                    first = Some((wb * W + w) * 64 + d.trailing_zeros() as usize);
                    break;
                }
            }
            if first.is_some() {
                break; // dropped: later blocks are never simulated
            }
        }
        self.work = blocks;
        first
    }

    /// Every `(pattern, output)` observation `fault` corrupts, naming
    /// outputs by their position in `output_of` (gate index → position).
    fn syndromes(
        &mut self,
        fault: Fault,
        baseline: &Baseline<W>,
        output_of: &[u16],
    ) -> BTreeSet<(u32, u16)> {
        let mut syn = BTreeSet::new();
        if !self.eng.reaches_output[self.root as usize] {
            return syn;
        }
        self.ensure_work(baseline);
        let mut blocks = std::mem::take(&mut self.work);
        for (wb, block) in blocks.iter_mut().enumerate() {
            self.counters.block_scans += 1;
            let Some(fw) = self.faulty_root(fault, block) else {
                break;
            };
            if fw == block[self.root as usize] {
                continue;
            }
            self.counters.excited_blocks += 1;
            self.propagate(fw, block, Lookup::Nowhere);
            for &(slot, ref old) in &self.touched_outputs {
                let oi = output_of[slot as usize];
                let f = &block[slot as usize];
                for w in 0..W {
                    let mut diff = (f[w] ^ old[w]) & baseline.lane_masks[wb][w];
                    while diff != 0 {
                        let lane = diff.trailing_zeros();
                        syn.insert((((wb * W + w) * 64) as u32 + lane, oi));
                        diff &= diff - 1;
                    }
                }
            }
            self.revert(block);
        }
        self.work = blocks;
        syn
    }
}

/// Fault-simulates with the PPSFP engine (wide pattern blocks per fault,
/// cone-restricted, fault-dropping, threaded).
///
/// Produces the same [`DetectionResult`] as [`crate::simulate`]; prefer
/// this engine whenever the workload is large.
///
/// # Errors
///
/// Returns [`LevelizeError`] on combinational cycles.
///
/// # Panics
///
/// Panics if the pattern width disagrees with the netlist.
pub fn ppsfp(
    netlist: &Netlist,
    patterns: &PatternSet,
    faults: &[Fault],
) -> Result<DetectionResult, LevelizeError> {
    Ok(Ppsfp::new(netlist)?.run(patterns, faults))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, universe};
    use dft_netlist::circuits::{
        binary_counter, c17, full_adder, layered_random, majority, parity_tree,
        random_combinational, LayeredCircuit,
    };
    use dft_netlist::{GateKind, PortRef};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn exhaustive_patterns(n: usize) -> PatternSet {
        let rows: Vec<Vec<bool>> = (0..1usize << n)
            .map(|v| (0..n).map(|i| v >> i & 1 == 1).collect())
            .collect();
        PatternSet::from_rows(n, &rows)
    }

    #[test]
    fn agrees_with_serial_on_small_circuits() {
        for n in [c17(), full_adder(), majority(), parity_tree(5)] {
            let faults = universe(&n);
            let p = exhaustive_patterns(n.primary_inputs().len());
            let a = simulate(&n, &p, &faults).unwrap();
            let b = ppsfp(&n, &p, &faults).unwrap();
            assert_eq!(a, b, "ppsfp disagrees on {}", n.name());
        }
    }

    #[test]
    fn agrees_with_serial_on_random_logic_all_thread_counts() {
        for seed in 0..3 {
            let n = random_combinational(12, 180, seed);
            let faults = universe(&n);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xF00D);
            let p = PatternSet::random(12, 150, &mut rng); // 3 blocks, ragged tail
            let reference = simulate(&n, &p, &faults).unwrap();
            for threads in [1, 2, 5] {
                let r = Ppsfp::with_options(&n, PpsfpOptions::new().with_threads(threads))
                    .unwrap()
                    .run(&p, &faults);
                assert_eq!(r, reference, "seed {seed} threads {threads}");
            }
        }
    }

    #[test]
    fn lane_width_switches_at_four_blocks() {
        // 192 patterns fill 3 blocks and stay on 64-lane words; 193
        // spill into a 4th block and switch to 256-lane wide blocks.
        let n = random_combinational(12, 220, 5);
        let faults = universe(&n);
        let eng = Ppsfp::with_options(&n, PpsfpOptions::new().with_threads(1)).unwrap();
        for (count, words) in [(192, 1), (193, 4)] {
            let mut rng = StdRng::seed_from_u64(0xBEEF);
            let p = PatternSet::random(12, count, &mut rng);
            let mut rec = dft_obs::Recorder::new();
            let r = eng.run_with(&p, &faults, Some(&mut rec));
            let report = rec.finish("width");
            let span = report.find("fault_sim.ppsfp").expect("span must exist");
            assert_eq!(span.counter("lane_words"), words, "{count} patterns");
            assert_eq!(r, simulate(&n, &p, &faults).unwrap(), "{count} patterns");
        }
    }

    #[test]
    fn streamed_runs_report_their_work() {
        let n = random_combinational(12, 220, 5);
        let faults = universe(&n);
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        let p = PatternSet::random(12, 300, &mut rng);
        let eng = Ppsfp::with_options(&n, PpsfpOptions::new().with_threads(1)).unwrap();
        let mut rec = dft_obs::Recorder::new();
        let r = eng.run_streamed_with(&p, faults.iter().copied(), 97, Some(&mut rec));
        assert_eq!(r, eng.run_streamed(&p, faults.iter().copied(), 97));
        let report = rec.finish("streamed");
        let span = report.find("fault_sim.ppsfp").expect("span must exist");
        let phases: Vec<&str> = span.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            phases,
            [
                "fault_sim.baseline",
                "fault_sim.observability",
                "fault_sim.propagate"
            ]
        );
        assert_eq!(span.counter("faults"), faults.len() as u64);
        assert_eq!(span.counter("detected"), r.detected_count() as u64);
        assert!(span.counter("words_folded") > 0);
        // The universe holds more than 1.5 faults per gate, and the
        // slice stream says how many: block 0 is tabled.
        let table = &span.children[1];
        assert_eq!(table.counter("tabled_gates"), n.gate_count() as u64);
        // Every excited block starts at a collapse point, its fault site.
        let (points, hits) = (span.counter("collapse_points"), span.counter("memo_hits"));
        assert!(points >= span.counter("excited_blocks"));
        assert!(0 < hits && hits <= points, "{hits} hits of {points} points");

        // A stream that cannot tell its length grades lazily, with the
        // same detections.
        let mut rec = dft_obs::Recorder::new();
        let unsized_stream = faults.iter().copied().filter(|_| true);
        let lazy = eng.run_streamed_with(&p, unsized_stream, 97, Some(&mut rec));
        assert_eq!(lazy, r);
        let report = rec.finish("lazy");
        let span = report.find("fault_sim.ppsfp").expect("span must exist");
        let table = span
            .find("fault_sim.observability")
            .expect("span must exist");
        assert_eq!(table.counter("tabled_gates"), 0);
    }

    #[test]
    fn zero_sized_chunks_grade_one_fault_at_a_time() {
        let n = random_combinational(10, 120, 4);
        let faults = universe(&n);
        let p = PatternSet::random(10, 200, &mut StdRng::seed_from_u64(4));
        let eng = Ppsfp::new(&n).unwrap();
        let one = eng.run_streamed(&p, faults.iter().copied(), 0);
        assert_eq!(one, eng.run_streamed(&p, faults.iter().copied(), 1));
        assert_eq!(one, simulate(&n, &p, &faults).unwrap());
    }

    #[test]
    fn any_output_count_grades_and_only_syndromes_refuse_past_u16() {
        // One input fanning out to 65,535 inverters, each a primary
        // output: one more than a syndrome's `u16` position holds.
        let mut n = dft_netlist::Netlist::new("wide");
        let a = n.add_input("a");
        for i in 0..usize::from(u16::MAX) {
            let g = n.add_gate(GateKind::Not, &[a]).unwrap();
            n.mark_output(g, format!("y{i}")).unwrap();
        }
        let faults = universe(&n);
        let eng = Ppsfp::new(&n).unwrap();
        let p = exhaustive_patterns(1);
        let r = eng.run(&p, &faults);
        assert_eq!(
            r.detected_count(),
            faults.len(),
            "every fault is detectable"
        );
        // The lazy path agrees with the tabled one.
        let lazy = eng.run_streamed(&p, faults.iter().copied().filter(|_| true), 4096);
        assert_eq!(lazy, r);
        let refused = std::panic::catch_unwind(|| eng.run_syndromes(&p, &faults[..1]));
        let message = refused.expect_err("syndromes store u16 output positions");
        assert_eq!(
            message.downcast_ref::<&str>(),
            Some(&"more than 65534 primary outputs")
        );
    }

    /// The block-0 table of `eng` over `p` at width `W`, its build's
    /// `words_folded` and the number of workers the build hired.
    fn table_of<const W: usize>(eng: &Ppsfp<'_>, p: &PatternSet) -> (Vec<[u64; W]>, u64, usize) {
        let baseline = eng.baseline::<W>(p);
        let mut workers = Vec::new();
        let table = eng.observability_table(&mut workers, &baseline);
        let folded = merged_counters(&workers).words_folded;
        (table.iter().map(load).collect(), folded, workers.len())
    }

    /// `obs(g)` on every lane of wide block 0 by brute force: `g`
    /// flipped and propagated to the end, no table or memo.
    fn brute_force_obs<const W: usize>(eng: &Ppsfp<'_>, p: &PatternSet) -> Vec<[u64; W]> {
        let baseline = eng.baseline::<W>(p);
        let mut worker = Worker::new(eng);
        worker.ensure_work(&baseline);
        let mut block = std::mem::take(&mut worker.work[0]);
        (0..eng.netlist.gate_count())
            .map(|g| {
                worker.point_at(g as u32);
                let flipped = block[g].map(|v| !v);
                worker.observe(Lookup::Nowhere, flipped, &mut block)
            })
            .collect()
    }

    #[test]
    fn the_table_is_exact_and_the_same_at_every_thread_count() {
        let circuits = [
            random_combinational(12, 600, 3),
            dft_netlist::circuits::layered_random(24, 700, 9),
        ];
        for n in &circuits {
            let mut rng = StdRng::seed_from_u64(7);
            let narrow = PatternSet::random(n.primary_inputs().len(), 50, &mut rng);
            let wide = PatternSet::random(n.primary_inputs().len(), 250, &mut rng);
            let engine = |threads| {
                Ppsfp::with_options(n, PpsfpOptions::new().with_threads(threads)).unwrap()
            };
            let (one, two, three) = (engine(1), engine(2), engine(3));
            let reference = table_of::<1>(&one, &narrow);
            assert_eq!(
                reference.0,
                brute_force_obs::<1>(&one, &narrow),
                "{}",
                n.name()
            );
            assert_eq!(reference.2, 1);
            for (threads, eng) in [(2, &two), (3, &three)] {
                let got = table_of::<1>(eng, &narrow);
                assert_eq!(got.2, threads, "{} hires {threads} workers", n.name());
                assert_eq!((&got.0, got.1), (&reference.0, reference.1), "{}", n.name());
            }
            let reference = table_of::<4>(&one, &wide);
            assert_eq!(
                reference.0,
                brute_force_obs::<4>(&one, &wide),
                "{}",
                n.name()
            );
            for eng in [&two, &three] {
                let got = table_of::<4>(eng, &wide);
                assert_eq!((&got.0, got.1), (&reference.0, reference.1), "{}", n.name());
            }
        }
    }

    /// The clean cuts and `past_cut` by their definitions, with each
    /// logic gate's reader ops read off the kernel's op records instead
    /// of the engine's reader CSR.
    #[test]
    fn clean_cuts_follow_their_definition() {
        let circuits = [
            c17(),
            random_combinational(12, 600, 3),
            layered_random(24, 700, 9),
            LayeredCircuit::new(8, 300).width(11).seed(4).build(),
            binary_counter(6),
        ];
        for n in &circuits {
            let eng = Ppsfp::new(n).unwrap();
            let k = &eng.kernel;
            let mut readers = vec![Vec::new(); n.gate_count()];
            for op in 0..k.op_count() {
                for &a in k.op_args(op) {
                    let logic = k.op_of_gate(GateId::from_index(a as usize)).is_some();
                    if logic && readers[a as usize].last() != Some(&op) {
                        readers[a as usize].push(op);
                    }
                }
            }
            let clean = |c: usize| {
                readers
                    .iter()
                    .all(|r| r.iter().all(|&q| q < c) || r.iter().all(|&q| q >= c))
            };
            let cuts: Vec<u32> = (1..k.op_count())
                .filter(|&c| clean(c))
                .map(|c| c as u32)
                .collect();
            assert_eq!(eng.cuts, cuts, "{}", n.name());
            for op in 0..k.op_count() {
                let g = k.op_dst(op) as usize;
                let past = cuts.iter().find(|&&c| c as usize > op).is_some_and(|&c| {
                    !readers[g].is_empty() && readers[g].iter().all(|&q| q >= c as usize)
                });
                assert_eq!(eng.past_cut[g], past, "{} gate {g}", n.name());
            }
        }
    }

    /// The `fault_sim.observability` span of `eng` grading `faults`
    /// against `p`, after checking the run against the serial engine.
    fn table_span(eng: &Ppsfp<'_>, p: &PatternSet, faults: &[Fault]) -> dft_obs::SpanNode {
        let mut rec = dft_obs::Recorder::new();
        let r = eng.run_with(p, faults, Some(&mut rec));
        assert_eq!(r, simulate(eng.netlist, p, faults).unwrap());
        let report = rec.finish("table");
        let span = report.find("fault_sim.ppsfp").expect("span must exist");
        let table = span
            .find("fault_sim.observability")
            .expect("span must exist");
        assert!(table.counter("words_folded") <= span.counter("words_folded"));
        assert_eq!(table.counter("clean_cuts"), eng.cuts.len() as u64);
        table.clone()
    }

    #[test]
    fn a_source_root_waits_for_its_last_reader() {
        // `a` is read at levels 1 and 3. Every op boundary is a clean
        // cut, since sources are left out; resolving `a`'s flip at one
        // before `y2` folds would answer every lane from `obs(g1)` and
        // drop `a`'s direct reader.
        let mut n = dft_netlist::Netlist::new("straddle");
        let [a, b, c] = ["a", "b", "c"].map(|name| n.add_input(name));
        let g1 = n.add_gate(GateKind::Not, &[a]).unwrap();
        let h1 = n.add_gate(GateKind::Buf, &[c]).unwrap();
        let g2 = n.add_gate(GateKind::Not, &[g1]).unwrap();
        let h2 = n.add_gate(GateKind::Buf, &[h1]).unwrap();
        let y1 = n.add_gate(GateKind::And, &[g2, b]).unwrap();
        let y2 = n.add_gate(GateKind::And, &[a, h2]).unwrap();
        let z = n.add_gate(GateKind::Or, &[y1, y2]).unwrap();
        n.mark_output(z, "z").unwrap();
        let eng = Ppsfp::with_options(&n, PpsfpOptions::new().with_threads(1)).unwrap();
        assert_eq!(eng.cuts, [1, 2, 3, 4, 5, 6]);
        let p = exhaustive_patterns(3);
        assert_eq!(table_of::<1>(&eng, &p).0, brute_force_obs::<1>(&eng, &p));
        // Only `a`'s flip meets a cut with two live gates: past `y2`,
        // where `y1` and `y2` differ on the lanes of `b` and `c`. The 4
        // of 8 patterns with `b != c` resolve there.
        let table = table_span(&eng, &p, &universe(&n));
        assert_eq!(table.counter("lanes_resolved"), 4);
    }

    #[test]
    fn a_layered_table_build_resolves_lanes_at_its_cuts() {
        let n = layered_random(24, 700, 9);
        let p = PatternSet::random(24, 250, &mut StdRng::seed_from_u64(7));
        let eng = Ppsfp::with_options(&n, PpsfpOptions::new().with_threads(1)).unwrap();
        let table = table_span(&eng, &p, &universe(&n));
        assert_eq!(table.counter("tabled_gates"), n.gate_count() as u64);
        assert!(table.counter("clean_cuts") >= 2, "three layers");
        assert!(table.counter("lanes_resolved") > 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Block 0 tabled, block 0 lazy, the public entry points (which
        /// choose by fault count) and the serial reference agree: random
        /// circuits, which have almost no clean cuts, or narrow layered
        /// ones, whose level boundaries all are; fault lists on both
        /// sides of the table's threshold, both lane widths with ragged
        /// tails, 1–4 threads, any chunking.
        #[test]
        fn tabled_lazy_and_serial_agree(
            seed in 0u64..1_000,
            layered in proptest::prelude::any::<bool>(),
            gates in 20usize..400,
            patterns in 1usize..600,
            quarter_faults_per_gate in 0usize..13,
            threads in 1usize..=4,
            chunk in 1usize..800,
        ) {
            use rand::Rng;
            let n = if layered {
                LayeredCircuit::new(10, gates).width(10 + seed as usize % 8).seed(seed).build()
            } else {
                random_combinational(10, gates, seed)
            };
            let all = universe(&n);
            let mut rng = StdRng::seed_from_u64(seed);
            let count = n.gate_count() * quarter_faults_per_gate / 4;
            let faults: Vec<Fault> = (0..count).map(|_| all[rng.gen_range(0..all.len())]).collect();
            let p = PatternSet::random(10, patterns, &mut rng);
            let serial = simulate(&n, &p, &faults).unwrap();
            let eng = Ppsfp::with_options(&n, PpsfpOptions::new().with_threads(threads)).unwrap();
            for tabled in [false, true] {
                let r = eng.grade(&p, tabled, |grade| faults.chunks(chunk).for_each(grade), None);
                proptest::prop_assert_eq!(&r, &serial, "tabled {}", tabled);
            }
            proptest::prop_assert_eq!(&eng.run(&p, &faults), &serial);
            let streamed = eng.run_streamed(&p, faults.iter().copied(), chunk);
            proptest::prop_assert_eq!(&streamed, &serial);
        }
    }

    #[test]
    fn redundant_fault_stays_undetected() {
        let mut n = dft_netlist::Netlist::new("redundant");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(GateKind::And, &[a, b]).unwrap();
        let y = n.add_gate(GateKind::Or, &[a, g]).unwrap();
        n.mark_output(y, "y").unwrap();
        let fault = Fault::stuck_at_0(PortRef::output(g));
        let r = ppsfp(&n, &exhaustive_patterns(2), &[fault]).unwrap();
        assert_eq!(r.first_detected, vec![None]);
    }

    #[test]
    fn pins_past_the_fanin_force_nothing_as_in_serial() {
        let n = c17();
        let g = n.primary_outputs()[0].0;
        let faults = [
            Fault::stuck_at_1(PortRef::input(g, 2)),
            Fault::stuck_at_0(PortRef::input(g, 9)),
        ];
        let p = exhaustive_patterns(5);
        let r = ppsfp(&n, &p, &faults).unwrap();
        assert_eq!(r, simulate(&n, &p, &faults).unwrap());
        assert_eq!(r.first_detected, vec![None, None]);
    }

    #[test]
    fn fault_off_every_output_cone_is_undetected() {
        // A dangling gate drives nothing: its faults cannot be observed.
        let mut n = dft_netlist::Netlist::new("t");
        let a = n.add_input("a");
        let dead = n.add_gate(GateKind::Not, &[a]).unwrap();
        let y = n.add_gate(GateKind::Buf, &[a]).unwrap();
        n.mark_output(y, "y").unwrap();
        let faults = [
            Fault::stuck_at_1(PortRef::output(dead)),
            Fault::stuck_at_0(PortRef::input(dead, 0)),
        ];
        let r = ppsfp(&n, &exhaustive_patterns(1), &faults).unwrap();
        assert_eq!(r.first_detected, vec![None, None]);
    }

    #[test]
    fn dff_data_pin_fault_is_frame_invisible() {
        // Matches the serial engine: a stuck DFF data pin corrupts capture
        // only, which single-frame grading does not observe.
        let mut n = dft_netlist::Netlist::new("t");
        let a = n.add_input("a");
        let q = n.add_dff(a).unwrap();
        let y = n.add_gate(GateKind::Xor, &[a, q]).unwrap();
        n.mark_output(y, "y").unwrap();
        let faults = universe(&n);
        let p = exhaustive_patterns(1);
        let a_r = simulate(&n, &p, &faults).unwrap();
        let b_r = ppsfp(&n, &p, &faults).unwrap();
        assert_eq!(a_r, b_r);
    }

    #[test]
    fn syndromes_match_brute_force() {
        let n = c17();
        let faults = universe(&n);
        let p = exhaustive_patterns(5);
        let eng = Ppsfp::new(&n).unwrap();
        let syn = eng.run_syndromes(&p, &faults);
        let view = crate::FaultyView::new(&n).unwrap();
        let outputs: Vec<_> = n.primary_outputs().iter().map(|&(g, _)| g).collect();
        for (fi, &f) in faults.iter().enumerate() {
            let mut expect = BTreeSet::new();
            for (pi, row) in p.iter().enumerate() {
                let words: Vec<u64> = row.iter().map(|&b| u64::from(b)).collect();
                let good = view.eval_block(&words, &[], None);
                let bad = view.eval_block(&words, &[], Some(f));
                for (oi, &g) in outputs.iter().enumerate() {
                    if (good[g.index()] ^ bad[g.index()]) & 1 != 0 {
                        expect.insert((pi as u32, oi as u16));
                    }
                }
            }
            assert_eq!(syn[fi], expect, "fault {f}");
        }
    }

    #[test]
    fn wide_syndromes_match_brute_force() {
        // 9 full blocks plus a 5-lane tail: the 256-lane path, with a
        // ragged final wide block.
        let n = random_combinational(10, 120, 13);
        let faults = universe(&n);
        let mut rng = StdRng::seed_from_u64(2);
        let p = PatternSet::random(10, 9 * 64 + 5, &mut rng);
        let syn = Ppsfp::new(&n).unwrap().run_syndromes(&p, &faults);
        let view = crate::FaultyView::new(&n).unwrap();
        let outputs: Vec<_> = n.primary_outputs().iter().map(|&(g, _)| g).collect();
        let good: Vec<Vec<u64>> = (0..p.block_count())
            .map(|b| view.eval_block(p.block(b), &[], None))
            .collect();
        for (fi, &f) in faults.iter().enumerate() {
            let mut expect = BTreeSet::new();
            for (b, good) in good.iter().enumerate() {
                let bad = view.eval_block(p.block(b), &[], Some(f));
                for lane in 0..p.lanes_in_block(b) {
                    for (oi, &g) in outputs.iter().enumerate() {
                        if (good[g.index()] ^ bad[g.index()]) >> lane & 1 != 0 {
                            expect.insert(((b * 64 + lane) as u32, oi as u16));
                        }
                    }
                }
            }
            assert_eq!(syn[fi], expect, "fault {f}");
        }
    }

    #[test]
    fn reusable_engine_matches_one_shot() {
        let n = random_combinational(10, 100, 9);
        let faults = universe(&n);
        let eng = Ppsfp::new(&n).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..3 {
            let p = PatternSet::random(10, 70, &mut rng);
            assert_eq!(eng.run(&p, &faults), ppsfp(&n, &p, &faults).unwrap());
        }
    }
}
