//! Model-checkable ports of the two concurrency-critical MAT protocols,
//! built on `speedybox-check`'s virtual primitives so the checker can
//! exhaustively enumerate interleavings within a preemption bound.
//!
//! Three protocols are distilled here:
//!
//! * [`FlowTableModel`] — the slab slot protocol of
//!   [`crate::flow_table::FlowTable`], shrunk to one shard, two FIDs and
//!   two slots but keeping every step that matters for the races: the
//!   direct FID index (`AtomicU32` holding slot + 1), the per-slot RCU
//!   value cell, the owner check on lookup, the shared-empty store that
//!   retires cleared values, the free-list recycle, and the writer mutex
//!   that serializes all structural changes. The proved invariants are the
//!   eviction-vs-rewrite atomicity of
//!   [`crate::flow_table::FlowTable::replace_if_present`] (a rewrite that
//!   loses to an eviction must not resurrect the entry) and index/slot
//!   agreement across slab recycling under a concurrent wait-free reader.
//! * [`ClassifierModel`] — the rule-generation publication protocol of
//!   [`crate::global::GlobalMat::process_batch`]'s flow-affinity memo: a
//!   batch reader resolves a flow's rule once and serves same-flow
//!   packets from the memo while the control plane republishes. The
//!   proved invariants are memo-run generation consistency and liveness
//!   of the memoized handle (the memo holds a strong clone, so a
//!   republication plus drain cannot free it).
//! * [`QuarantineModel`] — the NF-recovery quarantine/republish
//!   handshake of [`crate::global::GlobalMat::quarantine_nf`] and the
//!   platform supervisor's kill path: quarantine → sweep → restore →
//!   replay → reopen → republish, raced by a wait-free fast-path reader
//!   and a churn install. The proved invariant is that no reader ever
//!   serves a rule consolidated from restored-but-not-replayed NF state.
//!
//! Each model carries seeded-bug mutations ([`FtMutation`],
//! [`ClMutation`], [`QMutation`]) that weaken the protocol the way a plausible
//! refactoring would; the checker must catch every one, which is the
//! evidence a clean run means something. The correspondence argument
//! between these distillations and the real code is written out in
//! DESIGN.md §14.

use std::sync::Arc as StdArc;

use arcswap::model::{ArcSwapModel, Mutation as CellMutation};
use speedybox_check::{fact, raw_read, ModelArc, ModelAtomicUsize, ModelMutex, Ordering};

/// FIDs used by the distilled flow-table model.
const FIDS: usize = 2;
/// Slab slots. Two are enough to express recycling.
const SLOTS: usize = 2;

/// A slot's published state: empty, or `(owner fid, value)` — the model
/// twin of `flow_table::SlotVal`.
type SlotVal = Option<(usize, u64)>;

/// Seeded bugs for the flow-table slot protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FtMutation {
    /// Faithful port of the shipped protocol.
    None,
    /// `replace_if_present` releases the writer lock between its index
    /// check and its store — the TOCTOU a "shorten the critical section"
    /// refactoring would introduce. A rewrite can then lose to an
    /// eviction yet still publish, resurrecting the entry into a freed
    /// (and recyclable) slot.
    ToctouReplace,
    /// `clear_slot` forgets to reset the FID index cell, leaving the
    /// index pointing at an empty (and soon recycled) slot.
    SkipIndexReset,
}

/// Mutable shard-writer state, serialized behind the writer mutex —
/// the model twin of `flow_table::ShardWriter` (no timer wheel: recency
/// is not part of the proved invariants).
struct Writer {
    free: Vec<usize>,
    allocated: usize,
    live: usize,
}

/// Distilled one-shard [`crate::flow_table::FlowTable`]. See module docs
/// for what is kept and what is elided.
pub struct FlowTableModel {
    /// `index[fid]` holds slot + 1, or 0 when the FID is absent — the
    /// model twin of the `AtomicU32` FID-index cells.
    index: [ModelAtomicUsize; FIDS],
    /// Slot value cells, each the model twin of `Slot::val`.
    slots: [ArcSwapModel<SlotVal>; SLOTS],
    writer: ModelMutex<Writer>,
    /// Shared empty value: clearing a slot stores a clone of this, which
    /// retires the old `(fid, value)` through the slot's RCU path —
    /// exactly like `FlowTable::empty`.
    empty: ModelArc<SlotVal>,
    mutation: FtMutation,
}

impl std::fmt::Debug for FlowTableModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlowTableModel").field("mutation", &self.mutation).finish_non_exhaustive()
    }
}

impl FlowTableModel {
    /// Creates the empty distilled table (must run inside a checker
    /// execution).
    pub fn new(mutation: FtMutation) -> Self {
        FlowTableModel {
            index: [ModelAtomicUsize::new("ft.index0", 0), ModelAtomicUsize::new("ft.index1", 0)],
            slots: [
                ArcSwapModel::new("ft.slot0.empty", None, CellMutation::None),
                ArcSwapModel::new("ft.slot1.empty", None, CellMutation::None),
            ],
            writer: ModelMutex::new(
                "ft.writer",
                Writer { free: Vec::new(), allocated: 0, live: 0 },
            ),
            empty: ModelArc::new("ft.empty", None),
            mutation,
        }
    }

    /// Mirror of `FlowTable::read`: index load, borrowed slot-cell read
    /// (`ArcSwap::with`, no strong count taken), owner check. Wait-free —
    /// never touches the writer mutex.
    pub fn lookup(&self, fid: usize) -> Option<u64> {
        let slot_plus_one = self.index[fid].load(Ordering::SeqCst);
        if slot_plus_one == 0 {
            return None;
        }
        self.slots[slot_plus_one - 1].with(|val| match val.get() {
            // Owner check: the slot may have been recycled to a different
            // FID between the index load and the cell read; a mismatch
            // linearizes as "absent".
            Some((owner, value)) if owner == fid => Some(value),
            _ => None,
        })
    }

    /// Mirror of `FlowTable::insert` (fresh-entry path plus in-place
    /// replace), minus capacity/eviction policy.
    pub fn insert(&self, fid: usize, value: u64) {
        let mut w = self.writer.lock();
        let slot_plus_one = self.index[fid].load(Ordering::SeqCst);
        if slot_plus_one != 0 {
            // In-place replace: the old value retires through the slot's
            // RCU cell.
            self.slots[slot_plus_one - 1].store(ModelArc::new("ft.val", Some((fid, value))));
            return;
        }
        let slot = w.free.pop().unwrap_or_else(|| {
            let s = w.allocated;
            w.allocated += 1;
            s
        });
        // Publish order matters and matches `FlowTable::publish`: value
        // first, then the index — a reader racing the index store must
        // find either nothing or the fully published entry.
        self.slots[slot].store(ModelArc::new("ft.val", Some((fid, value))));
        self.index[fid].store(slot + 1, Ordering::SeqCst);
        w.live += 1;
    }

    /// Mirror of `FlowTable::remove` / the eviction half of `clear_slot`.
    pub fn remove(&self, fid: usize) -> bool {
        let mut w = self.writer.lock();
        let slot_plus_one = self.index[fid].load(Ordering::SeqCst);
        if slot_plus_one == 0 {
            return false;
        }
        self.clear_slot(&mut w, fid, slot_plus_one - 1);
        true
    }

    /// Mirror of `FlowTable::clear_slot`: store the shared empty (which
    /// retires the old value through the RCU path), reset the index,
    /// recycle the slot. Caller holds the writer lock.
    fn clear_slot(&self, w: &mut Writer, fid: usize, slot: usize) {
        self.slots[slot].store(self.empty.clone());
        if self.mutation != FtMutation::SkipIndexReset {
            self.index[fid].store(0, Ordering::SeqCst);
        }
        w.free.push(slot);
        w.live -= 1;
    }

    /// Mirror of `FlowTable::replace_if_present`: replace the entry only
    /// if the flow is still present, atomically with respect to evictions
    /// — the primitive that keeps a lost rewrite from resurrecting a rule
    /// whose Local MATs were already torn down.
    pub fn replace_if_present(&self, fid: usize, value: u64) -> bool {
        if self.mutation == FtMutation::ToctouReplace {
            // Seeded bug: check and store in separate critical sections.
            let slot = {
                let _w = self.writer.lock();
                let slot_plus_one = self.index[fid].load(Ordering::SeqCst);
                if slot_plus_one == 0 {
                    return false;
                }
                slot_plus_one - 1
            };
            let _w = self.writer.lock();
            self.slots[slot].store(ModelArc::new("ft.val", Some((fid, value))));
            return true;
        }
        let _w = self.writer.lock();
        let slot_plus_one = self.index[fid].load(Ordering::SeqCst);
        if slot_plus_one == 0 {
            return false;
        }
        self.slots[slot_plus_one - 1].store(ModelArc::new("ft.val", Some((fid, value))));
        true
    }

    /// Quiescent-state invariant: the index and the slots agree. Checked
    /// by scenarios after all racing threads joined, so a violation means
    /// a race left the table permanently inconsistent (not merely a
    /// transiently stale view).
    pub fn check_consistency(&self) {
        for fid in 0..FIDS {
            let slot_plus_one = self.index[fid].load(Ordering::SeqCst);
            if slot_plus_one == 0 {
                continue;
            }
            let val = self.slots[slot_plus_one - 1].load();
            match val.value() {
                Some((owner, _)) => {
                    assert_eq!(*owner, fid, "index[{fid}] points at a slot owned by fid {owner}")
                }
                None => panic!("index[{fid}] points at an empty slot"),
            }
        }
        for slot in 0..SLOTS {
            let val = self.slots[slot].load();
            if let Some((owner, _)) = val.value() {
                assert_eq!(
                    self.index[*owner].load(Ordering::SeqCst),
                    slot + 1,
                    "slot {slot} holds fid {owner} but the index does not point at it \
                     (resurrected entry)"
                );
            }
        }
    }

    /// Retired slot values not yet reclaimed, summed over the slots — the
    /// model twin of `FlowTable::pending_generations`.
    pub fn pending_generations(&self) -> usize {
        self.slots.iter().map(ArcSwapModel::pending).sum()
    }

    /// Model twin of `FlowTable::collect_generations`.
    pub fn collect_generations(&self) -> usize {
        self.slots.iter().map(ArcSwapModel::collect).sum()
    }
}

/// Seeded bugs for the classifier/batch affinity-memo protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClMutation {
    /// Faithful port: the memo holds a strong clone of the rule handle.
    None,
    /// The memo caches the raw allocation handle instead of a clone —
    /// the "avoid the refcount bump per packet" optimization. A
    /// republication plus drain between two same-flow packets then frees
    /// the memoized rule under the batch.
    MemoRawHandle,
}

/// Distilled rule-publication cell for one flow: the model twin of the
/// Global MAT's per-flow rule slot as seen by
/// [`crate::global::GlobalMat::process_batch`]'s affinity memo.
pub struct ClassifierModel {
    rule: ArcSwapModel<u64>,
}

impl std::fmt::Debug for ClassifierModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClassifierModel").finish_non_exhaustive()
    }
}

impl ClassifierModel {
    /// Creates the cell publishing generation 0 (must run inside a
    /// checker execution).
    pub fn new() -> Self {
        ClassifierModel { rule: ArcSwapModel::new("rule-g0", 0, CellMutation::None) }
    }

    /// Mirror of the batch fast path for a two-packet same-flow run: the
    /// first packet resolves the rule through the cell, the memo serves
    /// the second. Returns `(first, second)` generation observations.
    pub fn batch_of_two(&self, mutation: ClMutation) -> (u64, u64) {
        let resolved = self.rule.load();
        let first = *resolved.value();
        match mutation {
            ClMutation::None => {
                // The memo is a strong clone (`Arc::clone` in
                // `process_batch`); the resolved guard itself is dropped,
                // as the real code drops its temporaries.
                let memo = resolved.clone();
                drop(resolved);
                let second = *memo.value();
                (first, second)
            }
            ClMutation::MemoRawHandle => {
                // Seeded bug: cache the raw handle, drop the strong
                // reference, dereference later.
                let raw = resolved.raw_id();
                drop(resolved);
                let second = raw_read::<u64>(raw);
                (first, second)
            }
        }
    }

    /// Control-plane republication: publish generation `gen`.
    pub fn republish(&self, gen: u64) {
        self.rule.store(ModelArc::new("rule-g1", gen));
    }

    /// Retired rule generations not yet reclaimed.
    pub fn pending(&self) -> usize {
        self.rule.pending()
    }

    /// Attempts to reclaim retired generations; returns how many freed.
    pub fn collect(&self) -> usize {
        self.rule.collect()
    }
}

impl Default for ClassifierModel {
    fn default() -> Self {
        Self::new()
    }
}

/// NF state epoch at the last chain-consistent checkpoint.
const EPOCH_SNAPSHOT: u64 = 3;
/// NF state epoch after the bounded in-flight log replays — the live,
/// fully recovered state.
const EPOCH_LIVE: u64 = 5;

/// Seeded bugs for the NF-recovery quarantine/republish handshake.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QMutation {
    /// Faithful port of the recovery protocol: quarantine, sweep,
    /// restore, replay, reopen publication, republish from live state.
    None,
    /// The recovery path republishes the flow's rule right after the
    /// snapshot restore, before the in-flight log replays — the "get the
    /// fast path back up early" refactoring. A reader can then serve a
    /// rule consolidated from half-recovered NF state.
    RepublishBeforeReplay,
}

/// Distilled quarantine/republish handshake for one NF and one flow: the
/// model twin of the Global MAT quarantine mask
/// ([`crate::global::GlobalMat::quarantine_nf`]) plus the supervisor's
/// kill → quarantine → replay → republish sequence. The rule cell
/// carries the NF-state *epoch* the rule was consolidated from, which is
/// all the invariant needs: a published rule is only valid if it was
/// consolidated from fully replayed (live) state.
pub struct QuarantineModel {
    /// Model twin of the quarantine bit mask (`AtomicU64` in the real
    /// MAT; one NF here, so one bit).
    mask: ModelAtomicUsize,
    /// The flow's published rule slot: `None` = swept (fast path misses),
    /// `Some(epoch)` = a rule consolidated from NF state at `epoch`.
    rule: ArcSwapModel<Option<u64>>,
    /// The NF's state, reduced to the epoch it has advanced to — guarded
    /// like the `Arc<Mutex<..>>` state containers of the real NFs.
    nf_state: ModelMutex<u64>,
    /// Shared empty value: sweeping stores a clone of this, retiring the
    /// old rule through the cell's RCU path.
    empty: ModelArc<Option<u64>>,
    mutation: QMutation,
}

impl std::fmt::Debug for QuarantineModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuarantineModel").field("mutation", &self.mutation).finish_non_exhaustive()
    }
}

impl QuarantineModel {
    /// Creates the steady-state model: live NF state, a rule consolidated
    /// from it already published (must run inside a checker execution).
    pub fn new(mutation: QMutation) -> Self {
        QuarantineModel {
            mask: ModelAtomicUsize::new("q.mask", 0),
            rule: ArcSwapModel::new("q.rule.live", Some(EPOCH_LIVE), CellMutation::None),
            nf_state: ModelMutex::new("q.nf-state", EPOCH_LIVE),
            empty: ModelArc::new("q.empty", None),
            mutation,
        }
    }

    /// Mirror of `GlobalMat::install` under recovery: the quarantine gate
    /// refuses publication while the mask is set; otherwise a rule
    /// consolidated from `epoch` state publishes through the RCU cell.
    pub fn install(&self, epoch: u64) -> bool {
        if self.mask.load(Ordering::SeqCst) != 0 {
            return false;
        }
        self.rule.store(ModelArc::new("q.rule", Some(epoch)));
        true
    }

    /// Mirror of the worker fast path: the per-packet quarantine check
    /// routes to the baseline walk (`None`) while the mask is set;
    /// otherwise the published rule, if any, is served. Wait-free.
    pub fn serve(&self) -> Option<u64> {
        if self.mask.load(Ordering::SeqCst) != 0 {
            return None;
        }
        *self.rule.load().value()
    }

    /// Mirror of the supervisor's kill path: quarantine first, sweep the
    /// published rule, roll the NF back to the checkpoint, replay the
    /// in-flight log, reopen publication, then republish from the
    /// now-live state (the organic slow-path re-record).
    pub fn kill_and_recover(&self) {
        self.mask.store(1, Ordering::SeqCst);
        self.rule.store(self.empty.clone());
        *self.nf_state.lock() = EPOCH_SNAPSHOT;
        if self.mutation == QMutation::RepublishBeforeReplay {
            // Seeded bug: consolidate and republish from the restored
            // state before the in-flight log has replayed.
            let epoch = *self.nf_state.lock();
            self.rule.store(ModelArc::new("q.rule.stale", Some(epoch)));
        }
        *self.nf_state.lock() = EPOCH_LIVE;
        self.mask.store(0, Ordering::SeqCst);
        let epoch = *self.nf_state.lock();
        self.install(epoch);
    }

    /// Quiescent-state invariant: mask clear, state fully replayed, and
    /// the republished rule consolidated from live state.
    pub fn check_quiescent(&self) {
        assert_eq!(self.mask.load(Ordering::SeqCst), 0, "quarantine mask left set");
        assert_eq!(*self.nf_state.lock(), EPOCH_LIVE, "NF state not fully replayed");
        match self.rule.load().value() {
            Some(epoch) => {
                assert_eq!(*epoch, EPOCH_LIVE, "quiescent rule consolidated from epoch {epoch}")
            }
            None => panic!("recovered flow left with no republished rule"),
        }
    }

    /// Retired rule generations not yet reclaimed.
    pub fn pending(&self) -> usize {
        self.rule.pending()
    }

    /// Attempts to reclaim retired generations; returns how many freed.
    pub fn collect(&self) -> usize {
        self.rule.collect()
    }
}

/// Checker scenarios over the MAT models, shared by the `cargo test`
/// exhaustive tier (tests/model_flow_table.rs, tests/model_classifier.rs,
/// tests/model_quarantine.rs) and the `speedybox-check` binary.
pub mod scenarios {
    use super::*;

    /// Eviction racing a conditional rewrite on the same flow. In every
    /// schedule the quiescent table must be consistent: either the
    /// rewrite won (entry present, indexed, owned by the flow) or the
    /// eviction won (entry absent, slot free) — never a resurrected
    /// entry in a freed slot. [`FtMutation::ToctouReplace`] must be
    /// caught by the consistency check.
    pub fn ft_evict_vs_rewrite(mutation: FtMutation) -> impl Fn() + Send + Sync + 'static {
        move || {
            let table = StdArc::new(FlowTableModel::new(mutation));
            table.insert(0, 10);
            let t = table.clone();
            let evictor = speedybox_check::spawn(move || {
                if t.remove(0) {
                    fact("eviction won the race");
                }
            });
            let t = table.clone();
            let rewriter = speedybox_check::spawn(move || {
                if t.replace_if_present(0, 11) {
                    fact("rewrite found the flow present");
                }
            });
            evictor.join();
            rewriter.join();
            table.check_consistency();
            // Whatever the outcome, retired values must drain now.
            table.collect_generations();
            assert_eq!(table.pending_generations(), 0, "retired backlog not drained");
        }
    }

    /// A wait-free reader racing a remove + insert that recycles the
    /// freed slot for a different flow. The reader must observe its FID's
    /// value or a miss — never the other flow's value (the owner check),
    /// and the quiescent index must agree with the slots.
    /// [`FtMutation::SkipIndexReset`] must be caught.
    pub fn ft_recycle_vs_reader(mutation: FtMutation) -> impl Fn() + Send + Sync + 'static {
        move || {
            let table = StdArc::new(FlowTableModel::new(mutation));
            table.insert(0, 10);
            let t = table.clone();
            let reader = speedybox_check::spawn(move || match t.lookup(0) {
                Some(v) => {
                    assert_eq!(v, 10, "reader observed another flow's value for fid 0");
                    fact("reader hit before the recycle");
                }
                None => fact("reader missed (evicted or mid-recycle)"),
            });
            let t = table.clone();
            let recycler = speedybox_check::spawn(move || {
                t.remove(0);
                // Recycles slot 0 for fid 1 through the free list.
                t.insert(1, 20);
            });
            reader.join();
            recycler.join();
            table.check_consistency();
            assert_eq!(table.lookup(1), Some(20), "recycled entry lost");
            if mutation == FtMutation::None {
                assert_eq!(table.lookup(0), None, "removed entry still resolves");
            }
            table.collect_generations();
            assert_eq!(table.pending_generations(), 0, "retired backlog not drained");
        }
    }

    /// A batch's two-packet same-flow memo run racing a rule
    /// republication. Invariants: the memo run observes one consistent
    /// generation, and the memoized handle stays alive across the
    /// republication and its drain. [`ClMutation::MemoRawHandle`] must be
    /// caught as a use-after-free.
    pub fn cl_memo_vs_republish(mutation: ClMutation) -> impl Fn() + Send + Sync + 'static {
        move || {
            let cl = StdArc::new(ClassifierModel::new());
            let c = cl.clone();
            let batch = speedybox_check::spawn(move || {
                let (first, second) = c.batch_of_two(mutation);
                assert_eq!(first, second, "memo run saw two generations");
                if first == 0 {
                    fact("memo pinned the pre-publication rule");
                } else {
                    fact("batch began after republication");
                }
            });
            let c = cl.clone();
            let publisher = speedybox_check::spawn(move || {
                c.republish(1);
            });
            batch.join();
            publisher.join();
            cl.collect();
            assert_eq!(cl.pending(), 0, "retired rule generation not drained");
        }
    }

    /// An NF kill/recovery racing a wait-free fast-path reader and a
    /// churn install. In every schedule a reader that hits the fast path
    /// must observe a rule consolidated from fully replayed (live) NF
    /// state — mid-window it falls back to the baseline walk instead —
    /// and the quiescent model must end with the mask clear and a live
    /// rule republished. [`QMutation::RepublishBeforeReplay`] must be
    /// caught: it lets the reader serve a rule consolidated from
    /// restored-but-not-replayed state.
    pub fn q_kill_vs_reader(mutation: QMutation) -> impl Fn() + Send + Sync + 'static {
        move || {
            let q = StdArc::new(QuarantineModel::new(mutation));
            let m = q.clone();
            let supervisor = speedybox_check::spawn(move || {
                m.kill_and_recover();
            });
            let m = q.clone();
            let reader = speedybox_check::spawn(move || match m.serve() {
                Some(epoch) => {
                    assert_eq!(
                        epoch, EPOCH_LIVE,
                        "fast path served a rule consolidated from un-replayed state"
                    );
                    fact("reader hit the fast path");
                }
                None => fact("reader fell back to the baseline walk"),
            });
            let m = q.clone();
            let installer = speedybox_check::spawn(move || {
                // Churn consolidating a still-valid recording (recordings
                // are made from live state; the sweep tears them down, so
                // a mid-window rebuild can only be refused by the gate).
                if m.install(EPOCH_LIVE) {
                    fact("churn install landed");
                } else {
                    fact("churn install refused by the quarantine gate");
                }
            });
            supervisor.join();
            reader.join();
            installer.join();
            q.check_quiescent();
            q.collect();
            assert_eq!(q.pending(), 0, "retired rule generations not drained");
        }
    }
}
