//! Bounded slab-backed flow-state store shared by the Packet Classifier
//! and the Global MAT.
//!
//! Up to PR 6 both tables published whole `HashMap` generations per shard:
//! correct, but every structural change cloned the map — O(n) per flow
//! open, O(n²) to fill the 20-bit FID space. This store keeps the PR 6
//! read contract (readers are wait-free and never lock; replaced values
//! retire through the same `pending`/`collect` RCU path) while making
//! every operation O(1):
//!
//! * **Slab slots.** Each shard owns a dense `u32`-indexed arena of slots,
//!   allocated lazily in fixed-size chunks and recycled through a free
//!   list. A slot is one cache line: an RCU cell ([`arcswap::ArcSwap`])
//!   holding `(Fid, Arc<T>)` plus the authoritative `touch` stamp.
//!   [`FlowHandle`] names a slot; it replaces the ad-hoc map values.
//! * **Direct FID index.** A lazily-chunked `AtomicU32` array maps each
//!   FID in the shard's slice to its slot (+1; 0 = absent), so a read is
//!   index load → borrowed slot read → owner check: wait-free, no hashing,
//!   no `Arc` clone ([`FlowTable::read`]).
//! * **Timer wheel.** Each shard embeds a [`TimerWheel`] scheduled at
//!   every entry's `touch` tick. The wheel is lazy — touching a flow never
//!   moves its item; pops re-check `touch` and reschedule busy flows — so
//!   idle expiry and LRU victim selection are amortized O(1) against the
//!   deterministic packet clock. Items left behind by removed entries are
//!   compacted away once they outnumber twice the shard's slots, so the
//!   wheel stays O(slots) even when nothing ever pops it.
//! * **Bounded capacity.** `capacity` caps live entries (enforced per
//!   shard at ⌈capacity/shards⌉ plus a global check; exact in the
//!   single-threaded deterministic model). When full, [`AdmissionPolicy`]
//!   picks graceful degradation: evict the least-recently-touched entry,
//!   or reject the newcomer (which then rides the original chain
//!   uninstrumented — always equivalence-preserving).
//!
//! Eviction and the RCU scheme compose: clearing a slot `store`s the
//! shared empty value, which retires the evicted entry into the slot's
//! retired list — the same path [`FlowTable::pending_generations`] /
//! [`FlowTable::collect_generations`] drain.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering::Relaxed, Ordering::SeqCst};
use std::sync::{Arc, OnceLock};

use arcswap::ArcSwap;
use parking_lot::Mutex;
use speedybox_packet::Fid;

use crate::timer_wheel::TimerWheel;

/// Size of the 20-bit FID space: the most flows that can ever be live.
pub const FID_SPACE: usize = 1 << 20;

/// Slots (and index cells) per lazily-allocated chunk.
const CHUNK: usize = 4096;

/// Wheel items a shard may hold beyond twice its allocated slots before
/// [`FlowTable::compact_wheel`] runs.
const WHEEL_SLACK: usize = 64;

/// What to do with a new flow when the table is at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Evict the least-recently-touched entry to make room (default).
    #[default]
    EvictOldest,
    /// Reject the newcomer; existing entries are left alone.
    Reject,
}

/// Names one slab slot: the shard it lives in plus the slot index within
/// that shard's arena. Returned by [`FlowTable::lookup`] so hot paths can
/// [`FlowTable::touch`] the entry without re-resolving the FID.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowHandle {
    shard: u32,
    slot: u32,
}

/// An entry forced out of the table (idle expiry or capacity pressure).
#[derive(Debug)]
pub struct Evicted<T> {
    /// The evicted flow.
    pub fid: Fid,
    /// Its value, still alive for the caller's teardown.
    pub value: Arc<T>,
    /// The entry's last `touch` tick.
    pub touch: u64,
}

/// Outcome of [`FlowTable::insert`].
#[derive(Debug)]
pub enum Admission<T> {
    /// A fresh entry was created; at capacity, `evicted` carries the LRU
    /// entry that made room.
    Inserted {
        /// Handle of the new entry.
        handle: FlowHandle,
        /// The entry evicted to make room, if the table was full.
        evicted: Option<Evicted<T>>,
    },
    /// The FID was already present; its value was replaced in place (the
    /// old value retires through the RCU path).
    Replaced {
        /// Handle of the existing entry.
        handle: FlowHandle,
    },
    /// The table is full and the policy is [`AdmissionPolicy::Reject`].
    Rejected,
}

/// Outcome of [`FlowTable::open_with`].
#[derive(Debug)]
pub enum Opened<T> {
    /// This call created the entry; at capacity, `evicted` carries the
    /// LRU entry that made room.
    Created {
        /// Handle of the new entry.
        handle: FlowHandle,
        /// The freshly created value.
        value: Arc<T>,
        /// The entry evicted to make room, if the table was full.
        evicted: Option<Evicted<T>>,
    },
    /// The entry already existed (possibly created by a concurrent
    /// opener); it was touched, not replaced.
    Existing {
        /// Handle of the existing entry.
        handle: FlowHandle,
        /// The existing value.
        value: Arc<T>,
    },
    /// The table is full and the policy is [`AdmissionPolicy::Reject`].
    Rejected,
}

/// A slot's published state: empty, or owned by a flow.
type SlotVal<T> = Option<(Fid, Arc<T>)>;

/// One slab slot: the RCU value cell plus the authoritative recency stamp.
#[derive(Debug)]
struct Slot<T> {
    val: ArcSwap<SlotVal<T>>,
    /// Last tick the flow saw activity. Written wait-free by readers via
    /// [`FlowTable::touch`]; read by the eviction truth checks.
    touch: AtomicU64,
}

/// Mutable shard state, serialized behind the writer mutex.
#[derive(Debug)]
struct ShardWriter {
    /// Recycled slot indices.
    free: Vec<u32>,
    /// High-water mark: next never-used slot index.
    allocated: u32,
    /// Live entries in this shard.
    live: usize,
    /// Lazy eviction wheel over this shard's slots.
    wheel: TimerWheel,
    /// Scratch for [`FlowTable::compact_wheel`]: per slot, the earliest
    /// deadline among its wheel items and whether one was kept.
    earliest: Vec<(u64, bool)>,
}

/// A lazily-allocated chunk of the slot arena.
type SlotChunk<T> = OnceLock<Box<[Slot<T>]>>;

struct TableShard<T> {
    /// FID-slice index: `index[local / CHUNK][local % CHUNK]` holds
    /// slot + 1, or 0 when the FID is absent.
    index: Box<[OnceLock<Box<[AtomicU32]>>]>,
    /// Slot arena, allocated a chunk at a time as the high-water mark
    /// grows.
    slots: Box<[SlotChunk<T>]>,
    writer: Mutex<ShardWriter>,
}

impl<T> TableShard<T> {
    fn new(index_chunks: usize, slot_chunks: usize) -> Self {
        Self {
            index: (0..index_chunks).map(|_| OnceLock::new()).collect(),
            slots: (0..slot_chunks).map(|_| OnceLock::new()).collect(),
            writer: Mutex::new(ShardWriter {
                free: Vec::new(),
                allocated: 0,
                live: 0,
                wheel: TimerWheel::new(),
                earliest: Vec::new(),
            }),
        }
    }

    /// The index cell for a shard-local FID key, if its chunk exists.
    fn index_cell(&self, local: usize) -> Option<&AtomicU32> {
        self.index[local / CHUNK].get().map(|chunk| &chunk[local % CHUNK])
    }

    /// The index cell for a shard-local key, allocating its chunk.
    fn index_cell_mut(&self, local: usize) -> &AtomicU32 {
        let chunk = self.index[local / CHUNK]
            .get_or_init(|| (0..CHUNK).map(|_| AtomicU32::new(0)).collect());
        &chunk[local % CHUNK]
    }

    /// The slot for an allocated handle. Panics on an unallocated chunk —
    /// handles are only ever minted after their chunk exists.
    fn slot(&self, slot: u32) -> &Slot<T> {
        let chunk = self.slots[slot as usize / CHUNK].get().expect("slot chunk allocated");
        &chunk[slot as usize % CHUNK]
    }
}

/// The bounded, sharded, slab-backed flow-state store. See module docs.
pub struct FlowTable<T> {
    shards: Box<[TableShard<T>]>,
    /// `log2(shards.len())`; a FID's shard is `fid & (shards - 1)` and its
    /// shard-local key is `fid >> shard_bits`.
    shard_bits: u32,
    /// Global live-entry bound.
    capacity: usize,
    /// Per-shard hard bound: `ceil(capacity / shards)`, clamped to the
    /// shard's FID-slice size.
    shard_cap: usize,
    policy: AdmissionPolicy,
    /// Global live count (exact; maintained under shard writer locks).
    live: AtomicUsize,
    /// Shared empty slot value: cleared slots `store` a clone of this, so
    /// emptying a slot retires its old `(Fid, Arc<T>)` through the RCU
    /// path. Misses never load it (the index is checked first).
    empty: Arc<SlotVal<T>>,
}

impl<T> std::fmt::Debug for FlowTable<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlowTable")
            .field("shards", &self.shards.len())
            .field("capacity", &self.capacity)
            .field("policy", &self.policy)
            .field("live", &self.live.load(SeqCst))
            .finish()
    }
}

impl<T: Send + Sync> FlowTable<T> {
    /// Creates a table with (at least) `shards` shards (rounded up to a
    /// power of two), bounded at `capacity` live entries. A `capacity` of
    /// 0 or ≥ [`FID_SPACE`] means unbounded (the FID space itself is the
    /// bound).
    #[must_use]
    pub fn new(shards: usize, capacity: usize, policy: AdmissionPolicy) -> Self {
        let n = shards.max(1).next_power_of_two().min(FID_SPACE);
        let shard_bits = n.trailing_zeros();
        let capacity = if capacity == 0 { FID_SPACE } else { capacity.min(FID_SPACE) };
        let slice = FID_SPACE >> shard_bits; // FIDs mapping to one shard
        let shard_cap = capacity.div_ceil(n).min(slice).max(1);
        let index_chunks = slice.div_ceil(CHUNK).max(1);
        let slot_chunks = shard_cap.div_ceil(CHUNK).max(1);
        Self {
            shards: (0..n).map(|_| TableShard::new(index_chunks, slot_chunks)).collect(),
            shard_bits,
            capacity,
            shard_cap,
            policy,
            live: AtomicUsize::new(0),
            empty: Arc::new(None),
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The live-entry bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The admission policy applied when full.
    #[must_use]
    pub fn policy(&self) -> AdmissionPolicy {
        self.policy
    }

    /// Live entries. O(1).
    #[must_use]
    pub fn len(&self) -> usize {
        self.live.load(SeqCst)
    }

    /// True if no entries are live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard_of(&self, fid: Fid) -> (usize, usize) {
        let idx = fid.index();
        (idx & (self.shards.len() - 1), idx >> self.shard_bits)
    }

    /// Runs `f` on the flow's slot handle and a borrow of its value, if
    /// the flow is present. Wait-free: one index load, one borrowed RCU
    /// read ([`ArcSwap::with`]: two guard-counter RMWs, no `Arc` strong
    /// count taken), one owner check. The handle serves follow-up
    /// [`FlowTable::touch`] calls.
    ///
    /// `f` runs under the slot's reader guard, so it must not call back
    /// into this table's writer side (`insert`, `remove`, ...): a write to
    /// the same slot from inside `f` could not drain its retired value.
    /// Clone the `Arc` out and act after `read` returns instead.
    pub fn read<R>(&self, fid: Fid, f: impl FnOnce(FlowHandle, &Arc<T>) -> R) -> Option<R> {
        let (s, local) = self.shard_of(fid);
        let shard = &self.shards[s];
        let slot_plus_one = shard.index_cell(local)?.load(SeqCst);
        if slot_plus_one == 0 {
            return None;
        }
        let slot = slot_plus_one - 1;
        shard.slot(slot).val.with(|val| match val {
            // Owner check: the slot may have been recycled to a different
            // FID between the index load and the cell read; a mismatch
            // linearizes as "absent".
            Some((owner, value)) if *owner == fid => {
                let handle =
                    FlowHandle { shard: u32::try_from(s).expect("shard count fits u32"), slot };
                Some(f(handle, value))
            }
            _ => None,
        })
    }

    /// Looks up a flow, returning its slot handle and a clone of its
    /// value. Wait-free; see [`FlowTable::read`], which serves callers
    /// that only need to look at the value.
    #[must_use]
    pub fn lookup(&self, fid: Fid) -> Option<(FlowHandle, Arc<T>)> {
        self.read(fid, |handle, value| (handle, Arc::clone(value)))
    }

    /// The value for a flow, if present. Wait-free.
    #[must_use]
    pub fn get(&self, fid: Fid) -> Option<Arc<T>> {
        self.read(fid, |_, value| Arc::clone(value))
    }

    /// True if the flow is present. Wait-free.
    #[must_use]
    pub fn contains(&self, fid: Fid) -> bool {
        self.read(fid, |_, _| ()).is_some()
    }

    /// Stamps the entry's recency. Wait-free: one relaxed store. Recency
    /// is a hint, so it needs no ordering: the eviction checks read it
    /// under the writer lock, and a touch racing such a check lands on
    /// either side of it under any ordering. The entry's wheel item is
    /// *not* moved — eviction re-checks this stamp.
    pub fn touch(&self, handle: FlowHandle, now: u64) {
        self.shards[handle.shard as usize].slot(handle.slot).touch.store(now, Relaxed);
    }

    /// The entry's last-touch tick (0 if the handle's slot was recycled).
    #[must_use]
    pub fn last_touch(&self, handle: FlowHandle) -> u64 {
        self.shards[handle.shard as usize].slot(handle.slot).touch.load(SeqCst)
    }

    /// Clears `slot` (which must hold `fid`), returning the retired value.
    /// Caller holds the shard writer lock.
    fn clear_slot(&self, s: usize, w: &mut ShardWriter, slot: u32) -> Option<(Fid, Arc<T>)> {
        let shard = &self.shards[s];
        let (fid, value) = shard.slot(slot).val.with(Clone::clone)?;
        // Retires the old (Fid, Arc<T>) into the slot's RCU retired list —
        // the same pending/collect path as a value replacement.
        shard.slot(slot).val.store(Arc::clone(&self.empty));
        let local = fid.index() >> self.shard_bits;
        shard.index_cell_mut(local).store(0, SeqCst);
        w.free.push(slot);
        w.live -= 1;
        self.live.fetch_sub(1, SeqCst);
        Some((fid, value))
    }

    /// Pops this shard's true LRU entry off the wheel (truth-checking and
    /// rescheduling busy flows), without evicting it. Caller holds the
    /// writer lock. Returns `(slot, touch)`.
    fn pop_victim(&self, s: usize, w: &mut ShardWriter) -> Option<(u32, u64)> {
        let shard = &self.shards[s];
        while let Some(item) = w.wheel.pop_earliest() {
            let slot = shard.slot(item.slot);
            if slot.val.with(Option::is_none) {
                continue; // stale item for a freed slot
            }
            let touch = slot.touch.load(SeqCst);
            if touch > item.deadline {
                // Lazy reschedule: the flow was touched since this item
                // was scheduled; move it to its true deadline.
                w.wheel.schedule(item.slot, touch);
                continue;
            }
            return Some((item.slot, touch));
        }
        None
    }

    /// Allocates a fresh or recycled slot and publishes `(fid, value)`
    /// into it. Caller holds the writer lock and has made room.
    fn publish(&self, s: usize, w: &mut ShardWriter, fid: Fid, value: Arc<T>, now: u64) -> u32 {
        let shard = &self.shards[s];
        let slot = w.free.pop().unwrap_or_else(|| {
            let slot = w.allocated;
            w.allocated += 1;
            shard.slots[slot as usize / CHUNK].get_or_init(|| {
                (0..CHUNK)
                    .map(|_| Slot {
                        val: ArcSwap::new(Arc::clone(&self.empty)),
                        touch: AtomicU64::new(0),
                    })
                    .collect()
            });
            slot
        });
        let cell = &shard.slot(slot);
        cell.touch.store(now, SeqCst);
        cell.val.store(Arc::new(Some((fid, value))));
        let local = fid.index() >> self.shard_bits;
        shard.index_cell_mut(local).store(slot + 1, SeqCst);
        w.wheel.schedule(slot, now);
        w.live += 1;
        self.live.fetch_add(1, SeqCst);
        if w.wheel.len() > 2 * w.allocated as usize + WHEEL_SLACK {
            self.compact_wheel(s, w);
        }
        slot
    }

    /// Drops the wheel items that can no longer matter: those of empty
    /// slots, and all but the earliest of an occupied slot's items.
    ///
    /// The wheel is lazy, so a removed entry's item stays behind until
    /// idle expiry or an LRU search pops it, and every publish schedules a
    /// new one. Without expiry or capacity pressure nothing ever pops, and
    /// the wheel would grow by one item per flow opened, forever. Run
    /// whenever the items outnumber twice the slab's slots, compaction
    /// keeps the wheel O(slots) at amortized O(1) per publish. The lazy
    /// invariant survives: an occupied slot keeps its earliest item, whose
    /// deadline is at most that of any item it had. Survivors stay in
    /// place, so their pop order is unchanged.
    fn compact_wheel(&self, s: usize, w: &mut ShardWriter) {
        let shard = &self.shards[s];
        let ShardWriter { wheel, earliest, allocated, .. } = w;
        earliest.clear();
        earliest.resize(*allocated as usize, (u64::MAX, false));
        for item in wheel.items() {
            let e = &mut earliest[item.slot as usize].0;
            *e = (*e).min(item.deadline);
        }
        wheel.retain(|item| {
            let (deadline, kept) = &mut earliest[item.slot as usize];
            if *kept || item.deadline != *deadline {
                return false;
            }
            *kept = !shard.slot(item.slot).val.with(Option::is_none);
            *kept
        });
    }

    /// Inserts or replaces the entry for `fid`, stamping it with `now`.
    /// At capacity, applies the admission policy — see [`Admission`].
    pub fn insert(&self, fid: Fid, value: Arc<T>, now: u64) -> Admission<T> {
        let (s, local) = self.shard_of(fid);
        let shard = &self.shards[s];
        let mut w = shard.writer.lock();
        let cell = shard.index_cell_mut(local);
        let slot_plus_one = cell.load(SeqCst);
        if slot_plus_one != 0 {
            let slot = slot_plus_one - 1;
            let slot_ref = shard.slot(slot);
            slot_ref.touch.store(now, SeqCst);
            // In-place replace: the old value retires through the slot's
            // RCU cell. The existing wheel item (deadline <= old touch <=
            // now) keeps the lazy invariant, so no reschedule is needed.
            slot_ref.val.store(Arc::new(Some((fid, value))));
            return Admission::Replaced {
                handle: FlowHandle { shard: u32::try_from(s).expect("shard count fits u32"), slot },
            };
        }
        let full = w.live >= self.shard_cap || self.live.load(SeqCst) >= self.capacity;
        let mut evicted = None;
        if full {
            match self.policy {
                AdmissionPolicy::Reject => return Admission::Rejected,
                // A `None` victim means this shard holds nothing to evict
                // (global pressure from other shards): admit rather than
                // starve the FID slice; overshoot is bounded by the shard
                // count.
                AdmissionPolicy::EvictOldest => {
                    if let Some((slot, touch)) = self.pop_victim(s, &mut w) {
                        let (vfid, vval) =
                            self.clear_slot(s, &mut w, slot).expect("victim slot is occupied");
                        evicted = Some(Evicted { fid: vfid, value: vval, touch });
                    }
                }
            }
        }
        let slot = self.publish(s, &mut w, fid, value, now);
        Admission::Inserted {
            handle: FlowHandle { shard: u32::try_from(s).expect("shard count fits u32"), slot },
            evicted,
        }
    }

    /// Gets the entry for `fid`, creating it with `make` if absent —
    /// the racing-opener-safe variant of [`FlowTable::insert`]: a
    /// concurrent opener that loses the race gets the winner's entry back
    /// instead of replacing it (which would clobber its state).
    pub fn open_with(&self, fid: Fid, now: u64, make: impl FnOnce() -> Arc<T>) -> Opened<T> {
        let (s, local) = self.shard_of(fid);
        let shard = &self.shards[s];
        let mut w = shard.writer.lock();
        let cell = shard.index_cell_mut(local);
        let slot_plus_one = cell.load(SeqCst);
        if slot_plus_one != 0 {
            let slot = slot_plus_one - 1;
            let slot_ref = shard.slot(slot);
            let value = slot_ref
                .val
                .with(|val| val.as_ref().map(|(_, v)| Arc::clone(v)))
                .expect("indexed slot is occupied");
            slot_ref.touch.store(now, SeqCst);
            return Opened::Existing {
                handle: FlowHandle { shard: u32::try_from(s).expect("shard count fits u32"), slot },
                value,
            };
        }
        let full = w.live >= self.shard_cap || self.live.load(SeqCst) >= self.capacity;
        let mut evicted = None;
        if full {
            match self.policy {
                AdmissionPolicy::Reject => return Opened::Rejected,
                AdmissionPolicy::EvictOldest => {
                    if let Some((slot, touch)) = self.pop_victim(s, &mut w) {
                        let (vfid, vval) =
                            self.clear_slot(s, &mut w, slot).expect("victim slot is occupied");
                        evicted = Some(Evicted { fid: vfid, value: vval, touch });
                    }
                }
            }
        }
        let value = make();
        let slot = self.publish(s, &mut w, fid, Arc::clone(&value), now);
        Opened::Created {
            handle: FlowHandle { shard: u32::try_from(s).expect("shard count fits u32"), slot },
            value,
            evicted,
        }
    }

    /// Replaces the entry for `fid` only if it is still present, in one
    /// writer-lock critical section. Returns false (without inserting) if
    /// the flow is gone — the eviction-vs-rewrite atomicity primitive: a
    /// rewrite that loses the race to an eviction must not resurrect the
    /// rule from emptied Local MATs.
    pub fn replace_if_present(&self, fid: Fid, value: Arc<T>, now: u64) -> bool {
        let (s, local) = self.shard_of(fid);
        let shard = &self.shards[s];
        let _w = shard.writer.lock();
        let Some(cell) = shard.index_cell(local) else {
            return false;
        };
        let slot_plus_one = cell.load(SeqCst);
        if slot_plus_one == 0 {
            return false;
        }
        let slot = shard.slot(slot_plus_one - 1);
        slot.touch.store(now, SeqCst);
        slot.val.store(Arc::new(Some((fid, value))));
        true
    }

    /// Removes the entry for `fid`, returning its value if present.
    pub fn remove(&self, fid: Fid) -> Option<Arc<T>> {
        let (s, local) = self.shard_of(fid);
        let shard = &self.shards[s];
        let mut w = shard.writer.lock();
        let slot_plus_one = shard.index_cell(local)?.load(SeqCst);
        if slot_plus_one == 0 {
            return None;
        }
        // Stale wheel items for the freed slot are dropped lazily by the
        // eviction truth checks.
        self.clear_slot(s, &mut w, slot_plus_one - 1).map(|(_, v)| v)
    }

    /// Evicts every entry idle for more than `max_idle` ticks at `now`
    /// (i.e. `now - touch > max_idle`), in deterministic wheel order.
    /// Amortized O(1) per clock tick plus O(1) per due entry.
    pub fn expire_idle(&self, now: u64, max_idle: u64) -> Vec<Evicted<T>> {
        let Some(target) = now.checked_sub(max_idle + 1) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut due = Vec::new();
        for s in 0..self.shards.len() {
            let shard = &self.shards[s];
            let mut w = shard.writer.lock();
            due.clear();
            w.wheel.advance(target, &mut due);
            for item in &due {
                let slot = shard.slot(item.slot);
                if slot.val.with(Option::is_none) {
                    continue; // stale item for a freed slot
                }
                let touch = slot.touch.load(SeqCst);
                if touch > target {
                    // Busy flow popped early (lazy wheel): reschedule at
                    // its true deadline.
                    w.wheel.schedule(item.slot, touch);
                    continue;
                }
                if let Some((fid, value)) = self.clear_slot(s, &mut w, item.slot) {
                    out.push(Evicted { fid, value, touch });
                }
            }
        }
        out
    }

    /// Force-evicts the `k` least-recently-touched entries table-wide
    /// (deterministic: global minimum by `(touch, shard)` per round),
    /// exercising the same wheel-driven LRU path capacity pressure takes.
    pub fn evict_oldest(&self, k: usize) -> Vec<Evicted<T>> {
        let mut out = Vec::new();
        for _ in 0..k {
            // Peek each shard's LRU candidate, then evict the global
            // minimum and put the others' wheel items back.
            let mut best: Option<(u64, usize, u32)> = None;
            for s in 0..self.shards.len() {
                let mut w = self.shards[s].writer.lock();
                if let Some((slot, touch)) = self.pop_victim(s, &mut w) {
                    let restore_at = touch.max(w.wheel.now() + 1);
                    w.wheel.schedule(slot, restore_at);
                    if best.is_none_or(|(bt, bs, _)| (touch, s) < (bt, bs)) {
                        best = Some((touch, s, slot));
                    }
                }
            }
            let Some((_, s, slot)) = best else {
                break;
            };
            let mut w = self.shards[s].writer.lock();
            // Re-verify under the re-taken lock: the candidate may have
            // been touched or removed in between.
            let shard = &self.shards[s];
            if shard.slot(slot).val.with(Option::is_none) {
                continue;
            }
            let touch = shard.slot(slot).touch.load(SeqCst);
            if let Some((fid, value)) = self.clear_slot(s, &mut w, slot) {
                out.push(Evicted { fid, value, touch });
            }
        }
        out
    }

    /// A conservative lower bound on the earliest tick any entry could
    /// expire at, or `u64::MAX` when the table is empty. Cheap gate for
    /// batch-boundary expiry: nothing can be due before this tick.
    #[must_use]
    pub fn next_due(&self) -> u64 {
        self.shards
            .iter()
            .filter_map(|shard| shard.writer.lock().wheel.next_due())
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Visits every live entry as `(fid, value, touch)`, shard by shard,
    /// slot order within a shard. Control-plane only (dumps, sweeps).
    pub fn for_each(&self, mut f: impl FnMut(Fid, &Arc<T>, u64)) {
        for shard in self.shards.iter() {
            let allocated = shard.writer.lock().allocated;
            for slot_idx in 0..allocated {
                let slot = shard.slot(slot_idx);
                if let Some((fid, value)) = slot.val.load().as_ref() {
                    f(*fid, value, slot.touch.load(SeqCst));
                }
            }
        }
    }

    /// Retired slot values not yet reclaimed, summed over every allocated
    /// slot — the table-wide RCU backlog (bounded by writer frequency,
    /// never by reader count).
    #[must_use]
    pub fn pending_generations(&self) -> usize {
        self.fold_slots(0, |acc, slot| acc + slot.val.pending())
    }

    /// Attempts to reclaim retired slot values; returns how many were
    /// freed. Safe at any time — a value is freed only once provably
    /// unreferenced.
    pub fn collect_generations(&self) -> usize {
        self.fold_slots(0, |acc, slot| acc + slot.val.collect())
    }

    fn fold_slots<A>(&self, init: A, mut f: impl FnMut(A, &Slot<T>) -> A) -> A {
        let mut acc = init;
        for shard in self.shards.iter() {
            let allocated = shard.writer.lock().allocated;
            for slot_idx in 0..allocated {
                acc = f(acc, shard.slot(slot_idx));
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::cast_possible_truncation)] // test data built from small constants
    use super::*;

    fn fid(n: u32) -> Fid {
        Fid::new(n)
    }

    fn table(shards: usize, cap: usize, policy: AdmissionPolicy) -> FlowTable<u64> {
        FlowTable::new(shards, cap, policy)
    }

    fn insert(t: &FlowTable<u64>, n: u32, now: u64) -> Admission<u64> {
        t.insert(fid(n), Arc::new(u64::from(n)), now)
    }

    #[test]
    fn insert_lookup_remove_roundtrip() {
        let t = table(4, 0, AdmissionPolicy::EvictOldest);
        assert!(t.is_empty());
        assert!(matches!(insert(&t, 7, 1), Admission::Inserted { evicted: None, .. }));
        let (handle, v) = t.lookup(fid(7)).expect("present");
        assert_eq!(*v, 7);
        assert_eq!(t.last_touch(handle), 1);
        t.touch(handle, 9);
        assert_eq!(t.last_touch(handle), 9);
        assert_eq!(t.len(), 1);
        assert_eq!(*t.remove(fid(7)).expect("present"), 7);
        assert!(t.lookup(fid(7)).is_none());
        assert!(t.is_empty());
        assert!(t.remove(fid(7)).is_none());
    }

    #[test]
    fn replace_in_place_retires_old_value() {
        let t = table(1, 0, AdmissionPolicy::EvictOldest);
        insert(&t, 3, 1);
        let probe = t.get(fid(3)).unwrap();
        assert!(matches!(insert(&t, 3, 2), Admission::Replaced { .. }));
        assert_eq!(t.len(), 1);
        drop(probe);
        t.collect_generations();
        assert_eq!(t.pending_generations(), 0);
    }

    #[test]
    fn capacity_evicts_least_recently_touched() {
        let t = table(1, 3, AdmissionPolicy::EvictOldest);
        insert(&t, 1, 10);
        insert(&t, 2, 11);
        insert(&t, 3, 12);
        // Refresh flow 1 so flow 2 is now the LRU.
        let (h1, _) = t.lookup(fid(1)).unwrap();
        t.touch(h1, 20);
        let Admission::Inserted { evicted: Some(victim), .. } = insert(&t, 4, 21) else {
            panic!("expected an eviction");
        };
        assert_eq!(victim.fid, fid(2));
        assert_eq!(victim.touch, 11);
        assert_eq!(t.len(), 3);
        assert!(t.contains(fid(1)));
        assert!(t.contains(fid(4)));
        assert!(!t.contains(fid(2)));
    }

    #[test]
    fn reject_policy_bounces_newcomers() {
        let t = table(1, 2, AdmissionPolicy::Reject);
        insert(&t, 1, 1);
        insert(&t, 2, 2);
        assert!(matches!(insert(&t, 3, 3), Admission::Rejected));
        assert_eq!(t.len(), 2);
        assert!(!t.contains(fid(3)));
        // Existing flows still replace fine at capacity.
        assert!(matches!(insert(&t, 1, 4), Admission::Replaced { .. }));
        // Removing one re-opens admission.
        t.remove(fid(1));
        assert!(matches!(insert(&t, 3, 5), Admission::Inserted { .. }));
    }

    #[test]
    fn expire_idle_is_exact_and_deterministic() {
        let t = table(2, 0, AdmissionPolicy::EvictOldest);
        insert(&t, 1, 0);
        insert(&t, 2, 1);
        insert(&t, 3, 2);
        // Touch flow 2 late so only 1 and 3 are idle at now=30.
        let (h2, _) = t.lookup(fid(2)).unwrap();
        t.touch(h2, 25);
        let evicted = t.expire_idle(30, 10);
        let fids: Vec<Fid> = evicted.iter().map(|e| e.fid).collect();
        assert_eq!(fids.len(), 2);
        assert!(fids.contains(&fid(1)) && fids.contains(&fid(3)));
        assert_eq!(t.len(), 1);
        // Nothing further to expire; a larger max_idle is vacuous.
        assert!(t.expire_idle(30, 20).is_empty());
        // Flow 2 expires once it ages out.
        let evicted = t.expire_idle(100, 10);
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].fid, fid(2));
        assert!(t.is_empty());
    }

    #[test]
    fn evict_oldest_takes_global_minimum() {
        let t = table(4, 0, AdmissionPolicy::EvictOldest);
        for (n, at) in [(1u32, 5u64), (2, 3), (3, 9), (4, 1)] {
            insert(&t, n, at);
        }
        let evicted = t.evict_oldest(2);
        let fids: Vec<Fid> = evicted.iter().map(|e| e.fid).collect();
        assert_eq!(fids, vec![fid(4), fid(2)]);
        assert_eq!(t.len(), 2);
        // Evicting more than live drains the table and stops.
        assert_eq!(t.evict_oldest(10).len(), 2);
        assert!(t.is_empty());
    }

    #[test]
    fn slots_are_recycled_through_the_free_list() {
        let t = table(1, 0, AdmissionPolicy::EvictOldest);
        insert(&t, 1, 1);
        let (h1, _) = t.lookup(fid(1)).unwrap();
        t.remove(fid(1));
        insert(&t, 2, 2);
        let (h2, _) = t.lookup(fid(2)).unwrap();
        assert_eq!(h1, h2, "freed slot is reused");
        // The old FID no longer resolves through the recycled slot.
        assert!(t.lookup(fid(1)).is_none());
    }

    #[test]
    fn eviction_retires_through_the_rcu_path() {
        let t = table(1, 2, AdmissionPolicy::EvictOldest);
        insert(&t, 1, 1);
        insert(&t, 2, 2);
        let held = t.get(fid(1)).unwrap(); // reader still holds the value
        let Admission::Inserted { evicted: Some(victim), .. } = insert(&t, 3, 3) else {
            panic!("expected an eviction");
        };
        assert_eq!(victim.fid, fid(1));
        drop(victim);
        // The evicted slot value sits in the retired backlog until
        // collected — same path as generation replacement.
        t.collect_generations();
        assert_eq!(t.pending_generations(), 0);
        assert_eq!(*held, 1);
    }

    #[test]
    fn len_and_for_each_agree_across_shards() {
        let t = table(8, 0, AdmissionPolicy::EvictOldest);
        for n in 0..100u32 {
            insert(&t, n * 131, u64::from(n));
        }
        assert_eq!(t.len(), 100);
        let mut seen = 0;
        t.for_each(|_, _, _| seen += 1);
        assert_eq!(seen, 100);
    }

    #[test]
    fn next_due_gates_expiry() {
        let t = table(2, 0, AdmissionPolicy::EvictOldest);
        assert_eq!(t.next_due(), u64::MAX);
        insert(&t, 1, 100);
        assert!(t.next_due() <= 100);
    }

    #[test]
    fn replace_if_present_refuses_absent_flows() {
        let t = table(2, 0, AdmissionPolicy::EvictOldest);
        assert!(!t.replace_if_present(fid(1), Arc::new(9), 1));
        assert!(t.is_empty());
        insert(&t, 1, 1);
        assert!(t.replace_if_present(fid(1), Arc::new(9), 2));
        assert_eq!(*t.get(fid(1)).unwrap(), 9);
        t.remove(fid(1));
        assert!(!t.replace_if_present(fid(1), Arc::new(10), 3));
        assert!(t.get(fid(1)).is_none());
    }

    #[test]
    fn open_with_returns_existing_without_replacing() {
        let t = table(1, 2, AdmissionPolicy::Reject);
        let Opened::Created { value, .. } = t.open_with(fid(1), 1, || Arc::new(7)) else {
            panic!("expected creation");
        };
        assert_eq!(*value, 7);
        // A second opener gets the first entry back, untouched.
        let Opened::Existing { value, .. } = t.open_with(fid(1), 2, || Arc::new(8)) else {
            panic!("expected existing entry");
        };
        assert_eq!(*value, 7);
        let (h, _) = t.lookup(fid(1)).unwrap();
        assert_eq!(t.last_touch(h), 2, "existing entry is touched");
        // Rejection applies to creations only.
        t.open_with(fid(2), 3, || Arc::new(9));
        assert!(matches!(t.open_with(fid(3), 4, || Arc::new(10)), Opened::Rejected));
        assert!(matches!(t.open_with(fid(1), 5, || Arc::new(11)), Opened::Existing { .. }));
    }

    #[test]
    fn wheel_stays_bounded_under_churn_without_expiry() {
        // Open/close churn with no idle expiry and no capacity pressure:
        // nothing pops the wheel, so only compaction bounds it.
        let t = table(4, 0, AdmissionPolicy::EvictOldest);
        for i in 0..50_000u32 {
            let n = (i % 300) * 4099;
            insert(&t, n, u64::from(i));
            if i % 3 != 0 {
                t.remove(fid(n));
            }
        }
        for shard in t.shards.iter() {
            let w = shard.writer.lock();
            assert!(
                w.wheel.len() <= 2 * w.allocated as usize + WHEEL_SLACK,
                "{} wheel items for {} slots",
                w.wheel.len(),
                w.allocated
            );
        }
        // Expiry still finds every idle survivor after the compactions.
        let live = t.len();
        assert!(live > 0);
        assert_eq!(t.expire_idle(1_000_000, 10).len(), live);
        assert!(t.is_empty());
    }

    #[test]
    fn compaction_keeps_lru_order() {
        let t = table(1, 0, AdmissionPolicy::EvictOldest);
        // Cycle slot reuse far past the compaction threshold, leaving
        // three live flows with known recency.
        for i in 0..1_000u32 {
            insert(&t, 100 + i % 7, u64::from(i));
            t.remove(fid(100 + i % 7));
        }
        insert(&t, 1, 2_000);
        insert(&t, 2, 2_001);
        insert(&t, 3, 2_002);
        let (h1, _) = t.lookup(fid(1)).unwrap();
        t.touch(h1, 2_010);
        let fids: Vec<Fid> = t.evict_oldest(3).iter().map(|e| e.fid).collect();
        assert_eq!(fids, vec![fid(2), fid(3), fid(1)]);
    }

    #[test]
    fn capacity_spans_multiple_chunks() {
        // Force slot allocation past one chunk boundary.
        let t = table(1, CHUNK + 10, AdmissionPolicy::EvictOldest);
        for n in 0..(CHUNK as u32 + 10) {
            insert(&t, n, u64::from(n));
        }
        assert_eq!(t.len(), CHUNK + 10);
        let Admission::Inserted { evicted: Some(victim), .. } =
            insert(&t, CHUNK as u32 + 11, u64::from(CHUNK as u32) + 11)
        else {
            panic!("expected an eviction at capacity");
        };
        assert_eq!(victim.fid, fid(0));
    }
}
