//! The Packet Classifier (paper §III, §VI-B).
//!
//! First touch for every packet: hash the 5-tuple to the 20-bit FID, attach
//! it as metadata, and steer the packet — initial packets to the original
//! chain (slow path), subsequent packets to the Global MAT (fast path).
//! The classifier also watches TCP FIN/RST to garbage-collect rules.
//!
//! Flow state lives in a bounded [`FlowTable`]: slab slots addressed by a
//! direct FID index (lookups are wait-free — no hashing, no generation
//! clone), a per-shard timer wheel driven by the deterministic packet
//! clock for idle expiry, and a configurable capacity with LRU eviction or
//! admission rejection when full (see [`PacketClass::Rejected`]).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use speedybox_packet::{Fid, FiveTuple, Packet};
use speedybox_telemetry::{CounterShard, Telemetry};

use crate::flow_table::{AdmissionPolicy, FlowTable, Opened, FID_SPACE};
use crate::ops::OpCounter;

/// How the classifier steers a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketClass {
    /// First packet of the flow — traverse the original chain and record
    /// rules into the Local MATs.
    Initial,
    /// Subsequent packet — take the consolidated fast path.
    Subsequent,
    /// The packet's FID collides with a *different* flow's (20-bit FID
    /// space, paper §VI-B): the packet must take the original chain
    /// uninstrumented so the colliding flow's rule is never corrupted.
    /// The paper's prototype shares the rule slot silently; detecting the
    /// 5-tuple mismatch is this reproduction's safety extension.
    Collision,
    /// TCP handshake packet of a not-yet-established flow (SYN/SYN-ACK).
    /// Only emitted in handshake-aware mode
    /// ([`PacketClassifier::handshake_aware`]), which implements the
    /// paper's §III definition — "the initial packet \[is\] the first packet
    /// after a connection is established (e.g., after the 3-way TCP
    /// handshake)". Handshake packets traverse the original chain without
    /// recording.
    Handshake,
    /// The flow table is at capacity under [`AdmissionPolicy::Reject`] and
    /// this packet's flow was not admitted: no state is tracked and no
    /// rule is recorded — the packet rides the original chain
    /// uninstrumented (graceful degradation, identical forwarding
    /// behaviour, no fast path).
    Rejected,
}

/// Per-flow classifier bookkeeping.
///
/// Held by the flow table as an `Arc`, with every mutable field an atomic:
/// steering an *existing* flow only updates these atomics and is therefore
/// wait-free — no lock, no table mutation. Structural changes (first
/// packet of a flow, teardown, expiry) go through the table's writer path
/// instead. Recency lives in the flow-table slot (`touch`), not here.
#[derive(Debug)]
struct FlowEntry {
    /// The 5-tuple that claimed this FID (collision detection). Fixed at
    /// creation — a FID slot is never re-owned without a remove + reopen.
    owner: FiveTuple,
    packets: AtomicU64,
    /// In handshake-aware mode: the flow's rule has been recorded (its
    /// post-handshake initial packet already went down the slow path).
    recorded: AtomicBool,
}

impl FlowEntry {
    fn new(owner: FiveTuple) -> Self {
        Self { owner, packets: AtomicU64::new(0), recorded: AtomicBool::new(false) }
    }
}

/// Default shard count for the flow table. Power of two so the shard index
/// is a mask of the (uniformly hashed) 20-bit FID.
pub const DEFAULT_CLASSIFIER_SHARDS: usize = 16;

/// Teardown hook invoked (outside all table locks) with each flow the
/// classifier evicts under capacity pressure, so the owner can remove the
/// flow's Global-MAT rule and notify NFs.
pub type EvictHook = Arc<dyn Fn(Fid) + Send + Sync>;

/// The SpeedyBox Packet Classifier.
///
/// Flow state is a bounded [`FlowTable`] keyed by FID: steering an
/// already-tracked flow is wait-free — one direct-index lookup plus atomic
/// per-flow counter updates, no lock — while structural changes (flow open
/// / teardown / expiry) serialize on per-shard writer mutexes that readers
/// never touch. Capacity and the when-full policy come from
/// [`PacketClassifier::with_limits`]; evictions fire the
/// [`EvictHook`] so MAT rules are torn down with the flow state.
///
/// ```
/// use speedybox_mat::{OpCounter, PacketClass, PacketClassifier};
/// use speedybox_packet::PacketBuilder;
///
/// let classifier = PacketClassifier::new();
/// let mut ops = OpCounter::default();
/// let mut first = PacketBuilder::tcp().build();
/// let c = classifier.classify(&mut first, &mut ops)?;
/// assert_eq!(c.class, PacketClass::Initial);
/// assert_eq!(first.fid(), Some(c.fid)); // FID attached as metadata
///
/// let mut second = PacketBuilder::tcp().build();
/// let c2 = classifier.classify(&mut second, &mut ops)?;
/// assert_eq!(c2.class, PacketClass::Subsequent);
/// # Ok::<(), speedybox_packet::PacketError>(())
/// ```
pub struct PacketClassifier {
    table: FlowTable<FlowEntry>,
    /// Monotonic packet clock: incremented per classified packet. Used as
    /// the timebase for idle-flow expiry (deterministic, no wall clock).
    clock: AtomicU64,
    /// Implement the paper's §III initial-packet definition: TCP SYN
    /// packets of unestablished flows are steered as
    /// [`PacketClass::Handshake`] and recording starts with the first
    /// post-handshake packet. Off by default (record from the very first
    /// packet, which is what synthetic pktgen-style traffic needs).
    handshake_aware: bool,
    /// Optional telemetry sink: flow lifecycle counters (opens, closes,
    /// expiries, evictions, rejections, FID collisions, handshake
    /// packets). Relaxed atomics; no effect on steering.
    sink: Option<Arc<Telemetry>>,
    /// Capacity-eviction teardown hook (see [`EvictHook`]).
    evictor: Option<EvictHook>,
}

impl std::fmt::Debug for PacketClassifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PacketClassifier")
            .field("table", &self.table)
            .field("clock", &self.clock)
            .field("handshake_aware", &self.handshake_aware)
            .field("evictor", &self.evictor.is_some())
            .finish()
    }
}

impl Default for PacketClassifier {
    fn default() -> Self {
        Self::with_shards(DEFAULT_CLASSIFIER_SHARDS)
    }
}

/// Classifier verdict for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Classification {
    /// Assigned flow ID (also attached to the packet).
    pub fid: Fid,
    /// Steering decision.
    pub class: PacketClass,
    /// True if this packet closes the flow (FIN/RST): the caller must tear
    /// down the flow's rules after processing it.
    pub closes_flow: bool,
}

/// One not-yet-steered packet of a batch (parse succeeded; awaiting its
/// clock tick).
#[derive(Debug)]
struct Pending {
    idx: usize,
    fid: Fid,
    tuple: FiveTuple,
    now: u64,
    is_syn: bool,
    closes: bool,
}

/// Reusable intermediate storage for
/// [`PacketClassifier::classify_batch_into`]; hold one per worker and the
/// classifier allocates nothing per batch once the vectors are warm.
#[derive(Debug, Default)]
pub struct ClassifyScratch {
    slots: Vec<Option<Result<Classification, speedybox_packet::PacketError>>>,
    pending: Vec<Pending>,
}

impl PacketClassifier {
    /// Creates an empty classifier with the default shard count and an
    /// unbounded (full-FID-space) flow table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty classifier with (at least) `shards` flow-table
    /// shards, rounded up to a power of two. Shard count never changes
    /// steering decisions — only lock granularity.
    #[must_use]
    pub fn with_shards(shards: usize) -> Self {
        Self::with_limits(shards, FID_SPACE, AdmissionPolicy::EvictOldest)
    }

    /// Creates an empty classifier with explicit flow-table bounds: at
    /// most `max_flows` live flows (0 = unbounded), handling overflow per
    /// `policy`.
    #[must_use]
    pub fn with_limits(shards: usize, max_flows: usize, policy: AdmissionPolicy) -> Self {
        Self {
            table: FlowTable::new(shards, max_flows, policy),
            clock: AtomicU64::new(0),
            handshake_aware: false,
            sink: None,
            evictor: None,
        }
    }

    /// Number of flow-table shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.table.shard_count()
    }

    /// The flow-table capacity (live-flow bound).
    #[must_use]
    pub fn max_flows(&self) -> usize {
        self.table.capacity()
    }

    /// Enables the paper's §III handshake-aware initial-packet definition.
    #[must_use]
    pub fn handshake_aware(mut self) -> Self {
        self.handshake_aware = true;
        self
    }

    /// Whether handshake-aware steering is active.
    #[must_use]
    pub fn is_handshake_aware(&self) -> bool {
        self.handshake_aware
    }

    /// Attaches a telemetry sink for flow lifecycle counters.
    #[must_use]
    pub fn with_telemetry(mut self, sink: Arc<Telemetry>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Attaches the capacity-eviction teardown hook, called with each
    /// flow evicted to make room (after the table locks are released).
    /// Idle expiry does *not* fire the hook —
    /// [`PacketClassifier::expire_idle`] returns the FIDs to its caller
    /// instead.
    #[must_use]
    pub fn with_evictor(mut self, hook: EvictHook) -> Self {
        self.evictor = Some(hook);
        self
    }

    /// The telemetry cell for a FID, if a sink is attached.
    fn cell(&self, fid: Fid) -> Option<&CounterShard> {
        self.sink.as_ref().map(|t| t.shard(fid.index() as u64))
    }

    /// Classifies a packet: computes and attaches the FID, decides
    /// initial vs. subsequent, and flags flow teardown.
    ///
    /// The FID is derived from the packet's 5-tuple *at chain entry*; NFs
    /// downstream may rewrite headers but the metadata FID stays put.
    ///
    /// # Errors
    /// Propagates a parse failure for malformed packets.
    pub fn classify(
        &self,
        packet: &mut Packet,
        ops: &mut OpCounter,
    ) -> Result<Classification, speedybox_packet::PacketError> {
        let tuple = packet.five_tuple()?;
        let fid = tuple.fid();
        // One classification op covers the parse + hash + table probe +
        // FID attach (priced as a unit by the cycle model).
        ops.classifications += 1;
        packet.set_fid(fid);
        let now = self.clock.fetch_add(1, Relaxed);
        let is_syn = packet.tcp_flags().syn();
        let class = self.steer(fid, tuple, now, is_syn);
        let closes_flow = packet.tcp_flags().closes_flow();
        Ok(Classification { fid, class, closes_flow })
    }

    /// The steering decision proper. Wait-free for already-tracked flows
    /// (one borrowed flow-table read + atomic field updates, no `Arc`
    /// clone); only a flow's *first* packet takes the table's writer path
    /// to open its slot.
    fn steer(&self, fid: Fid, tuple: FiveTuple, now: u64, is_syn: bool) -> PacketClass {
        let cell = self.cell(fid);
        let tracked = self.table.read(fid, |handle, entry| {
            self.table.touch(handle, now);
            self.steer_entry(entry, tuple, is_syn)
        });
        let class = match tracked {
            Some(class) => class,
            None => match self.table.open_with(fid, now, || Arc::new(FlowEntry::new(tuple))) {
                Opened::Existing { value, .. } => self.steer_entry(&value, tuple, is_syn),
                Opened::Created { value, evicted, .. } => {
                    if let Some(cell) = cell {
                        cell.add_flows_opened(1);
                    }
                    if let Some(victim) = evicted {
                        // Capacity pressure displaced the table-wide LRU
                        // flow: count it and let the owner tear down its
                        // MAT rules (the hook runs outside table locks).
                        if let Some(vcell) = self.cell(victim.fid) {
                            vcell.add_flows_evicted(1);
                        }
                        if let Some(hook) = &self.evictor {
                            hook(victim.fid);
                        }
                    }
                    self.steer_entry(&value, tuple, is_syn)
                }
                Opened::Rejected => {
                    if let Some(cell) = cell {
                        cell.add_flows_rejected(1);
                    }
                    return PacketClass::Rejected;
                }
            },
        };
        if let Some(cell) = cell {
            match class {
                PacketClass::Collision => cell.add_fid_collisions(1),
                PacketClass::Handshake => cell.add_handshake_packets(1),
                _ => {}
            }
        }
        class
    }

    /// Steers one packet against its flow's entry: collision check,
    /// handshake gating, and the exactly-once Initial claim.
    fn steer_entry(&self, entry: &FlowEntry, tuple: FiveTuple, is_syn: bool) -> PacketClass {
        let class = if entry.owner != tuple {
            PacketClass::Collision
        } else if self.handshake_aware && is_syn && !entry.recorded.load(Relaxed) {
            // §III: handshake packets precede the "initial packet";
            // they ride the original chain without recording.
            PacketClass::Handshake
        } else if !entry.recorded.load(Relaxed)
            && entry.recorded.compare_exchange(false, true, Relaxed, Relaxed).is_ok()
        {
            // The CAS guarantees exactly one packet is steered Initial per
            // flow slot even under concurrent classification; the plain
            // load before it lets every later packet skip the locked RMW.
            PacketClass::Initial
        } else {
            PacketClass::Subsequent
        };
        if class != PacketClass::Collision {
            entry.packets.fetch_add(1, Relaxed);
        }
        class
    }

    /// Classifies a batch of packets, drawing one clock advance for the
    /// whole batch. Steering itself is the wait-free [`Self::steer`] path;
    /// there is no lock left to amortize.
    ///
    /// Equivalent to calling [`PacketClassifier::classify`] on each packet
    /// in slice order — same clock values, same steering, same per-packet
    /// op counts — with one deliberate difference: a packet that closes its
    /// flow (FIN/RST, non-colliding) has its classifier entry removed
    /// *here*, before any later packet in the batch is steered, exactly
    /// where the sequential caller would have called
    /// [`PacketClassifier::remove_flow`] between packets. Batch callers
    /// must therefore NOT call `remove_flow` on the classifier again for
    /// those packets (tearing down the Global MAT side stays the caller's
    /// job); a second removal could delete the state of a later in-batch
    /// packet that re-claimed the FID.
    ///
    /// Per-flow packet order is preserved: same flow → same FID → same
    /// shard, and each shard processes its packets in slice order.
    ///
    /// # Panics
    /// Panics if `ops.len() != packets.len()`.
    pub fn classify_batch(
        &self,
        packets: &mut [Packet],
        ops: &mut [OpCounter],
    ) -> Vec<Result<Classification, speedybox_packet::PacketError>> {
        let mut out = Vec::with_capacity(packets.len());
        self.classify_batch_into(packets, ops, &mut out, &mut ClassifyScratch::default());
        out
    }

    /// [`PacketClassifier::classify_batch`] into caller-owned storage:
    /// results are appended to `out` (cleared first) and all intermediate
    /// state lives in `scratch`, so a warm caller reclassifies batch after
    /// batch without touching the allocator.
    ///
    /// # Panics
    /// Panics if `ops.len() != packets.len()`.
    pub fn classify_batch_into(
        &self,
        packets: &mut [Packet],
        ops: &mut [OpCounter],
        out: &mut Vec<Result<Classification, speedybox_packet::PacketError>>,
        scratch: &mut ClassifyScratch,
    ) {
        assert_eq!(packets.len(), ops.len(), "one OpCounter per packet");
        let ClassifyScratch { slots, pending } = scratch;
        slots.clear();
        slots.resize_with(packets.len(), || None);
        pending.clear();
        for (idx, packet) in packets.iter_mut().enumerate() {
            match packet.five_tuple() {
                Err(e) => slots[idx] = Some(Err(e)),
                Ok(tuple) => {
                    let fid = tuple.fid();
                    ops[idx].classifications += 1;
                    packet.set_fid(fid);
                    pending.push(Pending {
                        idx,
                        fid,
                        tuple,
                        now: 0,
                        is_syn: packet.tcp_flags().syn(),
                        closes: packet.tcp_flags().closes_flow(),
                    });
                }
            }
        }
        // One clock advance for the whole batch; packet i gets the tick it
        // would have drawn classifying sequentially (parse failures draw
        // none, as in the per-packet path).
        let base = self.clock.fetch_add(pending.len() as u64, Relaxed);
        for (j, p) in pending.iter_mut().enumerate() {
            p.now = base + j as u64;
        }
        for p in pending.iter() {
            let class = self.steer(p.fid, p.tuple, p.now, p.is_syn);
            if p.closes && class != PacketClass::Collision {
                // Sequential teardown point: the per-packet caller removes
                // the flow before classifying the next packet, so a later
                // in-batch packet with this FID sees a fresh slot. A
                // Rejected packet's FID has no entry, so this no-ops.
                if self.table.remove(p.fid).is_some() {
                    if let Some(cell) = self.cell(p.fid) {
                        cell.add_flows_closed(1);
                    }
                }
            }
            slots[p.idx] = Some(Ok(Classification { fid: p.fid, class, closes_flow: p.closes }));
        }
        out.clear();
        out.extend(slots.drain(..).map(|s| s.expect("every packet classified")));
    }

    /// Classifies by 5-tuple only (no packet mutation) — used by tests and
    /// by workload planners that need to predict steering.
    #[must_use]
    pub fn peek(&self, tuple: &FiveTuple) -> PacketClass {
        let fid = tuple.fid();
        self.table
            .read(fid, |_, s| {
                if s.owner != *tuple {
                    PacketClass::Collision
                } else if s.recorded.load(Relaxed) {
                    PacketClass::Subsequent
                } else {
                    PacketClass::Initial
                }
            })
            .unwrap_or(PacketClass::Initial)
    }

    /// Force-evicts the `k` least-recently-seen flows — the same
    /// wheel-driven LRU path capacity pressure takes — returning the
    /// victims' FIDs. Unlike automatic capacity eviction, the evictor
    /// hook does **not** fire: the caller owns the rest of the teardown
    /// (Global MAT, Local MATs, Event Table).
    pub fn evict_oldest(&self, k: usize) -> Vec<Fid> {
        let mut out = Vec::new();
        for victim in self.table.evict_oldest(k) {
            if let Some(cell) = self.cell(victim.fid) {
                cell.add_flows_evicted(1);
            }
            out.push(victim.fid);
        }
        out
    }

    /// Forgets a flow (called together with `GlobalMat::remove_flow` when a
    /// FIN/RST packet has finished processing). The next packet with this
    /// FID is treated as initial again.
    pub fn remove_flow(&self, fid: Fid) {
        if self.table.remove(fid).is_some() {
            if let Some(cell) = self.cell(fid) {
                cell.add_flows_closed(1);
            }
        }
    }

    /// Number of tracked flows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True if no flows are tracked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Packets seen so far for a flow.
    #[must_use]
    pub fn packets_seen(&self, fid: Fid) -> u64 {
        self.table.read(fid, |_, s| s.packets.load(Relaxed)).unwrap_or(0)
    }

    /// Retired flow-slot values not yet reclaimed (removed, evicted or
    /// replaced entries awaiting RCU collection).
    #[must_use]
    pub fn pending_generations(&self) -> usize {
        self.table.pending_generations()
    }

    /// Attempts to reclaim retired flow-slot values; returns how many
    /// were freed.
    pub fn collect_generations(&self) -> usize {
        self.table.collect_generations()
    }

    /// The classifier's monotonic packet clock (one tick per classified
    /// packet).
    #[must_use]
    pub fn clock(&self) -> u64 {
        self.clock.load(Relaxed)
    }

    /// A conservative lower bound on the earliest clock tick any flow
    /// could expire at (`u64::MAX` when no flows are tracked). Lets batch
    /// loops skip [`PacketClassifier::expire_idle`] entirely while nothing
    /// can be due.
    #[must_use]
    pub fn next_expiry_due(&self) -> u64 {
        self.table.next_due()
    }

    /// Expires flows idle for more than `max_idle` clock ticks, returning
    /// the expired FIDs so the caller can tear down their MAT rules.
    ///
    /// TCP flows are normally garbage-collected on FIN/RST (§VI-B of the
    /// paper); this extension reclaims UDP flows and half-dead TCP flows
    /// that never close. The timebase is the deterministic packet clock,
    /// so tests and the simulators stay reproducible; the scan is the flow
    /// table's timer wheel — amortized O(1) per tick, not O(flows).
    pub fn expire_idle(&self, max_idle: u64) -> Vec<Fid> {
        let now = self.clock();
        let mut expired = Vec::new();
        for victim in self.table.expire_idle(now, max_idle) {
            if let Some(cell) = self.cell(victim.fid) {
                cell.add_flows_expired(1);
            }
            expired.push(victim.fid);
        }
        expired
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicUsize;

    use speedybox_packet::{PacketBuilder, TcpFlags};

    use super::*;

    fn pkt(src_port: u16, flags: u8) -> Packet {
        PacketBuilder::tcp()
            .src(format!("10.0.0.1:{src_port}").parse().unwrap())
            .dst("10.0.0.2:80".parse().unwrap())
            .flags(flags)
            .build()
    }

    #[test]
    fn first_packet_is_initial_then_subsequent() {
        let cl = PacketClassifier::new();
        let mut ops = OpCounter::default();
        let mut p1 = pkt(1000, TcpFlags::SYN);
        let c1 = cl.classify(&mut p1, &mut ops).unwrap();
        assert_eq!(c1.class, PacketClass::Initial);
        let mut p2 = pkt(1000, TcpFlags::ACK);
        let c2 = cl.classify(&mut p2, &mut ops).unwrap();
        assert_eq!(c2.class, PacketClass::Subsequent);
        assert_eq!(c1.fid, c2.fid);
        assert_eq!(cl.packets_seen(c1.fid), 2);
    }

    #[test]
    fn fid_is_attached_to_packet() {
        let cl = PacketClassifier::new();
        let mut ops = OpCounter::default();
        let mut p = pkt(1000, TcpFlags::ACK);
        assert!(p.fid().is_none());
        let c = cl.classify(&mut p, &mut ops).unwrap();
        assert_eq!(p.fid(), Some(c.fid));
    }

    #[test]
    fn distinct_flows_get_distinct_state() {
        let cl = PacketClassifier::new();
        let mut ops = OpCounter::default();
        let mut a = pkt(1000, TcpFlags::ACK);
        let mut b = pkt(2000, TcpFlags::ACK);
        cl.classify(&mut a, &mut ops).unwrap();
        let cb = cl.classify(&mut b, &mut ops).unwrap();
        assert_eq!(cb.class, PacketClass::Initial);
        assert_eq!(cl.len(), 2);
    }

    #[test]
    fn fin_and_rst_flag_teardown() {
        let cl = PacketClassifier::new();
        let mut ops = OpCounter::default();
        let mut fin = pkt(1000, TcpFlags::FIN | TcpFlags::ACK);
        assert!(cl.classify(&mut fin, &mut ops).unwrap().closes_flow);
        let mut rst = pkt(1001, TcpFlags::RST);
        assert!(cl.classify(&mut rst, &mut ops).unwrap().closes_flow);
        let mut ack = pkt(1002, TcpFlags::ACK);
        assert!(!cl.classify(&mut ack, &mut ops).unwrap().closes_flow);
    }

    #[test]
    fn removed_flow_becomes_initial_again() {
        let cl = PacketClassifier::new();
        let mut ops = OpCounter::default();
        let mut p = pkt(1000, TcpFlags::ACK);
        let c = cl.classify(&mut p, &mut ops).unwrap();
        cl.remove_flow(c.fid);
        assert!(cl.is_empty());
        let mut p2 = pkt(1000, TcpFlags::ACK);
        assert_eq!(cl.classify(&mut p2, &mut ops).unwrap().class, PacketClass::Initial);
    }

    #[test]
    fn peek_does_not_mutate() {
        let cl = PacketClassifier::new();
        let p = pkt(1000, TcpFlags::ACK);
        let t = p.five_tuple().unwrap();
        assert_eq!(cl.peek(&t), PacketClass::Initial);
        assert_eq!(cl.peek(&t), PacketClass::Initial);
        assert!(cl.is_empty());
    }

    /// Finds two distinct 5-tuples with the same 20-bit FID (birthday
    /// search over the address space).
    fn colliding_tuples() -> (FiveTuple, FiveTuple) {
        use std::collections::HashMap;
        use std::net::Ipv4Addr;

        use speedybox_packet::Protocol;

        let mut seen: HashMap<Fid, FiveTuple> = HashMap::new();
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                for port in [1000u16, 2000, 3000, 4000] {
                    let t = FiveTuple::new(
                        Ipv4Addr::new(10, 5, a, b),
                        port,
                        Ipv4Addr::new(10, 0, 0, 2),
                        80,
                        Protocol::Tcp,
                    );
                    if let Some(prev) = seen.insert(t.fid(), t) {
                        if prev != t {
                            return (prev, t);
                        }
                    }
                }
            }
        }
        panic!("no FID collision in search space (hash badly broken?)");
    }

    #[test]
    fn fid_collision_is_detected() {
        use std::net::SocketAddrV4;

        let (ta, tb) = colliding_tuples();
        assert_eq!(ta.fid(), tb.fid());
        let cl = PacketClassifier::new();
        let mut ops = OpCounter::default();
        let mk = |t: &FiveTuple| {
            let mut b = PacketBuilder::tcp();
            b.src(SocketAddrV4::new(t.src_ip, t.src_port))
                .dst(SocketAddrV4::new(t.dst_ip, t.dst_port));
            b.build()
        };
        // First flow claims the FID.
        let mut pa = mk(&ta);
        assert_eq!(cl.classify(&mut pa, &mut ops).unwrap().class, PacketClass::Initial);
        // The colliding flow is flagged, repeatedly.
        let mut pb = mk(&tb);
        assert_eq!(cl.classify(&mut pb, &mut ops).unwrap().class, PacketClass::Collision);
        let mut pb2 = mk(&tb);
        assert_eq!(cl.classify(&mut pb2, &mut ops).unwrap().class, PacketClass::Collision);
        assert_eq!(cl.peek(&tb), PacketClass::Collision);
        // The owner keeps normal service.
        let mut pa2 = mk(&ta);
        assert_eq!(cl.classify(&mut pa2, &mut ops).unwrap().class, PacketClass::Subsequent);
        // Once the owner departs, the colliding flow can claim the slot.
        cl.remove_flow(ta.fid());
        let mut pb3 = mk(&tb);
        assert_eq!(cl.classify(&mut pb3, &mut ops).unwrap().class, PacketClass::Initial);
    }

    #[test]
    fn idle_flows_expire() {
        let cl = PacketClassifier::new();
        let mut ops = OpCounter::default();
        let mut a = pkt(1000, TcpFlags::ACK);
        let fid_a = cl.classify(&mut a, &mut ops).unwrap().fid;
        // Busy flow b keeps ticking while a goes idle.
        for _ in 0..20 {
            let mut b = pkt(2000, TcpFlags::ACK);
            cl.classify(&mut b, &mut ops).unwrap();
        }
        let expired = cl.expire_idle(10);
        assert_eq!(expired, vec![fid_a]);
        assert_eq!(cl.len(), 1, "busy flow survives");
        // The expired flow is initial again.
        let mut a2 = pkt(1000, TcpFlags::ACK);
        assert_eq!(cl.classify(&mut a2, &mut ops).unwrap().class, PacketClass::Initial);
    }

    #[test]
    fn expire_idle_with_no_idle_flows_is_noop() {
        let cl = PacketClassifier::new();
        let mut ops = OpCounter::default();
        let mut p = pkt(1000, TcpFlags::ACK);
        cl.classify(&mut p, &mut ops).unwrap();
        assert!(cl.expire_idle(1000).is_empty());
        assert_eq!(cl.len(), 1);
        assert_eq!(cl.clock(), 1);
    }

    #[test]
    fn classification_counts_ops() {
        let cl = PacketClassifier::new();
        let mut ops = OpCounter::default();
        let mut p = pkt(1000, TcpFlags::ACK);
        cl.classify(&mut p, &mut ops).unwrap();
        assert_eq!(ops.classifications, 1);
        assert_eq!(ops.parses, 0, "classification op covers its own parse");
    }

    #[test]
    fn capacity_eviction_fires_hook_and_keeps_bound() {
        let evictions = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&evictions);
        let cl = PacketClassifier::with_limits(1, 3, AdmissionPolicy::EvictOldest)
            .with_evictor(Arc::new(move |fid| log.lock().push(fid)));
        let mut ops = OpCounter::default();
        let mut fids = Vec::new();
        for port in [1000u16, 2000, 3000, 4000, 5000] {
            let mut p = pkt(port, TcpFlags::ACK);
            fids.push(cl.classify(&mut p, &mut ops).unwrap().fid);
        }
        assert_eq!(cl.len(), 3, "table stays at capacity");
        // The two oldest flows were displaced, in order.
        assert_eq!(*evictions.lock(), vec![fids[0], fids[1]]);
        // An evicted flow is initial again on return (and displaces the
        // now-oldest).
        let mut back = pkt(1000, TcpFlags::ACK);
        assert_eq!(cl.classify(&mut back, &mut ops).unwrap().class, PacketClass::Initial);
        assert_eq!(cl.len(), 3);
    }

    use parking_lot::Mutex;

    #[test]
    fn reject_policy_steers_rejected_without_state() {
        let cl = PacketClassifier::with_limits(1, 2, AdmissionPolicy::Reject);
        let mut ops = OpCounter::default();
        for port in [1000u16, 2000] {
            let mut p = pkt(port, TcpFlags::ACK);
            cl.classify(&mut p, &mut ops).unwrap();
        }
        let mut p = pkt(3000, TcpFlags::ACK);
        let c = cl.classify(&mut p, &mut ops).unwrap();
        assert_eq!(c.class, PacketClass::Rejected);
        assert_eq!(cl.len(), 2, "rejected flow leaves no state");
        assert_eq!(cl.packets_seen(c.fid), 0);
        // Tracked flows keep normal service at capacity.
        let mut p2 = pkt(1000, TcpFlags::ACK);
        assert_eq!(cl.classify(&mut p2, &mut ops).unwrap().class, PacketClass::Subsequent);
        // A closing rejected packet must not disturb tracked state.
        let mut fin = pkt(3000, TcpFlags::FIN | TcpFlags::ACK);
        let cf = cl.classify(&mut fin, &mut ops).unwrap();
        assert_eq!(cf.class, PacketClass::Rejected);
        assert!(cf.closes_flow);
        cl.remove_flow(cf.fid); // what a teardown path would do
        assert_eq!(cl.len(), 2);
        // Capacity frees up once a tracked flow departs.
        let mut p3 = pkt(1000, TcpFlags::ACK);
        let fid1 = cl.classify(&mut p3, &mut ops).unwrap().fid;
        cl.remove_flow(fid1);
        let mut p4 = pkt(3000, TcpFlags::ACK);
        assert_eq!(cl.classify(&mut p4, &mut ops).unwrap().class, PacketClass::Initial);
    }

    #[test]
    fn eviction_and_removal_retire_through_rcu() {
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        let cl = PacketClassifier::with_limits(1, 2, AdmissionPolicy::EvictOldest).with_evictor(
            Arc::new(move |_| {
                h.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }),
        );
        let mut ops = OpCounter::default();
        for port in [1000u16, 2000, 3000] {
            let mut p = pkt(port, TcpFlags::ACK);
            cl.classify(&mut p, &mut ops).unwrap();
        }
        assert_eq!(hits.load(std::sync::atomic::Ordering::Relaxed), 1);
        // Evicted + removed entries sit in the retired backlog until
        // collected; nothing leaks after a full drain.
        cl.collect_generations();
        assert_eq!(cl.pending_generations(), 0);
    }
}
