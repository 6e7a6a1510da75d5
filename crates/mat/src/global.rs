//! The Global MAT: the consolidated fast path (paper §V).
//!
//! After a flow's initial packet has traversed the original chain and every
//! NF has populated its Local MAT, the Global MAT consolidates the per-NF
//! rules into one [`GlobalRule`]: a single [`ConsolidatedAction`] for the
//! headers plus the ordered state-function batches (with a precomputed
//! parallel schedule). Subsequent packets are processed directly from here;
//! the Event Table is consulted first so stateful updates take effect
//! immediately (Fig 1's workflow).

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use speedybox_packet::{Fid, FidMap, FidSet, Packet};
use speedybox_telemetry::{CounterShard, Telemetry};

use crate::compiled::{compile, CompiledProgram};
use crate::consolidate::{consolidate, ConsolidatedAction};
use crate::event::EventTable;
use crate::flow_table::{Admission, AdmissionPolicy, FlowHandle, FlowTable, FID_SPACE};
use crate::local::LocalMat;
use crate::ops::OpCounter;
use crate::parallel::schedule;
use crate::state_fn::SfBatch;
use crate::{MatError, Result};

/// The rule's hit counter, padded onto its own cache line (128 bytes
/// covers adjacent-line prefetch pairs) so relaxed increments from
/// concurrent fast-path cores never false-share with the read-mostly rule
/// data sitting next to it.
#[derive(Debug, Default)]
#[repr(align(128))]
struct PaddedCounter(std::sync::atomic::AtomicU64);

/// A consolidated fast-path rule for one flow.
#[derive(Debug)]
pub struct GlobalRule {
    /// The single header action equivalent to the whole chain's.
    pub consolidated: ConsolidatedAction,
    /// `consolidated` lowered to a straight-line micro-op program at
    /// install/rewrite time ([`crate::compiled`]). Event-Table rewrites go
    /// through [`GlobalRule::new`], so the program can never go stale
    /// relative to the action.
    pub compiled: CompiledProgram,
    /// Per-NF state-function batches, in chain order (empty batches
    /// omitted).
    pub batches: Vec<SfBatch>,
    /// Wavefront schedule over `batches` (Table I analysis), precomputed at
    /// consolidation time.
    pub schedule: Vec<Vec<usize>>,
    /// Fast-path hits served by this rule (operational statistics).
    hits: PaddedCounter,
}

impl Clone for GlobalRule {
    fn clone(&self) -> Self {
        Self {
            consolidated: self.consolidated.clone(),
            compiled: self.compiled.clone(),
            batches: self.batches.clone(),
            schedule: self.schedule.clone(),
            hits: PaddedCounter(std::sync::atomic::AtomicU64::new(self.hits())),
        }
    }
}

impl GlobalRule {
    /// Builds a rule, lowering the consolidated action to its compiled
    /// program (hit counter starts at zero).
    #[must_use]
    pub fn new(
        consolidated: ConsolidatedAction,
        batches: Vec<SfBatch>,
        schedule: Vec<Vec<usize>>,
    ) -> Self {
        let compiled = compile(&consolidated);
        Self { consolidated, compiled, batches, schedule, hits: PaddedCounter::default() }
    }

    /// Fast-path packets served by this rule so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.0.load(std::sync::atomic::Ordering::Relaxed)
    }

    fn record_hit(&self) {
        self.hits.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Executes all state-function batches sequentially (the
    /// non-parallel execution mode; the parallel executor in
    /// `speedybox-platform` uses [`GlobalRule::schedule`] instead).
    pub fn execute_batches(&self, packet: &mut Packet, fid: Fid, ops: &mut OpCounter) {
        for batch in &self.batches {
            batch.execute(packet, fid, ops);
        }
    }
}

/// Outcome of fast-path processing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastPathOutcome {
    /// The packet was processed and survives.
    Forwarded,
    /// The packet was dropped (early drop at the head of the chain).
    Dropped,
    /// No rule is installed; the caller must send the packet down the
    /// original (slow) path.
    NoRule,
}

/// Default shard count for the rule table. Power of two so the shard index
/// is a mask of the (uniformly hashed) 20-bit FID.
pub const DEFAULT_GLOBAL_SHARDS: usize = 16;

/// The Global MAT, shared by the classifier and all NFs of one chain.
///
/// Holds the chain's Local MATs so that event-triggered rule patches can be
/// written back and re-consolidated in place (Fig 3).
///
/// Rules live in a bounded [`FlowTable`] keyed by FID: fast-path lookups
/// are **wait-free** — one direct-index probe plus one RCU slot load, no
/// lock, no hashing, regardless of concurrent rule churn — and rule
/// execution stays lock-free after the lookup (rules are handed out as
/// `Arc<GlobalRule>` clones). The table is bounded like the classifier's
/// (`max_flows`); it always uses LRU eviction as its when-full policy —
/// the classifier governs *admission*, this table's bound is a safety net
/// that can never refuse an install for an admitted flow.
#[derive(Debug)]
pub struct GlobalMat {
    locals: Vec<Arc<LocalMat>>,
    table: FlowTable<GlobalRule>,
    /// Monotonic install/touch counter: the recency timebase for the rule
    /// table's LRU safety net (the classifier's packet clock stays the
    /// authoritative idle-expiry timebase).
    tick: AtomicU64,
    events: Arc<EventTable>,
    /// Optional telemetry sink: fast-path hit/miss, rule install/rewrite/
    /// removal counters. Relaxed atomics; no effect on processing.
    sink: Option<Arc<Telemetry>>,
    /// Whether header actions execute as compiled micro-op programs
    /// (default) or through the interpreted [`ConsolidatedAction::apply`]
    /// (`--interpreted` escape hatch / ablation). Atomic so the mode can be
    /// flipped mid-run through a shared handle (fault-injection harnesses);
    /// every rule carries both forms, so a flip is always safe.
    compiled: std::sync::atomic::AtomicBool,
    /// Bitmask of chain positions whose NF is currently dead/recovering.
    /// While any bit is set, rule publication (`install` /
    /// `reinstall_if_present`) is refused: a consolidated rule embeds
    /// recordings from *every* NF, so no rule derived from a
    /// half-recovered chain may reach readers. Readers are unaffected —
    /// the platform tears down installed rules at kill time and routes
    /// packets over the interpreted original walk until recovery.
    quarantine: AtomicU64,
}

impl GlobalMat {
    /// Creates a Global MAT over the chain's Local MATs (chain order), with
    /// the default shard count.
    #[must_use]
    pub fn new(locals: Vec<Arc<LocalMat>>) -> Self {
        Self::with_shards(locals, DEFAULT_GLOBAL_SHARDS)
    }

    /// Creates a Global MAT with (at least) `shards` rule-table shards,
    /// rounded up to a power of two. Shard count never changes processing
    /// results — only lock granularity.
    #[must_use]
    pub fn with_shards(locals: Vec<Arc<LocalMat>>, shards: usize) -> Self {
        Self::with_limits(locals, shards, FID_SPACE)
    }

    /// Creates a Global MAT with explicit rule-table bounds: at most
    /// `max_flows` installed rules (0 = unbounded), evicting the
    /// least-recently-installed rule when full.
    #[must_use]
    pub fn with_limits(locals: Vec<Arc<LocalMat>>, shards: usize, max_flows: usize) -> Self {
        Self {
            locals,
            table: FlowTable::new(shards, max_flows, AdmissionPolicy::EvictOldest),
            tick: AtomicU64::new(0),
            events: Arc::new(EventTable::new()),
            sink: None,
            compiled: std::sync::atomic::AtomicBool::new(true),
            quarantine: AtomicU64::new(0),
        }
    }

    /// Attaches a telemetry sink for fast-path and rule-churn counters.
    /// The shared Event Table sinks into the same hub (events fired).
    #[must_use]
    pub fn with_telemetry(mut self, sink: Arc<Telemetry>) -> Self {
        self.events.set_telemetry(Arc::clone(&sink));
        self.sink = Some(sink);
        self
    }

    /// Selects compiled (default) or interpreted header-action execution.
    /// Never changes processing results — only which op kinds are counted
    /// (`word_writes`/`checksum_patches` vs `field_writes`/
    /// `checksum_fixes`).
    #[must_use]
    pub fn with_compiled(self, compiled: bool) -> Self {
        self.set_compiled(compiled);
        self
    }

    /// True if header actions run as compiled micro-op programs.
    #[must_use]
    pub fn is_compiled(&self) -> bool {
        self.compiled.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Switches between compiled and interpreted execution at runtime.
    /// Always safe mid-run: every installed rule carries both its
    /// [`CompiledProgram`] and its [`ConsolidatedAction`], and both produce
    /// identical packet bytes.
    pub fn set_compiled(&self, compiled: bool) {
        self.compiled.store(compiled, std::sync::atomic::Ordering::Relaxed);
    }

    /// Runs a rule's header action via the configured execution mode,
    /// counting compiled hits/fallbacks. Returns `false` for dropped
    /// packets.
    fn apply_rule(
        &self,
        rule: &GlobalRule,
        fid: Fid,
        packet: &mut Packet,
        ops: &mut OpCounter,
    ) -> Result<bool> {
        if self.is_compiled() {
            if let Some(cell) = self.cell(fid) {
                cell.add_compiled_hits(1);
            }
            rule.compiled.run(packet, ops)
        } else {
            if let Some(cell) = self.cell(fid) {
                cell.add_compiled_fallbacks(1);
            }
            rule.consolidated.apply(packet, ops)
        }
    }

    /// The telemetry cell for a FID, if a sink is attached.
    fn cell(&self, fid: Fid) -> Option<&CounterShard> {
        self.sink.as_ref().map(|t| t.shard(fid.index() as u64))
    }

    /// Number of rule-table shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.table.shard_count()
    }

    /// Maximum number of installed rules (the table's safety-net bound).
    #[must_use]
    pub fn max_flows(&self) -> usize {
        self.table.capacity()
    }

    /// Next recency tick for the rule table's LRU timebase.
    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1
    }

    /// The chain's Local MATs, in chain order.
    #[must_use]
    pub fn locals(&self) -> &[Arc<LocalMat>] {
        &self.locals
    }

    /// The shared Event Table (NFs register events here via
    /// [`crate::api::NfInstrument`]).
    #[must_use]
    pub fn events(&self) -> &Arc<EventTable> {
        &self.events
    }

    /// Marks chain position `nf` as dead: rule publication is refused
    /// until the matching [`GlobalMat::unquarantine_nf`]. Positions ≥ 64
    /// share the top bit (the mask is a chain-wide gate, not a per-NF
    /// reader filter, so aliasing only coarsens the window).
    pub fn quarantine_nf(&self, nf: usize) {
        self.quarantine.fetch_or(1u64 << nf.min(63), std::sync::atomic::Ordering::SeqCst);
    }

    /// Clears chain position `nf`'s quarantine bit; publication resumes
    /// once every quarantined NF has recovered.
    pub fn unquarantine_nf(&self, nf: usize) {
        self.quarantine.fetch_and(!(1u64 << nf.min(63)), std::sync::atomic::Ordering::SeqCst);
    }

    /// True while any NF in the chain is dead/recovering.
    #[must_use]
    pub fn is_quarantined(&self) -> bool {
        self.quarantine_mask() != 0
    }

    /// The raw quarantine bitmask (bit *i* = chain position *i* dead).
    #[must_use]
    pub fn quarantine_mask(&self) -> u64 {
        self.quarantine.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// Consolidates the flow's Local-MAT rules into a [`GlobalRule`]
    /// without publishing it. Counts the consolidation.
    fn build_rule(&self, fid: Fid, ops: &mut OpCounter) -> Arc<GlobalRule> {
        let mut actions = Vec::new();
        let mut batches = Vec::new();
        // Cumulative frame-length delta of the header actions *upstream*
        // of the NF currently being visited. An NF's state functions run
        // against the consolidated (egress) packet on the fast path, so
        // each batch records input-position minus egress length — this is
        // what keeps length-reading state functions (e.g. the monitor's
        // byte counter) positionally exact when an encap/decap pair
        // annihilates around them during consolidation.
        let mut upstream_delta = 0i64;
        // Local-MAT rules are borrowed under each table's read lock: only
        // what the Global rule keeps is cloned, once.
        for local in &self.locals {
            local.with_rule(fid, |rule| {
                if !rule.state_functions.is_empty() {
                    batches.push(
                        SfBatch::new(local.nf(), rule.state_functions.clone())
                            .with_len_adjust(upstream_delta),
                    );
                }
                upstream_delta +=
                    rule.header_actions.iter().map(crate::HeaderAction::len_delta).sum::<i64>();
                actions.extend(rule.header_actions.iter().cloned());
            });
        }
        let egress_delta = upstream_delta;
        for batch in &mut batches {
            batch.len_adjust -= egress_delta;
        }
        let consolidated = consolidate(&actions);
        let sched = schedule(&batches);
        ops.consolidations += 1;
        Arc::new(GlobalRule::new(consolidated, batches, sched))
    }

    /// Consolidates the flow's Local-MAT rules into a fast-path rule
    /// ("As soon as the service chain finishes processing the packet,
    /// SpeedyBox notifies the Global MAT to consolidate the rules for the
    /// FID from all Local MATs", §III).
    ///
    /// If the table is at its safety-net bound, the least-recently-used
    /// rule is evicted first and fully torn down (Local MATs + Event
    /// Table), exactly like [`GlobalMat::remove_flow`].
    pub fn install(&self, fid: Fid, ops: &mut OpCounter) {
        // Publication gate: while an NF is dead, freshly consolidated
        // rules would embed its pre-crash recordings. The recovery
        // protocol sets the mask *before* sweeping the table, so a racing
        // install is either refused here or landed-then-swept — never
        // left visible across the quarantine window.
        if self.is_quarantined() {
            return;
        }
        let rule = self.build_rule(fid, ops);
        if let Some(cell) = self.cell(fid) {
            cell.add_rules_installed(1);
        }
        match self.table.insert(fid, rule, self.next_tick()) {
            Admission::Inserted { evicted: Some(victim), .. } => {
                // Safety-net LRU eviction: the displaced flow must not
                // linger half-installed — tear it down everywhere.
                if let Some(cell) = self.cell(victim.fid) {
                    cell.add_rules_removed(1);
                }
                for local in &self.locals {
                    local.remove(victim.fid);
                }
                self.events.remove_flow(victim.fid);
            }
            Admission::Inserted { .. } | Admission::Replaced { .. } | Admission::Rejected => {}
        }
    }

    /// Re-consolidates and republishes the flow's rule **only if it is
    /// still installed** — the Event-Table rewrite path. Returns whether
    /// the rule was replaced.
    ///
    /// This is the eviction-vs-rewrite atomicity guarantee: a rewrite that
    /// races a concurrent eviction/removal of the same flow must not
    /// resurrect the rule after its Local-MAT and Event-Table state is
    /// gone. `FlowTable::replace_if_present` decides presence and
    /// publication in one writer-side critical section, so the outcome is
    /// always "fully rewritten" or "fully evicted", never a hybrid.
    fn reinstall_if_present(&self, fid: Fid, ops: &mut OpCounter) -> bool {
        if self.is_quarantined() {
            return false;
        }
        let rule = self.build_rule(fid, ops);
        if !self.table.replace_if_present(fid, rule, self.next_tick()) {
            return false;
        }
        if let Some(cell) = self.cell(fid) {
            cell.add_rules_installed(1);
        }
        true
    }

    /// The installed rule for a flow, if any. Wait-free.
    #[must_use]
    pub fn rule(&self, fid: Fid) -> Option<Arc<GlobalRule>> {
        self.table.get(fid)
    }

    /// True if the flow has a fast-path rule. Wait-free.
    #[must_use]
    pub fn contains(&self, fid: Fid) -> bool {
        self.table.contains(fid)
    }

    /// Number of installed fast-path rules.
    #[must_use]
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True if no rules are installed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Number of replaced rule slots not yet reclaimed. Bounded by
    /// rule-churn frequency, never by reader count: every publication
    /// retries reclamation, and [`GlobalMat::collect_generations`]
    /// forces a retry from the control plane.
    #[must_use]
    pub fn pending_generations(&self) -> usize {
        self.table.pending_generations()
    }

    /// Attempts to reclaim retired rule slots; returns how many were
    /// freed. Safe at any time — a slot value is freed only once provably
    /// unreferenced.
    pub fn collect_generations(&self) -> usize {
        self.table.collect_generations()
    }

    /// Removes a flow everywhere: Global MAT, all Local MATs and the Event
    /// Table ("we delete the corresponding rule from the Global MAT and all
    /// Local MATs and free the associated memory space", §VI-B).
    pub fn remove_flow(&self, fid: Fid) {
        if self.table.remove(fid).is_some() {
            if let Some(cell) = self.cell(fid) {
                cell.add_rules_removed(1);
            }
        }
        for local in &self.locals {
            local.remove(fid);
        }
        self.events.remove_flow(fid);
    }

    /// Fast-path step 1's Event Table half: checks the flow's events and,
    /// if any fired, patches the owning NFs' Local MATs and
    /// re-consolidates (Fig 3: "a new consolidated global MAT is
    /// computed"). Returns whether an event fired. The conditional
    /// reinstall loses (and the rewrite is abandoned whole) if a
    /// concurrent eviction tore the flow down in the meantime — the
    /// caller's re-read then misses.
    fn fire_events(&self, fid: Fid, cell: Option<&CounterShard>, ops: &mut OpCounter) -> bool {
        let fired = self.events.check(fid, ops);
        if fired.is_empty() {
            return false;
        }
        for (nf, patch) in fired {
            if let Some(local) = self.locals.iter().find(|l| l.nf() == nf) {
                if let Some(actions) = patch.header_actions {
                    local.set_header_actions(fid, actions);
                }
                if let Some(funcs) = patch.state_functions {
                    local.set_state_functions(fid, funcs);
                }
            }
        }
        if self.reinstall_if_present(fid, ops) {
            if let Some(cell) = cell {
                cell.add_rule_rewrites(1);
            }
        }
        true
    }

    /// Counts a fast-path lookup's outcome and the rule's hit.
    fn count_lookup(cell: Option<&CounterShard>, rule: Option<&Arc<GlobalRule>>) {
        if let Some(cell) = cell {
            match rule {
                Some(_) => cell.add_fastpath_hits(1),
                None => cell.add_fastpath_misses(1),
            }
        }
        if let Some(r) = rule {
            r.record_hit();
        }
    }

    /// Fast-path step 1: consult the Event Table; if events fired, patch
    /// the owning NFs' Local MATs and re-consolidate. Returns the
    /// up-to-date rule, or `None` if the flow has no rule installed.
    ///
    /// One borrowed flow-table read serves both the existence check and
    /// the rule handle; the table is read again only after an Event-Table
    /// rewrite republished the rule.
    ///
    /// Split from [`GlobalMat::process`] so executors that parallelize
    /// state functions can reuse the event/lookup logic.
    pub fn prepare(&self, fid: Fid, ops: &mut OpCounter) -> Option<Arc<GlobalRule>> {
        ops.mat_lookups += 1;
        let cell = self.cell(fid);
        let read = |h: FlowHandle, r: &Arc<GlobalRule>| (h, Arc::clone(r));
        let mut found = self.table.read(fid, read);
        if found.is_some() && self.fire_events(fid, cell, ops) {
            found = self.table.read(fid, read);
        }
        let rule = found.map(|(handle, rule)| {
            self.table.touch(handle, self.next_tick());
            rule
        });
        Self::count_lookup(cell, rule.as_ref());
        rule
    }

    /// Snapshots the installed rules for `fids` — the batch fast path's
    /// up-front lookup. Wait-free throughout: each FID is one direct-index
    /// probe into the flow table (no hashing, no generation clone). FIDs
    /// without a rule are simply absent from the result. Duplicate FIDs
    /// are fine.
    #[must_use]
    pub fn prefetch(&self, fids: &[Fid]) -> FidMap<Arc<GlobalRule>> {
        let mut cache = FidMap::with_capacity_and_hasher(fids.len(), Default::default());
        self.prefetch_into(fids, &mut cache);
        cache
    }

    /// [`GlobalMat::prefetch`] into a caller-owned map (cleared first) —
    /// a warm caller re-prefetches batch after batch without allocating.
    /// Generic over the map's hasher so [`FidMap`] and std `HashMap`
    /// callers share it.
    pub fn prefetch_into<S: BuildHasher>(
        &self,
        fids: &[Fid],
        cache: &mut HashMap<Fid, Arc<GlobalRule>, S>,
    ) {
        cache.clear();
        for &fid in fids {
            if let Entry::Vacant(slot) = cache.entry(fid) {
                if let Some(rule) = self.table.get(fid) {
                    slot.insert(rule);
                }
            }
        }
    }

    /// [`GlobalMat::prepare`] against a prefetched rule handle: identical
    /// op accounting and event handling, but the initial existence check
    /// and final rule fetch are served from `cached` instead of the
    /// table. Returns the up-to-date rule plus whether an event fired (a
    /// fired event re-consolidates the rule, so the caller's cache entry
    /// for this FID is stale from then on).
    ///
    /// `cached` must reflect the table's current entry for `fid` (`None` =
    /// no rule installed); the caller is responsible for invalidating its
    /// cache whenever it installs, patches or removes the flow's rule.
    pub fn prepare_cached(
        &self,
        fid: Fid,
        cached: Option<&Arc<GlobalRule>>,
        ops: &mut OpCounter,
    ) -> (Option<Arc<GlobalRule>>, bool) {
        ops.mat_lookups += 1;
        let cell = self.cell(fid);
        let Some(cached) = cached else {
            Self::count_lookup(cell, None);
            return (None, false);
        };
        if self.fire_events(fid, cell, ops) {
            let rule = self.rule(fid);
            Self::count_lookup(cell, rule.as_ref());
            return (rule, true);
        }
        Self::count_lookup(cell, Some(cached));
        (Some(Arc::clone(cached)), false)
    }

    /// Processes a batch of subsequent packets on the fast path, acquiring
    /// each touched shard's read lock once up front ([`GlobalMat::prefetch`])
    /// instead of twice per packet.
    ///
    /// Equivalent to calling [`GlobalMat::process`] on each packet in slice
    /// order — same outcomes, same per-packet op counts, same Event Table
    /// firings. Packets are processed in slice order, so per-flow ordering
    /// and event sequencing are preserved; a FID whose cached handle goes
    /// stale (event fired mid-batch) falls back to the locked
    /// [`GlobalMat::prepare`] for the rest of the batch.
    ///
    /// # Errors
    /// Returns [`MatError::Packet`] if header surgery fails, and
    /// [`MatError::InvalidActionSequence`] if a packet carries no FID; the
    /// error aborts the remainder of the batch.
    ///
    /// # Panics
    /// Panics if `ops.len() != packets.len()`.
    pub fn process_batch(
        &self,
        packets: &mut [Packet],
        ops: &mut [OpCounter],
    ) -> Result<Vec<FastPathOutcome>> {
        assert_eq!(packets.len(), ops.len(), "one OpCounter per packet");
        let fids: Vec<Option<Fid>> = packets.iter().map(speedybox_packet::Packet::fid).collect();
        let wanted: Vec<Fid> = fids.iter().flatten().copied().collect();
        let cache = self.prefetch(&wanted);
        let mut stale = FidSet::default();
        // Flow-affinity memo: real traffic arrives in same-flow runs, so
        // remember the last FID's rule handle and skip the HashMap probe on
        // a run. The memo only ever replaces *where the cached handle comes
        // from* — `prepare_cached` (with its observable event check) still
        // runs for every packet — and is dropped as soon as an event fires.
        let mut last: Option<(Fid, Arc<GlobalRule>)> = None;
        let mut outcomes = Vec::with_capacity(packets.len());
        for (i, packet) in packets.iter_mut().enumerate() {
            let fid = fids[i].ok_or(MatError::InvalidActionSequence("packet has no FID"))?;
            let rule = if stale.contains(&fid) {
                self.prepare(fid, &mut ops[i])
            } else {
                let memo = match &last {
                    Some((lf, r)) if *lf == fid => Some(r),
                    _ => cache.get(&fid),
                };
                let (rule, fired) = self.prepare_cached(fid, memo, &mut ops[i]);
                if fired {
                    stale.insert(fid);
                    last = None;
                } else if let Some(r) = &rule {
                    last = Some((fid, Arc::clone(r)));
                }
                rule
            };
            let Some(rule) = rule else {
                outcomes.push(FastPathOutcome::NoRule);
                continue;
            };
            if !self.apply_rule(&rule, fid, packet, &mut ops[i])? {
                outcomes.push(FastPathOutcome::Dropped);
                continue;
            }
            rule.execute_batches(packet, fid, &mut ops[i]);
            outcomes.push(FastPathOutcome::Forwarded);
        }
        Ok(outcomes)
    }

    /// A human-readable dump of every installed rule — the operator's view
    /// of the fast path (flow, consolidated action, batches, schedule,
    /// hits).
    #[must_use]
    pub fn dump(&self) -> String {
        use std::fmt::Write as _;
        let mut rules: Vec<(Fid, Arc<GlobalRule>)> = Vec::new();
        self.table.for_each(|fid, rule, _touch| rules.push((fid, Arc::clone(rule))));
        rules.sort_by_key(|(fid, _)| *fid);
        let mut out = String::new();
        let _ = writeln!(out, "global MAT: {} rule(s)", rules.len());
        for (fid, r) in &rules {
            let action = if r.consolidated.is_drop() {
                "drop".to_owned()
            } else if r.consolidated.is_noop() {
                "forward".to_owned()
            } else {
                let fields: Vec<String> =
                    r.consolidated.modifies().iter().map(|(f, _)| f.to_string()).collect();
                let mut a = format!("modify({})", fields.join(","));
                if r.consolidated.net_decaps() > 0 || !r.consolidated.net_encaps().is_empty() {
                    let _ = write!(
                        a,
                        " decap x{} encap x{}",
                        r.consolidated.net_decaps(),
                        r.consolidated.net_encaps().len()
                    );
                }
                a
            };
            let batch_names: Vec<String> =
                r.batches.iter().map(|b| format!("{}[{}]", b.nf, b.access())).collect();
            let _ = writeln!(
                out,
                "  {fid}: {action}; batches=[{}] waves={:?} hits={}",
                batch_names.join(", "),
                r.schedule,
                r.hits()
            );
        }
        out
    }

    /// Processes a subsequent packet entirely on the fast path: event
    /// check, consolidated header action, then sequential state-function
    /// execution.
    ///
    /// # Errors
    /// Returns [`MatError::Packet`] if header surgery fails (should not
    /// happen for rules recorded from valid packets).
    pub fn process(&self, packet: &mut Packet, ops: &mut OpCounter) -> Result<FastPathOutcome> {
        let fid = packet.fid().ok_or(MatError::InvalidActionSequence("packet has no FID"))?;
        let Some(rule) = self.prepare(fid, ops) else {
            return Ok(FastPathOutcome::NoRule);
        };
        if !self.apply_rule(&rule, fid, packet, ops)? {
            return Ok(FastPathOutcome::Dropped);
        }
        rule.execute_batches(packet, fid, ops);
        Ok(FastPathOutcome::Forwarded)
    }
}

#[cfg(test)]
mod tests {
    use std::net::Ipv4Addr;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    use speedybox_packet::{HeaderField, PacketBuilder};

    use super::*;
    use crate::action::HeaderAction;
    use crate::event::{Event, RulePatch};
    use crate::local::NfId;
    use crate::state_fn::{PayloadAccess, StateFunction};

    fn mats(n: usize) -> Vec<Arc<LocalMat>> {
        (0..n).map(|i| Arc::new(LocalMat::new(NfId::new(i)))).collect()
    }

    fn pkt_with_fid() -> (Packet, Fid) {
        let mut p = PacketBuilder::tcp()
            .src("10.0.0.1:1000".parse().unwrap())
            .dst("10.0.0.2:80".parse().unwrap())
            .payload(b"data")
            .build();
        let fid = p.five_tuple().unwrap().fid();
        p.set_fid(fid);
        (p, fid)
    }

    #[test]
    fn no_rule_routes_to_slow_path() {
        let gm = GlobalMat::new(mats(1));
        let (mut p, _) = pkt_with_fid();
        let mut ops = OpCounter::default();
        assert_eq!(gm.process(&mut p, &mut ops).unwrap(), FastPathOutcome::NoRule);
    }

    #[test]
    fn packet_without_fid_is_an_error() {
        let gm = GlobalMat::new(mats(1));
        let mut p = PacketBuilder::tcp().build();
        let mut ops = OpCounter::default();
        assert!(gm.process(&mut p, &mut ops).is_err());
    }

    #[test]
    fn quarantine_refuses_publication_until_all_bits_clear() {
        let locals = mats(2);
        let gm = GlobalMat::new(locals.clone());
        let (_, fid) = pkt_with_fid();
        let mut ops = OpCounter::default();
        locals[0].add_header_action(fid, HeaderAction::Forward, &mut ops);
        assert!(!gm.is_quarantined());
        gm.quarantine_nf(1);
        gm.quarantine_nf(0);
        assert_eq!(gm.quarantine_mask(), 0b11);
        gm.install(fid, &mut ops);
        assert!(!gm.contains(fid), "install refused while quarantined");
        // One NF recovering is not enough — the rule embeds all NFs.
        gm.unquarantine_nf(1);
        gm.install(fid, &mut ops);
        assert!(!gm.contains(fid));
        gm.unquarantine_nf(0);
        assert!(!gm.is_quarantined());
        gm.install(fid, &mut ops);
        assert!(gm.contains(fid), "publication resumes after full recovery");
        // Out-of-range positions alias onto bit 63 rather than panicking.
        gm.quarantine_nf(200);
        assert_eq!(gm.quarantine_mask(), 1u64 << 63);
        gm.unquarantine_nf(200);
        assert!(!gm.is_quarantined());
    }

    #[test]
    fn install_consolidates_chain_order() {
        let locals = mats(2);
        let gm = GlobalMat::new(locals.clone());
        let (mut p, fid) = pkt_with_fid();
        let mut ops = OpCounter::default();
        locals[0].add_header_action(
            fid,
            HeaderAction::modify(HeaderField::DstIp, Ipv4Addr::new(1, 1, 1, 1)),
            &mut ops,
        );
        locals[1].add_header_action(
            fid,
            HeaderAction::modify(HeaderField::DstIp, Ipv4Addr::new(2, 2, 2, 2)),
            &mut ops,
        );
        gm.install(fid, &mut ops);
        assert_eq!(gm.process(&mut p, &mut ops).unwrap(), FastPathOutcome::Forwarded);
        // Latter NF's modify wins.
        assert_eq!(p.get_field(HeaderField::DstIp).unwrap().as_ipv4(), Ipv4Addr::new(2, 2, 2, 2));
        assert_eq!(ops.consolidations, 1);
    }

    #[test]
    fn drop_rule_drops_early() {
        let locals = mats(3);
        let gm = GlobalMat::new(locals.clone());
        let (mut p, fid) = pkt_with_fid();
        let mut ops = OpCounter::default();
        // {forward, forward, drop} — Table III's early-drop scenario.
        locals[0].add_header_action(fid, HeaderAction::Forward, &mut ops);
        locals[1].add_header_action(fid, HeaderAction::Forward, &mut ops);
        locals[2].add_header_action(fid, HeaderAction::Drop, &mut ops);
        // A state function that must NOT run for dropped packets.
        let ran = Arc::new(AtomicBool::new(false));
        let r = ran.clone();
        locals[0].add_state_function(
            fid,
            StateFunction::new("sf", PayloadAccess::Ignore, move |_| {
                r.store(true, Ordering::Relaxed);
            }),
            &mut ops,
        );
        gm.install(fid, &mut ops);
        assert_eq!(gm.process(&mut p, &mut ops).unwrap(), FastPathOutcome::Dropped);
        assert!(!ran.load(Ordering::Relaxed), "SFs must not run after early drop");
        assert_eq!(ops.drops, 1);
    }

    #[test]
    fn state_function_batches_execute_in_chain_order() {
        let locals = mats(2);
        let gm = GlobalMat::new(locals.clone());
        let (mut p, fid) = pkt_with_fid();
        let mut ops = OpCounter::default();
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        for (i, local) in locals.iter().enumerate() {
            let o = order.clone();
            local.add_state_function(
                fid,
                StateFunction::new(format!("sf{i}"), PayloadAccess::Ignore, move |_| {
                    o.lock().push(i);
                }),
                &mut ops,
            );
        }
        gm.install(fid, &mut ops);
        gm.process(&mut p, &mut ops).unwrap();
        assert_eq!(*order.lock(), vec![0, 1]);
    }

    #[test]
    fn event_patches_rule_and_reconsolidates() {
        // The paper's Fig 3 DoS-prevention workflow: modify -> drop once a
        // counter crosses its threshold.
        let locals = mats(1);
        let gm = GlobalMat::new(locals.clone());
        let (_, fid) = pkt_with_fid();
        let mut ops = OpCounter::default();
        let counter = Arc::new(AtomicU64::new(0));
        locals[0].add_header_action(
            fid,
            HeaderAction::modify(HeaderField::DstIp, Ipv4Addr::new(7, 7, 7, 7)),
            &mut ops,
        );
        let c = counter.clone();
        locals[0].add_state_function(
            fid,
            StateFunction::new("count", PayloadAccess::Ignore, move |ctx| {
                c.fetch_add(1, Ordering::Relaxed);
                ctx.ops.state_updates += 1;
            }),
            &mut ops,
        );
        let c2 = counter;
        gm.events().register(Event::new(
            fid,
            NfId::new(0),
            "dos-threshold",
            move |_| c2.load(Ordering::Relaxed) > 3,
            |_| RulePatch::set_action(HeaderAction::Drop),
        ));
        gm.install(fid, &mut ops);

        let mut forwarded = 0;
        let mut dropped = 0;
        for _ in 0..10 {
            let (mut p, _) = pkt_with_fid();
            match gm.process(&mut p, &mut ops).unwrap() {
                FastPathOutcome::Forwarded => forwarded += 1,
                FastPathOutcome::Dropped => dropped += 1,
                FastPathOutcome::NoRule => panic!("rule installed"),
            }
        }
        // Counter increments only while packets are forwarded; once it
        // exceeds 3 the event flips the rule to drop.
        assert_eq!(forwarded, 4);
        assert_eq!(dropped, 6);
        // Re-consolidation happened exactly once (one-shot event).
        assert_eq!(ops.consolidations, 2);
    }

    #[test]
    fn remove_flow_cleans_all_tables() {
        let locals = mats(2);
        let gm = GlobalMat::new(locals.clone());
        let (_, fid) = pkt_with_fid();
        let mut ops = OpCounter::default();
        locals[0].add_header_action(fid, HeaderAction::Forward, &mut ops);
        gm.events().register(Event::new(
            fid,
            NfId::new(0),
            "e",
            |_| false,
            |_| RulePatch::default(),
        ));
        gm.install(fid, &mut ops);
        assert!(gm.contains(fid));
        gm.remove_flow(fid);
        assert!(!gm.contains(fid));
        assert!(locals[0].rule(fid).is_none());
        assert!(gm.events().is_empty());
        assert!(gm.is_empty());
    }

    #[test]
    fn hits_and_dump_reflect_traffic() {
        let locals = mats(2);
        let gm = GlobalMat::new(locals.clone());
        let (_, fid) = pkt_with_fid();
        let mut ops = OpCounter::default();
        locals[0].add_header_action(
            fid,
            HeaderAction::modify(HeaderField::DstIp, Ipv4Addr::new(1, 2, 3, 4)),
            &mut ops,
        );
        locals[1].add_state_function(
            fid,
            StateFunction::new("count", PayloadAccess::Ignore, |_| {}),
            &mut ops,
        );
        gm.install(fid, &mut ops);
        assert_eq!(gm.rule(fid).unwrap().hits(), 0);
        for _ in 0..3 {
            let (mut p, _) = pkt_with_fid();
            gm.process(&mut p, &mut ops).unwrap();
        }
        assert_eq!(gm.rule(fid).unwrap().hits(), 3);
        let dump = gm.dump();
        assert!(dump.contains("1 rule(s)"), "{dump}");
        assert!(dump.contains("modify(DIP)"), "{dump}");
        assert!(dump.contains("hits=3"), "{dump}");
        assert!(dump.contains("nf1[ignore]"), "{dump}");
    }

    #[test]
    fn dump_of_empty_mat() {
        let gm = GlobalMat::new(mats(1));
        assert!(gm.dump().contains("0 rule(s)"));
    }

    #[test]
    fn sf_inside_annihilated_tunnel_sees_positional_length() {
        // vpn-encap -> length-reading SF -> vpn-decap. Consolidation
        // annihilates the encap/decap pair, so the fast-path packet never
        // carries the AH — but the SF must still observe the mid-tunnel
        // (encapsulated) frame length it would have seen on the original
        // path.
        use crate::action::EncapSpec;
        let locals = mats(3);
        let gm = GlobalMat::new(locals.clone());
        let (mut p, fid) = pkt_with_fid();
        let plain_len = p.len();
        let mut ops = OpCounter::default();
        locals[0].add_header_action(fid, HeaderAction::Encap(EncapSpec::new(7)), &mut ops);
        let seen = Arc::new(AtomicU64::new(0));
        let s = seen.clone();
        locals[1].add_state_function(
            fid,
            StateFunction::new("len", PayloadAccess::Ignore, move |ctx| {
                s.store(ctx.frame_len() as u64, Ordering::Relaxed);
            }),
            &mut ops,
        );
        locals[2].add_header_action(fid, HeaderAction::Decap(EncapSpec::new(7)), &mut ops);
        gm.install(fid, &mut ops);
        let rule = gm.rule(fid).unwrap();
        assert!(rule.consolidated.is_noop(), "encap/decap pair annihilates");
        assert_eq!(rule.batches[0].len_adjust, speedybox_packet::headers::AH_LEN as i64);
        assert_eq!(gm.process(&mut p, &mut ops).unwrap(), FastPathOutcome::Forwarded);
        assert_eq!(p.len(), plain_len, "egress frame is unencapsulated");
        assert_eq!(
            seen.load(Ordering::Relaxed),
            (plain_len + speedybox_packet::headers::AH_LEN) as u64,
            "SF observes the mid-tunnel length"
        );
    }

    #[test]
    fn sf_after_surviving_encap_needs_no_adjustment() {
        // An unmatched encap survives consolidation, so a downstream SF
        // sees the encapsulated egress frame directly: adjust = 0.
        use crate::action::EncapSpec;
        let locals = mats(2);
        let gm = GlobalMat::new(locals.clone());
        let (mut p, fid) = pkt_with_fid();
        let plain_len = p.len();
        let mut ops = OpCounter::default();
        locals[0].add_header_action(fid, HeaderAction::Encap(EncapSpec::new(9)), &mut ops);
        let seen = Arc::new(AtomicU64::new(0));
        let s = seen.clone();
        locals[1].add_state_function(
            fid,
            StateFunction::new("len", PayloadAccess::Ignore, move |ctx| {
                s.store(ctx.frame_len() as u64, Ordering::Relaxed);
            }),
            &mut ops,
        );
        gm.install(fid, &mut ops);
        let rule = gm.rule(fid).unwrap();
        assert_eq!(rule.batches[0].len_adjust, 0);
        assert_eq!(gm.process(&mut p, &mut ops).unwrap(), FastPathOutcome::Forwarded);
        assert_eq!(
            seen.load(Ordering::Relaxed),
            (plain_len + speedybox_packet::headers::AH_LEN) as u64
        );
    }

    #[test]
    fn schedule_is_precomputed() {
        let locals = mats(3);
        let gm = GlobalMat::new(locals.clone());
        let (_, fid) = pkt_with_fid();
        let mut ops = OpCounter::default();
        for local in &locals {
            local.add_state_function(
                fid,
                StateFunction::new("read", PayloadAccess::Read, |_| {}),
                &mut ops,
            );
        }
        gm.install(fid, &mut ops);
        let rule = gm.rule(fid).unwrap();
        // Three READ batches form a single parallel wave.
        assert_eq!(rule.schedule, vec![vec![0, 1, 2]]);
    }
}
