//! The traced driver: the engine's data path rebuilt from each layer's
//! public calls, with every call wrapped in a span from out here.
//!
//! Nothing inside the program is instrumented. [`TracedChain::call`] makes
//! the same calls, in the same order, as `BessChain::process_batch_into`
//! (batch > 1) or `OnvmChain::process` (batch 1) make for a SpeedyBox chain
//! without supervision: classify, prefetch, rule lookup plus Event Table
//! check, compiled header program, state-function batches, slow path and
//! install for initial packets, removal and NF notification at FIN. What it
//! leaves out — cost-model pricing, `OpCounter` merges, telemetry and
//! worker attribution — is the engine's residual. Its outputs are checked
//! byte for byte against the engine's on the same trace.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use speedybox_mat::{Classification, ClassifyScratch, GlobalRule, OpCounter, PacketClass};
use speedybox_nf::Nf;
use speedybox_packet::{Fid, Packet, PacketError, PacketPool};
use speedybox_platform::runtime::{notify_flow_closed, traverse_chain};
use speedybox_platform::{CycleModel, SpeedyBox};

use crate::engine::{config, nfs, rx, Handles};
use crate::workload::{Trace, Workload};

/// The layers spans are recorded for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// rx: `PacketPool::copy_packets_into`.
    Rx,
    /// One whole engine call (parent of the layer spans below).
    Engine,
    /// `classify_batch_into`, or `classify` at batch 1.
    Classify,
    /// `GlobalMat::prefetch_into`.
    Prefetch,
    /// `prepare_cached` (or `prepare`): rule lookup plus Event Table check.
    Lookup,
    /// `CompiledProgram::run`.
    Compiled,
    /// `GlobalRule::execute_batches`.
    StateFn,
    /// `traverse_chain`.
    SlowPath,
    /// `GlobalMat::install`.
    Install,
    /// `remove_flow`.
    Remove,
    /// `notify_flow_closed`.
    Notify,
    /// tx: `PacketPool::free_batch`.
    Tx,
    /// An empty span, timed to learn the cost of a span.
    Empty,
}

/// Number of [`Layer`]s.
pub const LAYERS: usize = 13;

impl Layer {
    /// Every layer, in index order.
    pub const ALL: [Layer; LAYERS] = [
        Self::Rx,
        Self::Engine,
        Self::Classify,
        Self::Prefetch,
        Self::Lookup,
        Self::Compiled,
        Self::StateFn,
        Self::SlowPath,
        Self::Install,
        Self::Remove,
        Self::Notify,
        Self::Tx,
        Self::Empty,
    ];

    /// The layers inside an engine call.
    pub const ENGINE_PARTS: [Layer; 9] = [
        Self::Classify,
        Self::Prefetch,
        Self::Lookup,
        Self::Compiled,
        Self::StateFn,
        Self::SlowPath,
        Self::Install,
        Self::Remove,
        Self::Notify,
    ];

    /// The span name written out.
    pub fn name(self) -> &'static str {
        match self {
            Self::Rx => "packet.pool.rx",
            Self::Engine => "platform.engine",
            Self::Classify => "mat.classifier",
            Self::Prefetch => "mat.global.prefetch",
            Self::Lookup => "mat.global.lookup",
            Self::Compiled => "mat.compiled",
            Self::StateFn => "mat.state_fn",
            Self::SlowPath => "platform.runtime.slowpath",
            Self::Install => "mat.global.install",
            Self::Remove => "mat.global.remove",
            Self::Notify => "platform.runtime.notify",
            Self::Tx => "packet.pool.recycle",
            Self::Empty => "trace.empty",
        }
    }
}

/// "No parent" in [`Span::parent`].
pub const ROOT: u32 = u32::MAX;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Sequential span id.
    pub id: u32,
    /// The enclosing span's id, or [`ROOT`].
    pub parent: u32,
    /// The burst (engine call) the span belongs to.
    pub batch: u32,
    /// What was timed.
    pub layer: Layer,
    /// Start, ns since the recorder was created.
    pub start: u64,
    /// End, ns since the recorder was created.
    pub end: u64,
}

/// Span store: per-layer totals of every span, plus the first spans in a
/// buffer allocated up front, so recording never allocates.
#[derive(Debug)]
pub struct Recorder {
    base: Instant,
    next_id: u32,
    /// The kept spans (at most the capacity given to [`Recorder::new`]).
    pub spans: Vec<Span>,
    /// Spans recorded in all, kept or not.
    pub recorded: u64,
    /// Per layer: summed raw span durations (ns).
    pub sum_ns: [u64; LAYERS],
    /// Per layer: span count.
    pub count: [u64; LAYERS],
    /// Per layer: `CycleModel` cycles of the ops the calls returned.
    pub model: [u64; LAYERS],
}

impl Recorder {
    /// A recorder that keeps the first `keep` spans.
    pub fn new(keep: usize) -> Self {
        Self {
            base: Instant::now(),
            next_id: 0,
            spans: Vec::with_capacity(keep),
            recorded: 0,
            sum_ns: [0; LAYERS],
            count: [0; LAYERS],
            model: [0; LAYERS],
        }
    }

    /// ns since creation.
    #[inline]
    pub fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Opens a span: its id and start time.
    #[inline]
    pub fn open(&mut self) -> (u32, u64) {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        (id, self.now())
    }

    /// Closes span `id` opened at `start`.
    #[inline]
    pub fn close(&mut self, layer: Layer, (id, start): (u32, u64), parent: u32, batch: u32) {
        let end = self.now();
        let l = layer as usize;
        self.sum_ns[l] += end - start;
        self.count[l] += 1;
        self.recorded += 1;
        if self.spans.len() < self.spans.capacity() {
            self.spans.push(Span { id, parent, batch, layer, start, end });
        }
    }

    /// Runs `f` inside a span.
    #[inline]
    pub fn time<R>(&mut self, layer: Layer, parent: u32, batch: u32, f: impl FnOnce() -> R) -> R {
        let open = self.open();
        let r = f();
        self.close(layer, open, parent, batch);
        r
    }

    /// Layer `l`'s summed duration minus `span_ns` per span (its own cost).
    pub fn self_ns(&self, l: Layer, span_ns: f64) -> f64 {
        (self.sum_ns[l as usize] as f64 - self.count[l as usize] as f64 * span_ns).max(0.0)
    }

    /// Writes the kept spans as CSV.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id,parent,batch,name,start_ns,end_ns")?;
        for s in &self.spans {
            let parent = if s.parent == ROOT { String::new() } else { s.parent.to_string() };
            writeln!(
                w,
                "{},{},{},{},{},{}",
                s.id,
                parent,
                s.batch,
                s.layer.name(),
                s.start,
                s.end
            )?;
        }
        w.flush()
    }
}

/// What one span costs: `span_ns` is the duration an empty span reads
/// (what every span overstates its call by), `record_ns` the wall time an
/// empty span takes in all (what it adds to its parent).
#[derive(Debug, Clone, Copy)]
pub struct SpanCost {
    /// Duration an empty span reads.
    pub span_ns: f64,
    /// Wall time per empty span.
    pub record_ns: f64,
}

/// Times empty spans into `rec` (which should keep spans, like the real
/// one) and returns their cost.
pub fn span_cost(rec: &mut Recorder) -> SpanCost {
    const N: u32 = 200_000;
    let t = Instant::now();
    for _ in 0..N {
        rec.time(Layer::Empty, ROOT, 0, || ());
    }
    let record_ns = t.elapsed().as_nanos() as f64 / f64::from(N);
    let l = Layer::Empty as usize;
    let span_ns = rec.sum_ns[l] as f64 / rec.count[l] as f64;
    SpanCost { span_ns, record_ns }
}

/// A SpeedyBox chain driven through the layers' public calls.
pub struct TracedChain {
    sbox: SpeedyBox,
    nfs: Vec<Box<dyn Nf>>,
    /// Its Maglev (chain1) or Snort (chain2) handle.
    pub handles: Handles,
    model: CycleModel,
    /// rx/tx pool.
    pub pool: Arc<PacketPool>,
    batch: usize,
    ops: Vec<OpCounter>,
    classified: Vec<Result<Classification, PacketError>>,
    cls_scratch: ClassifyScratch,
    fast_fids: Vec<Fid>,
    cache: HashMap<Fid, Arc<GlobalRule>>,
    stale: HashSet<Fid>,
    last: Option<(Fid, Arc<GlobalRule>)>,
    dropped: Vec<Packet>,
}

impl std::fmt::Debug for TracedChain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TracedChain")
            .field("nfs", &self.nfs.len())
            .field("batch", &self.batch)
            .finish()
    }
}

impl TracedChain {
    /// The traced driver for `workload` (the workers workload is driven on
    /// one thread: its per-packet work is the batch-32 chain1 path).
    pub fn new(workload: Workload) -> Self {
        let (nfs, handles) = nfs(workload);
        let config = config(workload);
        Self {
            sbox: SpeedyBox::new(nfs.len(), config),
            nfs,
            handles,
            model: CycleModel::new(),
            pool: Arc::new(PacketPool::bounded(2048, config.pool_buffers)),
            batch: config.batch_size,
            ops: Vec::new(),
            classified: Vec::new(),
            cls_scratch: ClassifyScratch::default(),
            fast_fids: Vec::new(),
            cache: HashMap::new(),
            stale: HashSet::new(),
            last: None,
            dropped: Vec::new(),
        }
    }

    /// Drives stream positions `[from, to)` through the traced calls in
    /// bursts of `burst` (events, rx, call), recording into `rec`; `sink`
    /// takes (and must drain) each burst's outputs.
    pub fn drive(
        &mut self,
        trace: &Trace,
        (from, to): (usize, usize),
        burst: usize,
        rec: &mut Recorder,
        mut sink: impl FnMut(&PacketPool, &mut Vec<Option<Packet>>),
    ) {
        let mut buf = Vec::with_capacity(burst);
        let mut out = Vec::with_capacity(burst);
        let mut pos = from;
        while pos < to {
            let n = burst.min(to - pos);
            self.handles.events(trace, pos);
            rx(&self.pool, trace, pos, n, &mut buf);
            self.call(&mut buf, &mut out, rec, ROOT, 0);
            sink(&self.pool, &mut out);
            pos += n;
        }
    }

    /// One engine call on `burst` (drained): one output per input packet,
    /// in input order, `None` for a drop. Layer spans are children of
    /// `parent`.
    pub fn call(
        &mut self,
        burst: &mut Vec<Packet>,
        out: &mut Vec<Option<Packet>>,
        rec: &mut Recorder,
        parent: u32,
        batch: u32,
    ) {
        out.clear();
        if self.batch > 1 {
            self.call_batched(burst, out, rec, parent, batch);
        } else {
            for mut pkt in burst.drain(..) {
                let mut ops = OpCounter::default();
                let c = rec.time(Layer::Classify, parent, batch, || {
                    self.sbox.classifier.classify(&mut pkt, &mut ops)
                });
                rec.model[Layer::Classify as usize] += self.model.cycles(&ops);
                let o = match c {
                    Err(_) => {
                        self.dropped.push(pkt);
                        None
                    }
                    Ok(c) => self.finish(pkt, &c, false, rec, parent, batch),
                };
                out.push(o);
                self.sbox.tick_idle_eviction();
            }
        }
        if !self.dropped.is_empty() {
            self.pool.free_batch(self.dropped.drain(..));
        }
    }

    fn call_batched(
        &mut self,
        burst: &mut Vec<Packet>,
        out: &mut Vec<Option<Packet>>,
        rec: &mut Recorder,
        parent: u32,
        batch: u32,
    ) {
        self.ops.clear();
        self.ops.resize(burst.len(), OpCounter::default());
        let mut classified = std::mem::take(&mut self.classified);
        rec.time(Layer::Classify, parent, batch, || {
            self.sbox.classifier.classify_batch_into(
                burst,
                &mut self.ops,
                &mut classified,
                &mut self.cls_scratch,
            );
        });
        rec.model[Layer::Classify as usize] +=
            self.ops.iter().map(|o| self.model.cycles(o)).sum::<u64>();
        self.fast_fids.clear();
        self.fast_fids.extend(
            classified
                .iter()
                .filter_map(|r| r.as_ref().ok())
                .filter(|c| c.class == PacketClass::Subsequent)
                .map(|c| c.fid),
        );
        rec.time(Layer::Prefetch, parent, batch, || {
            self.sbox.global.prefetch_into(&self.fast_fids, &mut self.cache);
        });
        self.stale.clear();
        self.last = None;
        for (pkt, c) in burst.drain(..).zip(&classified) {
            let o = match c {
                Err(_) => {
                    self.dropped.push(pkt);
                    None
                }
                Ok(c) => self.finish(pkt, c, true, rec, parent, batch),
            };
            out.push(o);
        }
        self.classified = classified;
        self.sbox.tick_idle_eviction();
    }

    fn forget(&mut self, fid: Fid) {
        if self.last.as_ref().is_some_and(|(lf, _)| *lf == fid) {
            self.last = None;
        }
    }

    /// Slow path: the original chain (recording when `install`), then the
    /// Global MAT install. Returns whether the packet survived.
    fn slow(
        &mut self,
        pkt: &mut Packet,
        fid: Fid,
        install: bool,
        rec: &mut Recorder,
        parent: u32,
        batch: u32,
    ) -> bool {
        let instruments = install.then_some(self.sbox.instruments.as_slice());
        let res = rec.time(Layer::SlowPath, parent, batch, || {
            traverse_chain(&mut self.nfs, instruments, pkt, &self.model)
        });
        rec.model[Layer::SlowPath as usize] += res.per_nf_cycles.iter().sum::<u64>();
        if install {
            let mut ops = OpCounter::default();
            rec.time(Layer::Install, parent, batch, || self.sbox.global.install(fid, &mut ops));
            rec.model[Layer::Install as usize] += self.model.cycles(&ops);
        }
        res.survived
    }

    fn finish(
        &mut self,
        mut pkt: Packet,
        c: &Classification,
        batched: bool,
        rec: &mut Recorder,
        parent: u32,
        batch: u32,
    ) -> Option<Packet> {
        let fid = c.fid;
        let survived = match c.class {
            PacketClass::Initial => {
                let alive = self.slow(&mut pkt, fid, true, rec, parent, batch);
                if batched {
                    self.stale.insert(fid);
                    self.forget(fid);
                }
                alive
            }
            PacketClass::Collision | PacketClass::Handshake | PacketClass::Rejected => {
                self.slow(&mut pkt, fid, false, rec, parent, batch)
            }
            PacketClass::Subsequent => {
                let mut ops = OpCounter::default();
                let rule = if batched && !self.stale.contains(&fid) {
                    let memo_hit = self.last.as_ref().is_some_and(|(lf, _)| *lf == fid);
                    let handle = if memo_hit {
                        self.last.as_ref().map(|(_, r)| r)
                    } else {
                        self.cache.get(&fid)
                    };
                    let global = &self.sbox.global;
                    let (rule, fired) = rec.time(Layer::Lookup, parent, batch, || {
                        global.prepare_cached(fid, handle, &mut ops)
                    });
                    if fired {
                        self.stale.insert(fid);
                        self.last = None;
                    } else if !memo_hit {
                        if let Some(r) = self.cache.get(&fid) {
                            self.last = Some((fid, Arc::clone(r)));
                        }
                    }
                    rule
                } else {
                    rec.time(Layer::Lookup, parent, batch, || {
                        self.sbox.global.prepare(fid, &mut ops)
                    })
                };
                rec.model[Layer::Lookup as usize] += self.model.cycles(&ops);
                match rule {
                    Some(rule) => {
                        let mut ha = OpCounter::default();
                        let alive = rec.time(Layer::Compiled, parent, batch, || {
                            rule.compiled.run(&mut pkt, &mut ha).unwrap_or(false)
                        });
                        rec.model[Layer::Compiled as usize] += self.model.cycles(&ha);
                        if alive {
                            let mut sf = OpCounter::default();
                            rec.time(Layer::StateFn, parent, batch, || {
                                rule.execute_batches(&mut pkt, fid, &mut sf);
                            });
                            rec.model[Layer::StateFn as usize] += self.model.cycles(&sf);
                        }
                        alive
                    }
                    None => {
                        let alive = self.slow(&mut pkt, fid, true, rec, parent, batch);
                        if batched {
                            self.stale.insert(fid);
                        }
                        alive
                    }
                }
            }
        };
        if c.closes_flow && c.class != PacketClass::Collision {
            if batched {
                // `classify_batch_into` already dropped the classifier entry.
                rec.time(Layer::Remove, parent, batch, || self.sbox.global.remove_flow(fid));
                self.stale.insert(fid);
                self.forget(fid);
            } else {
                rec.time(Layer::Remove, parent, batch, || self.sbox.remove_flow(fid));
            }
            rec.time(Layer::Notify, parent, batch, || notify_flow_closed(&mut self.nfs, fid));
        }
        if survived {
            pkt.clear_fid();
            Some(pkt)
        } else {
            self.dropped.push(pkt);
            None
        }
    }
}

/// Header-step cost on installed rules: `CompiledProgram::run` against
/// `ConsolidatedAction::apply`, each on fresh pooled copies of one data
/// packet per flow.
#[derive(Debug, Clone, Copy)]
pub struct HeaderStep {
    /// Rules timed.
    pub rules: usize,
    /// Median ns per packet, compiled.
    pub compiled_ns: f64,
    /// Median ns per packet, interpreted.
    pub interpreted_ns: f64,
    /// Model cycles per packet, compiled header step.
    pub compiled_cycles: f64,
    /// Model cycles per packet, interpreted header step.
    pub interpreted_cycles: f64,
    /// Model cycles per packet including each executor's fixed forward cost.
    pub compiled_cycles_fixed: f64,
    /// As above, interpreted.
    pub interpreted_cycles_fixed: f64,
}

/// Times the header step of up to 512 installed rules of `chain`, using
/// each flow's first data packet in `trace` as input.
pub fn header_step(chain: &TracedChain, trace: &Trace) -> HeaderStep {
    const REPS: usize = 41;
    let mut seen = HashSet::new();
    let mut rules = Vec::new();
    let mut inputs = Vec::new();
    for p in &trace.packets {
        if rules.len() == 512 {
            break;
        }
        let Ok(t) = p.five_tuple() else { continue };
        let fid = t.fid();
        if p.tcp_flags().closes_flow() || !seen.insert(fid) {
            continue;
        }
        if let Some(r) = chain.sbox.global.rule(fid) {
            rules.push(r);
            inputs.push(p.clone());
        }
    }
    let model = &chain.model;
    let n = rules.len().max(1) as f64;
    let (mut ops_c, mut ops_i) = (OpCounter::default(), OpCounter::default());
    let (mut ns_c, mut ns_i) = (Vec::with_capacity(REPS), Vec::with_capacity(REPS));
    for rep in 0..REPS {
        for compiled_first in [rep % 2 == 0, rep % 2 != 0] {
            let mut copies = chain.pool.copy_packets(&inputs);
            let mut ops = OpCounter::default();
            let t = Instant::now();
            for (r, p) in rules.iter().zip(copies.iter_mut()) {
                let ok = if compiled_first {
                    r.compiled.run(p, &mut ops)
                } else {
                    r.consolidated.apply(p, &mut ops)
                };
                std::hint::black_box(ok.ok());
            }
            let per = t.elapsed().as_nanos() as f64 / n;
            chain.pool.free_batch(copies);
            if compiled_first {
                ns_c.push(per);
                ops_c = ops;
            } else {
                ns_i.push(per);
                ops_i = ops;
            }
        }
    }
    let cc = model.cycles(&ops_c) as f64 / n;
    let ci = model.cycles(&ops_i) as f64 / n;
    HeaderStep {
        rules: rules.len(),
        compiled_ns: crate::sys::median(&ns_c),
        interpreted_ns: crate::sys::median(&ns_i),
        compiled_cycles: cc,
        interpreted_cycles: ci,
        compiled_cycles_fixed: cc + model.compiled_forward_fixed as f64,
        interpreted_cycles_fixed: ci + model.fastpath_forward_fixed as f64,
    }
}
