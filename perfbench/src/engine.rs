//! The engines under test and the reference chain, behind one call shape.
//!
//! Every workload drives an engine the same way: copy the next burst of the
//! trace into pool buffers (rx), make one engine call, recycle the outputs
//! (tx). [`Rig`] holds a single-threaded chain; [`WorkerRig`] runs the
//! same chain on two `run_workers_on` threads.

use std::sync::Arc;
use std::time::Instant;

use speedybox_nf::ipfilter::IpFilter;
use speedybox_nf::maglev::Maglev;
use speedybox_nf::snort::SnortLite;
use speedybox_nf::Nf;
use speedybox_packet::{Packet, PacketPool};
use speedybox_platform::chains::{chain1, chain2, Chain1Handles, Chain2Handles};
use speedybox_platform::workers::run_workers_on;
use speedybox_platform::{
    BessChain, OnvmChain, ProcessedPacket, SboxConfig, SpeedyBox, WorkerReport,
};
use speedybox_telemetry::TelemetrySnapshot;

use crate::workload::{Failover, Trace, Workload};

/// Maglev pool size of chain1 in every workload.
pub const BACKENDS: usize = 4;

/// A single-threaded chain: the engine under test or the reference.
#[derive(Debug)]
pub enum Engine {
    /// `BessChain`, driven through `process_batch_into`.
    Bess(BessChain),
    /// `OnvmChain`, driven one packet per `process` call.
    Onvm(OnvmChain),
}

impl Engine {
    /// The chain's packet pool (rx copies into it, tx recycles into it).
    pub fn pool(&self) -> &Arc<PacketPool> {
        match self {
            Self::Bess(c) => c.pool(),
            Self::Onvm(c) => c.pool(),
        }
    }

    /// One engine call on `burst` (drained); one outcome per input packet,
    /// in input order, lands in `out`.
    pub fn call(&mut self, burst: &mut Vec<Packet>, out: &mut Vec<ProcessedPacket>) {
        match self {
            Self::Bess(c) => c.process_batch_into(burst, out),
            Self::Onvm(c) => {
                out.clear();
                out.extend(burst.drain(..).map(|p| c.process(p)));
            }
        }
    }

    /// The chain's telemetry, merged across shards.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        match self {
            Self::Bess(c) => c.telemetry().snapshot(),
            Self::Onvm(c) => c.telemetry().snapshot(),
        }
    }

    /// The SpeedyBox runtime, if enabled.
    pub fn sbox(&self) -> Option<&SpeedyBox> {
        match self {
            Self::Bess(c) => c.sbox(),
            Self::Onvm(c) => c.sbox(),
        }
    }
}

/// The SpeedyBox configuration a workload runs with.
pub fn config(workload: Workload) -> SboxConfig {
    let batch_size = match workload {
        Workload::InspectImix => 1,
        _ => 32,
    };
    SboxConfig { batch_size, ..SboxConfig::default() }
}

/// The NF handles the driver acts on from outside the chain.
#[derive(Debug, Clone, Default)]
pub struct Handles {
    /// chain1's load balancer, which the failover events act on.
    pub maglev: Option<Maglev>,
    /// chain2's IDS, whose alert log the driver clears between windows.
    pub snort: Option<SnortLite>,
}

impl Handles {
    /// Applies the failover events due at stream position `pos`.
    pub fn events(&self, trace: &Trace, pos: usize) {
        if let Some(m) = &self.maglev {
            for e in trace.events_at(pos) {
                apply(m, e);
            }
        }
    }

    /// Clears Snort's alert log. The log gains an entry per alerting
    /// packet without limit, so left alone it would make the run's memory
    /// (and its reallocations) grow with the packets processed.
    pub fn trim(&self) {
        if let Some(s) = &self.snort {
            s.clear_log();
        }
    }
}

/// The workload's NF chain plus the handles the driver acts on.
pub fn nfs(workload: Workload) -> (Vec<Box<dyn Nf>>, Handles) {
    match workload {
        Workload::InspectImix => {
            let (nfs, h) = chain2();
            (nfs, Handles { snort: Some(h.snort), ..Handles::default() })
        }
        _ => {
            let (nfs, h) = chain1(BACKENDS);
            (nfs, Handles { maglev: Some(h.maglev), ..Handles::default() })
        }
    }
}

/// Applies a failover event to a Maglev instance.
pub fn apply(maglev: &Maglev, event: Failover) {
    match event {
        Failover::Fail(k) => maglev.fail_backend(&format!("backend-{k}")),
        Failover::Recover(k) => maglev.recover_backend(&format!("backend-{k}")),
    }
}

/// A chain plus the NF handles the driver acts on.
#[derive(Debug)]
pub struct Rig {
    /// The chain.
    pub engine: Engine,
    /// Its Maglev (chain1) or Snort (chain2) handle.
    pub handles: Handles,
}

impl Rig {
    /// The engine under test for `workload` (SpeedyBox on).
    pub fn under_test(workload: Workload) -> Self {
        let (nfs, handles) = nfs(workload);
        let engine = match workload {
            Workload::InspectImix => Engine::Onvm(OnvmChain::speedybox_with(nfs, config(workload))),
            _ => Engine::Bess(BessChain::speedybox_with(nfs, config(workload))),
        };
        Self { engine, handles }
    }

    /// The reference: the same chain, uninstrumented, on `BessChain::original`.
    pub fn reference(workload: Workload) -> Self {
        let (nfs, handles) = nfs(workload);
        Self { engine: Engine::Bess(BessChain::original(nfs)), handles }
    }

    /// One driver iteration at stream position `pos`: the failover events
    /// due there, rx of `n` packets into `buf`, one engine call into `out`.
    /// Returns the engine call's duration (ns) and when it ended.
    pub fn step(
        &mut self,
        trace: &Trace,
        pos: usize,
        n: usize,
        buf: &mut Vec<Packet>,
        out: &mut Vec<ProcessedPacket>,
    ) -> (u64, Instant) {
        self.handles.events(trace, pos);
        rx(self.engine.pool(), trace, pos, n, buf);
        let t = Instant::now();
        self.engine.call(buf, out);
        let done = Instant::now();
        ((done - t).as_nanos() as u64, done)
    }

    /// Drives stream positions `[from, to)` through the engine in bursts of
    /// `burst`; `sink` takes (and must drain) each burst's outcomes.
    pub fn drive(
        &mut self,
        trace: &Trace,
        (from, to): (usize, usize),
        burst: usize,
        mut sink: impl FnMut(&PacketPool, &mut Vec<ProcessedPacket>),
    ) {
        let mut buf = Vec::with_capacity(burst);
        let mut out = Vec::with_capacity(burst);
        let mut pos = from;
        while pos < to {
            let n = burst.min(to - pos);
            self.step(trace, pos, n, &mut buf, &mut out);
            sink(self.engine.pool(), &mut out);
            pos += n;
        }
    }

    /// Feeds stream positions `[from, to)` through the engine, recycling
    /// the outputs (tx).
    pub fn feed(&mut self, trace: &Trace, from: usize, to: usize, burst: usize) {
        self.drive(trace, (from, to), burst, |pool, out| {
            pool.free_batch(out.drain(..).filter_map(|o| o.packet));
        });
    }
}

/// rx: copies stream positions `[pos, pos + n)` of the cyclic trace into
/// pool buffers, appending to `buf`.
pub fn rx(pool: &PacketPool, trace: &Trace, pos: usize, n: usize, buf: &mut Vec<Packet>) {
    let len = trace.len();
    let mut at = pos % len;
    let mut left = n;
    while left > 0 {
        let take = left.min(len - at);
        pool.copy_packets_into(&trace.packets[at..at + take], buf);
        left -= take;
        at = 0;
    }
}

/// One worker's NF instances, kept as cloneable handles: `run_workers_on`
/// consumes the boxed chain, so each call rebuilds it over the same shared
/// NF state.
#[derive(Debug, Clone)]
enum WorkerChain {
    /// MazuNAT → Maglev → Monitor → IPFilter.
    Chain1(Chain1Handles, IpFilter),
    /// IPFilter → Snort → Monitor.
    Chain2(IpFilter, Chain2Handles),
}

impl WorkerChain {
    fn new(workload: Workload) -> Self {
        match workload {
            Workload::InspectImix => Self::Chain2(IpFilter::pass_through(30), chain2().1),
            _ => Self::Chain1(chain1(BACKENDS).1, IpFilter::pass_through(30)),
        }
    }

    /// The boxed chain, in the order `chain1`/`chain2` build it.
    fn nfs(&self) -> Vec<Box<dyn Nf>> {
        match self {
            Self::Chain1(h, fw) => vec![
                Box::new(h.nat.clone()),
                Box::new(h.maglev.clone()),
                Box::new(h.monitor.clone()),
                Box::new(fw.clone()),
            ],
            Self::Chain2(fw, h) => {
                vec![Box::new(fw.clone()), Box::new(h.snort.clone()), Box::new(h.monitor.clone())]
            }
        }
    }

    fn maglev(&self) -> Option<&Maglev> {
        match self {
            Self::Chain1(h, _) => Some(&h.maglev),
            Self::Chain2(..) => None,
        }
    }
}

/// `WORKERS` symmetric run-to-completion workers sharing one SpeedyBox
/// runtime, each with its own NF instances; each call runs one chunk of
/// the trace through `run_workers_on`.
#[derive(Debug)]
pub struct WorkerRig {
    /// The shared runtime (classifier, Global MAT, telemetry).
    pub sbox: Arc<SpeedyBox>,
    chains: Vec<WorkerChain>,
    /// rx pool for the chunks handed to `run_workers_on`.
    pub pool: Arc<PacketPool>,
}

impl WorkerRig {
    /// Worker threads (the machine's two cores).
    pub const WORKERS: usize = 2;

    /// Packets per `run_workers_on` call; failover events fall on chunk
    /// boundaries.
    pub const CHUNK: usize = 4096;

    /// A fresh runtime for `workload`'s chain.
    pub fn new(workload: Workload) -> Self {
        let chains: Vec<WorkerChain> =
            (0..Self::WORKERS).map(|_| WorkerChain::new(workload)).collect();
        let nf_count = chains[0].nfs().len();
        let config = SboxConfig { workers: Self::WORKERS, ..config(workload) };
        let sbox = Arc::new(SpeedyBox::new(nf_count, config));
        let pool = Arc::new(PacketPool::bounded(2048, Self::CHUNK));
        Self { sbox, chains, pool }
    }

    /// Applies the failover events due at stream position `pos` to every
    /// worker's load balancer.
    pub fn events(&self, trace: &Trace, pos: usize) {
        for m in self.chains.iter().filter_map(WorkerChain::maglev) {
            for e in trace.events_at(pos) {
                apply(m, e);
            }
        }
    }

    /// One `run_workers_on` call over `chunk`.
    pub fn call(&self, chunk: Vec<Packet>) -> WorkerReport {
        let sets = self.chains.iter().map(WorkerChain::nfs).collect();
        run_workers_on(&self.sbox, sets, chunk)
    }
}
