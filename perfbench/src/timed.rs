//! The closed loop: one caller on one thread, each iteration rx, one engine
//! call, tx — timed in windows.
//!
//! A window lasts at least `WINDOW` and at least `MIN_CALLS` engine calls.
//! Each window yields a throughput (packets over the window's wall time, rx
//! and tx included) and the p50 and p99 of its engine-call durations (every
//! packet of a call shares the call's duration; `MIN_CALLS` leaves at least
//! ten samples above the p99). A run reports its best window: the highest
//! window throughput and the lowest window p50 and p99. On a machine shared
//! with other tenants, contention slows the program by up to 3× in steps
//! that last seconds to minutes, in every statistic of a window; the best
//! window of a long run is what the program does when it has its core, and
//! of the window statistics tried it is the one that holds still from run
//! to run.

use std::time::{Duration, Instant};

use crate::engine::{rx, Rig};
use crate::sys::{clock_kernel_ns, percentile, KERNEL_REF_NS};
use crate::traced::{Layer, Recorder, TracedChain, ROOT};
use crate::workload::Trace;

/// Shortest measurement window.
pub const WINDOW: Duration = Duration::from_millis(100);

/// Fewest engine calls in a window.
pub const MIN_CALLS: usize = 1000;

/// One window's figures.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Packets completed.
    pub packets: u64,
    /// Wall time of the window (ns).
    pub wall_ns: u64,
    /// Summed engine-call time (ns).
    pub engine_ns: u64,
    /// Engine calls made.
    pub calls: u64,
    /// Median call duration (ns).
    pub p50_ns: f64,
    /// 99th-percentile call duration (ns).
    pub p99_ns: f64,
}

/// A timed loop's windows, the stream positions it covered and the
/// packets the engine dropped there.
#[derive(Debug, Clone, Default)]
pub struct Timed {
    /// Every completed window.
    pub windows: Vec<Window>,
    /// Stream ranges `[from, to)` driven, one per loop.
    pub ranges: Vec<(usize, usize)>,
    /// Packets the engine dropped (counted outside the engine call).
    pub dropped: u64,
    /// Clock-kernel times (ns), one before each window.
    pub kernel_ns: Vec<u64>,
}

impl Timed {
    /// Best window throughput in packets per µs (= Mpps).
    pub fn throughput_mpps(&self) -> f64 {
        self.windows.iter().map(|w| w.packets as f64 * 1e3 / w.wall_ns as f64).fold(0.0, f64::max)
    }

    /// Best window p50.
    pub fn p50_ns(&self) -> f64 {
        self.windows.iter().map(|w| w.p50_ns).fold(f64::INFINITY, f64::min)
    }

    /// Best window p99.
    pub fn p99_ns(&self) -> f64 {
        self.windows.iter().map(|w| w.p99_ns).fold(f64::INFINITY, f64::min)
    }

    /// Appends another slice of the same loop.
    pub fn extend(&mut self, other: Timed) {
        self.windows.extend(other.windows);
        self.ranges.extend(other.ranges);
        self.dropped += other.dropped;
        self.kernel_ns.extend(other.kernel_ns);
    }

    /// The core's speed relative to the reference: the fastest clock-kernel
    /// time of the run over `KERNEL_REF_NS` (below 1 on a faster clock).
    /// The best window and the fastest kernel run both fall in the run's
    /// fastest clock state.
    pub fn clock(&self) -> f64 {
        self.kernel_ns.iter().min().map_or(1.0, |&ns| ns as f64 / KERNEL_REF_NS)
    }

    /// Latency samples (engine calls) over all windows.
    pub fn calls(&self) -> u64 {
        self.windows.iter().map(|w| w.calls).sum()
    }

    /// Packets over all windows.
    pub fn packets(&self) -> u64 {
        self.windows.iter().map(|w| w.packets).sum()
    }

    /// Engine-call ns per packet over all windows.
    pub fn engine_ns_per_pkt(&self) -> f64 {
        self.windows.iter().map(|w| w.engine_ns).sum::<u64>() as f64 / self.packets().max(1) as f64
    }

    /// Wall ns per packet over all windows.
    pub fn wall_ns_per_pkt(&self) -> f64 {
        self.windows.iter().map(|w| w.wall_ns).sum::<u64>() as f64 / self.packets().max(1) as f64
    }
}

/// The untraced loop over a single-threaded chain, from stream position
/// `pos` with bursts of `burst`: windows until `budget` is spent (at least
/// one). Before each window, outside it, Snort's alert log is cleared and
/// the clock kernel runs once.
pub fn run(rig: &mut Rig, trace: &Trace, pos: usize, burst: usize, budget: Duration) -> Timed {
    let end = Instant::now() + budget;
    let mut buf = Vec::with_capacity(burst);
    let mut out = Vec::with_capacity(burst);
    let mut lat: Vec<u64> = Vec::with_capacity(1 << 20);
    let mut timed = Timed::default();
    let mut at = pos;
    loop {
        rig.handles.trim();
        timed.kernel_ns.push(clock_kernel_ns());
        let start = Instant::now();
        if !timed.windows.is_empty() && start + WINDOW > end {
            break;
        }
        let stop = start + WINDOW;
        lat.clear();
        let mut engine_ns = 0;
        loop {
            let (ns, done) = rig.step(trace, at, burst, &mut buf, &mut out);
            timed.dropped += out.iter().filter(|o| o.packet.is_none()).count() as u64;
            rig.engine.pool().free_batch(out.drain(..).filter_map(|o| o.packet));
            at += burst;
            engine_ns += ns;
            lat.push(ns);
            if done >= stop && lat.len() >= MIN_CALLS {
                break;
            }
        }
        let wall_ns = start.elapsed().as_nanos() as u64;
        lat.sort_unstable();
        timed.windows.push(Window {
            packets: (lat.len() * burst) as u64,
            wall_ns,
            engine_ns,
            calls: lat.len() as u64,
            p50_ns: percentile(&lat, 0.50),
            p99_ns: percentile(&lat, 0.99),
        });
    }
    timed.ranges.push((pos, at));
    timed
}

/// Progress of the traced loop across slices.
#[derive(Debug, Clone, Copy, Default)]
pub struct TracedProgress {
    /// Next stream position.
    pub pos: usize,
    /// Next burst id.
    pub batch: u32,
    /// Packets completed.
    pub packets: u64,
    /// Wall time spent (ns).
    pub wall_ns: u64,
}

/// The traced loop for `budget`: rx, engine call and tx each in a span,
/// layer spans inside the engine call. Snort's alert log is cleared first.
pub fn run_traced(
    chain: &mut TracedChain,
    rec: &mut Recorder,
    trace: &Trace,
    burst: usize,
    budget: Duration,
    progress: &mut TracedProgress,
) {
    let mut buf = Vec::with_capacity(burst);
    let mut out = Vec::with_capacity(burst);
    let pool = std::sync::Arc::clone(&chain.pool);
    chain.handles.trim();
    let start = Instant::now();
    let end = start + budget;
    let TracedProgress { pos, batch, .. } = progress;
    let from = *pos;
    while Instant::now() < end {
        chain.handles.events(trace, *pos);
        rec.time(Layer::Rx, ROOT, *batch, || rx(&pool, trace, *pos, burst, &mut buf));
        let open = rec.open();
        chain.call(&mut buf, &mut out, rec, open.0, *batch);
        rec.close(Layer::Engine, open, ROOT, *batch);
        rec.time(Layer::Tx, ROOT, *batch, || pool.free_batch(out.drain(..).flatten()));
        *pos += burst;
        *batch = batch.wrapping_add(1);
    }
    progress.packets += (progress.pos - from) as u64;
    progress.wall_ns += start.elapsed().as_nanos() as u64;
}

/// The traced driver's outputs over `[0, trace.check_len)`, in bursts of
/// `burst` — compared byte for byte with the engine's.
pub fn traced_outputs(
    chain: &mut TracedChain,
    trace: &Trace,
    burst: usize,
) -> Vec<Option<Vec<u8>>> {
    let mut outputs = Vec::with_capacity(trace.check_len);
    chain.drive(trace, (0, trace.check_len), burst, &mut Recorder::new(0), |pool, out| {
        for o in out.drain(..) {
            outputs.push(o.map(|p| {
                let bytes = p.as_bytes().to_vec();
                pool.free_batch([p]);
                bytes
            }));
        }
    });
    outputs
}
