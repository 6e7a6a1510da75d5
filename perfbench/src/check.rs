//! The output check behind `error_rate`, and the exact per-layer counts.
//!
//! Outside the timed region, stream positions `[0, check_len)` of the trace
//! go through a fresh engine under test and through the reference — the
//! same chain on `BessChain::original` — with the same bursts and the same
//! Maglev fail/recover calls at the same positions. Each packet's output
//! (its bytes, or its drop verdict) is compared with the reference's. Both
//! sides keep per-flow order, so comparing outputs by input position is a
//! per-flow sequence comparison. The two-worker runtime, whose cross-flow
//! order is undefined, is mapped back to input positions through its
//! steering rule first.

use speedybox_platform::workers::steer;
use speedybox_telemetry::TelemetrySnapshot;

use std::time::Instant;

use crate::engine::{rx, Rig, WorkerRig};
use crate::workload::{Trace, Workload};

/// One packet's output: its frame bytes, or `None` if it was dropped.
pub type Output = Option<Vec<u8>>;

/// Exact counters of one check pass. The same seed must give the same
/// counts on every run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    /// Packets processed.
    pub packets: u64,
    /// Packets per path: baseline (original walk), initial (slow path),
    /// subsequent (fast path).
    pub paths: [u64; 3],
    /// Fast-path rule lookups that hit.
    pub fastpath_hits: u64,
    /// Fast-path rule lookups that missed.
    pub fastpath_misses: u64,
    /// Rules installed (fresh installs plus event rewrites).
    pub rules_installed: u64,
    /// Event Table rewrites of live rules.
    pub rule_rewrites: u64,
    /// Rules removed.
    pub rules_removed: u64,
    /// Event Table firings.
    pub events_fired: u64,
    /// Header steps run as compiled programs.
    pub compiled_hits: u64,
    /// Pool buffer requests served from the pool.
    pub pool_hits: u64,
    /// Pool buffer requests that fell back to the heap.
    pub pool_misses: u64,
    /// `CycleModel` cycles of all work, as the engine priced it.
    pub model_cycles: u64,
}

impl Counts {
    fn from_snapshot(s: &TelemetrySnapshot, model_cycles: u64) -> Self {
        Self {
            packets: s.packets,
            paths: s.paths,
            fastpath_hits: s.fastpath_hits,
            fastpath_misses: s.fastpath_misses,
            rules_installed: s.rules_installed,
            rule_rewrites: s.rule_rewrites,
            rules_removed: s.rules_removed,
            events_fired: s.events_fired,
            compiled_hits: s.compiled_hits,
            pool_hits: s.pool_hits,
            pool_misses: s.pool_misses,
            model_cycles,
        }
    }

    /// Fast-path hits over rule lookups.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.fastpath_hits + self.fastpath_misses;
        if lookups == 0 {
            0.0
        } else {
            self.fastpath_hits as f64 / lookups as f64
        }
    }

    /// `(name, value)` pairs, in a fixed order.
    pub fn named(&self) -> [(&'static str, f64); 14] {
        [
            ("count.packets", self.packets as f64),
            ("count.path_baseline", self.paths[0] as f64),
            ("count.path_initial", self.paths[1] as f64),
            ("count.path_subsequent", self.paths[2] as f64),
            ("count.fastpath_hit_rate", self.hit_rate()),
            ("count.rules_installed", self.rules_installed as f64),
            ("count.rule_rewrites", self.rule_rewrites as f64),
            ("count.rules_removed", self.rules_removed as f64),
            ("count.events_fired", self.events_fired as f64),
            ("count.compiled_hits", self.compiled_hits as f64),
            ("count.pool_hits", self.pool_hits as f64),
            ("count.pool_misses", self.pool_misses as f64),
            ("count.model_cycles", self.model_cycles as f64),
            ("count.fastpath_misses", self.fastpath_misses as f64),
        ]
    }
}

/// Runs stream positions `[0, trace.check_len)` through `rig` and returns
/// one output per position, plus the model cycles the engine charged.
pub fn collect(rig: &mut Rig, trace: &Trace, burst: usize) -> (Vec<Output>, u64) {
    let mut outputs = Vec::with_capacity(trace.check_len);
    let mut cycles = 0;
    rig.drive(trace, (0, trace.check_len), burst, |pool, out| {
        for o in out.drain(..) {
            cycles += o.work_cycles;
            outputs.push(o.packet.map(|p| {
                let bytes = p.as_bytes().to_vec();
                pool.free_batch([p]);
                bytes
            }));
        }
    });
    (outputs, cycles)
}

/// The engine's drop verdicts over the check's last full cycle, by cycle
/// offset. Every flow's packets repeat from cycle to cycle, so every later
/// cycle of the replayed stream must drop the same packets; the timed loop
/// counts its drops and is held to this.
#[derive(Debug, Clone)]
pub struct Drops {
    /// `before[k]`: drops at cycle offsets below `k`; one entry per offset
    /// plus one.
    before: Vec<u64>,
}

impl Drops {
    fn new(outputs: &[Output], cycle: usize) -> Self {
        let mut per = vec![0; cycle];
        let first = outputs.len() - cycle;
        for (pos, o) in outputs.iter().enumerate().skip(first) {
            per[pos % cycle] += u64::from(o.is_none());
        }
        let mut before = Vec::with_capacity(cycle + 1);
        before.push(0);
        before.extend(per.iter().scan(0, |acc, d| {
            *acc += d;
            Some(*acc)
        }));
        Self { before }
    }

    /// Drops expected over stream positions `[from, to)`.
    pub fn between(&self, from: usize, to: usize) -> u64 {
        let cycle = self.before.len() - 1;
        let upto = |x: usize| (x / cycle) as u64 * self.before[cycle] + self.before[x % cycle];
        upto(to) - upto(from)
    }

    /// Drops expected over the stream ranges `[from, to)` of `ranges`.
    pub fn over(&self, ranges: &[(usize, usize)]) -> u64 {
        ranges.iter().map(|&(from, to)| self.between(from, to)).sum()
    }
}

/// The engine under test's outputs and counts over the check prefix.
pub fn under_test(workload: Workload, trace: &Trace) -> (Vec<Output>, Counts) {
    let mut rig = Rig::under_test(workload);
    let (outputs, cycles) = collect(&mut rig, trace, workload.burst());
    let counts = Counts::from_snapshot(&rig.engine.snapshot(), cycles);
    (outputs, counts)
}

/// The reference outputs over the check prefix.
pub fn reference(workload: Workload, trace: &Trace) -> Vec<Output> {
    collect(&mut Rig::reference(workload), trace, workload.burst()).0
}

/// One pass of the trace through the two-worker runtime.
#[derive(Debug, Clone, Default)]
pub struct WorkersPass {
    /// Packets compared against the per-worker references.
    pub checked: u64,
    /// Of those, packets whose output differed.
    pub mismatched: u64,
    /// Packets each worker processed.
    pub per_worker: Vec<u64>,
    /// Packets per µs of each `run_workers_on` call.
    pub call_mpps: Vec<f64>,
}

/// Runs one cycle of the trace through [`WorkerRig`] in chunks, timing each
/// call, and checks every output against the reference: each worker's FID
/// slice through its own original chain, as each worker owns its NF
/// instances. Delivered packets come worker 0's slice first, each slice in
/// arrival order; with no drops that fixes every packet's input position,
/// so the comparison is per flow.
pub fn workers_pass(workload: Workload, trace: &Trace) -> WorkersPass {
    const WORKERS: usize = WorkerRig::WORKERS;
    let rig = WorkerRig::new(workload);
    let mut refs: Vec<Rig> = (0..WORKERS).map(|_| Rig::reference(workload)).collect();
    let mut pass = WorkersPass { per_worker: vec![0; WORKERS], ..WorkersPass::default() };
    let mut one = Vec::with_capacity(1);
    let mut out = Vec::with_capacity(1);
    let mut pos = 0;
    while pos < trace.len() {
        let n = WorkerRig::CHUNK.min(trace.len() - pos);
        rig.events(trace, pos);
        for r in &refs {
            r.handles.events(trace, pos);
        }
        let mut chunk = Vec::with_capacity(n);
        rx(&rig.pool, trace, pos, n, &mut chunk);
        let lanes: Vec<usize> = chunk.iter().map(|p| steer(p, WORKERS)).collect();
        let t = Instant::now();
        let report = rig.call(chunk);
        pass.call_mpps.push(n as f64 * 1e3 / t.elapsed().as_nanos() as f64);
        for (acc, k) in pass.per_worker.iter_mut().zip(&report.per_worker) {
            *acc += *k as u64;
        }
        let mut want = Vec::with_capacity(n);
        for (i, &lane) in lanes.iter().enumerate() {
            let r = &mut refs[lane];
            rx(r.engine.pool(), trace, pos + i, 1, &mut one);
            r.engine.call(&mut one, &mut out);
            want.push(out.pop().and_then(|o| o.packet).map(|p| p.as_bytes().to_vec()));
        }
        let mut got: Vec<Output> = vec![Some(UNMAPPED.to_vec()); n];
        if report.dropped == 0 && report.delivered.len() == n {
            let order = (0..WORKERS)
                .flat_map(|w| lanes.iter().enumerate().filter(move |&(_, &l)| l == w))
                .map(|(i, _)| i);
            for (i, p) in order.zip(&report.delivered) {
                got[i] = Some(p.as_bytes().to_vec());
            }
        }
        rig.pool.free_batch(report.delivered);
        pass.checked += n as u64;
        pass.mismatched += mismatches(&got, &want);
        pos += n;
    }
    pass
}

/// Marks an output that could not be attributed to an input position.
const UNMAPPED: &[u8] = b"unmapped";

/// How many packets' outputs differ from the reference's (bytes or drop
/// verdict); each output one side lacks counts as a difference.
pub fn mismatches(got: &[Output], want: &[Output]) -> u64 {
    let extra = got.len().abs_diff(want.len()) as u64;
    extra + got.iter().zip(want).filter(|(g, w)| g != w).count() as u64
}

/// Outcome of the full check of one run.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Packets compared against the reference.
    pub checked: u64,
    /// Of those, packets whose output differed.
    pub mismatched: u64,
    /// Counts of the first pass of the engine under test.
    pub counts: Counts,
    /// Whether a second pass on a fresh engine gave identical counts and
    /// outputs.
    pub repeatable: bool,
    /// The engine's drops per cycle offset.
    pub drops: Drops,
}

impl CheckReport {
    /// `mismatched / checked`.
    pub fn error_rate(&self) -> f64 {
        self.mismatched as f64 / self.checked.max(1) as f64
    }

    /// Every check passed.
    pub fn ok(&self) -> bool {
        self.mismatched == 0 && self.repeatable
    }
}

/// Runs the check: reference, engine under test twice. Returns the report
/// and the engine's outputs (the traced driver is compared against them).
pub fn run(workload: Workload, trace: &Trace) -> (CheckReport, Vec<Output>) {
    let want = reference(workload, trace);
    let (got, counts) = under_test(workload, trace);
    let (again, counts_again) = under_test(workload, trace);
    let report = CheckReport {
        checked: want.len() as u64,
        mismatched: mismatches(&got, &want),
        counts,
        repeatable: counts == counts_again && got == again,
        drops: Drops::new(&got, trace.len()),
    };
    (report, got)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(workload: Workload) -> Trace {
        let mut t = workload.trace(11);
        // A short prefix keeps the test quick; it still spans the warm pass
        // and the first failover events.
        t.check_len = t.check_len.min(20_000);
        t
    }

    #[test]
    fn engines_match_the_reference() {
        for w in Workload::ALL {
            let trace = small(w);
            let (report, _) = run(w, &trace);
            assert_eq!(report.mismatched, 0, "{}", w.name());
            assert!(report.repeatable, "{}: counts must repeat", w.name());
            assert_eq!(report.counts.packets, trace.check_len as u64, "{}", w.name());
            if w == Workload::ChurnFailover {
                // Backends fail under live flows, so events rewrite rules.
                assert!(report.counts.rule_rewrites > 0, "no failover rewrites");
            }
        }
    }

    #[test]
    fn workers_match_their_references() {
        for w in Workload::ALL {
            let pass = workers_pass(w, &w.trace(5));
            assert_eq!(pass.mismatched, 0, "{}", w.name());
            assert_eq!(pass.per_worker.iter().sum::<u64>(), pass.checked);
        }
    }

    #[test]
    fn drops_repeat_the_checked_cycle() {
        // A cycle of 4 checked after a warm pass of 2: offsets 1 and 3 drop.
        let outputs: Vec<Output> =
            [1, 1, 1, 0, 1, 0].iter().map(|&kept| (kept == 1).then(Vec::new)).collect();
        let drops = Drops::new(&outputs, 4);
        assert_eq!(drops.between(0, 4), 2);
        assert_eq!(drops.between(2, 12), 5);
        assert_eq!(drops.between(3, 4), 1);
        assert_eq!(drops.over(&[(2, 3), (2, 4)]), 1);
    }

    #[test]
    fn a_flipped_output_byte_fails_the_check() {
        let w = Workload::ChurnFailover;
        let trace = small(w);
        let want = reference(w, &trace);
        let (mut got, _) = under_test(w, &trace);
        assert_eq!(mismatches(&got, &want), 0);
        let victim = got.iter_mut().flatten().nth(777).expect("delivered output");
        victim[40] ^= 0x01;
        assert_eq!(mismatches(&got, &want), 1);
    }

    #[test]
    fn a_changed_drop_verdict_fails_the_check() {
        let w = Workload::InspectImix;
        let trace = small(w);
        let want = reference(w, &trace);
        let (mut got, _) = under_test(w, &trace);
        got[123] = None;
        assert_eq!(mismatches(&got, &want), 1);
    }
}
