//! The traced run: per-layer metrics, trace hygiene and calibration.
//!
//! The run alternates `WINDOW`-long slices of the untraced engine and of
//! the traced driver, so both see the same machine conditions. The
//! untraced slices give the engine's ns per packet; the traced slices give
//! each layer's self time (span durations less the measured cost of an
//! empty span). The engine's residual — cost-model pricing, `OpCounter`
//! merges and telemetry inside `BessChain`/`OnvmChain` — is the untraced
//! engine time less the sum of the layer self times.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::check::{Counts, WorkersPass};
use crate::engine::Rig;
use crate::sys::median;
use crate::timed::{self, Timed, TracedProgress, WINDOW};
use crate::traced::{header_step, span_cost, HeaderStep, Layer, Recorder, SpanCost, TracedChain};
use crate::workload::{Trace, Workload};

/// Spans kept in memory and written out per traced run.
const KEPT_SPANS: usize = 100_000;

/// Layers whose calls return ops the cycle model can price.
const CALIBRATED: [Layer; 6] = [
    Layer::Classify,
    Layer::Lookup,
    Layer::Compiled,
    Layer::StateFn,
    Layer::SlowPath,
    Layer::Install,
];

/// A metric as printed: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// A metric, with non-finite values (a ratio over nothing) printed as 0.
pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    (name.to_string(), if value.is_finite() { value } else { 0.0 }, unit)
}

/// The traced half of a `--trace 1` run.
#[derive(Debug)]
pub struct TracedRun {
    workload: Workload,
    chain: TracedChain,
    rec: Recorder,
    cost: SpanCost,
    progress: TracedProgress,
}

impl TracedRun {
    /// A traced driver after its warm pass, and the cost of a span.
    pub fn new(workload: Workload, trace: &Trace) -> Self {
        let burst = workload.burst();
        let mut chain = TracedChain::new(workload);
        chain.drive(trace, (0, trace.warm_len), burst, &mut Recorder::new(0), |pool, out| {
            pool.free_batch(out.drain(..).flatten());
        });
        let cost = span_cost(&mut Recorder::new(KEPT_SPANS));
        let progress = TracedProgress { pos: trace.warm_len, ..TracedProgress::default() };
        Self { workload, chain, rec: Recorder::new(KEPT_SPANS), cost, progress }
    }

    /// Alternates untraced and traced slices for `budget`; returns the
    /// untraced windows.
    pub fn interleave(&mut self, sut: &mut Rig, trace: &Trace, budget: Duration) -> Timed {
        let burst = self.workload.burst();
        let mut untraced = Timed::default();
        let mut pos = trace.warm_len;
        let end = Instant::now() + budget;
        while Instant::now() + 2 * WINDOW <= end {
            let slice = timed::run(sut, trace, pos, burst, WINDOW);
            pos = slice.ranges[0].1;
            untraced.extend(slice);
            timed::run_traced(
                &mut self.chain,
                &mut self.rec,
                trace,
                burst,
                WINDOW,
                &mut self.progress,
            );
        }
        untraced
    }

    /// Writes the kept spans under `dir`.
    pub fn write_spans(&self, dir: &Path, seed: u64) {
        let path = dir.join(format!("spans-{}-seed{seed}.csv", self.workload.name()));
        match self.rec.write_csv(&path) {
            Ok(()) => eprintln!(
                "spans: {} kept of {} -> {}",
                self.rec.spans.len(),
                self.rec.recorded,
                path.display()
            ),
            Err(e) => eprintln!("spans: not written ({e})"),
        }
    }

    /// Every per-layer metric; prints the layer table, the stage sum and
    /// the calibration to stderr.
    pub fn metrics(
        &self,
        trace: &Trace,
        sut: &Rig,
        untraced: &Timed,
        counts: &Counts,
        workers: &WorkersPass,
    ) -> Vec<Metric> {
        let rec = &self.rec;
        let sn = self.cost.span_ns;
        let p = self.progress.packets.max(1) as f64;
        let per_pkt = |l: Layer| rec.self_ns(l, sn) / p;
        let per_call = |l: Layer| rec.self_ns(l, sn) / rec.count[l as usize].max(1) as f64;
        // The rule lookup as the model prices it: the table probe, which the
        // batched engines split off into `prefetch_into` and the per-packet
        // engine makes inside `prepare`, plus the Event Table check.
        let lookup_ns = rec.self_ns(Layer::Lookup, sn) + rec.self_ns(Layer::Prefetch, sn);
        let calib_ns = |l: Layer| if l == Layer::Lookup { lookup_ns } else { rec.self_ns(l, sn) };
        let model_per_pkt = |l: Layer| rec.model[l as usize] as f64 / p;
        let layers_ns: f64 = Layer::ENGINE_PARTS.iter().map(|&l| per_pkt(l)).sum();
        let children: u64 = Layer::ENGINE_PARTS.iter().map(|&l| rec.count[l as usize]).sum();
        // The traced engine call, less its own span cost and what its
        // children's spans added to it beyond their own durations.
        let driver_ns = (rec.sum_ns[Layer::Engine as usize] as f64
            - rec.count[Layer::Engine as usize] as f64 * sn
            - children as f64 * (self.cost.record_ns - sn))
            / p;
        let engine_ns = untraced.engine_ns_per_pkt();
        let traced_wall = self.progress.wall_ns as f64 - rec.recorded as f64 * self.cost.record_ns;
        let covered: f64 = Layer::ALL
            .iter()
            .filter(|&&l| l != Layer::Engine && l != Layer::Empty)
            .map(|&l| rec.self_ns(l, sn))
            .sum();
        let overhead = (self.progress.wall_ns as f64 / p) / untraced.wall_ns_per_pkt() - 1.0;
        let imbalance = workers.per_worker.iter().max().copied().unwrap_or(0) as f64
            / (workers.checked as f64 / workers.per_worker.len().max(1) as f64);
        let model_cycles: u64 = rec.model.iter().sum();
        let stage_sum = layers_ns / driver_ns;

        // Calibration: every pair of priced layers that the model orders
        // one way and the clock the other.
        let mut inversions = Vec::new();
        let priced: Vec<Layer> = CALIBRATED
            .into_iter()
            .filter(|&l| rec.model[l as usize] > 0 && calib_ns(l) > 0.0)
            .collect();
        for (i, &a) in priced.iter().enumerate() {
            for &b in &priced[i + 1..] {
                let dm = model_per_pkt(a) - model_per_pkt(b);
                let dt = calib_ns(a) - calib_ns(b);
                if dm * dt < 0.0 {
                    inversions.push(format!(
                        "{} vs {}: model {:.1} vs {:.1} cycles/pkt, clock {:.1} vs {:.1} ns/pkt",
                        a.name(),
                        b.name(),
                        model_per_pkt(a),
                        model_per_pkt(b),
                        calib_ns(a) / p,
                        calib_ns(b) / p
                    ));
                }
            }
        }
        let step = header_step(&self.chain, trace);

        eprintln!(
            "traced: {} packets in {:.3} s; span cost {sn:.1} ns (record {:.1} ns)",
            self.progress.packets,
            self.progress.wall_ns as f64 / 1e9,
            self.cost.record_ns
        );
        eprintln!(
            "  layers {layers_ns:.1} ns/pkt; traced engine call {driver_ns:.1} ns/pkt; untraced engine {engine_ns:.1} ns/pkt; residual {:.1} ns/pkt",
            engine_ns - layers_ns
        );
        eprintln!(
            "  stage sum: layer self times are {:.1}% of the traced engine call ({} the ±15% gate)",
            100.0 * stage_sum,
            if (stage_sum - 1.0).abs() <= 0.15 { "within" } else { "OUTSIDE" }
        );
        for l in Layer::ALL.into_iter().filter(|&l| l != Layer::Empty) {
            eprintln!(
                "  {:<26} {:>9} spans {:>8.1} ns/pkt {:>9.1} ns/span  model {:>7.1} cycles/pkt",
                l.name(),
                rec.count[l as usize],
                per_pkt(l),
                per_call(l),
                model_per_pkt(l)
            );
        }
        eprintln!("  ordering inversions (model vs clock): {}", inversions.len());
        for i in &inversions {
            eprintln!("    {i}");
        }
        report_header_step(&step);

        let frac = |a: u64, b: u64| a as f64 / b.max(1) as f64;
        let mut m = vec![
            metric("mat.classifier.ns_per_pkt", per_pkt(Layer::Classify), "ns"),
            metric(
                "mat.classifier.fastpath_frac",
                frac(counts.paths[2], counts.packets),
                "fraction",
            ),
            metric("mat.global.lookup_ns_per_pkt", lookup_ns / p, "ns"),
            metric("mat.global.install_ns", per_call(Layer::Install), "ns"),
            metric("mat.global.remove_ns", per_call(Layer::Remove), "ns"),
            metric(
                "mat.global.pending_generations",
                sut.engine.sbox().map_or(0, |s| s.pending_generations()) as f64,
                "count",
            ),
            metric(
                "mat.event.fires_per_kpkt",
                1e3 * frac(counts.events_fired, counts.packets),
                "count",
            ),
            metric("mat.compiled.ns_per_pkt", per_pkt(Layer::Compiled), "ns"),
            metric("mat.state_fn.ns_per_pkt", per_pkt(Layer::StateFn), "ns"),
            metric("platform.runtime.slowpath_ns", per_call(Layer::SlowPath), "ns"),
            metric("platform.runtime.notify_ns", per_call(Layer::Notify), "ns"),
            metric("packet.pool.rx_ns_per_pkt", per_pkt(Layer::Rx), "ns"),
            metric("packet.pool.recycle_ns_per_pkt", per_pkt(Layer::Tx), "ns"),
            metric("packet.pool.miss_frac", pool_miss_frac(sut), "fraction"),
            metric("platform.engine.residual_ns_per_pkt", engine_ns - layers_ns, "ns"),
            metric("platform.engine.untraced_ns_per_pkt", engine_ns, "ns"),
            metric("platform.engine.stage_sum_frac", stage_sum, "fraction"),
            metric("platform.workers.imbalance", imbalance, "ratio"),
            metric("platform.workers.call_mpps", median(&workers.call_mpps), "Mpps"),
            metric("platform.cycles.model_cycles_per_pkt", model_cycles as f64 / p, "cycles"),
            metric("trace.span_cost_ns", sn, "ns"),
            metric("trace.overhead_frac", overhead, "fraction"),
            metric("trace.coverage", covered / traced_wall, "fraction"),
        ];
        for l in CALIBRATED {
            let ns = calib_ns(l);
            let cpn = if ns > 0.0 { rec.model[l as usize] as f64 / ns } else { 0.0 };
            m.push(metric(&format!("calib.{}.cycles_per_ns", l.name()), cpn, "cycles/ns"));
        }
        m.push(metric("calib.inversions", inversions.len() as f64, "count"));
        m.push(metric("calib.header.compiled_ns", step.compiled_ns, "ns"));
        m.push(metric("calib.header.interpreted_ns", step.interpreted_ns, "ns"));
        m.push(metric(
            "calib.header.win_measured",
            1.0 - step.compiled_ns / step.interpreted_ns,
            "fraction",
        ));
        m.push(metric(
            "calib.header.win_modeled",
            1.0 - step.compiled_cycles_fixed / step.interpreted_cycles_fixed,
            "fraction",
        ));
        for (name, v) in counts.named() {
            let unit = if name.ends_with("hit_rate") { "fraction" } else { "count" };
            m.push(metric(name, v, unit));
        }
        m
    }
}

/// Pool misses over pool requests of the engine under test.
fn pool_miss_frac(sut: &Rig) -> f64 {
    let s = sut.engine.pool().stats();
    s.misses as f64 / (s.hits + s.misses).max(1) as f64
}

fn report_header_step(step: &HeaderStep) {
    let win = |a: f64, b: f64| {
        if b > 0.0 {
            format!("{:.1}%", 100.0 * (1.0 - a / b))
        } else {
            "n/a".into()
        }
    };
    eprintln!(
        "  header step on {} installed rules: compiled {:.1} ns vs interpreted {:.1} ns (measured win {}); model {:.0} vs {:.0} cycles (win {}), {:.0} vs {:.0} with each executor's fixed forward cost (win {})",
        step.rules,
        step.compiled_ns,
        step.interpreted_ns,
        win(step.compiled_ns, step.interpreted_ns),
        step.compiled_cycles,
        step.interpreted_cycles,
        win(step.compiled_cycles, step.interpreted_cycles),
        step.compiled_cycles_fixed,
        step.interpreted_cycles_fixed,
        win(step.compiled_cycles_fixed, step.interpreted_cycles_fixed)
    );
}
