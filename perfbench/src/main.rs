//! `perfbench`: the wall-clock benchmark of SpeedyBox service chains.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fastpath-64b|inspect-imix|churn-failover> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run builds the workload's trace from the seed, then drives the
//! chain in a closed loop for `--seconds`. With `--trace 0` it sets the
//! chain up `SETUP_REPS` times over the run (construction plus the warm pass
//! that installs every live flow's rule), each set-up's engine driving the
//! next share of the time, and prints the end-to-end metrics; with
//! `--trace 1` it sets up once, splits the time between the untraced engine
//! and the traced driver and prints the per-layer metrics. Every run then
//! checks the engine's outputs against the uninstrumented original chain,
//! checks that its exact counts repeat, and checks that the timed loop
//! dropped exactly the packets the checked cycle dropped.
//! A human-readable report goes to stderr; the last line of stdout is one
//! JSON object. The exit code is non-zero if any check fails.

mod check;
mod engine;
mod layers;
mod sys;
mod timed;
mod traced;
mod workload;

use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use check::CheckReport;
use engine::{Rig, WorkerRig};
use layers::{metric, Metric, TracedRun};
use timed::Timed;
use traced::TracedChain;
use workload::{Trace, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 21;

/// Where traced runs write their spans, relative to the working directory.
const SPANS_DIR: &str = ".bench_out";

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Builds the engine under test and runs its warm pass; returns it and the
/// time that took in seconds.
fn setup(workload: Workload, trace: &Trace) -> (Rig, f64) {
    let t = Instant::now();
    let mut rig = Rig::under_test(workload);
    rig.feed(trace, 0, trace.warm_len, workload.burst());
    (rig, t.elapsed().as_secs_f64())
}

fn json_line(correct: bool, check: &CheckReport, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        check.checked,
        check.mismatched,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    eprintln!(
        "perfbench {} seed {} for {} s, trace {}",
        w.name(),
        args.seed,
        args.seconds,
        args.trace
    );
    for (k, v) in sys::machine_facts() {
        eprintln!("  {k}: {v}");
    }
    let trace = w.trace(args.seed);
    eprintln!(
        "trace: {} packets per cycle, warm pass {}, check {}",
        trace.len(),
        trace.warm_len,
        trace.check_len
    );

    let budget = Duration::from_secs_f64(args.seconds);
    let mut traced = args.trace.then(|| TracedRun::new(w, &trace));
    // The set-ups are spread over the run: each set-up's engine drives the
    // next share of the budget, so set-up times and windows sample the same
    // stretch of machine time. The traced run needs one engine.
    let reps = if traced.is_some() { 1 } else { SETUP_REPS };
    let mut setup_times = Vec::with_capacity(reps);
    let mut untraced = Timed::default();
    let mut sut = None;
    for _ in 0..reps {
        drop(sut.take());
        let (mut rig, s) = setup(w, &trace);
        setup_times.push(s);
        untraced.extend(match traced.as_mut() {
            Some(t) => t.interleave(&mut rig, &trace, budget),
            None => timed::run(&mut rig, &trace, trace.warm_len, w.burst(), budget / reps as u32),
        });
        sut = Some(rig);
    }
    let sut = sut.expect("at least one set-up");
    let setup_s = sys::median(&setup_times);
    eprintln!("setup: median {setup_s:.4} s of {setup_times:.4?}");
    let peak_rss = sys::peak_rss_mib();
    eprintln!(
        "untraced: {} packets, {} windows, {} latency samples (engine calls of {} packets); best window {:.4} Mpps, p50 {:.0} ns, p99 {:.0} ns; engine {:.1} ns/pkt",
        untraced.packets(),
        untraced.windows.len(),
        untraced.calls(),
        w.burst(),
        untraced.throughput_mpps(),
        untraced.p50_ns(),
        untraced.p99_ns(),
        untraced.engine_ns_per_pkt()
    );

    let (report, sut_outputs) = check::run(w, &trace);
    let mut correct = report.ok();
    eprintln!(
        "check: {} packets against the original chain, {} differ (error_rate {} fraction); counts repeat: {}",
        report.checked,
        report.mismatched,
        report.error_rate(),
        report.repeatable
    );
    eprintln!("counts: {:?}", report.counts);
    // Every cycle of the replayed stream must drop what the checked cycle
    // dropped.
    let want_drops = report.drops.over(&untraced.ranges);
    eprintln!("timed loop: {} packets dropped, {want_drops} expected", untraced.dropped);
    correct &= untraced.dropped == want_drops;

    let metrics = match traced.as_mut() {
        Some(t) => {
            t.write_spans(Path::new(SPANS_DIR), args.seed);
            let workers = check::workers_pass(w, &trace);
            eprintln!(
                "workers: {} packets on {} threads, {} differ from the per-worker original chains",
                workers.checked,
                WorkerRig::WORKERS,
                workers.mismatched
            );
            correct &= workers.mismatched == 0;
            let m = t.metrics(&trace, &sut, &untraced, &report.counts, &workers);
            // The traced driver must do the engine's work: same outputs,
            // byte for byte.
            let mut fresh = TracedChain::new(w);
            let got = timed::traced_outputs(&mut fresh, &trace, w.burst());
            let diff = check::mismatches(&got, &sut_outputs);
            eprintln!("traced driver vs engine: {diff} of {} outputs differ", got.len());
            correct &= diff == 0;
            m
        }
        None => {
            // Scaled to the reference clock, so a step in the core's clock
            // between runs does not read as a change in the program.
            let clock = untraced.clock();
            eprintln!(
                "clock: fastest kernel run {:.0} ns = {clock:.4} of the reference {:.0} ns; the figures below are scaled by it",
                clock * sys::KERNEL_REF_NS,
                sys::KERNEL_REF_NS
            );
            vec![
                metric("throughput_mpps", untraced.throughput_mpps() * clock, "Mpps"),
                metric("latency_p50_ns", untraced.p50_ns() / clock, "ns"),
                metric("latency_p99_ns", untraced.p99_ns() / clock, "ns"),
                metric("setup_s", setup_s / clock, "s"),
                metric("peak_rss_mib", peak_rss, "MiB"),
            ]
        }
    };
    println!("{}", json_line(correct, &report, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: output check failed");
        ExitCode::from(1)
    }
}
