//! Order statistics, process memory and machine facts.

use std::time::Instant;

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`).
pub fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Mean cost of one `Instant::now()` in ns.
pub fn clock_read_ns() -> f64 {
    const N: u32 = 200_000;
    let t = Instant::now();
    let mut last = t;
    for _ in 0..N {
        last = std::hint::black_box(Instant::now());
    }
    (last - t).as_nanos() as f64 / f64::from(N)
}

/// Steps of the clock kernel.
const KERNEL_STEPS: u32 = 1 << 20;

/// The clock kernel's time at the reference speed (ns): its time on the
/// machine the bounds were set on, in that machine's slower clock state.
pub const KERNEL_REF_NS: f64 = 1_665_000.0;

/// One run of the clock kernel (ns): a dependent chain of multiply, add and
/// shift steps held in registers, so its time follows the core's clock and
/// touches nothing the engine uses.
pub fn clock_kernel_ns() -> u64 {
    let t = Instant::now();
    let mut x = std::hint::black_box(1u64);
    for _ in 0..KERNEL_STEPS {
        x = x.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(0x1405_7b7e_f767_814f) ^ (x >> 7);
    }
    std::hint::black_box(x);
    t.elapsed().as_nanos() as u64
}

fn first_line(path: &str) -> String {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.lines().next().map(|l| l.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// The facts a reader needs to compare runs across machines.
pub fn machine_facts() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    vec![
        ("nproc", nproc.to_string()),
        ("rustc", rustc_version()),
        ("cpu", cpu_model()),
        (
            "clocksource",
            first_line("/sys/devices/system/clocksource/clocksource0/current_clocksource"),
        ),
        ("clock_read_ns", format!("{:.1}", clock_read_ns())),
        ("traffic", "in-process, no NIC or loopback".into()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
