//! Differential test: the lock-free telemetry snapshot must agree with the
//! ground-truth [`RunStats`] aggregate, field for field, on every chain,
//! environment and batching mode. `RunStats` folds each
//! `ProcessedPacket` into plain (unsynchronized) counters after the run;
//! telemetry counts the same events live through relaxed atomics. Any
//! divergence means a counting site is missing, doubled, or misattributed.

#![allow(clippy::cast_possible_truncation)] // test data built from loop indices

use speedybox::nf::Nf;
use speedybox::packet::Packet;
use speedybox::platform::bess::BessChain;
use speedybox::platform::chains;
use speedybox::platform::onvm::OnvmChain;
use speedybox::platform::runtime::SboxConfig;
use speedybox::platform::{ProcessedPacket, RunStats};
use speedybox::telemetry::{TelemetrySnapshot, OP_NAMES};
use speedybox::traffic::{Workload, WorkloadConfig};

fn workload(flows: usize, seed: u64) -> Vec<Packet> {
    Workload::generate(&WorkloadConfig { flows, seed, ..WorkloadConfig::default() }).packets()
}

fn op_index(name: &str) -> usize {
    OP_NAMES.iter().position(|&n| n == name).expect("known op name")
}

/// The full snapshot-vs-stats contract.
fn assert_matches(stats: &RunStats, snap: &TelemetrySnapshot, label: &str) {
    assert_eq!(snap.packets as usize, stats.sent, "{label}: packets != sent");
    assert_eq!(snap.delivered as usize, stats.delivered, "{label}: delivered");
    assert_eq!(snap.dropped as usize, stats.dropped, "{label}: dropped");
    for (i, path) in ["baseline", "initial", "subsequent"].iter().enumerate() {
        assert_eq!(snap.paths[i] as usize, stats.path_counts[i], "{label}: paths[{path}]");
        assert_eq!(
            snap.latency[i].count as usize, stats.path_counts[i],
            "{label}: latency[{path}].count"
        );
    }
    let total = snap.latency_total();
    assert_eq!(total.count as usize, stats.sent, "{label}: latency count");
    assert_eq!(total.sum, stats.latencies_cycles.iter().sum::<u64>(), "{label}: latency sum");
    if stats.sent > 0 {
        assert_eq!(
            total.max,
            stats.latencies_cycles.iter().copied().max().unwrap(),
            "{label}: latency max"
        );
        assert_eq!(
            total.display_min(),
            stats.latencies_cycles.iter().copied().min().unwrap(),
            "{label}: latency min"
        );
    }
    // The abstract-operation mirror must be exact for all 17 kinds.
    let expected = stats.ops.telemetry_totals();
    for (i, name) in OP_NAMES.iter().enumerate() {
        assert_eq!(snap.ops.0[i], expected.0[i], "{label}: op {name}");
    }
    // Structural invariants tying the MAT counters to the path mix.
    assert_eq!(
        snap.fastpath_hits, snap.paths[2],
        "{label}: every subsequent-path packet is exactly one Global MAT hit"
    );
    assert_eq!(
        snap.rules_installed,
        snap.ops.0[op_index("consolidations")],
        "{label}: one rule install per consolidation"
    );
    assert_eq!(
        snap.events_fired,
        snap.ops.0[op_index("event_checks")].min(snap.events_fired),
        "{label}: events fired are a subset of event checks"
    );
}

fn build(name: &str) -> Vec<Box<dyn Nf>> {
    match name {
        "chain1" => chains::chain1(8).0,
        "chain2" => chains::chain2().0,
        other => panic!("unknown chain {other}"),
    }
}

fn check_bess(chain: &str, speedybox: bool, batch_size: usize) {
    let label = format!("bess/{chain}/sbox={speedybox}/batch={batch_size}");
    let config = SboxConfig { batch_size, shards: 4, ..SboxConfig::default() };
    let mut c = if speedybox {
        BessChain::speedybox_with(build(chain), config)
    } else {
        BessChain::original(build(chain))
    };
    let stats = c.run(workload(60, 3));
    assert_matches(&stats, &c.telemetry().snapshot(), &label);
}

fn check_onvm(chain: &str, speedybox: bool, batch_size: usize) {
    let label = format!("onvm/{chain}/sbox={speedybox}/batch={batch_size}");
    let config = SboxConfig { batch_size, shards: 4, ..SboxConfig::default() };
    let mut c = if speedybox {
        OnvmChain::speedybox_with(build(chain), config)
    } else {
        OnvmChain::original(build(chain))
    };
    let stats = c.run(workload(60, 3));
    assert_matches(&stats, &c.telemetry().snapshot(), &label);
}

#[test]
fn bess_chain1_matches_run_stats() {
    for batch in [1, 8] {
        check_bess("chain1", true, batch);
    }
    check_bess("chain1", false, 1);
}

#[test]
fn bess_chain2_matches_run_stats() {
    for batch in [1, 8] {
        check_bess("chain2", true, batch);
    }
    check_bess("chain2", false, 1);
}

#[test]
fn onvm_chain1_matches_run_stats() {
    for batch in [1, 8] {
        check_onvm("chain1", true, batch);
    }
    check_onvm("chain1", false, 1);
}

#[test]
fn onvm_chain2_matches_run_stats() {
    for batch in [1, 8] {
        check_onvm("chain2", true, batch);
    }
    check_onvm("chain2", false, 1);
}

/// Two separate runs merged through `TelemetrySnapshot::merge` must equal
/// the combined `RunStats` of both — the property CI relies on when
/// aggregating per-scenario reports.
#[test]
fn merged_snapshots_match_merged_stats() {
    let config = SboxConfig { shards: 4, ..SboxConfig::default() };
    let mut a = BessChain::speedybox_with(build("chain1"), config);
    let mut b = BessChain::speedybox_with(build("chain1"), config);
    let sa = a.run(workload(40, 1));
    let sb = b.run(workload(40, 2));

    let mut combined = RunStats {
        sent: sa.sent + sb.sent,
        delivered: sa.delivered + sb.delivered,
        dropped: sa.dropped + sb.dropped,
        latencies_cycles: sa.latencies_cycles.iter().chain(&sb.latencies_cycles).copied().collect(),
        ..RunStats::default()
    };
    combined.ops.merge(&sa.ops);
    combined.ops.merge(&sb.ops);
    for i in 0..3 {
        combined.path_counts[i] = sa.path_counts[i] + sb.path_counts[i];
    }

    let mut snap = a.telemetry().snapshot();
    snap.merge(&b.telemetry().snapshot());
    assert_matches(&combined, &snap, "merged");
}

/// The exposition formats must round-trip the differential-grade numbers
/// exactly: a snapshot serialized to JSON and parsed back is the snapshot.
#[test]
fn snapshot_json_round_trips_after_real_run() {
    let mut c = BessChain::speedybox_with(
        build("chain2"),
        SboxConfig { shards: 4, ..SboxConfig::default() },
    );
    let _ = c.run(workload(50, 9));
    let snap = c.telemetry().snapshot();
    let back = TelemetrySnapshot::from_json(&snap.to_json()).expect("parse own JSON");
    assert_eq!(snap, back);
}

/// Short TCP flows (SYN, two data packets, FIN) with six flows open at a
/// time, in two generations over the same 5-tuples, so every flow is
/// opened, fast-pathed, closed and re-opened.
fn churn(flows: u16) -> Vec<Packet> {
    use speedybox::packet::{PacketBuilder, TcpFlags};

    const OPEN: u16 = 6;
    let pkt = |port: u16, flags: u8, i: usize| {
        PacketBuilder::tcp()
            .src(format!("10.9.{}.{}:{}", port / 200, port % 200 + 1, 2000 + port).parse().unwrap())
            .dst("10.0.0.2:80".parse().unwrap())
            .flags(flags)
            .payload(format!("churn-{port}-{i}").as_bytes())
            .build()
    };
    let stages = [TcpFlags::SYN, TcpFlags::ACK, TcpFlags::ACK, TcpFlags::FIN | TcpFlags::ACK];
    let mut out = Vec::new();
    for generation in 0..2 {
        for group in (0..flows).step_by(OPEN as usize) {
            for (i, &flags) in stages.iter().enumerate() {
                for port in group..(group + OPEN).min(flows) {
                    out.push(pkt(port, flags, i + generation * stages.len()));
                }
            }
        }
    }
    out
}

/// The engine calls the churn differential drives: per-packet `process`
/// at batch 1, `process_batch_into` above it.
trait Engine {
    fn process_one(&mut self, packet: Packet) -> ProcessedPacket;
    fn process_into(&mut self, packets: &mut Vec<Packet>, out: &mut Vec<ProcessedPacket>);
    fn snapshot(&self) -> TelemetrySnapshot;
}

impl Engine for BessChain {
    fn process_one(&mut self, packet: Packet) -> ProcessedPacket {
        self.process(packet)
    }
    fn process_into(&mut self, packets: &mut Vec<Packet>, out: &mut Vec<ProcessedPacket>) {
        self.process_batch_into(packets, out);
    }
    fn snapshot(&self) -> TelemetrySnapshot {
        self.telemetry().snapshot()
    }
}

impl Engine for OnvmChain {
    fn process_one(&mut self, packet: Packet) -> ProcessedPacket {
        self.process(packet)
    }
    fn process_into(&mut self, packets: &mut Vec<Packet>, out: &mut Vec<ProcessedPacket>) {
        self.process_batch_into(packets, out);
    }
    fn snapshot(&self) -> TelemetrySnapshot {
        self.telemetry().snapshot()
    }
}

/// Drives `packets` through `engine` at `batch_size`, failing half of
/// Maglev's backends before packet 128 and recovering them before packet
/// 256 — batch boundaries at every size used here — so flows mid-life
/// fire reroute events and the fast path's latencies spread out.
fn drive_churn(
    engine: &mut dyn Engine,
    maglev: &speedybox::nf::maglev::Maglev,
    packets: &[Packet],
    batch_size: usize,
) -> RunStats {
    let mut stats = RunStats::default();
    let mut out = Vec::new();
    for (start, chunk) in packets.chunks(batch_size).enumerate().map(|(i, c)| (i * batch_size, c)) {
        match start {
            128 => (0..4).for_each(|k| maglev.fail_backend(&format!("backend-{k}"))),
            256 => (0..4).for_each(|k| maglev.recover_backend(&format!("backend-{k}"))),
            _ => {}
        }
        if batch_size == 1 {
            stats.record(engine.process_one(chunk[0].clone()));
        } else {
            engine.process_into(&mut chunk.to_vec(), &mut out);
            out.drain(..).for_each(|o| stats.record(o));
        }
    }
    stats
}

/// Per-batch telemetry must leave the hub exactly as per-packet telemetry
/// does: chain1 under SYN/data/FIN churn and a Maglev failover at batch 1
/// (per-packet `observe`), 8 and 32 (one `Tally` flush per call, with
/// calls that end mid-flow and flows that close and re-open inside one
/// call) yields the same snapshot — every counter, every histogram
/// bucket, sum, min and max — on both engines.
#[test]
fn chain1_churn_snapshot_is_identical_at_every_batch_size() {
    let packets = churn(48);
    for engine in ["bess", "onvm"] {
        let mut snaps: Vec<(usize, TelemetrySnapshot)> = Vec::new();
        for batch_size in [1, 8, 32] {
            let label = format!("{engine}/churn/batch={batch_size}");
            let config = SboxConfig { batch_size, shards: 4, ..SboxConfig::default() };
            let (nfs, handles) = chains::chain1(8);
            let mut chain: Box<dyn Engine> = match engine {
                "bess" => Box::new(BessChain::speedybox_with(nfs, config)),
                _ => Box::new(OnvmChain::speedybox_with(nfs, config)),
            };
            let stats = drive_churn(chain.as_mut(), &handles.maglev, &packets, batch_size);
            let snap = chain.snapshot();
            assert_matches(&stats, &snap, &label);
            assert!(
                snap.flows_closed > 0 && snap.rule_rewrites > 0,
                "{label}: churn and failover ran"
            );
            assert!(
                snap.latency[2].min < snap.latency[2].max,
                "{label}: fast-path latencies must spread for min/max to be checked"
            );
            snaps.push((batch_size, snap));
        }
        let (_, per_packet) = &snaps[0];
        for (batch_size, snap) in &snaps[1..] {
            assert_eq!(
                snap, per_packet,
                "{engine}: batch {batch_size} telemetry differs from batch 1"
            );
        }
    }
}
