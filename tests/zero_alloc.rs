//! Zero-allocation steady-state gate (DESIGN.md §15.4).
//!
//! Installs a counting global allocator and proves the claim the pooled
//! packet substrate exists to make: once warm, the batched data path —
//! pooled copy-in, classify, consolidated fast path, recycle — performs
//! **zero** heap allocations per batch, on the paper's chain1
//! (MazuNAT → Maglev → Monitor → IPFilter) and on chain2
//! (IPFilter → Snort → Monitor), whose Snort inspection runs on every
//! fast-path packet.
//!
//! This lives in its own integration-test binary because the global
//! allocator is process-wide: sibling tests running on other threads
//! would show up in the counters. Keep this file to a single `#[test]`.

#![forbid(unsafe_code)]

use allocmeter::CountingAlloc;
use speedybox_nf::Nf;
use speedybox_packet::{Magazine, Packet, PacketBuilder};
use speedybox_platform::bess::BessChain;
use speedybox_platform::chains::{chain1, chain2};
use speedybox_platform::runtime::SboxConfig;
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const BATCH: usize = 32;
const FLOWS: u16 = 8;

/// A heap-built template batch: FLOWS flows to `dst_port`, BATCH/FLOWS
/// packets each, plain established-connection data segments (no FIN/RST,
/// so no flow teardown ever runs in the measured region), packet `i`
/// carrying `payload(i)`.
fn template(dst_port: u16, payload: impl Fn(usize) -> Vec<u8>) -> Vec<Packet> {
    (0..BATCH)
        .map(|i| {
            PacketBuilder::tcp()
                .src({
                    let port = 1000 + u16::try_from(i).expect("small batch") % FLOWS;
                    format!("10.0.0.1:{port}").parse().unwrap()
                })
                .dst(format!("10.0.0.2:{dst_port}").parse().unwrap())
                .payload(&payload(i))
                .build()
        })
        .collect()
}

fn run_batch(
    chain: &mut BessChain,
    mag: &mut Magazine,
    template: &[Packet],
    input: &mut Vec<Packet>,
    out: &mut Vec<speedybox_platform::metrics::ProcessedPacket>,
) {
    // Pooled copy-in: the explicit clone-for-rerun, through the magazine.
    for p in template {
        input.push(mag.copy_packet(p));
    }
    chain.process_batch_into(input, out);
    // Recycle the batch's survivors (drops were recycled by the chain).
    for o in out.drain(..) {
        if let Some(pkt) = o.packet {
            mag.give_packet(pkt);
        }
    }
}

/// Warms `nfs` up on `template`, then asserts that further batches touch
/// neither the heap nor the pool's heap fallback.
fn assert_steady_state_allocates_nothing(name: &str, nfs: Vec<Box<dyn Nf>>, template: &[Packet]) {
    let mut chain =
        BessChain::speedybox_with(nfs, SboxConfig { batch_size: BATCH, ..SboxConfig::default() });
    let mut mag = Magazine::new(Arc::clone(chain.pool()));
    let mut input: Vec<Packet> = Vec::with_capacity(BATCH);
    let mut out = Vec::with_capacity(BATCH);

    // Warmup: first batch takes the slow path (traversal + consolidation
    // + rule install), later ones grow every scratch capacity and seed
    // the pool with recycled buffers.
    for _ in 0..16 {
        run_batch(&mut chain, &mut mag, template, &mut input, &mut out);
    }
    let warm = chain.telemetry().snapshot();
    assert!(
        warm.paths[2] >= warm.packets - BATCH as u64,
        "{name}: every batch after the first must ride the fast path: {} of {}",
        warm.paths[2],
        warm.packets
    );

    // Measured region: the steady state must not touch the heap at all.
    let before = ALLOC.snapshot();
    const MEASURED: usize = 16;
    for _ in 0..MEASURED {
        run_batch(&mut chain, &mut mag, template, &mut input, &mut out);
    }
    let after = ALLOC.snapshot();
    let allocs = after.allocs - before.allocs;
    let bytes = after.bytes - before.bytes;
    assert_eq!(
        allocs, 0,
        "{name}: steady-state data path hit the heap: {allocs} allocations ({bytes} bytes) \
         across {MEASURED} batches of {BATCH}"
    );

    // The batches above were served entirely by the pool: every buffer
    // request a hit, none falling back to the heap.
    let snap = chain.telemetry().snapshot();
    assert_eq!(snap.pool_misses, chain.pool().stats().misses, "{name}: telemetry tracks the pool");
    let measured_packets = (MEASURED * BATCH) as u64;
    assert!(
        snap.pool_hits >= measured_packets,
        "{name}: pooled copies must be pool hits: {} < {measured_packets}",
        snap.pool_hits
    );
}

#[test]
fn steady_state_batch_allocates_nothing() {
    let (nfs, _handles) = chain1(8);
    let clean = template(80, |i| format!("pkt-{i}").into_bytes());
    assert_steady_state_allocates_nothing("chain1", nfs, &clean);

    // Half the packets hit Snort patterns ("evil", "healthcheck") without
    // logging: port 8080 is outside the "evil" rule, and the pass rule
    // for "healthcheck" wins. The other half are digits, which no pattern
    // can start with.
    let (nfs, handles) = chain2();
    let mixed = template(8080, |i| {
        if i % 2 == 0 {
            b"healthcheck evil".to_vec()
        } else {
            format!("{:016}", i * 7919).into_bytes()
        }
    });
    assert_steady_state_allocates_nothing("chain2", nfs, &mixed);
    assert!(handles.snort.log().is_empty(), "the chain2 payloads must not log");
}
