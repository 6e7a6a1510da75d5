//! Allocation bound for a whole flow lifecycle on the batched data path.
//!
//! `tests/zero_alloc.rs` proves the fast path allocates nothing once warm;
//! this gate meters what it leaves out — the per-flow control plane. Each
//! chain1 (MazuNAT → Maglev → Monitor → IPFilter) flow here is a SYN, two
//! data packets and a FIN, driven through `BessChain::process_batch_into`
//! at batch 32: classifier slot open, the slow path recording into every
//! Local MAT, consolidation and install, fast-path hits, and teardown of
//! the Global MAT, Local MATs, Event Table and NF state at FIN. Only the
//! engine call is metered; the pooled input copies and the recycling of
//! outputs happen outside the measured region.
//!
//! Like `zero_alloc.rs`, this lives in its own integration-test binary
//! because the counting allocator is process-wide. Keep this file to a
//! single `#[test]`.

#![forbid(unsafe_code)]

use allocmeter::CountingAlloc;
use speedybox_packet::{Magazine, Packet, PacketBuilder, TcpFlags};
use speedybox_platform::bess::BessChain;
use speedybox_platform::chains::chain1;
use speedybox_platform::runtime::SboxConfig;
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const BATCH: usize = 32;

/// Packets per flow: SYN, data, data, FIN.
const STAGES: usize = 4;

/// Ceiling on heap allocations per flow lifecycle (engine call only).
const MAX_ALLOCS_PER_FLOW: u64 = 27;

/// The packet flow `flow` sends at lifecycle stage `stage`.
fn packet(flow: usize, stage: usize) -> Packet {
    let flags = match stage {
        0 => TcpFlags::SYN,
        3 => TcpFlags::FIN | TcpFlags::ACK,
        _ => TcpFlags::ACK,
    };
    let port = 10_000 + u16::try_from(flow % 20_000).expect("port fits");
    PacketBuilder::tcp()
        .src(format!("10.1.{}.{}:{port}", flow % 200, flow % 199 + 1).parse().unwrap())
        .dst("10.0.0.2:80".parse().unwrap())
        .flags(flags)
        .payload(format!("flow-{flow}-{stage}").as_bytes())
        .build()
}

/// Batch `b` of a pipelined churn: lane `j` of the batch is at lifecycle
/// stage `(b + j) % 4` of its current flow, and a lane starting over at
/// stage 0 opens a new flow. Every batch therefore opens 8 flows, carries
/// 16 data packets of older flows and closes 8 — after the first three
/// batches, exactly 8 complete lifecycles per batch.
fn churn_batch(b: usize) -> Vec<Packet> {
    (0..BATCH)
        .map(|j| {
            let stage = (b + j) % STAGES;
            // The flow this lane is serving: one new flow per lane every
            // four batches.
            let flow = ((b + j) / STAGES) * BATCH + j;
            packet(flow, stage)
        })
        .collect()
}

#[test]
fn flow_lifecycle_allocations_are_bounded() {
    let (nfs, _handles) = chain1(4);
    let mut chain =
        BessChain::speedybox_with(nfs, SboxConfig { batch_size: BATCH, ..SboxConfig::default() });
    let mut mag = Magazine::new(Arc::clone(chain.pool()));
    let mut input: Vec<Packet> = Vec::with_capacity(BATCH);
    let mut out = Vec::with_capacity(BATCH);

    const WARM: usize = 64;
    const MEASURED: usize = 64;
    let templates: Vec<Vec<Packet>> = (0..WARM + MEASURED).map(churn_batch).collect();
    let mut metered = 0u64;
    for (b, template) in templates.iter().enumerate() {
        // Input copies: outside the metered region.
        for p in template {
            input.push(mag.copy_packet(p));
        }
        let before = ALLOC.snapshot().allocs;
        chain.process_batch_into(&mut input, &mut out);
        if b >= WARM {
            metered += ALLOC.snapshot().allocs - before;
        }
        for o in out.drain(..) {
            if let Some(pkt) = o.packet {
                mag.give_packet(pkt);
            }
        }
    }

    let snap = chain.telemetry().snapshot();
    let flows = (MEASURED * BATCH / STAGES) as u64;
    assert!(snap.paths[2] > 0 && snap.flows_closed >= flows, "the churn reached every path");
    let sbox = chain.sbox().expect("speedybox chain");
    assert!(
        sbox.global.len() <= 3 * BATCH / STAGES * 2,
        "closed flows were torn down ({} rules left)",
        sbox.global.len()
    );
    let per_flow = metered as f64 / flows as f64;
    eprintln!("flow lifecycle: {metered} allocations over {flows} flows ({per_flow:.2} per flow)");
    assert!(
        metered <= MAX_ALLOCS_PER_FLOW * flows,
        "{per_flow:.2} allocations per flow lifecycle exceed the bound of {MAX_ALLOCS_PER_FLOW}"
    );
}
