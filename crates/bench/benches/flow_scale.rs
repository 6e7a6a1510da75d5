//! The bounded flow-state store at scale: install rate into the slab,
//! wait-free lookup latency against a 1M-entry table, LRU eviction churn
//! at capacity, and timer-wheel idle expiry — the micro counterparts of
//! `perfgate --flow-scale`'s gated end-to-end run.
//!
//! Clocks are synthetic ticks (one per operation), so the timer-wheel
//! cascade depth is deterministic per iteration; only the measured wall
//! time varies with the machine.
//!
//! `flow_lifecycle` measures the per-flow control plane end to end: chain1
//! flows (SYN, two data packets, FIN) through `BessChain` at batch 32.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use speedybox_mat::{AdmissionPolicy, FlowTable, FID_SPACE};
use speedybox_packet::{Fid, Packet, PacketBuilder, TcpFlags};
use speedybox_platform::bess::BessChain;
use speedybox_platform::chains::chain1;
use speedybox_platform::runtime::SboxConfig;
use std::hint::black_box;
use std::sync::Arc;

/// Flows per install/expiry iteration — large enough to spill the wheel's
/// first level and touch many index chunks, small enough to keep
/// criterion's sample count honest.
const BATCH: u32 = 65_536;
/// Live table size for the lookup benchmarks.
const LIVE: u32 = 1_000_000;

fn bench_install(c: &mut Criterion) {
    let mut g = c.benchmark_group("flow_install");
    g.throughput(Throughput::Elements(u64::from(BATCH)));
    // Fresh arena: every insert allocates a never-used slot chunk.
    g.bench_function("fresh_slab", |b| {
        b.iter_batched(
            || FlowTable::<u64>::new(64, FID_SPACE, AdmissionPolicy::EvictOldest),
            |table| {
                for i in 0..BATCH {
                    table.insert(Fid::new(i), Arc::new(u64::from(i)), u64::from(i));
                }
                table
            },
            criterion::BatchSize::LargeInput,
        );
    });
    // Recycled arena: the same FIDs re-installed after a full idle sweep,
    // so every insert pops the free list instead of growing the arena.
    g.bench_function("recycled_slots", |b| {
        b.iter_batched(
            || {
                let table = FlowTable::<u64>::new(64, FID_SPACE, AdmissionPolicy::EvictOldest);
                for i in 0..BATCH {
                    table.insert(Fid::new(i), Arc::new(u64::from(i)), u64::from(i));
                }
                table.expire_idle(u64::from(BATCH) + 2_000, 1_000);
                table.collect_generations();
                table
            },
            |table| {
                let base = u64::from(BATCH) + 3_000;
                for i in 0..BATCH {
                    table.insert(Fid::new(i), Arc::new(u64::from(i)), base + u64::from(i));
                }
                table
            },
            criterion::BatchSize::LargeInput,
        );
    });
    g.finish();
}

fn bench_lookup(c: &mut Criterion) {
    let table = FlowTable::<u64>::new(64, FID_SPACE, AdmissionPolicy::EvictOldest);
    for i in 0..LIVE {
        table.insert(Fid::new(i), Arc::new(u64::from(i)), u64::from(i));
    }
    let mut g = c.benchmark_group("flow_lookup_1m_live");
    for stride in [1u32, 4093] {
        // Stride 1 is cache-friendly; 4093 (prime) defeats the prefetcher
        // and spreads across shards — the worst-case pointer chase.
        g.bench_with_input(BenchmarkId::new("stride", stride), &stride, |b, &stride| {
            let mut i = 0u32;
            b.iter(|| {
                i = (i + stride) % LIVE;
                black_box(table.lookup(Fid::new(i)))
            });
        });
    }
    g.finish();
}

fn bench_eviction_churn(c: &mut Criterion) {
    let mut g = c.benchmark_group("flow_eviction");
    g.throughput(Throughput::Elements(u64::from(BATCH)));
    // At capacity, every insert of a fresh FID must LRU-evict a victim:
    // wheel pop, truth check, slot retire, free-list push, re-allocate.
    g.bench_function("churn_at_capacity", |b| {
        b.iter_batched(
            || {
                let table = FlowTable::<u64>::new(64, BATCH as usize, AdmissionPolicy::EvictOldest);
                for i in 0..BATCH {
                    table.insert(Fid::new(i), Arc::new(u64::from(i)), u64::from(i));
                }
                table
            },
            |table| {
                let base = u64::from(BATCH);
                for i in 0..BATCH {
                    // A disjoint FID range, so every insert displaces.
                    table.insert(Fid::new(BATCH + i), Arc::new(0), base + u64::from(i));
                }
                table
            },
            criterion::BatchSize::LargeInput,
        );
    });
    // Bulk idle expiry through the wheel: cascade + truth check per entry.
    g.bench_function("idle_expiry_sweep", |b| {
        b.iter_batched(
            || {
                let table = FlowTable::<u64>::new(64, FID_SPACE, AdmissionPolicy::EvictOldest);
                for i in 0..BATCH {
                    table.insert(Fid::new(i), Arc::new(u64::from(i)), u64::from(i));
                }
                table
            },
            |table| {
                let evicted = table.expire_idle(u64::from(BATCH) + 2_000, 1_000);
                assert_eq!(evicted.len(), BATCH as usize);
                table
            },
            criterion::BatchSize::LargeInput,
        );
    });
    g.finish();
}

/// Batch size of the lifecycle benchmark (the perfbench churn workload's).
const LIFECYCLE_BATCH: usize = 32;
/// Packets per lifecycle: SYN, data, data, FIN.
const LIFECYCLE_STAGES: usize = 4;

/// Batch `b` of a pipelined churn: lane `j` is at stage `(b + j) % 4` of
/// its current flow, so every batch opens 8 flows, carries 16 data packets
/// and closes 8 — one batch is 8 complete flow lifecycles.
fn lifecycle_batch(b: usize) -> Vec<Packet> {
    (0..LIFECYCLE_BATCH)
        .map(|j| {
            let stage = (b + j) % LIFECYCLE_STAGES;
            let flow = ((b + j) / LIFECYCLE_STAGES) * LIFECYCLE_BATCH + j;
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
                .payload(b"lifecycle")
                .build()
        })
        .collect()
}

fn bench_flow_lifecycle(c: &mut Criterion) {
    const TEMPLATES: usize = 256;
    let flows_per_batch = LIFECYCLE_BATCH / LIFECYCLE_STAGES;
    let templates: Vec<Vec<Packet>> = (0..TEMPLATES).map(lifecycle_batch).collect();
    let (nfs, _handles) = chain1(4);
    let config = SboxConfig { batch_size: LIFECYCLE_BATCH, ..SboxConfig::default() };
    let mut chain = BessChain::speedybox_with(nfs, config);
    let pool = Arc::clone(chain.pool());
    let mut out = Vec::with_capacity(LIFECYCLE_BATCH);
    let mut next = 0usize;
    let mut g = c.benchmark_group("flow_lifecycle");
    // One iteration = one batch = 8 whole chain1 flows: ns per flow is
    // ns/iter divided by 8, and the elem/s rate is flows per second.
    g.throughput(Throughput::Elements(flows_per_batch as u64));
    g.bench_function("chain1_batch32", |b| {
        b.iter_batched(
            || {
                // rx (untimed): pooled copies of the next template batch.
                next = (next + 1) % TEMPLATES;
                pool.copy_packets(&templates[next])
            },
            |mut input| {
                chain.process_batch_into(&mut input, &mut out);
                pool.free_batch(out.drain(..).filter_map(|o| o.packet));
            },
            criterion::BatchSize::SmallInput,
        );
    });
    g.finish();
}

criterion_group!(benches, bench_install, bench_lookup, bench_eviction_churn, bench_flow_lifecycle);
criterion_main!(benches);
