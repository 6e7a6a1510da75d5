//! Wall-clock payload-inspection throughput: the Aho–Corasick engine and
//! the full SnortLite NF.
//!
//! The scan skips bytes that cannot begin a pattern while it is in the
//! root state, so its cost depends on the share of such bytes. The
//! payloads span that share: `digits` (no byte can start a pattern),
//! `miss`/`hit` (letters, 4 bytes in 23 can) and `start_dense` (every byte
//! can).

#![allow(clippy::cast_possible_truncation)] // bench data built from loop indices

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use speedybox_nf::snort::SnortLite;
use speedybox_nf::{AhoCorasick, Nf, NfContext};
use speedybox_packet::PacketBuilder;
use std::hint::black_box;

const RULES: &str = r#"
alert tcp any any -> any 80 (msg:"evil"; content:"evil";)
alert tcp any any -> any any (msg:"exfil"; content:"XFIL";)
log tcp any any -> any any (msg:"probe"; content:"probe";)
log tcp any any -> any any (msg:"beacon"; content:"beacon";)
pass tcp any any -> any any (content:"healthcheck";)
"#;

/// Letters `a..=w` in turn, with "evil" in the middle when `hit`.
fn payload(len: usize, hit: bool) -> Vec<u8> {
    let mut out: Vec<u8> = (0..len).map(|i| b'a' + (i % 23) as u8).collect();
    if hit && len >= 8 {
        let mid = len / 2;
        out[mid..mid + 4].copy_from_slice(b"evil");
    }
    out
}

/// Decimal digits: no pattern starts with one.
fn digits(len: usize) -> Vec<u8> {
    (0..len).map(|i| b'0' + (i * 7 % 10) as u8).collect()
}

/// Repeated "eXph": every byte starts a pattern, none completes one.
fn start_dense(len: usize) -> Vec<u8> {
    b"eXph".iter().copied().cycle().take(len).collect()
}

fn bench_aho_corasick(c: &mut Criterion) {
    let patterns: Vec<Vec<u8>> = ["evil", "XFIL", "probe", "beacon", "healthcheck"]
        .iter()
        .map(|p| p.as_bytes().to_vec())
        .collect();
    let ac = AhoCorasick::new(&patterns);
    let mut g = c.benchmark_group("aho_corasick_scan");
    for len in [64usize, 256, 1024] {
        let clean = payload(len, false);
        g.throughput(Throughput::Bytes(len as u64));
        g.bench_with_input(BenchmarkId::new("miss", len), &clean, |b, data| {
            b.iter(|| black_box(ac.find_all(data)));
        });
        let dirty = payload(len, true);
        g.bench_with_input(BenchmarkId::new("hit", len), &dirty, |b, data| {
            b.iter(|| black_box(ac.find_all(data)));
        });
        g.bench_with_input(BenchmarkId::new("digits", len), &digits(len), |b, data| {
            b.iter(|| black_box(ac.find_all(data)));
        });
        g.bench_with_input(BenchmarkId::new("start_dense", len), &start_dense(len), |b, data| {
            b.iter(|| black_box(ac.find_all(data)));
        });
    }
    g.finish();
}

fn bench_snort_process(c: &mut Criterion) {
    let mut g = c.benchmark_group("snort_process");
    for len in [64usize, 512] {
        g.throughput(Throughput::Bytes(len as u64));
        g.bench_with_input(BenchmarkId::from_parameter(len), &len, |b, &len| {
            let mut ids = SnortLite::from_rules_text(RULES).unwrap();
            let mut p = PacketBuilder::tcp()
                .src("10.0.0.1:1000".parse().unwrap())
                .dst("10.0.0.2:80".parse().unwrap())
                .payload(&payload(len, false))
                .build();
            let fid = p.five_tuple().unwrap().fid();
            p.set_fid(fid);
            b.iter(|| {
                let mut ops = speedybox_mat::OpCounter::default();
                let mut ctx = NfContext::baseline(&mut ops);
                black_box(ids.process(&mut p, &mut ctx))
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_aho_corasick, bench_snort_process);
criterion_main!(benches);
