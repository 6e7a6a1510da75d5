//! Seeded traffic for the four workloads.
//!
//! A [`Trace`] is one cycle of packets that the benchmark replays end to end
//! for as long as a run lasts. Every flow's packets are identical from one
//! cycle to the next, and every flow that closes within a cycle (FIN) opens
//! again before the cycle ends, so the replayed stream is steady: the same
//! share of packets takes the slow path in every cycle.

use std::collections::HashMap;
use std::net::{Ipv4Addr, SocketAddrV4};

use speedybox_packet::{Fid, FiveTuple, Packet, PacketBuilder, Protocol, TcpFlags};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// chain1 on `BessChain`, batch 32, 64 B frames, 256 long-lived flows.
    Fastpath64b,
    /// chain2 on `OnvmChain`, per packet, IMIX frames, 512 flows, 10% of
    /// them carrying Snort-matched content.
    InspectImix,
    /// chain1 on `BessChain`, batch 32, 64 B frames, short TCP flows, with
    /// periodic Maglev backend failover.
    ChurnFailover,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Self::Fastpath64b, Self::InspectImix, Self::ChurnFailover];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Self::Fastpath64b => "fastpath-64b",
            Self::InspectImix => "inspect-imix",
            Self::ChurnFailover => "churn-failover",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Packets per engine call: 32 for the batched `BessChain` workloads,
    /// 1 for the per-packet ONVM one.
    pub fn burst(self) -> usize {
        match self {
            Self::Fastpath64b | Self::ChurnFailover => 32,
            Self::InspectImix => 1,
        }
    }

    /// Generates the workload's trace from `seed`.
    pub fn trace(self, seed: u64) -> Trace {
        match self {
            Self::Fastpath64b => long_lived(seed, 256, 48, Frames::Fixed64),
            Self::InspectImix => long_lived(seed, 512, 24, Frames::Imix),
            Self::ChurnFailover => churn(seed, 256, 6144),
        }
    }
}

/// A Maglev health change applied between engine calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failover {
    /// `fail_backend("backend-<k>")`.
    Fail(usize),
    /// `recover_backend("backend-<k>")`.
    Recover(usize),
}

/// One replayable cycle of traffic.
#[derive(Debug)]
pub struct Trace {
    /// The packets, in arrival order.
    pub packets: Vec<Packet>,
    /// Failover events keyed by cycle offset; each offset is a multiple of
    /// 4096 (a whole number of bursts and of worker chunks), so events fall
    /// between engine calls.
    pub events: Vec<(usize, Failover)>,
    /// Stream positions `[0, warm_len)` form the warm pass of set-up: it
    /// opens (and installs a rule for) every flow live at the start.
    pub warm_len: usize,
    /// Stream positions `[0, check_len)` are replayed through the engine
    /// under test and the reference chain for the output check.
    pub check_len: usize,
}

impl Trace {
    /// Packets in one cycle.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// The events due at stream position `pos` (which starts a burst).
    pub fn events_at(&self, pos: usize) -> impl Iterator<Item = Failover> + '_ {
        let off = pos % self.len();
        self.events.iter().filter(move |(o, _)| *o == off).map(|&(_, e)| e)
    }
}

/// SplitMix64: a small, fully specified generator, so a seed names the
/// same trace on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5eed_b0c5_0000_0000)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Frames {
    Fixed64,
    Imix,
}

/// Ethernet + IPv4 + TCP header bytes.
const HEADERS: usize = 54;

/// Snort rule contents (see `DEFAULT_SNORT_RULES`); "evil" only alerts
/// towards port 80, which every flow here targets.
const SNORT_CONTENT: [&[u8]; 3] = [b"evil", b"XFIL", b"probe"];

/// A payload of `len` digits (no Snort content can match), with `marker`
/// written at a random offset when given.
fn payload(rng: &mut Rng, len: usize, marker: Option<&[u8]>) -> Vec<u8> {
    let mut p: Vec<u8> = (0..len).map(|_| b'0' + (rng.next_u64() % 10) as u8).collect();
    if let Some(m) = marker {
        if len >= m.len() {
            let at = rng.below(len - m.len() + 1);
            p[at..at + m.len()].copy_from_slice(m);
        }
    }
    p
}

fn frame_len(rng: &mut Rng, frames: Frames) -> usize {
    match frames {
        Frames::Fixed64 => 64,
        // IMIX: 64 / 576 / 1500 B frames in the classic 7:4:1 mix.
        Frames::Imix => match rng.below(12) {
            0..=6 => 64,
            7..=10 => 576,
            _ => 1500,
        },
    }
}

/// Every flow's destination.
const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 99, 99, 99);
const SERVER_PORT: u16 = 80;

fn builder(src: SocketAddrV4) -> PacketBuilder {
    let mut b = PacketBuilder::tcp();
    b.src(src).dst(SocketAddrV4::new(SERVER_IP, SERVER_PORT));
    b
}

fn data_packet(
    rng: &mut Rng,
    b: &mut PacketBuilder,
    seq: u32,
    frames: Frames,
    marker: Option<&[u8]>,
) -> Packet {
    let len = frame_len(rng, frames);
    let body = payload(rng, len - HEADERS, marker);
    b.flags(TcpFlags::ACK | TcpFlags::PSH).seq(seq).payload(&body).pad_to(64).build()
}

fn fin_packet(b: &mut PacketBuilder, seq: u32) -> Packet {
    b.flags(TcpFlags::FIN | TcpFlags::ACK).seq(seq).payload(&[]).pad_to(64).build()
}

/// `flows` long-lived flows over `rounds` rounds; every round carries one
/// packet of every flow, in a fresh random order. No handshake: a flow's
/// first packet is data. One flow in eight closes once per cycle (FIN at a
/// random round) and reopens on its next packet, so flow teardown and
/// re-install stay exercised at a steady 1/(8 × rounds) share.
///
/// Flows whose 20-bit FID another flow of the trace shares never close:
/// the engine skips teardown for a colliding flow's FIN while the original
/// chain tears down every NF's state for that FID, a documented asymmetry
/// (DESIGN.md §11) that the output check must not trip on. The collisions
/// themselves stay in the trace.
fn long_lived(seed: u64, flows: usize, rounds: usize, frames: Frames) -> Trace {
    let mut rng = Rng::new(seed);
    let port_base = 1024 + rng.below(20_000) as u16;
    let tuples: Vec<SocketAddrV4> = (0..flows)
        .map(|f| {
            let ip = Ipv4Addr::new(10, 2, (f / 250) as u8, (f % 250) as u8 + 1);
            SocketAddrV4::new(ip, port_base + (f % 7919) as u16)
        })
        .collect();
    let mut fid_users = HashMap::new();
    for t in &tuples {
        *fid_users.entry(fid_of(*t)).or_insert(0usize) += 1;
    }
    let mut builders: Vec<PacketBuilder> = tuples.iter().map(|t| builder(*t)).collect();
    // On IMIX, exactly one flow in ten (at random) carries Snort content,
    // the three contents in turn, so every seed asks the same scan work.
    let mut markers: Vec<Option<&[u8]>> = vec![None; flows];
    if matches!(frames, Frames::Imix) {
        for (k, m) in markers.iter_mut().take(flows / 10).enumerate() {
            *m = Some(SNORT_CONTENT[k % SNORT_CONTENT.len()]);
        }
        rng.shuffle(&mut markers);
    }
    let close_round: Vec<Option<usize>> = tuples
        .iter()
        .map(|t| {
            let closes = rng.below(8) == 0 && fid_users[&fid_of(*t)] == 1;
            closes.then(|| 1 + rng.below(rounds - 2))
        })
        .collect();
    let mut packets = Vec::with_capacity(flows * rounds);
    let mut order: Vec<usize> = (0..flows).collect();
    for round in 0..rounds {
        rng.shuffle(&mut order);
        for &f in &order {
            let seq = round as u32;
            packets.push(if close_round[f] == Some(round) {
                fin_packet(&mut builders[f], seq)
            } else {
                data_packet(&mut rng, &mut builders[f], seq, frames, markers[f])
            });
        }
    }
    Trace { packets, events: Vec::new(), warm_len: flows, check_len: (rounds + 1) * flows }
}

/// Short TCP flows (SYN, 1 to 3 data packets, FIN) run back to back in
/// `slots` concurrent slots until `total` flows are done; each step emits
/// the next packet of a random live slot. Maglev fails and recovers a
/// backend every 4096 packets.
///
/// No two flows that are open at the same time share a FID (a flow's
/// source port moves on until its FID is free): a colliding flow's FIN is
/// handled differently by the engine and the original chain by design
/// (see [`long_lived`]), and every flow here ends with a FIN.
fn churn(seed: u64, slots: usize, total: usize) -> Trace {
    const EVENT_EVERY: usize = 4096;
    let mut rng = Rng::new(seed);
    let port_base = 1024 + rng.below(20_000) as u16;
    let mut data: Vec<usize> = (0..total).map(|_| 1 + rng.below(3)).collect();
    // Pad the cycle to whole 32-packet bursts with extra data packets.
    let mut n: usize = data.iter().map(|d| d + 2).sum();
    let mut i = 0;
    while !n.is_multiple_of(32) {
        data[i] += 1;
        n += 1;
        i += 1;
    }
    // The schedule: (flow, packet index within the flow). Slot s runs
    // flows s, s + slots, s + 2·slots, ...
    let mut schedule = Vec::with_capacity(n);
    let mut next_flow: Vec<usize> = (0..slots).collect();
    let mut step: Vec<usize> = vec![0; slots];
    let mut live: Vec<usize> = (0..slots.min(total)).collect();
    while !live.is_empty() {
        let li = rng.below(live.len());
        let s = live[li];
        let f = next_flow[s];
        schedule.push((f, step[s]));
        if step[s] == data[f] + 1 {
            step[s] = 0;
            next_flow[s] += slots;
            if next_flow[s] >= total {
                live.swap_remove(li);
            }
        } else {
            step[s] += 1;
        }
    }
    // Tuples in order of flow start, skipping FIDs of open flows.
    let mut tuples: Vec<Option<SocketAddrV4>> = vec![None; total];
    let mut open: HashMap<Fid, usize> = HashMap::new();
    for &(f, k) in &schedule {
        if k == 0 {
            let ip = Ipv4Addr::new(10, 3, (f / 250 % 250) as u8, (f % 250) as u8 + 1);
            let mut port = port_base;
            while open.contains_key(&fid_of(SocketAddrV4::new(ip, port))) {
                port += 1;
            }
            let t = SocketAddrV4::new(ip, port);
            open.insert(fid_of(t), f);
            tuples[f] = Some(t);
        } else if k == data[f] + 1 {
            open.remove(&fid_of(tuples[f].expect("flow opened")));
        }
    }
    let mut builders: Vec<Option<PacketBuilder>> = vec![None; total];
    let mut packets = Vec::with_capacity(n);
    for &(f, k) in &schedule {
        let b = builders[f].get_or_insert_with(|| builder(tuples[f].expect("flow opened")));
        let seq = k as u32;
        packets.push(if k == 0 {
            b.flags(TcpFlags::SYN).seq(seq).payload(&[]).pad_to(64).build()
        } else if k <= data[f] {
            data_packet(&mut rng, b, seq, Frames::Fixed64, None)
        } else {
            let fin = fin_packet(b, seq);
            builders[f] = None;
            fin
        });
    }
    // The first event comes one interval in, not at offset 0: every flow
    // has closed by the end of a cycle, and a backend that fails while no
    // flow is open reroutes nothing.
    let pairs = (n - 1) / EVENT_EVERY / 2;
    let events = (0..pairs * 2)
        .map(|j| {
            let backend = (j / 2) % 4;
            let e = if j % 2 == 0 { Failover::Fail(backend) } else { Failover::Recover(backend) };
            ((j + 1) * EVENT_EVERY, e)
        })
        .collect();
    // The warm pass is four packets per slot: by then nearly every slot has
    // a flow open, and set-up stays mostly chain construction, like the
    // other workloads', rather than a long stretch of slow-path traffic.
    Trace { packets, events, warm_len: 4 * slots, check_len: n + EVENT_EVERY }
}

/// The FID the classifier gives a flow from `src` to the workload's server.
fn fid_of(src: SocketAddrV4) -> Fid {
    FiveTuple::new(*src.ip(), src.port(), SERVER_IP, SERVER_PORT, Protocol::Tcp).fid()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_trace() {
        for w in [Workload::Fastpath64b, Workload::InspectImix, Workload::ChurnFailover] {
            let a = w.trace(7);
            let b = w.trace(7);
            assert_eq!(a.len(), b.len());
            assert!(a.packets.iter().zip(&b.packets).all(|(x, y)| x.as_bytes() == y.as_bytes()));
            assert_eq!(a.len() % w.burst(), 0, "whole bursts per cycle");
            assert_eq!(a.warm_len % w.burst(), 0);
        }
        let c = Workload::Fastpath64b.trace(8);
        assert_ne!(c.packets[0].as_bytes(), Workload::Fastpath64b.trace(7).packets[0].as_bytes());
    }

    #[test]
    fn churn_flows_are_short_and_complete() {
        let t = Workload::ChurnFailover.trace(3);
        let mut open = HashMap::<Fid, usize>::new();
        let mut closed = 0;
        for p in &t.packets {
            let fid = p.five_tuple().unwrap().fid();
            let flags = p.tcp_flags();
            if flags.syn() {
                assert!(open.insert(fid, 1).is_none(), "open flows never share a FID");
            } else {
                *open.get_mut(&fid).expect("packet of an open flow") += 1;
                if flags.closes_flow() {
                    assert!((3..=6).contains(&open.remove(&fid).unwrap()));
                    closed += 1;
                }
            }
        }
        assert!(open.is_empty());
        assert_eq!(closed, 6144);
        assert!(!t.events.is_empty() && t.events.len().is_multiple_of(2));
    }
}
