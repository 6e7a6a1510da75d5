//! MazuNAT: a Click-style dynamic NAPT (paper §VI-C).
//!
//! "MazuNAT closely resembles the NAT module in Click that translates the
//! IP and port for flows ... MazuNAT sets each flow with a modify action."
//! We implement bidirectional NAPT: each new outbound flow gets a port
//! from the external port pool and its source IP/port rewritten, and reply
//! traffic addressed to the external IP is translated back to the mapped
//! internal endpoint (unsolicited inbound traffic is dropped). ICMP
//! handling is omitted, as in the paper.

use std::collections::HashMap;
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::Arc;

use parking_lot::Mutex;
use speedybox_mat::HeaderAction;
use speedybox_packet::{Fid, FidMap, FiveTuple, HeaderField, Packet};

use crate::nf::{Nf, NfContext, NfVerdict, StateSnapshot};

/// One NAT translation entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mapping {
    /// The flow's original (internal) 5-tuple.
    pub internal: FiveTuple,
    /// Allocated external port.
    pub external_port: u16,
}

#[derive(Debug, Clone)]
struct NatState {
    /// Forward map: flow -> translation.
    by_fid: FidMap<Mapping>,
    /// Reverse map: external port -> flow (for reply translation).
    by_port: HashMap<u16, Fid>,
    /// Next port to try.
    next_port: u16,
    /// Recycled ports from closed flows.
    free_ports: Vec<u16>,
    port_range: (u16, u16),
}

impl NatState {
    fn allocate_port(&mut self) -> Option<u16> {
        if let Some(p) = self.free_ports.pop() {
            return Some(p);
        }
        let (lo, hi) = self.port_range;
        let span = u32::from(hi - lo) + 1;
        for _ in 0..span {
            let p = self.next_port;
            self.next_port = if self.next_port >= hi { lo } else { self.next_port + 1 };
            if !self.by_port.contains_key(&p) {
                return Some(p);
            }
        }
        None
    }
}

/// The MazuNAT network function.
#[derive(Clone)]
pub struct MazuNat {
    external_ip: Ipv4Addr,
    state: Arc<Mutex<NatState>>,
}

impl fmt::Debug for MazuNat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.state.lock();
        f.debug_struct("MazuNat")
            .field("external_ip", &self.external_ip)
            .field("mappings", &st.by_fid.len())
            .finish()
    }
}

impl MazuNat {
    /// Creates a NAT translating to `external_ip`, allocating external
    /// ports from `port_range` (inclusive).
    ///
    /// # Panics
    /// Panics if the range is empty.
    #[must_use]
    pub fn new(external_ip: Ipv4Addr, port_range: (u16, u16)) -> Self {
        assert!(port_range.0 <= port_range.1, "empty NAT port range");
        Self {
            external_ip,
            state: Arc::new(Mutex::new(NatState {
                by_fid: FidMap::default(),
                by_port: HashMap::new(),
                next_port: port_range.0,
                free_ports: Vec::new(),
                port_range,
            })),
        }
    }

    /// The translation for a flow, if established.
    #[must_use]
    pub fn mapping(&self, fid: Fid) -> Option<Mapping> {
        self.state.lock().by_fid.get(&fid).copied()
    }

    /// Number of active translations.
    #[must_use]
    pub fn mapping_count(&self) -> usize {
        self.state.lock().by_fid.len()
    }

    /// The flow owning an external port (reply-direction lookup).
    #[must_use]
    pub fn flow_for_port(&self, port: u16) -> Option<Fid> {
        self.state.lock().by_port.get(&port).copied()
    }
}

impl Nf for MazuNat {
    fn name(&self) -> &str {
        "mazunat"
    }

    fn process(&mut self, packet: &mut Packet, ctx: &mut NfContext<'_>) -> NfVerdict {
        let Ok(tuple) = packet.five_tuple() else {
            ctx.ops.drops += 1;
            return NfVerdict::Drop;
        };
        ctx.ops.parses += 1;
        let fid = packet.fid().unwrap_or_else(|| tuple.fid());
        // Inbound (reply) direction: traffic addressed to the external IP
        // is translated back to the mapped internal endpoint; unknown
        // external ports are dropped, as a NAT must.
        if tuple.dst_ip == self.external_ip {
            let internal = {
                let st = self.state.lock();
                ctx.ops.hash_lookups += 1;
                st.by_port
                    .get(&tuple.dst_port)
                    .and_then(|owner| st.by_fid.get(owner))
                    .map(|m| (m.internal.src_ip, m.internal.src_port))
            };
            let Some((ip, port)) = internal else {
                ctx.ops.drops += 1;
                if let Some(inst) = ctx.instrument {
                    inst.add_header_action(fid, HeaderAction::Drop, ctx.ops);
                }
                return NfVerdict::Drop;
            };
            let action = HeaderAction::modify2(
                (HeaderField::DstIp, ip.into()),
                (HeaderField::DstPort, port.into()),
            );
            if !action.apply(packet, ctx.ops).unwrap_or(false) {
                return NfVerdict::Drop;
            }
            if let Some(inst) = ctx.instrument {
                inst.add_header_action(fid, action, ctx.ops);
            }
            return NfVerdict::Forward;
        }
        let external_port = {
            let mut st = self.state.lock();
            ctx.ops.hash_lookups += 1;
            match st.by_fid.get(&fid) {
                Some(m) => m.external_port,
                None => {
                    let Some(port) = st.allocate_port() else {
                        // Port pool exhausted: shed the flow (recording the
                        // drop so the fast path sheds too).
                        drop(st);
                        ctx.ops.drops += 1;
                        if let Some(inst) = ctx.instrument {
                            inst.add_header_action(fid, HeaderAction::Drop, ctx.ops);
                        }
                        return NfVerdict::Drop;
                    };
                    st.by_fid.insert(fid, Mapping { internal: tuple, external_port: port });
                    st.by_port.insert(port, fid);
                    ctx.ops.hash_updates += 2;
                    port
                }
            }
        };
        let action = HeaderAction::modify2(
            (HeaderField::SrcIp, self.external_ip.into()),
            (HeaderField::SrcPort, external_port.into()),
        );
        if !action.apply(packet, ctx.ops).unwrap_or(false) {
            return NfVerdict::Drop;
        }
        // SPEEDYBOX-INTEGRATION-BEGIN (mazunat: 4 lines)
        if let Some(inst) = ctx.instrument {
            inst.add_header_action(fid, action, ctx.ops);
        }
        // SPEEDYBOX-INTEGRATION-END
        NfVerdict::Forward
    }

    fn flow_closed(&mut self, fid: Fid) {
        let mut st = self.state.lock();
        if let Some(m) = st.by_fid.remove(&fid) {
            st.by_port.remove(&m.external_port);
            st.free_ports.push(m.external_port);
        }
    }

    fn has_flow_state(&self) -> bool {
        true
    }

    fn snapshot_state(&self) -> Option<StateSnapshot> {
        Some(StateSnapshot::new(self.state.lock().clone()))
    }

    fn restore_state(&mut self, snapshot: &StateSnapshot) -> bool {
        let Some(captured) = snapshot.downcast::<NatState>() else {
            return false;
        };
        *self.state.lock() = captured.clone();
        true
    }

    fn crash(&mut self) {
        // A re-exec'd NAT keeps its configuration (external IP, port
        // range) but loses every translation and the allocator cursor.
        let mut st = self.state.lock();
        let lo = st.port_range.0;
        st.by_fid.clear();
        st.by_port.clear();
        st.free_ports.clear();
        st.next_port = lo;
    }
}

#[cfg(test)]
mod tests {
    use speedybox_mat::OpCounter;
    use speedybox_packet::PacketBuilder;

    use super::*;

    fn nat() -> MazuNat {
        MazuNat::new(Ipv4Addr::new(198, 51, 100, 1), (50000, 50003))
    }

    fn packet(src_port: u16) -> Packet {
        let mut p = PacketBuilder::tcp()
            .src(format!("192.168.1.5:{src_port}").parse().unwrap())
            .dst("93.184.216.34:443".parse().unwrap())
            .build();
        let fid = p.five_tuple().unwrap().fid();
        p.set_fid(fid);
        p
    }

    #[test]
    fn rewrites_source() {
        let mut nat = nat();
        let mut ops = OpCounter::default();
        let mut ctx = NfContext::baseline(&mut ops);
        let mut p = packet(1000);
        assert_eq!(nat.process(&mut p, &mut ctx), NfVerdict::Forward);
        assert_eq!(
            p.get_field(HeaderField::SrcIp).unwrap().as_ipv4(),
            Ipv4Addr::new(198, 51, 100, 1)
        );
        let sp = p.get_field(HeaderField::SrcPort).unwrap().as_port();
        assert!((50000..=50003).contains(&sp));
        assert!(p.verify_checksums().unwrap());
    }

    #[test]
    fn same_flow_keeps_its_port() {
        let mut nat = nat();
        let mut ops = OpCounter::default();
        let mut p1 = packet(1000);
        let mut p2 = packet(1000);
        {
            let mut ctx = NfContext::baseline(&mut ops);
            nat.process(&mut p1, &mut ctx);
        }
        {
            let mut ctx = NfContext::baseline(&mut ops);
            nat.process(&mut p2, &mut ctx);
        }
        assert_eq!(
            p1.get_field(HeaderField::SrcPort).unwrap().as_port(),
            p2.get_field(HeaderField::SrcPort).unwrap().as_port()
        );
        assert_eq!(nat.mapping_count(), 1);
    }

    #[test]
    fn different_flows_get_different_ports() {
        let mut nat = nat();
        let mut ops = OpCounter::default();
        let mut p1 = packet(1000);
        let mut p2 = packet(2000);
        {
            let mut ctx = NfContext::baseline(&mut ops);
            nat.process(&mut p1, &mut ctx);
        }
        {
            let mut ctx = NfContext::baseline(&mut ops);
            nat.process(&mut p2, &mut ctx);
        }
        assert_ne!(
            p1.get_field(HeaderField::SrcPort).unwrap().as_port(),
            p2.get_field(HeaderField::SrcPort).unwrap().as_port()
        );
    }

    #[test]
    fn port_pool_exhaustion_drops() {
        let mut nat = nat(); // 4 ports
        let mut ops = OpCounter::default();
        for i in 0..4 {
            let mut p = packet(1000 + i);
            let mut ctx = NfContext::baseline(&mut ops);
            assert_eq!(nat.process(&mut p, &mut ctx), NfVerdict::Forward);
        }
        let mut p = packet(9999);
        let mut ctx = NfContext::baseline(&mut ops);
        assert_eq!(nat.process(&mut p, &mut ctx), NfVerdict::Drop);
    }

    #[test]
    fn closed_flow_recycles_port() {
        let mut nat = nat();
        let mut ops = OpCounter::default();
        let mut p = packet(1000);
        {
            let mut ctx = NfContext::baseline(&mut ops);
            nat.process(&mut p, &mut ctx);
        }
        let fid = p.fid().unwrap();
        let port = nat.mapping(fid).unwrap().external_port;
        nat.flow_closed(fid);
        assert_eq!(nat.mapping_count(), 0);
        assert!(nat.flow_for_port(port).is_none());
        // Recycled port is reused.
        let mut p2 = packet(2000);
        {
            let mut ctx = NfContext::baseline(&mut ops);
            nat.process(&mut p2, &mut ctx);
        }
        assert_eq!(p2.get_field(HeaderField::SrcPort).unwrap().as_port(), port);
    }

    #[test]
    fn reverse_lookup_finds_flow() {
        let mut nat = nat();
        let mut ops = OpCounter::default();
        let mut p = packet(1000);
        {
            let mut ctx = NfContext::baseline(&mut ops);
            nat.process(&mut p, &mut ctx);
        }
        let fid = p.fid().unwrap();
        let port = nat.mapping(fid).unwrap().external_port;
        assert_eq!(nat.flow_for_port(port), Some(fid));
    }

    #[test]
    fn reply_traffic_translates_back() {
        let mut nat = nat();
        let mut ops = OpCounter::default();
        // Outbound packet establishes the mapping.
        let mut out = packet(1000);
        {
            let mut ctx = NfContext::baseline(&mut ops);
            assert_eq!(nat.process(&mut out, &mut ctx), NfVerdict::Forward);
        }
        let ext_port = out.get_field(HeaderField::SrcPort).unwrap().as_port();
        // Reply: server -> external ip:port.
        let mut reply = PacketBuilder::tcp()
            .src("93.184.216.34:443".parse().unwrap())
            .dst(format!("198.51.100.1:{ext_port}").parse().unwrap())
            .payload(b"response")
            .build();
        let rfid = reply.five_tuple().unwrap().fid();
        reply.set_fid(rfid);
        {
            let mut ctx = NfContext::baseline(&mut ops);
            assert_eq!(nat.process(&mut reply, &mut ctx), NfVerdict::Forward);
        }
        assert_eq!(
            reply.get_field(HeaderField::DstIp).unwrap().as_ipv4(),
            Ipv4Addr::new(192, 168, 1, 5)
        );
        assert_eq!(reply.get_field(HeaderField::DstPort).unwrap().as_port(), 1000);
        assert!(reply.verify_checksums().unwrap());
    }

    #[test]
    fn unsolicited_inbound_is_dropped() {
        let mut nat = nat();
        let mut ops = OpCounter::default();
        let mut stray = PacketBuilder::tcp()
            .src("93.184.216.34:443".parse().unwrap())
            .dst("198.51.100.1:50002".parse().unwrap())
            .build();
        let fid = stray.five_tuple().unwrap().fid();
        stray.set_fid(fid);
        let mut ctx = NfContext::baseline(&mut ops);
        assert_eq!(nat.process(&mut stray, &mut ctx), NfVerdict::Drop);
    }

    #[test]
    fn bidirectional_fast_path_matches_baseline() {
        use speedybox_mat::{EventTable, LocalMat, NfId, NfInstrument};
        use std::sync::Arc as StdArc;

        // The reverse flow records its own (inbound) modify rule under its
        // own FID; repeated replies replay it identically.
        let mut nat = nat();
        let inst = NfInstrument::new(
            StdArc::new(LocalMat::new(NfId::new(0))),
            StdArc::new(EventTable::new()),
        );
        let mut ops = OpCounter::default();
        let mut out = packet(1000);
        {
            let mut ctx = NfContext::instrumented(&inst, &mut ops);
            nat.process(&mut out, &mut ctx);
        }
        let ext_port = out.get_field(HeaderField::SrcPort).unwrap().as_port();
        let mut reply = PacketBuilder::tcp()
            .src("93.184.216.34:443".parse().unwrap())
            .dst(format!("198.51.100.1:{ext_port}").parse().unwrap())
            .build();
        let rfid = reply.five_tuple().unwrap().fid();
        reply.set_fid(rfid);
        {
            let mut ctx = NfContext::instrumented(&inst, &mut ops);
            nat.process(&mut reply, &mut ctx);
        }
        let rule = inst.local_mat().rule(rfid).unwrap();
        match &rule.header_actions[0] {
            HeaderAction::Modify(writes) => {
                assert!(writes.iter().any(|(f, _)| *f == HeaderField::DstIp));
                assert!(writes.iter().any(|(f, _)| *f == HeaderField::DstPort));
            }
            other => panic!("expected inbound modify, got {other}"),
        }
    }

    #[test]
    fn snapshot_restores_mappings_and_allocator_cursor() {
        let mut nat = nat();
        let mut ops = OpCounter::default();
        let mut p = packet(1000);
        {
            let mut ctx = NfContext::baseline(&mut ops);
            nat.process(&mut p, &mut ctx);
        }
        let fid = p.fid().unwrap();
        let port = nat.mapping(fid).unwrap().external_port;
        assert!(nat.has_flow_state());
        let snap = nat.snapshot_state().unwrap();
        // A second mapping after the checkpoint, then the crash.
        let mut p2 = packet(2000);
        {
            let mut ctx = NfContext::baseline(&mut ops);
            nat.process(&mut p2, &mut ctx);
        }
        nat.crash();
        assert_eq!(nat.mapping_count(), 0, "crash drops every translation");
        assert!(nat.restore_state(&snap));
        assert_eq!(nat.mapping_count(), 1);
        assert_eq!(nat.mapping(fid).unwrap().external_port, port);
        assert_eq!(nat.flow_for_port(port), Some(fid));
        // The allocator cursor was restored too: re-processing the
        // post-checkpoint flow allocates the same port it got before.
        let prev2 = p2.get_field(HeaderField::SrcPort).unwrap().as_port();
        let mut p2_again = packet(2000);
        {
            let mut ctx = NfContext::baseline(&mut ops);
            nat.process(&mut p2_again, &mut ctx);
        }
        assert_eq!(p2_again.get_field(HeaderField::SrcPort).unwrap().as_port(), prev2);
        assert!(!nat.restore_state(&StateSnapshot::new("foreign")));
    }

    #[test]
    fn records_modify_action() {
        use std::sync::Arc as StdArc;

        use speedybox_mat::{EventTable, LocalMat, NfId, NfInstrument};

        let mut nat = nat();
        let inst = NfInstrument::new(
            StdArc::new(LocalMat::new(NfId::new(0))),
            StdArc::new(EventTable::new()),
        );
        let mut ops = OpCounter::default();
        let mut p = packet(1000);
        let mut ctx = NfContext::instrumented(&inst, &mut ops);
        nat.process(&mut p, &mut ctx);
        let rule = inst.local_mat().rule(p.fid().unwrap()).unwrap();
        match &rule.header_actions[0] {
            HeaderAction::Modify(writes) => {
                assert!(writes.iter().any(|(f, _)| *f == HeaderField::SrcIp));
                assert!(writes.iter().any(|(f, _)| *f == HeaderField::SrcPort));
            }
            other => panic!("expected modify, got {other}"),
        }
    }
}
