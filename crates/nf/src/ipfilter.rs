//! IPFilter: a Click-style firewall (paper §VI-C).
//!
//! "A Firewall prototype that parses flow headers and checks against a
//! header blacklist with linear scanning. For flows that match the
//! blacklist, we set them with drop actions, or otherwise with forward
//! actions." The linear scan is deliberately kept — it is what makes
//! initial packets expensive in Fig 4 and subsequent packets cheap once
//! consolidated.

use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

use speedybox_mat::HeaderAction;
use speedybox_packet::{FiveTuple, Packet, Protocol};

use crate::nf::{Nf, NfContext, NfVerdict};

/// The verdict an ACL rule assigns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AclVerdict {
    /// Allow the flow.
    Allow,
    /// Deny (drop) the flow.
    Deny,
}

/// An IPv4 prefix (`a.b.c.d/len`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prefix {
    addr: u32,
    len: u8,
}

impl Prefix {
    /// Creates a prefix; `len` is clamped to 32.
    #[must_use]
    pub fn new(addr: Ipv4Addr, len: u8) -> Self {
        Self { addr: u32::from(addr), len: len.min(32) }
    }

    /// The match-everything prefix `0.0.0.0/0`.
    #[must_use]
    pub fn any() -> Self {
        Self { addr: 0, len: 0 }
    }

    /// True if `ip` falls inside this prefix.
    #[must_use]
    pub fn contains(&self, ip: Ipv4Addr) -> bool {
        if self.len == 0 {
            return true;
        }
        let mask = u32::MAX << (32 - u32::from(self.len));
        (u32::from(ip) & mask) == (self.addr & mask)
    }
}

impl FromStr for Prefix {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "any" {
            return Ok(Prefix::any());
        }
        let (addr, len) = match s.split_once('/') {
            Some((a, l)) => (
                a.parse::<Ipv4Addr>().map_err(|e| e.to_string())?,
                l.parse::<u8>().map_err(|e| e.to_string())?,
            ),
            None => (s.parse::<Ipv4Addr>().map_err(|e| e.to_string())?, 32),
        };
        if len > 32 {
            return Err(format!("prefix length {len} > 32"));
        }
        Ok(Prefix::new(addr, len))
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", Ipv4Addr::from(self.addr), self.len)
    }
}

/// One ACL entry, evaluated in order (first match wins).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AclRule {
    /// Source-address constraint.
    pub src: Prefix,
    /// Destination-address constraint.
    pub dst: Prefix,
    /// Protocol constraint; `None` matches both.
    pub protocol: Option<Protocol>,
    /// Destination-port constraint; `None` matches any.
    pub dst_port: Option<u16>,
    /// Verdict on match.
    pub verdict: AclVerdict,
}

impl AclRule {
    /// An allow-everything rule.
    #[must_use]
    pub fn allow_all() -> Self {
        Self {
            src: Prefix::any(),
            dst: Prefix::any(),
            protocol: None,
            dst_port: None,
            verdict: AclVerdict::Allow,
        }
    }

    /// A rule denying traffic to `dst`.
    #[must_use]
    pub fn deny_dst(dst: Prefix) -> Self {
        Self { src: Prefix::any(), dst, protocol: None, dst_port: None, verdict: AclVerdict::Deny }
    }

    /// True if the rule matches the flow.
    #[must_use]
    pub fn matches(&self, t: &FiveTuple) -> bool {
        self.src.contains(t.src_ip)
            && self.dst.contains(t.dst_ip)
            && self.protocol.is_none_or(|p| p == t.protocol)
            && self.dst_port.is_none_or(|p| p == t.dst_port)
    }
}

/// The IPFilter firewall NF.
///
/// Stateful: the verdict for a flow is computed once by linear ACL scan on
/// the flow's first packet and cached, so subsequent packets pay a hash
/// lookup instead of the scan — "the initialization processes (e.g.,
/// linear matching of ACL lists for new flows)" is what makes initial
/// packets expensive in the paper's Fig 4.
#[derive(Debug, Clone)]
pub struct IpFilter {
    rules: Vec<AclRule>,
    /// Verdict when no rule matches.
    default_verdict: AclVerdict,
    /// Per-flow verdict cache.
    cache: std::sync::Arc<parking_lot::Mutex<speedybox_packet::FidMap<AclVerdict>>>,
}

impl IpFilter {
    /// Creates a firewall with the given ACL; unmatched flows are allowed
    /// (blacklist semantics, as in the paper's IPFilter).
    #[must_use]
    pub fn new(rules: Vec<AclRule>) -> Self {
        Self {
            rules,
            default_verdict: AclVerdict::Allow,
            cache: std::sync::Arc::new(
                parking_lot::Mutex::new(speedybox_packet::FidMap::default()),
            ),
        }
    }

    /// A firewall that forwards everything through `n` no-match deny rules
    /// — the paper's Fig 4/Fig 8 configuration where "ACL rules ... are
    /// carefully modified to avoid packet drops" while the scan cost stays
    /// realistic.
    #[must_use]
    pub fn pass_through(n: usize) -> Self {
        let unreachable: Prefix = Prefix::new(Ipv4Addr::new(203, 0, 113, 0), 24);
        Self::new(vec![AclRule::deny_dst(unreachable); n])
    }

    /// Changes the default verdict (whitelist-style firewalls).
    #[must_use]
    pub fn with_default(mut self, verdict: AclVerdict) -> Self {
        self.default_verdict = verdict;
        self
    }

    /// Number of ACL rules.
    #[must_use]
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Linear ACL scan; returns the verdict and the number of rules
    /// examined.
    #[must_use]
    pub fn evaluate(&self, t: &FiveTuple) -> (AclVerdict, usize) {
        for (i, rule) in self.rules.iter().enumerate() {
            if rule.matches(t) {
                return (rule.verdict, i + 1);
            }
        }
        (self.default_verdict, self.rules.len())
    }
}

impl Nf for IpFilter {
    fn name(&self) -> &str {
        "ipfilter"
    }

    fn process(&mut self, packet: &mut Packet, ctx: &mut NfContext<'_>) -> NfVerdict {
        let Ok(tuple) = packet.five_tuple() else {
            ctx.ops.drops += 1;
            return NfVerdict::Drop;
        };
        ctx.ops.parses += 1;
        let fid = packet.fid().unwrap_or_else(|| tuple.fid());
        ctx.ops.hash_lookups += 1;
        let cached = self.cache.lock().get(&fid).copied();
        let verdict = match cached {
            Some(v) => v,
            None => {
                let (v, scanned) = self.evaluate(&tuple);
                ctx.ops.acl_rules_scanned += scanned as u64;
                self.cache.lock().insert(fid, v);
                ctx.ops.hash_updates += 1;
                v
            }
        };
        // SPEEDYBOX-INTEGRATION-BEGIN (ipfilter: 8 lines)
        if let Some(inst) = ctx.instrument {
            let fid = inst.extract_fid(packet).unwrap_or_default();
            let action = match verdict {
                AclVerdict::Allow => HeaderAction::Forward,
                AclVerdict::Deny => HeaderAction::Drop,
            };
            inst.add_header_action(fid, action, ctx.ops);
        }
        // SPEEDYBOX-INTEGRATION-END
        match verdict {
            AclVerdict::Allow => NfVerdict::Forward,
            AclVerdict::Deny => {
                ctx.ops.drops += 1;
                NfVerdict::Drop
            }
        }
    }

    fn flow_closed(&mut self, fid: speedybox_packet::Fid) {
        self.cache.lock().remove(&fid);
    }

    fn has_flow_state(&self) -> bool {
        true
    }

    fn snapshot_state(&self) -> Option<crate::nf::StateSnapshot> {
        Some(crate::nf::StateSnapshot::new(self.cache.lock().clone()))
    }

    fn restore_state(&mut self, snapshot: &crate::nf::StateSnapshot) -> bool {
        let Some(cache) = snapshot.downcast::<speedybox_packet::FidMap<AclVerdict>>() else {
            return false;
        };
        *self.cache.lock() = cache.clone();
        true
    }

    fn crash(&mut self) {
        // The verdict cache is recomputable from the ACL, so a crash only
        // costs the flows their cached scans — still captured/restored so
        // recovery does not change which packets pay the linear scan.
        self.cache.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use speedybox_mat::OpCounter;
    use speedybox_packet::PacketBuilder;

    use super::*;

    fn packet(dst: &str) -> Packet {
        let mut p = PacketBuilder::tcp()
            .src("10.0.0.1:1000".parse().unwrap())
            .dst(format!("{dst}:80").parse().unwrap())
            .build();
        let fid = p.five_tuple().unwrap().fid();
        p.set_fid(fid);
        p
    }

    #[test]
    fn prefix_matching() {
        let p: Prefix = "192.168.0.0/16".parse().unwrap();
        assert!(p.contains(Ipv4Addr::new(192, 168, 5, 9)));
        assert!(!p.contains(Ipv4Addr::new(192, 169, 0, 1)));
        assert!(Prefix::any().contains(Ipv4Addr::new(1, 2, 3, 4)));
        let host: Prefix = "10.0.0.1".parse().unwrap();
        assert!(host.contains(Ipv4Addr::new(10, 0, 0, 1)));
        assert!(!host.contains(Ipv4Addr::new(10, 0, 0, 2)));
    }

    #[test]
    fn prefix_parse_errors() {
        assert!("300.0.0.1/8".parse::<Prefix>().is_err());
        assert!("10.0.0.0/40".parse::<Prefix>().is_err());
        assert!("nonsense".parse::<Prefix>().is_err());
    }

    #[test]
    fn blacklist_denies_matching_flow() {
        let mut fw = IpFilter::new(vec![AclRule::deny_dst("10.6.6.0/24".parse().unwrap())]);
        let mut ops = OpCounter::default();
        let mut ctx = NfContext::baseline(&mut ops);
        assert_eq!(fw.process(&mut packet("10.6.6.1"), &mut ctx), NfVerdict::Drop);
        assert_eq!(fw.process(&mut packet("10.7.7.1"), &mut ctx), NfVerdict::Forward);
    }

    #[test]
    fn first_match_wins() {
        let mut fw = IpFilter::new(vec![
            AclRule {
                src: Prefix::any(),
                dst: "10.6.6.1".parse().unwrap(),
                protocol: None,
                dst_port: Some(80),
                verdict: AclVerdict::Allow,
            },
            AclRule::deny_dst("10.6.6.0/24".parse().unwrap()),
        ]);
        let mut ops = OpCounter::default();
        let mut ctx = NfContext::baseline(&mut ops);
        assert_eq!(fw.process(&mut packet("10.6.6.1"), &mut ctx), NfVerdict::Forward);
        assert_eq!(fw.process(&mut packet("10.6.6.2"), &mut ctx), NfVerdict::Drop);
    }

    #[test]
    fn scan_cost_is_linear() {
        let mut fw = IpFilter::pass_through(50);
        let mut ops = OpCounter::default();
        let mut ctx = NfContext::baseline(&mut ops);
        fw.process(&mut packet("10.0.0.2"), &mut ctx);
        assert_eq!(ops.acl_rules_scanned, 50);
    }

    #[test]
    fn default_verdict_configurable() {
        let mut fw = IpFilter::new(vec![]).with_default(AclVerdict::Deny);
        let mut ops = OpCounter::default();
        let mut ctx = NfContext::baseline(&mut ops);
        assert_eq!(fw.process(&mut packet("10.0.0.2"), &mut ctx), NfVerdict::Drop);
    }

    #[test]
    fn records_matching_header_action() {
        use std::sync::Arc;

        use speedybox_mat::{EventTable, LocalMat, NfId, NfInstrument};

        let mut fw = IpFilter::new(vec![AclRule::deny_dst("10.6.6.0/24".parse().unwrap())]);
        let inst =
            NfInstrument::new(Arc::new(LocalMat::new(NfId::new(0))), Arc::new(EventTable::new()));
        let mut ops = OpCounter::default();

        let mut denied = packet("10.6.6.1");
        let mut ctx = NfContext::instrumented(&inst, &mut ops);
        fw.process(&mut denied, &mut ctx);
        let rule = inst.local_mat().rule(denied.fid().unwrap()).unwrap();
        assert_eq!(rule.header_actions, vec![HeaderAction::Drop]);

        let mut allowed = packet("10.7.7.1");
        let mut ctx = NfContext::instrumented(&inst, &mut ops);
        fw.process(&mut allowed, &mut ctx);
        let rule = inst.local_mat().rule(allowed.fid().unwrap()).unwrap();
        assert_eq!(rule.header_actions, vec![HeaderAction::Forward]);
    }

    #[test]
    fn protocol_constraint() {
        let rule = AclRule {
            src: Prefix::any(),
            dst: Prefix::any(),
            protocol: Some(Protocol::Udp),
            dst_port: None,
            verdict: AclVerdict::Deny,
        };
        let tcp = packet("10.0.0.2").five_tuple().unwrap();
        assert!(!rule.matches(&tcp));
    }

    #[test]
    fn pass_through_never_drops() {
        let mut fw = IpFilter::pass_through(9);
        let mut ops = OpCounter::default();
        let mut ctx = NfContext::baseline(&mut ops);
        for i in 0..20 {
            assert_eq!(
                fw.process(&mut packet(&format!("10.0.{i}.1")), &mut ctx),
                NfVerdict::Forward
            );
        }
    }
}
