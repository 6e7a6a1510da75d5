//! QuotaLimiter: a per-flow volume-quota enforcer.
//!
//! A second showcase of the paper's Observation 2 after
//! [`crate::dosguard`]: each flow gets a byte budget; an IGNORE state
//! function meters consumption, and a registered event flips the flow to
//! `drop` once the quota is exhausted — the mid-stream rule update runs
//! entirely through the Event Table while packets stay on the fast path.
//!
//! (Token-bucket *per-packet* policing is deliberately out of scope: its
//! verdict changes packet to packet, violating Observation 1, exactly the
//! kind of NF §IV-A3 excludes from consolidation. A volume quota is the
//! event-friendly variant.)

use std::sync::Arc;

use parking_lot::Mutex;
use speedybox_mat::event::RulePatch;
use speedybox_mat::state_fn::PayloadAccess;
use speedybox_mat::{HeaderAction, StateFunction};
use speedybox_packet::{Fid, FidMap, Packet};

use crate::nf::{Nf, NfContext, NfVerdict, StateSnapshot};

/// The per-flow quota-enforcement NF.
#[derive(Debug, Clone)]
pub struct QuotaLimiter {
    consumed: Arc<Mutex<FidMap<u64>>>,
    quota_bytes: u64,
}

impl QuotaLimiter {
    /// Creates a limiter allowing `quota_bytes` per flow.
    #[must_use]
    pub fn new(quota_bytes: u64) -> Self {
        Self { consumed: Arc::new(Mutex::new(FidMap::default())), quota_bytes }
    }

    /// Bytes a flow has consumed so far.
    #[must_use]
    pub fn consumed(&self, fid: Fid) -> u64 {
        self.consumed.lock().get(&fid).copied().unwrap_or(0)
    }

    /// True once a flow's quota is exhausted.
    #[must_use]
    pub fn is_exhausted(&self, fid: Fid) -> bool {
        self.consumed(fid) > self.quota_bytes
    }

    fn meter(consumed: &Mutex<FidMap<u64>>, fid: Fid, bytes: u64) -> u64 {
        let mut map = consumed.lock();
        let c = map.entry(fid).or_insert(0);
        *c += bytes;
        *c
    }
}

impl Nf for QuotaLimiter {
    fn name(&self) -> &str {
        "quota-limiter"
    }

    fn process(&mut self, packet: &mut Packet, ctx: &mut NfContext<'_>) -> NfVerdict {
        let fid = packet
            .fid()
            .unwrap_or_else(|| packet.five_tuple().map(|t| t.fid()).unwrap_or_default());
        ctx.ops.parses += 1;
        let total = Self::meter(&self.consumed, fid, packet.len() as u64);
        ctx.ops.state_updates += 1;
        let exhausted = total > self.quota_bytes;
        // SPEEDYBOX-INTEGRATION-BEGIN (quota-limiter: 18 lines)
        if let Some(inst) = ctx.instrument {
            inst.add_header_action(
                fid,
                if exhausted { HeaderAction::Drop } else { HeaderAction::Forward },
                ctx.ops,
            );
            let consumed = Arc::clone(&self.consumed);
            inst.add_state_function_handle(
                fid,
                StateFunction::new("quota.meter", PayloadAccess::Ignore, move |sfctx| {
                    Self::meter(&consumed, sfctx.fid, sfctx.packet.len() as u64);
                    sfctx.ops.state_updates += 1;
                }),
                ctx.ops,
            );
            let consumed = Arc::clone(&self.consumed);
            let quota = self.quota_bytes;
            inst.register_event(
                fid,
                "quota.exhausted",
                move |fid| consumed.lock().get(&fid).copied().unwrap_or(0) > quota,
                |_| RulePatch::set_action(HeaderAction::Drop),
            );
        }
        // SPEEDYBOX-INTEGRATION-END
        if exhausted {
            ctx.ops.drops += 1;
            NfVerdict::Drop
        } else {
            NfVerdict::Forward
        }
    }

    fn flow_closed(&mut self, fid: Fid) {
        self.consumed.lock().remove(&fid);
    }

    fn has_flow_state(&self) -> bool {
        true
    }

    fn snapshot_state(&self) -> Option<StateSnapshot> {
        Some(StateSnapshot::new(self.consumed.lock().clone()))
    }

    fn restore_state(&mut self, snapshot: &StateSnapshot) -> bool {
        let Some(map) = snapshot.downcast::<FidMap<u64>>() else {
            return false;
        };
        *self.consumed.lock() = map.clone();
        true
    }

    fn crash(&mut self) {
        self.consumed.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use speedybox_mat::OpCounter;
    use speedybox_packet::PacketBuilder;

    use super::*;

    fn packet(payload: usize) -> Packet {
        let mut p = PacketBuilder::tcp()
            .src("10.0.0.1:1000".parse().unwrap())
            .dst("10.0.0.2:80".parse().unwrap())
            .payload(&vec![0xaa; payload])
            .build();
        let fid = p.five_tuple().unwrap().fid();
        p.set_fid(fid);
        p
    }

    #[test]
    fn meters_bytes_and_blocks_past_quota() {
        let frame = packet(100).len() as u64;
        let mut limiter = QuotaLimiter::new(frame * 3);
        let mut ops = OpCounter::default();
        let mut verdicts = Vec::new();
        for _ in 0..5 {
            let mut p = packet(100);
            let mut ctx = NfContext::baseline(&mut ops);
            verdicts.push(limiter.process(&mut p, &mut ctx));
        }
        assert_eq!(
            verdicts,
            vec![
                NfVerdict::Forward,
                NfVerdict::Forward,
                NfVerdict::Forward,
                NfVerdict::Drop,
                NfVerdict::Drop
            ]
        );
        assert!(limiter.is_exhausted(packet(0).fid().unwrap()));
    }

    #[test]
    fn flow_closed_resets_quota() {
        let mut limiter = QuotaLimiter::new(10);
        let mut ops = OpCounter::default();
        let mut p = packet(100);
        {
            let mut ctx = NfContext::baseline(&mut ops);
            limiter.process(&mut p, &mut ctx);
        }
        let fid = p.fid().unwrap();
        assert!(limiter.consumed(fid) > 0);
        limiter.flow_closed(fid);
        assert_eq!(limiter.consumed(fid), 0);
    }

    #[test]
    fn event_flips_rule_on_fast_path() {
        use std::sync::Arc as StdArc;

        use speedybox_mat::state_fn::SfContext;
        use speedybox_mat::{EventTable, LocalMat, NfId, NfInstrument};

        let frame = packet(100).len() as u64;
        let mut limiter = QuotaLimiter::new(frame * 2);
        let events = StdArc::new(EventTable::new());
        let inst = NfInstrument::new(StdArc::new(LocalMat::new(NfId::new(0))), events.clone());
        let mut ops = OpCounter::default();
        let mut initial = packet(100);
        {
            let mut ctx = NfContext::instrumented(&inst, &mut ops);
            limiter.process(&mut initial, &mut ctx);
        }
        let fid = initial.fid().unwrap();
        assert!(events.check(fid, &mut ops).is_empty(), "quota not yet exhausted");
        // Burn the quota through the recorded state function (fast path).
        let rule = inst.local_mat().rule(fid).unwrap();
        for _ in 0..2 {
            let mut sub = packet(100);
            let mut sfctx = SfContext { packet: &mut sub, fid, ops: &mut ops, len_adjust: 0 };
            rule.state_functions[0].invoke(&mut sfctx);
        }
        let fired = events.check(fid, &mut ops);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].1.header_actions, Some(vec![HeaderAction::Drop]));
    }
}
