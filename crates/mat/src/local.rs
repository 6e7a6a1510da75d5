//! The per-NF Local Match-Action Table (paper §IV).
//!
//! As a flow's initial packet traverses the chain, each NF records its
//! per-flow header actions and state functions here through the
//! instrumentation APIs ([`crate::api`]). "We use a queue data structure to
//! maintain the sequence" — registration order of state functions is
//! preserved, because reordering them could violate code dependencies
//! (§IV-B).

use std::fmt;

use parking_lot::RwLock;
use speedybox_packet::{Fid, FidMap};

use crate::action::HeaderAction;
use crate::ops::OpCounter;
use crate::state_fn::StateFunction;

/// Identifies an NF by its position in the service chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NfId(usize);

impl NfId {
    /// Creates an NF id for chain position `index` (0-based).
    #[must_use]
    pub fn new(index: usize) -> Self {
        NfId(index)
    }

    /// The chain position.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NfId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "nf{}", self.0)
    }
}

/// One NF's recorded per-flow rule: its header actions and state functions
/// in registration order.
#[derive(Debug, Clone, Default)]
pub struct LocalRule {
    /// Header actions in registration order (usually exactly one).
    pub header_actions: Vec<HeaderAction>,
    /// State functions in registration order (the paper's queue).
    pub state_functions: Vec<StateFunction>,
}

impl LocalRule {
    /// True if nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.header_actions.is_empty() && self.state_functions.is_empty()
    }
}

/// The stateful Local MAT associated with one NF.
///
/// Thread-safe: in the OpenNetVM-style runtime each NF thread writes its
/// own Local MAT while the manager core reads it for consolidation.
#[derive(Debug)]
pub struct LocalMat {
    nf: NfId,
    rules: RwLock<FidMap<LocalRule>>,
}

impl LocalMat {
    /// Creates an empty Local MAT for the NF at `nf`.
    #[must_use]
    pub fn new(nf: NfId) -> Self {
        Self { nf, rules: RwLock::new(FidMap::default()) }
    }

    /// The owning NF.
    #[must_use]
    pub fn nf(&self) -> NfId {
        self.nf
    }

    /// Appends a header action to the flow's rule
    /// (the `localmat_add_HA` API of Fig 2).
    pub fn add_header_action(&self, fid: Fid, action: HeaderAction, ops: &mut OpCounter) {
        self.rules.write().entry(fid).or_default().header_actions.push(action);
        ops.mat_records += 1;
    }

    /// Appends a state function to the flow's rule
    /// (the `localmat_add_SF` API of Fig 2).
    pub fn add_state_function(&self, fid: Fid, func: StateFunction, ops: &mut OpCounter) {
        self.rules.write().entry(fid).or_default().state_functions.push(func);
        ops.mat_records += 1;
    }

    /// Replaces the flow's header actions (used by Event Table updates).
    pub fn set_header_actions(&self, fid: Fid, actions: Vec<HeaderAction>) {
        self.rules.write().entry(fid).or_default().header_actions = actions;
    }

    /// Replaces the flow's state functions (used by Event Table updates).
    pub fn set_state_functions(&self, fid: Fid, funcs: Vec<StateFunction>) {
        self.rules.write().entry(fid).or_default().state_functions = funcs;
    }

    /// A snapshot of the flow's rule, if present. Clones every recorded
    /// action and function; readers that only look at the rule should use
    /// [`LocalMat::with_rule`].
    #[must_use]
    pub fn rule(&self, fid: Fid) -> Option<LocalRule> {
        self.with_rule(fid, LocalRule::clone)
    }

    /// Runs `f` on a borrow of the flow's rule, if present, under the
    /// table's read lock — consolidation and the per-NF replay read rules
    /// this way without cloning them. `f` must not write to this Local
    /// MAT (the read lock is held).
    pub fn with_rule<R>(&self, fid: Fid, f: impl FnOnce(&LocalRule) -> R) -> Option<R> {
        self.rules.read().get(&fid).map(f)
    }

    /// True if the flow has a recorded rule.
    #[must_use]
    pub fn contains(&self, fid: Fid) -> bool {
        self.rules.read().contains_key(&fid)
    }

    /// Removes the flow's rule (FIN/RST garbage collection, §VI-B), returning
    /// whether one existed.
    pub fn remove(&self, fid: Fid) -> bool {
        self.rules.write().remove(&fid).is_some()
    }

    /// Number of flows with recorded rules.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rules.read().len()
    }

    /// True if no flow has a recorded rule.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rules.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use speedybox_packet::HeaderField;

    use super::*;
    use crate::state_fn::PayloadAccess;

    fn fid(n: u32) -> Fid {
        Fid::new(n)
    }

    #[test]
    fn records_header_actions_in_order() {
        let mat = LocalMat::new(NfId::new(0));
        let mut ops = OpCounter::default();
        mat.add_header_action(fid(1), HeaderAction::modify(HeaderField::DstPort, 1u16), &mut ops);
        mat.add_header_action(fid(1), HeaderAction::Forward, &mut ops);
        let rule = mat.rule(fid(1)).unwrap();
        assert_eq!(rule.header_actions.len(), 2);
        assert!(rule.header_actions[1].is_forward());
        assert_eq!(ops.mat_records, 2);
    }

    #[test]
    fn records_state_functions_in_order() {
        let mat = LocalMat::new(NfId::new(1));
        let mut ops = OpCounter::default();
        for name in ["a", "b", "c"] {
            mat.add_state_function(
                fid(2),
                StateFunction::new(name, PayloadAccess::Ignore, |_| {}),
                &mut ops,
            );
        }
        let rule = mat.rule(fid(2)).unwrap();
        let names: Vec<&str> = rule.state_functions.iter().map(|f| f.name()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn flows_are_isolated() {
        let mat = LocalMat::new(NfId::new(0));
        let mut ops = OpCounter::default();
        mat.add_header_action(fid(1), HeaderAction::Drop, &mut ops);
        assert!(mat.rule(fid(2)).is_none());
        assert!(mat.contains(fid(1)));
        assert!(!mat.contains(fid(2)));
    }

    #[test]
    fn remove_cleans_up() {
        let mat = LocalMat::new(NfId::new(0));
        let mut ops = OpCounter::default();
        mat.add_header_action(fid(1), HeaderAction::Drop, &mut ops);
        assert_eq!(mat.len(), 1);
        assert!(mat.remove(fid(1)));
        assert!(!mat.remove(fid(1)));
        assert!(mat.is_empty());
    }

    #[test]
    fn set_replaces() {
        let mat = LocalMat::new(NfId::new(0));
        let mut ops = OpCounter::default();
        mat.add_header_action(fid(1), HeaderAction::Forward, &mut ops);
        mat.set_header_actions(fid(1), vec![HeaderAction::Drop]);
        let rule = mat.rule(fid(1)).unwrap();
        assert_eq!(rule.header_actions, vec![HeaderAction::Drop]);
    }

    #[test]
    fn empty_rule_is_empty() {
        assert!(LocalRule::default().is_empty());
    }

    #[test]
    fn is_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LocalMat>();
    }
}
