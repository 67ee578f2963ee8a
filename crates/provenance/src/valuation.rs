//! Truth valuations over annotations (§2.3).
//!
//! A valuation assigns `true`/`false` to annotations and extends to
//! `N[Ann]` expressions by the semiring axioms: `·` becomes conjunction,
//! `+` disjunction (for the boolean image) or counting (for the numeric
//! image). Provisioning applies a valuation to provenance to observe how a
//! result changes without re-running the application.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::annot::AnnId;
use crate::mapping::Mapping;
use crate::phi::{Phi, PhiMap};
use crate::store::AnnStore;

/// Hashes an annotation id with one multiply (FxHash's step), because
/// [`Valuation::truth`] is the innermost operation of every evaluation.
/// Crafted collisions cannot pile up: ids are distinct interned indices
/// below the store's size, the multiplier is odd, so ids share a bucket
/// only when they agree modulo the table size.
#[derive(Default)]
struct AnnIdHasher(u64);

impl Hasher for AnnIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// A truth valuation with a default for unmentioned annotations.
///
/// The paper's valuation classes ("cancel single annotation", "cancel single
/// attribute") are sparse — almost everything is `true` — so we store only
/// the exceptions.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Valuation {
    assign: HashMap<AnnId, bool, BuildHasherDefault<AnnIdHasher>>,
    default: bool,
    /// Optional human-readable label ("cancel U2", "cancel gender=Male").
    pub label: Option<String>,
}

impl Valuation {
    /// The valuation assigning `true` everywhere.
    pub fn all_true() -> Self {
        Valuation {
            assign: HashMap::default(),
            default: true,
            label: None,
        }
    }

    /// The valuation assigning `false` everywhere.
    pub fn all_false() -> Self {
        Valuation {
            assign: HashMap::default(),
            default: false,
            label: None,
        }
    }

    /// Valuation canceling exactly the given annotations (default `true`).
    pub fn cancel(anns: &[AnnId]) -> Self {
        let mut v = Valuation::all_true();
        for &a in anns {
            v.set(a, false);
        }
        v
    }

    /// Attach a label (builder style).
    pub fn labeled(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Set the truth value of one annotation.
    pub fn set(&mut self, a: AnnId, value: bool) {
        if value == self.default {
            self.assign.remove(&a);
        } else {
            self.assign.insert(a, value);
        }
    }

    /// Truth value of an annotation.
    #[inline]
    pub fn truth(&self, a: AnnId) -> bool {
        self.assign.get(&a).copied().unwrap_or(self.default)
    }

    /// Annotations explicitly assigned the non-default value.
    pub fn exceptions(&self) -> impl Iterator<Item = (AnnId, bool)> + '_ {
        self.assign.iter().map(|(&a, &b)| (a, b))
    }

    /// Lift this valuation (on original annotations) to one on summary
    /// annotations via the mapping `h` and combiner `φ` (§3.2): for every
    /// summary annotation `a'` in the store,
    /// `v'(a') = φ( v(a) : h(a) = a' )`.
    ///
    /// Base annotations keep their value, so the lifted valuation can be
    /// applied to partially summarized expressions.
    pub fn lift(&self, h: &Mapping, phi: Phi, store: &AnnStore) -> Valuation {
        self.lift_map(h, &PhiMap::uniform(phi), store)
    }

    /// Like [`Valuation::lift`] but with a per-domain combiner assignment
    /// (Table 5.1's DDP row: OR for DB variables, MAX for cost variables).
    pub fn lift_map(&self, h: &Mapping, phis: &PhiMap, store: &AnnStore) -> Valuation {
        let mut out = self.clone();
        for (id, ann) in store.iter() {
            if !ann.kind.is_summary() {
                continue;
            }
            let phi = phis.for_domain(ann.domain);
            // φ over the *base members'* truth values. Using members rather
            // than the mapping's preimage makes the lift independent of how
            // many steps produced the summary.
            let truths = ann.base_members().iter().map(|&a| self.truth(a));
            let value = phi.combine_bool(truths);
            out.set(id, value);
        }
        // Also honour explicit mapping targets that are base annotations
        // (e.g. equivalence grouping maps onto a representative member).
        for (_, to) in h.iter() {
            if store.get(to).kind.is_summary() {
                continue;
            }
            let members: Vec<AnnId> = h
                .preimage_of(to, store.ids())
                .filter(|&a| !store.get(a).kind.is_summary())
                .collect();
            if members.len() > 1 {
                let phi = phis.for_domain(store.get(to).domain);
                let value = phi.combine_bool(members.iter().map(|&a| self.truth(a)));
                out.set(to, value);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::AnnStore;

    #[test]
    fn defaults_and_exceptions() {
        let a0 = AnnId::from_index(0);
        let a1 = AnnId::from_index(1);
        let mut v = Valuation::all_true();
        assert!(v.truth(a0));
        v.set(a0, false);
        assert!(!v.truth(a0));
        assert!(v.truth(a1));
        // Setting back to the default removes the exception.
        v.set(a0, true);
        assert_eq!(v.exceptions().count(), 0);
    }

    #[test]
    fn cancel_builds_sparse_valuation() {
        let a0 = AnnId::from_index(0);
        let v = Valuation::cancel(&[a0]).labeled("cancel a0");
        assert!(!v.truth(a0));
        assert!(v.truth(AnnId::from_index(5)));
        assert_eq!(v.label.as_deref(), Some("cancel a0"));
    }

    #[test]
    fn lift_or_cancels_summary_only_when_all_members_cancelled() {
        let mut s = AnnStore::new();
        let u1 = s.add_base_with("U1", "users", &[]);
        let u2 = s.add_base_with("U2", "users", &[]);
        let dom = s.domain("users");
        let g = s.add_summary("G", dom, &[u1, u2]);
        let h = Mapping::group(&[u1, u2], g);

        let v = Valuation::cancel(&[u1]);
        let lifted = v.lift(&h, Phi::Or, &s);
        assert!(lifted.truth(g), "OR: one live member keeps the group alive");

        let v2 = Valuation::cancel(&[u1, u2]);
        let lifted2 = v2.lift(&h, Phi::Or, &s);
        assert!(!lifted2.truth(g));
    }

    #[test]
    fn lift_and_cancels_summary_when_any_member_cancelled() {
        let mut s = AnnStore::new();
        let u1 = s.add_base_with("U1", "users", &[]);
        let u2 = s.add_base_with("U2", "users", &[]);
        let dom = s.domain("users");
        let g = s.add_summary("G", dom, &[u1, u2]);
        let h = Mapping::group(&[u1, u2], g);

        let v = Valuation::cancel(&[u1]);
        let lifted = v.lift(&h, Phi::And, &s);
        assert!(!lifted.truth(g));
    }
}
