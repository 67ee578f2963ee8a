//! Valuation classes (§5.1, Table 5.1).
//!
//! The distance of Definition 3.2.2 averages over a *set* of valuations
//! `V_Ann` that reflects the intended provenance use. The paper evaluates
//! two classes, both generated here:
//!
//! * **Cancel Single Annotation** — one valuation per annotation, assigning
//!   it `false` and everything else `true` (a single suspected spammer).
//! * **Cancel Single Attribute** — one valuation per attribute value,
//!   cancelling every annotation sharing it (e.g. all Male users).
//!
//! Taxonomy-consistent filtering of these classes lives in `prox-taxonomy`.

use crate::annot::{AnnId, DomainId};
use crate::store::AnnStore;
use crate::valuation::Valuation;

/// Which valuation class to generate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ValuationClass {
    /// Cancel one annotation per valuation.
    CancelSingleAnnotation,
    /// Cancel all annotations sharing one attribute value per valuation.
    CancelSingleAttribute,
}

impl ValuationClass {
    /// Human-readable name matching the paper's UI.
    pub fn name(self) -> &'static str {
        match self {
            ValuationClass::CancelSingleAnnotation => "Cancel Single Annotation",
            ValuationClass::CancelSingleAttribute => "Cancel Single Attribute",
        }
    }

    /// Generate the class over the given base annotations.
    ///
    /// `domains`, when non-empty, restricts which annotations may be
    /// cancelled (e.g. only user annotations for the MovieLens use case).
    pub fn generate(
        self,
        store: &AnnStore,
        anns: &[AnnId],
        domains: &[DomainId],
    ) -> Vec<Valuation> {
        let eligible: Vec<AnnId> = anns
            .iter()
            .copied()
            .filter(|&a| domains.is_empty() || domains.contains(&store.get(a).domain))
            .collect();
        match self {
            ValuationClass::CancelSingleAnnotation => eligible
                .iter()
                .map(|&a| Valuation::cancel(&[a]).labeled(format!("cancel {}", store.name(a))))
                .collect(),
            ValuationClass::CancelSingleAttribute => {
                // Collect distinct (attr, value) pairs in first-seen order
                // for determinism.
                let mut pairs: Vec<(crate::annot::AttrId, crate::annot::AttrValueId)> = Vec::new();
                for &a in &eligible {
                    for &(attr, val) in &store.get(a).attrs {
                        if !pairs.contains(&(attr, val)) {
                            pairs.push((attr, val));
                        }
                    }
                }
                pairs
                    .into_iter()
                    .map(|(attr, val)| {
                        let cancelled: Vec<AnnId> = eligible
                            .iter()
                            .copied()
                            .filter(|&a| store.get(a).attr(attr) == Some(val))
                            .collect();
                        Valuation::cancel(&cancelled).labeled(format!(
                            "cancel {}={}",
                            store.attr_name(attr),
                            store.value_name(val)
                        ))
                    })
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with_users() -> (AnnStore, Vec<AnnId>) {
        let mut s = AnnStore::new();
        let u1 = s.add_base_with("U1", "users", &[("gender", "F"), ("age", "18-24")]);
        let u2 = s.add_base_with("U2", "users", &[("gender", "F"), ("age", "25-34")]);
        let u3 = s.add_base_with("U3", "users", &[("gender", "M"), ("age", "25-34")]);
        (s, vec![u1, u2, u3])
    }

    #[test]
    fn cancel_single_annotation_one_per_ann() {
        let (s, anns) = store_with_users();
        let vs = ValuationClass::CancelSingleAnnotation.generate(&s, &anns, &[]);
        assert_eq!(vs.len(), 3);
        for (ix, v) in vs.iter().enumerate() {
            for (jx, &a) in anns.iter().enumerate() {
                assert_eq!(v.truth(a), ix != jx);
            }
        }
    }

    #[test]
    fn cancel_single_attribute_groups_by_value() {
        let (s, anns) = store_with_users();
        let vs = ValuationClass::CancelSingleAttribute.generate(&s, &anns, &[]);
        // Distinct pairs: gender=F, age=18-24, age=25-34, gender=M  → 4
        assert_eq!(vs.len(), 4);
        let cancel_f = vs
            .iter()
            .find(|v| v.label.as_deref() == Some("cancel gender=F"))
            .unwrap();
        assert!(!cancel_f.truth(anns[0]));
        assert!(!cancel_f.truth(anns[1]));
        assert!(cancel_f.truth(anns[2]));
    }

    #[test]
    fn domain_filter_restricts_eligibility() {
        let (mut s, mut anns) = store_with_users();
        let m = s.add_base_with("M1", "movies", &[("year", "1995")]);
        anns.push(m);
        let users = s.domain("users");
        let vs = ValuationClass::CancelSingleAnnotation.generate(&s, &anns, &[users]);
        assert_eq!(vs.len(), 3, "movie annotation not eligible");
    }
}
