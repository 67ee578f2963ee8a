//! Combiner functions `φ` (§3.2).
//!
//! `φ` complements a mapping `h`: it specifies how the truth values of the
//! annotations mapped to a summary annotation `a'` combine into the truth
//! value of `a'`. With `φ = ∨` a summary is cancelled only when *all* its
//! members are cancelled; with `φ = ∧` cancelling any member cancels the
//! group. DDP cost variables use MAX over their 0/1 assignments, which for
//! booleans coincides with ∨ (kept as its own variant because Table 5.1
//! names it).

use std::fmt;

/// The combiner function applied to member truth values.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phi {
    /// Disjunction: the summary is live while any member is live.
    Or,
    /// Conjunction: the summary is live only when every member is live.
    And,
    /// Maximum over 0/1 values — boolean-equivalent to [`Phi::Or`]; used for
    /// DDP cost variables where assignments are numeric multipliers.
    Max,
}

impl Phi {
    /// Combine an iterator of member truth values. Empty input yields the
    /// operator's identity (`false` for ∨/MAX, `true` for ∧).
    pub fn combine_bool(self, values: impl IntoIterator<Item = bool>) -> bool {
        match self {
            Phi::Or | Phi::Max => values.into_iter().any(|b| b),
            Phi::And => values.into_iter().all(|b| b),
        }
    }
}

/// Per-domain combiner assignment (Table 5.1's DDP row uses logical OR for
/// DB variables and MAX for cost variables). On booleans OR and MAX agree,
/// but keeping the assignment explicit preserves the paper's semantics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhiMap {
    /// Combiner used when no per-domain override matches.
    pub default: Phi,
    /// `(domain, φ)` overrides.
    pub per_domain: Vec<(crate::annot::DomainId, Phi)>,
}

impl PhiMap {
    /// Uniform assignment.
    pub fn uniform(phi: Phi) -> Self {
        PhiMap {
            default: phi,
            per_domain: Vec::new(),
        }
    }

    /// Add a per-domain override (builder style).
    pub fn with(mut self, domain: crate::annot::DomainId, phi: Phi) -> Self {
        self.per_domain.push((domain, phi));
        self
    }

    /// The combiner for a given domain.
    pub fn for_domain(&self, domain: crate::annot::DomainId) -> Phi {
        self.per_domain
            .iter()
            .find(|&&(d, _)| d == domain)
            .map(|&(_, p)| p)
            .unwrap_or(self.default)
    }
}

impl fmt::Display for Phi {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Phi::Or => write!(f, "OR"),
            Phi::And => write!(f, "AND"),
            Phi::Max => write!(f, "MAX"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn or_is_any() {
        assert!(Phi::Or.combine_bool([false, true]));
        assert!(!Phi::Or.combine_bool([false, false]));
        assert!(!Phi::Or.combine_bool(std::iter::empty()));
    }

    #[test]
    fn and_is_all() {
        assert!(Phi::And.combine_bool([true, true]));
        assert!(!Phi::And.combine_bool([true, false]));
        assert!(Phi::And.combine_bool(std::iter::empty()));
    }

    #[test]
    fn max_matches_or_on_booleans() {
        for pattern in [[false, false], [false, true], [true, true]] {
            assert_eq!(
                Phi::Max.combine_bool(pattern),
                Phi::Or.combine_bool(pattern)
            );
        }
    }

    #[test]
    fn phi_map_resolves_per_domain() {
        use crate::annot::DomainId;
        let dbs = DomainId(0);
        let costs = DomainId(1);
        let other = DomainId(2);
        let map = PhiMap::uniform(Phi::Or).with(costs, Phi::Max);
        assert_eq!(map.for_domain(dbs), Phi::Or);
        assert_eq!(map.for_domain(costs), Phi::Max);
        assert_eq!(map.for_domain(other), Phi::Or);
    }
}
