//! Aggregation monoids for provenance-aware values (§2.2, \[7\]).
//!
//! Aggregated values are formal sums `⊕ᵢ tᵢ ⊗ vᵢ` pairing tuple provenance
//! `tᵢ` with a monoid value `vᵢ`. Following Example 2.2.1 we use a monoid of
//! pairs `(value, contributor count)`: MAX/MIN/SUM combine the value part
//! while counts always add, so a summary like `Female ⊗ (5, 2)` records both
//! the aggregate and how many users contributed to it.

use std::fmt;

/// The aggregation function used to combine tensor values.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AggKind {
    /// Maximum rating/value.
    Max,
    /// Minimum rating/value.
    Min,
    /// Sum of values (used for Wikipedia edit counts).
    Sum,
    /// Pure contributor count (value part mirrors the count).
    Count,
}

impl AggKind {
    /// Combine two value parts under this aggregation.
    #[inline]
    pub fn combine_value(self, a: f64, b: f64) -> f64 {
        match self {
            AggKind::Max => a.max(b),
            AggKind::Min => a.min(b),
            AggKind::Sum => a + b,
            AggKind::Count => a + b,
        }
    }

    /// Human-readable name matching the paper's UI ("MAX", "SUM", ...).
    pub fn name(self) -> &'static str {
        match self {
            AggKind::Max => "MAX",
            AggKind::Min => "MIN",
            AggKind::Sum => "SUM",
            AggKind::Count => "COUNT",
        }
    }
}

impl fmt::Display for AggKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A `(value, contributor count)` monoid element.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AggValue {
    /// The aggregated numeric value (a rating, an edit-type weight, ...).
    pub value: f64,
    /// How many base contributions were folded into `value`.
    pub count: u64,
}

impl AggValue {
    /// A single contribution `(v, 1)`.
    pub fn single(value: f64) -> Self {
        AggValue { value, count: 1 }
    }

    /// Arbitrary pair constructor.
    pub fn new(value: f64, count: u64) -> Self {
        AggValue { value, count }
    }

    /// The neutral "no contributions" element: evaluating an aggregation
    /// with no live tensors yields 0 (cf. the UI's `Sleepover: 0` after a
    /// cancellation in Fig 7.9).
    pub fn empty() -> Self {
        AggValue {
            value: 0.0,
            count: 0,
        }
    }

    /// True when no contribution was folded in.
    pub fn is_empty(self) -> bool {
        self.count == 0
    }

    /// Combine with another element under `kind`. Counts always add; the
    /// neutral element is absorbed regardless of `kind` (so MIN over an
    /// empty aggregation still reports 0 rather than +∞).
    pub fn combine(self, other: AggValue, kind: AggKind) -> AggValue {
        if self.is_empty() {
            return other;
        }
        if other.is_empty() {
            return self;
        }
        AggValue {
            value: kind.combine_value(self.value, other.value),
            count: self.count + other.count,
        }
    }

    /// Fold `n` identical copies of this element under `kind` — the
    /// closed form of `combine`ing it with itself `n - 1` times. Used by
    /// the segment store's fold to expand run-length multiplicities without
    /// materializing `n` tensors: MAX/MIN of `n` equal values is the
    /// value, SUM/COUNT scale linearly; counts always scale.
    pub fn scaled(self, n: u64, kind: AggKind) -> AggValue {
        if n <= 1 || self.is_empty() {
            return self;
        }
        let value = match kind {
            AggKind::Max | AggKind::Min => self.value,
            AggKind::Sum | AggKind::Count => self.value * n as f64,
        };
        AggValue {
            value,
            count: self.count * n,
        }
    }

    /// The scalar the application reports for this aggregate.
    pub fn result(self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.value
        }
    }
}

impl fmt::Display for AggValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Render integral values without a trailing ".0" to match the
        // paper's `(5, 2)` notation.
        if self.value.fract() == 0.0 {
            write!(f, "({}, {})", self.value as i64, self.count)
        } else {
            write!(f, "({}, {})", self.value, self.count)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_combines_values_and_adds_counts() {
        let a = AggValue::single(3.0);
        let b = AggValue::single(5.0);
        let c = a.combine(b, AggKind::Max);
        assert_eq!(c, AggValue::new(5.0, 2));
    }

    #[test]
    fn sum_adds_both_parts() {
        let a = AggValue::new(2.0, 3);
        let b = AggValue::new(4.0, 1);
        assert_eq!(a.combine(b, AggKind::Sum), AggValue::new(6.0, 4));
    }

    #[test]
    fn min_respects_empty_identity() {
        let a = AggValue::empty();
        let b = AggValue::single(4.0);
        assert_eq!(a.combine(b, AggKind::Min), b);
        assert_eq!(b.combine(a, AggKind::Min), b);
        assert_eq!(AggValue::empty().result(), 0.0);
    }

    #[test]
    fn combine_is_associative_for_each_kind() {
        let xs = [
            AggValue::single(3.0),
            AggValue::single(5.0),
            AggValue::single(1.0),
        ];
        for kind in [AggKind::Max, AggKind::Min, AggKind::Sum, AggKind::Count] {
            let left = xs[0].combine(xs[1], kind).combine(xs[2], kind);
            let right = xs[0].combine(xs[1].combine(xs[2], kind), kind);
            assert_eq!(left, right, "{kind}");
        }
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(AggValue::new(5.0, 2).to_string(), "(5, 2)");
        assert_eq!(AggValue::new(2.5, 1).to_string(), "(2.5, 1)");
    }
}
