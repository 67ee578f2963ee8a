//! Evaluation outcomes and the key projection used to compare vectors of
//! different dimensionality (Example 5.2.1).
//!
//! Evaluating an original provenance and its summary may produce vectors
//! over different object keys (pages vs WordNet concepts). Before a
//! euclidean comparison the original vector is *projected* into the summary
//! key space: coordinates whose object maps to the same summary key combine
//! under the aggregation function.

use std::collections::HashMap;

use crate::annot::AnnId;
use crate::mapping::Mapping;
use crate::monoid::{AggKind, AggValue};

/// A coordinate vector resulting from evaluating a [`crate::ProvExpr`].
#[derive(Clone, Debug, PartialEq)]
pub struct EvalVector {
    coords: Vec<(AnnId, AggValue)>,
    kind: AggKind,
}

impl EvalVector {
    /// Build from raw coordinates.
    pub fn new(coords: Vec<(AnnId, AggValue)>, kind: AggKind) -> Self {
        EvalVector { coords, kind }
    }

    /// The coordinates in expression order.
    pub fn coords(&self) -> &[(AnnId, AggValue)] {
        &self.coords
    }

    /// The scalar value at an object key, if present.
    pub fn scalar_for(&self, object: AnnId) -> Option<f64> {
        self.coords
            .iter()
            .find(|(o, _)| *o == object)
            .map(|(_, v)| v.result())
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.coords.len()
    }

    /// Project into a summary key space: each coordinate's key is mapped
    /// through `h` and colliding coordinates combine under the aggregation
    /// function, mirroring how the summary itself was formed.
    pub fn project(&self, h: &Mapping) -> EvalVector {
        let mut index: HashMap<AnnId, usize> = HashMap::new();
        let mut coords: Vec<(AnnId, AggValue)> = Vec::with_capacity(self.coords.len());
        for &(o, v) in &self.coords {
            let key = h.image(o);
            match index.get(&key) {
                Some(&ix) => {
                    coords[ix].1 = coords[ix].1.combine(v, self.kind);
                }
                None => {
                    index.insert(key, coords.len());
                    coords.push((key, v));
                }
            }
        }
        EvalVector {
            coords,
            kind: self.kind,
        }
    }

    /// Euclidean distance to another vector, aligning coordinates by key.
    /// Keys present on one side only contribute their full magnitude (the
    /// other side reads as 0).
    pub fn euclidean(&self, other: &EvalVector) -> f64 {
        let mut acc = 0.0f64;
        let theirs: HashMap<AnnId, f64> =
            other.coords.iter().map(|&(o, v)| (o, v.result())).collect();
        let mut seen: Vec<AnnId> = Vec::with_capacity(self.coords.len());
        for &(o, v) in &self.coords {
            let d = v.result() - theirs.get(&o).copied().unwrap_or(0.0);
            acc += d * d;
            seen.push(o);
        }
        for &(o, v) in &other.coords {
            if !seen.contains(&o) {
                acc += v.result() * v.result();
            }
        }
        acc.sqrt()
    }

    /// Sum of absolute per-coordinate values — used to bound the maximum
    /// possible error when normalizing distances.
    pub fn magnitude(&self) -> f64 {
        self.coords.iter().map(|(_, v)| v.result().abs()).sum()
    }
}

/// The outcome of evaluating any summarizable expression under a valuation.
#[derive(Clone, Debug, PartialEq)]
pub enum EvalOutcome {
    /// A single aggregated value.
    Scalar(f64),
    /// One aggregated value per object.
    Vector(EvalVector),
    /// A DDP outcome: best execution cost if any execution is feasible.
    Ddp {
        /// Minimum cost over feasible executions.
        cost: Option<f64>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(ix: usize) -> AnnId {
        AnnId::from_index(ix)
    }

    fn vec_of(kind: AggKind, items: &[(usize, f64, u64)]) -> EvalVector {
        EvalVector::new(
            items
                .iter()
                .map(|&(o, v, c)| (a(o), AggValue::new(v, c)))
                .collect(),
            kind,
        )
    }

    #[test]
    fn example_5_2_1_projection() {
        // Original per-page vector (Adele:0, CelineDion:0, LoriBlack:1,
        // AlecBaillie:1) with pages {1,2}→singer(10), {3,4}→guitarist(11),
        // SUM aggregation ⇒ (guitarist:2, singer:0).
        let orig = vec_of(
            AggKind::Sum,
            &[(1, 0.0, 0), (2, 0.0, 0), (3, 1.0, 1), (4, 1.0, 1)],
        );
        let mut h = Mapping::identity();
        for p in [1, 2] {
            h.set(a(p), a(10));
        }
        for p in [3, 4] {
            h.set(a(p), a(11));
        }
        let projected = orig.project(&h);
        assert_eq!(projected.dim(), 2);
        assert_eq!(projected.scalar_for(a(10)), Some(0.0));
        assert_eq!(projected.scalar_for(a(11)), Some(2.0));
    }

    #[test]
    fn euclidean_aligns_by_key() {
        let x = vec_of(AggKind::Max, &[(1, 3.0, 1), (2, 4.0, 1)]);
        let y = vec_of(AggKind::Max, &[(2, 4.0, 1), (1, 0.0, 0)]);
        assert!((x.euclidean(&y) - 3.0).abs() < 1e-12);
        assert_eq!(x.euclidean(&x), 0.0);
    }

    #[test]
    fn euclidean_counts_one_sided_keys() {
        let x = vec_of(AggKind::Max, &[(1, 3.0, 1)]);
        let y = vec_of(AggKind::Max, &[(2, 4.0, 1)]);
        assert!((x.euclidean(&y) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn magnitude_sums_absolute_coordinates() {
        let x = vec_of(AggKind::Sum, &[(1, 3.0, 1), (2, 4.0, 2)]);
        assert_eq!(x.magnitude(), 7.0);
    }
}
