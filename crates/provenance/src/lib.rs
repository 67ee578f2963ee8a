//! # prox-provenance
//!
//! The semiring provenance substrate underlying PROX (*Approximated
//! Summarization of Data Provenance*, EDBT 2016).
//!
//! This crate implements the provenance model of Chapter 2 of the paper:
//!
//! * the provenance semiring `N[Ann]` of polynomials over annotations
//!   ([`Polynomial`], [`Monomial`]), capturing positive relational queries;
//! * its extension to aggregate queries via tensors `t ⊗ v` pairing
//!   provenance with aggregation-monoid values ([`Tensor`], [`AggExpr`]),
//!   including comparison guards ([`Guard`]) for nested aggregates and
//!   negation;
//! * object-keyed vector provenance ([`ProvExpr`]) whose evaluation yields
//!   one aggregate per movie/page;
//! * Data-Dependent Process provenance ([`DdpExpr`]) over the tropical
//!   semiring;
//! * truth valuations and provisioning ([`Valuation`], [`ValuationClass`]),
//!   with lifting to summary annotations via combiner functions
//!   ([`Phi`], [`PhiMap`]);
//! * summarization mappings `h : Ann → Ann'` ([`Mapping`]) applied
//!   homomorphically, with the congruence simplifications that make
//!   summaries shrink.
//!
//! Quick taste (Example 3.1.1 of the paper):
//!
//! ```
//! use prox_provenance::{
//!     AggExpr, AggKind, AggValue, AnnStore, Mapping, Polynomial, Tensor, Valuation,
//! };
//!
//! let mut store = AnnStore::new();
//! let u1 = store.add_base_with("U1", "users", &[("gender", "F")]);
//! let u2 = store.add_base_with("U2", "users", &[("gender", "F")]);
//! let u3 = store.add_base_with("U3", "users", &[("gender", "M")]);
//!
//! // Pₛ = U₁⊗(3,1) ⊕ U₂⊗(5,1) ⊕ U₃⊗(3,1)
//! let p = AggExpr::from_tensors(
//!     vec![
//!         Tensor::new(Polynomial::var(u1), AggValue::single(3.0)),
//!         Tensor::new(Polynomial::var(u2), AggValue::single(5.0)),
//!         Tensor::new(Polynomial::var(u3), AggValue::single(3.0)),
//!     ],
//!     AggKind::Max,
//! );
//!
//! // Map U₁,U₂ ↦ Female:  P′ₛ = Female⊗(5,2) ⊕ U₃⊗(3,1)
//! let users = store.domain("users");
//! let female = store.add_summary("Female", users, &[u1, u2]);
//! let summary = p.map(&Mapping::group(&[u1, u2], female));
//! assert_eq!(summary.len(), 2);
//! assert_eq!(summary.eval(&Valuation::all_true()).result(), 5.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// Library code must surface failures as typed errors, not panics: an
// invalid input, such as an empty valuation class, is expected, not a bug.
// (Bytes read from disk are decoded and checked by `prox-store`.) The
// clippy::unwrap_used/expect_used warnings come from [workspace.lints];
// tests are exempt via clippy.toml.

pub mod aggexpr;
pub mod annot;
pub mod classes;
pub mod ddp;
pub mod display;
pub mod eval;
pub mod expr;
pub mod guard;
pub mod mapping;
pub mod monoid;
pub mod monomial;
pub mod phi;
pub mod polynomial;
pub mod provexpr;
pub mod semiring;
pub mod store;
pub mod tensor;
pub mod valuation;

pub use aggexpr::AggExpr;
pub use annot::{AnnId, AnnKind, Annotation, AttrId, AttrValueId, DomainId};
pub use classes::ValuationClass;
pub use ddp::{DbCondOp, DdpExecution, DdpExpr, DdpTransition};
pub use eval::{EvalOutcome, EvalVector};
pub use expr::Summarizable;
pub use guard::{CmpOp, Guard};
pub use mapping::Mapping;
pub use monoid::{AggKind, AggValue};
pub use monomial::Monomial;
pub use phi::{Phi, PhiMap};
pub use polynomial::Polynomial;
pub use provexpr::ProvExpr;
pub use semiring::{Bool, Count, Semiring, Tropical};
pub use store::AnnStore;
pub use tensor::Tensor;
pub use valuation::Valuation;
