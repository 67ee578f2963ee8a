//! Provenance annotations: the basic units of data manipulated by an
//! application (users, tuples, movies, Wikipedia pages, DDP variables, ...).
//!
//! Annotations are interned: the cheap, `Copy` handle [`AnnId`] indexes into
//! an [`crate::store::AnnStore`], which owns names, domains, and the
//! attribute values that drive semantic mapping constraints.

use std::fmt;
use std::sync::Arc;

/// Handle to an interned annotation inside an [`crate::store::AnnStore`].
///
/// Ordering follows creation order, which the algorithms rely on only for
/// determinism (stable candidate enumeration), never for semantics.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AnnId(pub(crate) u32);

impl AnnId {
    /// Raw index of this annotation in its store.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstruct an id from a raw index. The caller must ensure the index
    /// came from the same store; out-of-range ids panic on first use.
    #[inline]
    pub fn from_index(ix: usize) -> Self {
        assert!(ix <= u32::MAX as usize, "annotation index exceeds u32");
        AnnId(ix as u32)
    }
}

impl fmt::Debug for AnnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// Handle to an interned annotation domain ("users", "movies", "db_vars", ...).
///
/// Two annotations may only be merged by a summarization mapping when they
/// share a domain — the simplest semantic constraint of §3.2.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DomainId(pub(crate) u16);

impl DomainId {
    /// Raw index of this domain in its store.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for DomainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dom{}", self.0)
    }
}

/// Handle to an interned attribute name ("gender", "age_range", ...).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AttrId(pub(crate) u16);

impl AttrId {
    /// Raw index of this attribute in its store.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for AttrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "attr{}", self.0)
    }
}

/// Handle to an interned attribute value ("Female", "25-34", ...).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AttrValueId(pub(crate) u32);

impl AttrValueId {
    /// Raw index of this value in its store.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for AttrValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "val{}", self.0)
    }
}

/// How an annotation came to exist.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AnnKind {
    /// A base annotation from the original provenance (`Ann`).
    Base,
    /// A summary annotation (`Ann'`) created by mapping the listed members
    /// (base annotations, transitively flattened) to a single new name.
    Summary {
        /// Base annotations summarized by this one, in creation order.
        members: Vec<AnnId>,
    },
}

impl AnnKind {
    /// True for summary annotations created during summarization.
    pub fn is_summary(&self) -> bool {
        matches!(self, AnnKind::Summary { .. })
    }
}

/// Full record for one annotation.
#[derive(Clone, Debug)]
pub struct Annotation {
    /// Human-readable name ("UID245", "Female", "wordnet_singer"), one
    /// allocation shared with its store's name index.
    pub name: Arc<str>,
    /// Domain used for the same-table mapping constraint.
    pub domain: DomainId,
    /// Attribute values of the underlying tuple, sorted by attribute id.
    /// For a summary annotation these are the attributes *shared* by all
    /// members (the values justifying the group's name).
    pub attrs: Vec<(AttrId, AttrValueId)>,
    /// Base vs summary.
    pub kind: AnnKind,
    /// Optional taxonomy concept this annotation is attached to (an index
    /// into an external taxonomy, opaque to this crate).
    pub concept: Option<u32>,
}

impl Annotation {
    /// Value of attribute `attr`, if present.
    pub fn attr(&self, attr: AttrId) -> Option<AttrValueId> {
        self.attrs
            .binary_search_by_key(&attr, |&(a, _)| a)
            .ok()
            .map(|ix| self.attrs[ix].1)
    }

    /// Iterate over the base annotations this annotation stands for: itself
    /// when base, its members when a summary.
    pub fn base_members(&self) -> &[AnnId] {
        match &self.kind {
            AnnKind::Base => &[],
            AnnKind::Summary { members } => members,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ann_id_roundtrip() {
        let id = AnnId::from_index(42);
        assert_eq!(id.index(), 42);
        assert_eq!(format!("{id:?}"), "a42");
    }

    #[test]
    fn attr_lookup_uses_sorted_order() {
        let ann = Annotation {
            name: "u".into(),
            domain: DomainId(0),
            attrs: vec![(AttrId(1), AttrValueId(10)), (AttrId(3), AttrValueId(30))],
            kind: AnnKind::Base,
            concept: None,
        };
        assert_eq!(ann.attr(AttrId(1)), Some(AttrValueId(10)));
        assert_eq!(ann.attr(AttrId(3)), Some(AttrValueId(30)));
        assert_eq!(ann.attr(AttrId(2)), None);
    }

    #[test]
    fn summary_members_are_exposed() {
        let ann = Annotation {
            name: "Female".into(),
            domain: DomainId(0),
            attrs: vec![],
            kind: AnnKind::Summary {
                members: vec![AnnId(0), AnnId(1)],
            },
            concept: None,
        };
        assert!(ann.kind.is_summary());
        assert_eq!(ann.base_members(), &[AnnId(0), AnnId(1)]);
    }
}
