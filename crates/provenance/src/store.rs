//! The annotation store: interner for annotations, domains, attribute names
//! and attribute values.
//!
//! A store is created once per provenance workload and grows monotonically:
//! summarization adds summary annotations but never removes or mutates base
//! ones, so `AnnId`s handed out earlier stay valid for the lifetime of the
//! store.
//!
//! A store may extend a read-only *base* it shares through an `Arc`
//! ([`AnnStore::over`]). Its own annotation ids follow the base's, a
//! lookup below the base's count resolves there, and what it adds stays
//! in it, so every run summarizing over one table interns its summary
//! annotations in an overlay of its own and none copies the table. The
//! domain, attribute and value names are few (63 on a MovieLens-shaped
//! store of 9,992 annotations), and an overlay copies those.

use std::collections::HashMap;
use std::sync::Arc;

use prox_obs::Counter;

use crate::annot::{AnnId, AnnKind, Annotation, AttrId, AttrValueId, DomainId};

/// Base annotations interned across all stores.
static BASE_CREATED: Counter = Counter::new("anns/annotations_created");
/// Summary annotations interned across all stores.
static SUMMARIES_CREATED: Counter = Counter::new("anns/summaries_created");

/// Interner and registry for everything annotation-related.
#[derive(Clone, Debug, Default)]
pub struct AnnStore {
    /// The read-only store this one extends: annotation ids below
    /// `base_len` are its.
    base: Option<Arc<AnnStore>>,
    base_len: usize,
    anns: Vec<Annotation>,
    /// Each key shares its allocation with its record's `name`.
    ann_by_name: HashMap<Arc<str>, AnnId>,
    domains: Vec<String>,
    domain_by_name: HashMap<String, DomainId>,
    attrs: Vec<String>,
    attr_by_name: HashMap<String, AttrId>,
    values: Vec<String>,
    value_by_name: HashMap<String, AttrValueId>,
}

impl AnnStore {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty overlay over `base`: it answers every lookup `base`
    /// answers, with the same ids, and adds annotations (summaries, for a
    /// summarization run) after the base's without changing `base`.
    pub fn over(base: Arc<AnnStore>) -> Self {
        AnnStore {
            base_len: base.len(),
            anns: Vec::new(),
            ann_by_name: HashMap::new(),
            domains: base.domains.clone(),
            domain_by_name: base.domain_by_name.clone(),
            attrs: base.attrs.clone(),
            attr_by_name: base.attr_by_name.clone(),
            values: base.values.clone(),
            value_by_name: base.value_by_name.clone(),
            base: Some(base),
        }
    }

    /// Number of annotations (base + summary).
    pub fn len(&self) -> usize {
        self.base_len + self.anns.len()
    }

    /// True when no annotation has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Release the spare capacity of this store's own vectors, its
    /// annotations' included; a shared base is left as it is. The name
    /// maps keep theirs: rehashing them could change their iteration
    /// order.
    pub fn shrink_to_fit(&mut self) {
        for ann in &mut self.anns {
            ann.attrs.shrink_to_fit();
            if let AnnKind::Summary { members } = &mut ann.kind {
                members.shrink_to_fit();
            }
        }
        self.anns.shrink_to_fit();
        self.domains.shrink_to_fit();
        self.attrs.shrink_to_fit();
        self.values.shrink_to_fit();
    }

    /// Intern a domain name, returning its id (idempotent).
    pub fn domain(&mut self, name: &str) -> DomainId {
        if let Some(&id) = self.domain_by_name.get(name) {
            return id;
        }
        assert!(self.domains.len() <= u16::MAX as usize, "too many domains");
        let id = DomainId(self.domains.len() as u16);
        self.domains.push(name.to_owned());
        self.domain_by_name.insert(name.to_owned(), id);
        id
    }

    /// Intern an attribute name, returning its id (idempotent).
    pub fn attr(&mut self, name: &str) -> AttrId {
        if let Some(&id) = self.attr_by_name.get(name) {
            return id;
        }
        assert!(self.attrs.len() <= u16::MAX as usize, "too many attributes");
        let id = AttrId(self.attrs.len() as u16);
        self.attrs.push(name.to_owned());
        self.attr_by_name.insert(name.to_owned(), id);
        id
    }

    /// Intern an attribute value, returning its id (idempotent).
    pub fn value(&mut self, name: &str) -> AttrValueId {
        if let Some(&id) = self.value_by_name.get(name) {
            return id;
        }
        assert!(self.values.len() <= u32::MAX as usize, "too many values");
        let id = AttrValueId(self.values.len() as u32);
        self.values.push(name.to_owned());
        self.value_by_name.insert(name.to_owned(), id);
        id
    }

    /// Add a base annotation. Names must be unique within the store;
    /// re-adding an existing name returns the existing id only when domain
    /// matches, and panics otherwise (a name collision across domains is a
    /// dataset construction bug worth failing loudly on).
    pub fn add_base(
        &mut self,
        name: &str,
        domain: DomainId,
        mut attrs: Vec<(AttrId, AttrValueId)>,
    ) -> AnnId {
        if let Some(id) = self.by_name(name) {
            assert_eq!(
                self.get(id).domain,
                domain,
                "annotation {name:?} re-added with a different domain"
            );
            return id;
        }
        attrs.sort_unstable_by_key(|&(a, _)| a);
        attrs.dedup_by_key(|&mut (a, _)| a);
        BASE_CREATED.incr();
        self.push(Annotation {
            name: Arc::from(name),
            domain,
            attrs,
            kind: AnnKind::Base,
            concept: None,
        })
    }

    /// Add a summary annotation over `members` (which may themselves be
    /// summaries; they are flattened to base annotations here). The summary
    /// keeps exactly the attribute values shared by all base members.
    pub fn add_summary(&mut self, name: &str, domain: DomainId, members: &[AnnId]) -> AnnId {
        assert!(!members.is_empty(), "summary annotation needs members");
        let mut base = Vec::new();
        for &m in members {
            match &self.get(m).kind {
                AnnKind::Base => base.push(m),
                AnnKind::Summary { members } => base.extend_from_slice(members),
            }
        }
        base.sort_unstable();
        base.dedup();
        for &b in &base {
            assert_eq!(
                self.get(b).domain,
                domain,
                "summary {name:?} mixes annotation domains"
            );
        }
        let shared = self.shared_attrs(&base);
        // Summary names need not be globally unique (two different selections
        // may both produce "Female"); disambiguate on collision.
        let unique_name: Arc<str> = if self.by_name(name).is_some() {
            let mut n = 2usize;
            loop {
                let cand = format!("{name}#{n}");
                if self.by_name(&cand).is_none() {
                    break cand.into();
                }
                n += 1;
            }
        } else {
            name.into()
        };
        let concept = self.shared_concept(&base);
        SUMMARIES_CREATED.incr();
        self.push(Annotation {
            name: unique_name,
            domain,
            attrs: shared,
            kind: AnnKind::Summary { members: base },
            concept,
        })
    }

    /// Append a record to this store's own annotations.
    fn push(&mut self, ann: Annotation) -> AnnId {
        let id = AnnId::from_index(self.len());
        self.ann_by_name.insert(Arc::clone(&ann.name), id);
        self.anns.push(ann);
        id
    }

    /// Attribute values common to every annotation in `ids`.
    pub fn shared_attrs(&self, ids: &[AnnId]) -> Vec<(AttrId, AttrValueId)> {
        let Some((&first, rest)) = ids.split_first() else {
            return Vec::new();
        };
        let mut shared = self.get(first).attrs.clone();
        for &id in rest {
            let ann = self.get(id);
            shared.retain(|&(a, v)| ann.attr(a) == Some(v));
            if shared.is_empty() {
                break;
            }
        }
        shared
    }

    fn shared_concept(&self, ids: &[AnnId]) -> Option<u32> {
        let first = self.get(*ids.first()?).concept?;
        ids.iter()
            .all(|&id| self.get(id).concept == Some(first))
            .then_some(first)
    }

    /// Attach a taxonomy concept to an annotation. On an annotation of a
    /// shared base, the base is copied first, so others sharing it see
    /// no change.
    pub fn set_concept(&mut self, id: AnnId, concept: u32) {
        match &mut self.base {
            Some(base) if id.index() < self.base_len => {
                Arc::make_mut(base).set_concept(id, concept)
            }
            _ => self.anns[id.index() - self.base_len].concept = Some(concept),
        }
    }

    /// Look up an annotation record.
    #[inline]
    pub fn get(&self, id: AnnId) -> &Annotation {
        // A store with no base has `base_len` 0: one subtraction that
        // never borrows, and no call.
        match id.index().checked_sub(self.base_len) {
            Some(ix) => &self.anns[ix],
            None => self.base_get(id),
        }
    }

    /// [`AnnStore::get`] of an id below `base_len`, which only a store
    /// with a base has.
    #[inline(never)]
    fn base_get(&self, id: AnnId) -> &Annotation {
        match &self.base {
            Some(base) => base.get(id),
            None => &self.anns[id.index()],
        }
    }

    /// Look up an annotation by name.
    pub fn by_name(&self, name: &str) -> Option<AnnId> {
        self.base
            .as_ref()
            .and_then(|base| base.by_name(name))
            .or_else(|| self.ann_by_name.get(name).copied())
    }

    /// Name of an annotation.
    pub fn name(&self, id: AnnId) -> &str {
        &self.get(id).name
    }

    /// Name of a domain.
    pub fn domain_name(&self, id: DomainId) -> &str {
        &self.domains[id.index()]
    }

    /// Name of an attribute.
    pub fn attr_name(&self, id: AttrId) -> &str {
        &self.attrs[id.0 as usize]
    }

    /// Name of an attribute value.
    pub fn value_name(&self, id: AttrValueId) -> &str {
        &self.values[id.0 as usize]
    }

    /// Iterate over all annotation ids currently interned.
    pub fn ids(&self) -> impl Iterator<Item = AnnId> + '_ {
        (0..self.len()).map(AnnId::from_index)
    }

    /// Iterate over all `(id, annotation)` pairs, the base's first.
    pub fn iter(&self) -> impl Iterator<Item = (AnnId, &Annotation)> {
        self.ids().map(move |id| (id, self.get(id)))
    }

    /// All base annotations an id stands for: `[id]` when base, its flattened
    /// members when a summary.
    pub fn base_of(&self, id: AnnId) -> Vec<AnnId> {
        match &self.get(id).kind {
            AnnKind::Base => vec![id],
            AnnKind::Summary { members } => members.clone(),
        }
    }

    /// Convenience: intern a base annotation giving attribute name/value
    /// strings directly.
    pub fn add_base_with(&mut self, name: &str, domain: &str, attrs: &[(&str, &str)]) -> AnnId {
        let dom = self.domain(domain);
        let attrs = attrs
            .iter()
            .map(|&(a, v)| (self.attr(a), self.value(v)))
            .collect();
        self.add_base(name, dom, attrs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut s = AnnStore::new();
        let d1 = s.domain("users");
        let d2 = s.domain("users");
        assert_eq!(d1, d2);
        let a1 = s.attr("gender");
        let a2 = s.attr("gender");
        assert_eq!(a1, a2);
        let v1 = s.value("Female");
        let v2 = s.value("Female");
        assert_eq!(v1, v2);
    }

    #[test]
    fn base_annotation_roundtrip() {
        let mut s = AnnStore::new();
        let id = s.add_base_with("U1", "users", &[("gender", "F"), ("age", "25-34")]);
        assert_eq!(s.name(id), "U1");
        assert_eq!(s.by_name("U1"), Some(id));
        let gender = s.attr("gender");
        let f = s.value("F");
        assert_eq!(s.get(id).attr(gender), Some(f));
        assert_eq!(s.base_of(id), vec![id]);
    }

    #[test]
    fn summary_keeps_shared_attributes_only() {
        let mut s = AnnStore::new();
        let u1 = s.add_base_with("U1", "users", &[("gender", "F"), ("age", "25-34")]);
        let u2 = s.add_base_with("U2", "users", &[("gender", "F"), ("age", "35-44")]);
        let dom = s.domain("users");
        let g = s.add_summary("Female", dom, &[u1, u2]);
        let gender = s.attr("gender");
        let age = s.attr("age");
        let f = s.value("F");
        assert_eq!(s.get(g).attr(gender), Some(f));
        assert_eq!(s.get(g).attr(age), None);
        assert_eq!(s.base_of(g), vec![u1, u2]);
        assert!(s.get(g).kind.is_summary());
    }

    #[test]
    fn nested_summary_flattens_members() {
        let mut s = AnnStore::new();
        let u1 = s.add_base_with("U1", "users", &[("gender", "F")]);
        let u2 = s.add_base_with("U2", "users", &[("gender", "F")]);
        let u3 = s.add_base_with("U3", "users", &[("gender", "F")]);
        let dom = s.domain("users");
        let g1 = s.add_summary("Female", dom, &[u1, u2]);
        let g2 = s.add_summary("FemaleAll", dom, &[g1, u3]);
        assert_eq!(s.base_of(g2), vec![u1, u2, u3]);
    }

    #[test]
    fn summary_name_collision_is_disambiguated() {
        let mut s = AnnStore::new();
        let u1 = s.add_base_with("U1", "users", &[]);
        let u2 = s.add_base_with("U2", "users", &[]);
        let u3 = s.add_base_with("U3", "users", &[]);
        let dom = s.domain("users");
        let g1 = s.add_summary("G", dom, &[u1, u2]);
        let g2 = s.add_summary("G", dom, &[g1, u3]);
        assert_ne!(s.name(g1), s.name(g2));
    }

    #[test]
    fn an_overlay_extends_a_shared_base_without_changing_it() {
        let mut s = AnnStore::new();
        let u1 = s.add_base_with("U1", "users", &[("gender", "F"), ("age", "25-34")]);
        let u2 = s.add_base_with("U2", "users", &[("gender", "F"), ("age", "35-44")]);
        let base = Arc::new(s);
        let mut o = AnnStore::over(Arc::clone(&base));
        assert_eq!((o.len(), o.by_name("U2"), o.name(u1)), (2, Some(u2), "U1"));

        let users = o.domain("users");
        let g = o.add_summary("Female", users, &[u1, u2]);
        assert_eq!(g.index(), 2, "overlay ids follow the base's");
        assert_eq!((o.len(), o.by_name("Female")), (3, Some(g)));
        assert_eq!(o.base_of(g), vec![u1, u2]);
        let (gender, f) = (o.attr("gender"), o.value("F"));
        assert_eq!(o.get(g).attr(gender), Some(f));
        assert_eq!(
            o.add_base_with("U1", "users", &[]),
            u1,
            "base names are taken"
        );
        let again = o.add_summary("Female", users, &[u1, u2]);
        assert_eq!(o.name(again), "Female#2");

        let movies = o.domain("movies");
        assert_eq!(o.domain_name(movies), "movies");
        assert_eq!(AnnStore::over(Arc::clone(&base)).domain("movies"), movies);
        o.set_concept(u1, 7);
        assert_eq!(o.get(u1).concept, Some(7));

        assert_eq!(base.len(), 2);
        assert_eq!(base.by_name("Female"), None);
        assert_eq!(
            base.get(u1).concept,
            None,
            "the overlay copied the base to write"
        );
        let ids: Vec<AnnId> = o.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, o.ids().collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "different domain")]
    fn reusing_a_name_across_domains_panics() {
        let mut s = AnnStore::new();
        s.add_base_with("X", "users", &[]);
        s.add_base_with("X", "movies", &[]);
    }
}
