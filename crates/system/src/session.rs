//! Summary-view sessions: step-through navigation (the UI's ◀ ▶ arrows)
//! and the groups view (Figs 7.5–7.7) describing which users the algorithm
//! mapped together, their attributes, and the group's aggregated value.

use prox_provenance::{AnnId, AnnStore, ProvExpr, Summarizable, Valuation};

use crate::summarization::Summarized;

/// Description of one group (summary annotation) for the groups view.
#[derive(Clone, Debug)]
pub struct GroupView {
    /// The summary annotation.
    pub target: AnnId,
    /// Display name ("Male", "25-34", ...).
    pub name: String,
    /// Number of base members.
    pub size: usize,
    /// Member names.
    pub members: Vec<String>,
    /// Shared attributes as `attr=value` strings.
    pub shared_attrs: Vec<String>,
    /// The group's aggregated value in the current expression (`AGG:5` in
    /// the UI), when the group appears in exactly one coordinate this is
    /// that coordinate's contribution.
    pub aggregated: Option<f64>,
}

/// A navigable session over a summarization result.
#[derive(Debug)]
pub struct Session {
    summarized: Summarized,
    /// Current step: 0 = after GroupEquivalent, `history.len()` = final.
    cursor: usize,
}

impl Session {
    /// Open a session (cursor at the final step).
    pub fn new(summarized: Summarized) -> Self {
        let cursor = summarized.result.history.len();
        Session { summarized, cursor }
    }

    /// The underlying result.
    pub fn summarized(&self) -> &Summarized {
        &self.summarized
    }

    /// Number of navigable steps.
    pub fn steps(&self) -> usize {
        self.summarized.result.history.len()
    }

    /// The cursor position.
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// Step backward (the ◀ arrow). Returns the new position.
    pub fn back(&mut self) -> usize {
        self.cursor = self.cursor.saturating_sub(1);
        self.cursor
    }

    /// Step forward (the ▶ arrow). Returns the new position.
    pub fn forward(&mut self) -> usize {
        self.cursor = (self.cursor + 1).min(self.steps());
        self.cursor
    }

    /// The expression at the cursor.
    pub fn expression(&self) -> &ProvExpr {
        &self.summarized.result.snapshots[self.cursor]
    }

    /// Provenance size at the cursor.
    pub fn size(&self) -> usize {
        self.expression().size()
    }

    /// Groups present in the expression at the cursor.
    pub fn groups(&self, store: &AnnStore) -> Vec<GroupView> {
        let expr = self.expression();
        let mut out = Vec::new();
        let full = expr.eval(&Valuation::all_true());
        for a in Summarizable::annotations(expr) {
            let ann = store.get(a);
            if !ann.kind.is_summary() {
                continue;
            }
            let members = ann
                .base_members()
                .iter()
                .map(|&m| store.name(m).to_owned())
                .collect();
            let shared_attrs = ann
                .attrs
                .iter()
                .map(|&(at, v)| format!("{}={}", store.attr_name(at), store.value_name(v)))
                .collect();
            // Aggregate contribution: the MAX/SUM of tensors whose prov
            // mentions the group, per coordinate; we surface the first
            // coordinate's value (the UI shows per-group AGG within the
            // selected movie).
            let aggregated = expr
                .entries()
                .iter()
                .find(|(_, e)| {
                    e.tensors()
                        .iter()
                        .any(|t| t.prov.annotations().contains(&a))
                })
                .and_then(|(o, _)| full.scalar_for(*o));
            out.push(GroupView {
                target: a,
                name: ann.name.to_string(),
                size: ann.base_members().len(),
                members,
                shared_attrs,
                aggregated,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::{select, Selection};
    use crate::summarization::{summarize, SummarizationRequest};
    use prox_datasets::{MovieLens, MovieLensConfig};

    fn session() -> (MovieLens, Session) {
        let mut d = MovieLens::generate(MovieLensConfig {
            users: 12,
            movies: 4,
            ratings_per_user: 2,
            seed: 9,
        });
        let sel = select(&mut d, &Selection::All, prox_provenance::AggKind::Max);
        let out = summarize(&mut d, &sel, SummarizationRequest::default()).unwrap();
        let s = Session::new(out);
        (d, s)
    }

    #[test]
    fn navigation_clamps_at_ends() {
        let (_, mut s) = session();
        let steps = s.steps();
        assert_eq!(s.cursor(), steps);
        s.forward();
        assert_eq!(s.cursor(), steps);
        for _ in 0..steps + 5 {
            s.back();
        }
        assert_eq!(s.cursor(), 0);
    }

    #[test]
    fn sizes_shrink_towards_final_step() {
        let (_, mut s) = session();
        while s.cursor() > 0 {
            let here = s.size();
            s.back();
            assert!(s.size() >= here);
        }
    }

    #[test]
    fn groups_describe_summary_annotations() {
        let (d, s) = session();
        if s.steps() == 0 {
            return; // nothing merged on this seed; other tests cover merging
        }
        let groups = s.groups(&d.store);
        assert!(!groups.is_empty());
        for g in &groups {
            assert!(g.size >= 2);
            assert_eq!(g.members.len(), g.size);
        }
    }

    #[test]
    fn initial_step_has_no_groups_when_equivalence_is_trivial() {
        let (d, mut s) = session();
        while s.cursor() > 0 {
            s.back();
        }
        // Under CancelSingleAnnotation, GroupEquivalent merges nothing.
        assert!(s.groups(&d.store).is_empty());
    }
}
