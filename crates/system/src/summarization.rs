//! The summarization service (§7.1): runs Algorithm 1 on selected
//! provenance with the parameters of the summarization view (Fig 7.4).

use prox_core::{
    ConstraintConfig, MergeRule, StopReason, SummarizeConfig, Summarizer, SummaryResult,
    ValFuncKind,
};
use prox_datasets::MovieLens;
use prox_obs::SpanTimer;
use prox_provenance::{AggKind, AnnStore, ProvExpr, Valuation, ValuationClass};
use prox_robust::{ExecutionBudget, ProxError};

use crate::selection::Selected;

/// One summarization-service request, end to end (valuation generation
/// included — the extra over `summarize` is service overhead).
static SPAN_SERVICE: SpanTimer = SpanTimer::new("service");

/// The parameters exposed by the summarization view.
#[derive(Clone, Debug)]
pub struct SummarizationRequest {
    /// Distance weight (`wDist`); `wSize` is its complement.
    pub w_dist: f64,
    /// Distance bound (`TARGET-DIST`) in `[0,1]`.
    pub target_dist: f64,
    /// Size bound (`TARGET-SIZE`).
    pub target_size: usize,
    /// Maximum number of steps.
    pub steps: usize,
    /// Aggregation function.
    pub aggregation: AggKind,
    /// Valuation class.
    pub valuation_class: ValuationClass,
    /// VAL-FUNC.
    pub val_func: ValFuncKind,
    /// Execution budget (deadline / step cap / cancellation); unlimited by
    /// default. Mid-run exhaustion keeps the best-so-far summary.
    pub budget: ExecutionBudget,
}

impl Default for SummarizationRequest {
    fn default() -> Self {
        SummarizationRequest {
            w_dist: 0.5,
            target_dist: 1.0,
            target_size: 1,
            steps: 10,
            aggregation: AggKind::Max,
            valuation_class: ValuationClass::CancelSingleAnnotation,
            val_func: ValFuncKind::Euclidean,
            budget: ExecutionBudget::unlimited(),
        }
    }
}

impl SummarizationRequest {
    /// The summarizer configuration these parameters set: `wSize` is the
    /// complement of `wDist`, and every other field keeps its default.
    pub fn config(&self) -> SummarizeConfig {
        SummarizeConfig {
            w_dist: self.w_dist,
            w_size: 1.0 - self.w_dist,
            target_dist: self.target_dist,
            target_size: self.target_size,
            max_steps: self.steps,
            val_func: self.val_func,
            budget: self.budget.clone(),
            ..Default::default()
        }
    }
}

/// The service's output: the algorithm result plus the inputs needed by
/// the summary view (original provenance, valuations).
#[derive(Debug)]
pub struct Summarized {
    /// The algorithm's result, with per-step snapshots for the UI arrows.
    pub result: SummaryResult<ProvExpr>,
    /// The original (selected) provenance.
    pub original: ProvExpr,
    /// The valuation class used.
    pub valuations: Vec<Valuation>,
    /// Echo of the request.
    pub request: SummarizationRequest,
}

impl Summarized {
    /// Whether the run ended because no more merges were possible.
    pub fn exhausted(&self) -> bool {
        self.result.stop_reason == StopReason::NoCandidates
    }
}

/// Run the summarization service on a selection.
///
/// Errors are typed: invalid view parameters surface as
/// [`ProxError::Config`] (an input error), and a budget that is exhausted
/// before any work as [`ProxError::Budget`]. Mid-run budget exhaustion is
/// *not* an error — the best-so-far summary is returned with a budget
/// [`StopReason`].
pub fn summarize(
    data: &mut MovieLens,
    selected: &Selected,
    request: SummarizationRequest,
) -> Result<Summarized, ProxError> {
    // Wraps valuation generation, constraint assembly, and the summarizer
    // run (trace node "service" when the request is traced).
    let _span = SPAN_SERVICE.enter(request.budget.trace.as_ref());
    let valuations = data.valuations(request.valuation_class);
    let constraints = data.constraints();
    let config = SummarizeConfig {
        record_snapshots: true,
        ..request.config()
    };
    let mut summarizer = Summarizer::new(&mut data.store, constraints, config);
    let result = summarizer.summarize(&selected.provenance, &valuations)?;
    Ok(Summarized {
        result,
        original: selected.provenance.clone(),
        valuations,
        request,
    })
}

/// Summarize a selection whose annotation store carries no dataset's
/// constraints, such as one folded off a segment store: one
/// `SharedAttribute` merge rule per annotation domain, and the
/// `CancelSingleAttribute` valuations over the selection's annotations.
/// `config` supplies the weights, bounds, step limit and budget; errors
/// and the anytime contract are those of [`summarize`].
pub fn summarize_selection(
    selection: &ProvExpr,
    anns: &mut AnnStore,
    config: SummarizeConfig,
) -> Result<SummaryResult<ProvExpr>, ProxError> {
    let mut domains = Vec::new();
    for (_, ann) in anns.iter() {
        if !domains.contains(&ann.domain) {
            domains.push(ann.domain);
        }
    }
    let mut constraints = ConstraintConfig::new();
    for &d in &domains {
        constraints = constraints.allow(d, MergeRule::SharedAttribute { attrs: vec![] });
    }
    let valuations =
        ValuationClass::CancelSingleAttribute.generate(anns, &selection.annotations(), &domains);
    Summarizer::new(anns, constraints, config).summarize(selection, &valuations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::{select, Selection};
    use prox_datasets::MovieLensConfig;

    fn run(request: SummarizationRequest) -> (MovieLens, Summarized) {
        let mut d = MovieLens::generate(MovieLensConfig {
            users: 15,
            movies: 5,
            ratings_per_user: 2,
            seed: 3,
        });
        let sel = select(&mut d, &Selection::All, request.aggregation);
        let out = summarize(&mut d, &sel, request).unwrap();
        (d, out)
    }

    #[test]
    fn default_request_summarizes() {
        let (_, out) = run(SummarizationRequest::default());
        assert!(out.result.final_size() < out.original.size());
        assert!(!out.result.history.is_empty());
        assert_eq!(out.result.snapshots.len(), out.result.history.len() + 1);
    }

    #[test]
    fn size_bound_is_respected() {
        let (_, out) = run(SummarizationRequest {
            w_dist: 1.0,
            target_size: 40,
            steps: usize::MAX,
            ..Default::default()
        });
        assert!(out.result.final_size() <= 40 || out.exhausted());
    }

    #[test]
    fn summary_annotations_exist_in_store() {
        let (d, out) = run(SummarizationRequest::default());
        for step in &out.result.history.steps {
            assert!(d.store.get(step.target).kind.is_summary());
        }
    }

    #[test]
    fn invalid_weights_are_an_input_error() {
        let mut d = MovieLens::generate(MovieLensConfig::default());
        let sel = select(&mut d, &Selection::All, AggKind::Max);
        let req = SummarizationRequest {
            w_dist: 1.5,
            ..Default::default()
        };
        let err = summarize(&mut d, &sel, req).unwrap_err();
        assert_eq!(err.kind(), prox_robust::ErrorKind::Input);
        assert_eq!(err.kind().exit_code(), 2);
    }

    #[test]
    fn upfront_exhausted_budget_is_a_budget_error() {
        let mut d = MovieLens::generate(MovieLensConfig::default());
        let sel = select(&mut d, &Selection::All, AggKind::Max);
        let req = SummarizationRequest {
            budget: ExecutionBudget::unlimited().with_deadline_at(std::time::Instant::now()),
            ..Default::default()
        };
        let err = summarize(&mut d, &sel, req).unwrap_err();
        assert_eq!(err.kind(), prox_robust::ErrorKind::Budget);
        assert_eq!(err.kind().exit_code(), 3);
    }

    #[test]
    fn mid_run_deadline_returns_best_so_far() {
        let mut d = MovieLens::generate(MovieLensConfig {
            users: 40,
            movies: 8,
            ratings_per_user: 3,
            seed: 11,
        });
        let sel = select(&mut d, &Selection::All, AggKind::Max);
        let req = SummarizationRequest {
            steps: usize::MAX,
            budget: ExecutionBudget::unlimited().with_max_steps(2),
            ..Default::default()
        };
        let out = summarize(&mut d, &sel, req).expect("anytime contract");
        assert_eq!(out.result.stop_reason, StopReason::BudgetExhausted);
        assert!(out.result.history.len() <= 2);
        assert!(out.result.history.check_monotone().is_ok());
    }

    #[test]
    fn selection_summarizes_under_per_domain_rules() {
        let mut d = MovieLens::generate(MovieLensConfig {
            users: 15,
            movies: 5,
            ratings_per_user: 2,
            seed: 3,
        });
        let sel = select(&mut d, &Selection::All, AggKind::Max);
        let config = SummarizeConfig {
            max_steps: 3,
            ..SummarizeConfig::default()
        };
        let result = summarize_selection(&sel.provenance, &mut d.store, config).unwrap();
        assert!(!result.history.is_empty());
        assert!(result.history.len() <= 3);
        assert!(result.final_size() < sel.provenance.size());
        for step in &result.history.steps {
            assert!(d.store.get(step.target).kind.is_summary());
        }
    }
}
