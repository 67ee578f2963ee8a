//! Integration test: the complete pipeline from application execution to
//! approximate provisioning — workflow run (Chapter 2) → guarded
//! provenance (Example 2.2.1) → guard discharge (Example 3.1.1) →
//! summarization (Chapter 4) → insights, and a round trip through the
//! segment store.

// Harness helpers outside #[test] fns still panic on broken setup.
#![allow(clippy::expect_used)]

use prox::core::{ConstraintConfig, ExecutionBudget, MergeRule, SummarizeConfig, Summarizer};
use prox::provenance::{AggKind, AnnStore, Valuation, ValuationClass};
use prox::system::insights::group_insights;
use prox::workflow::{demo_database, movie_workflow, movies_provenance, reviews_relation};
use prox_store::{SegmentStore, StoreBuilder};

fn run_workflow() -> (AnnStore, prox::provenance::ProvExpr) {
    let mut store = AnnStore::new();
    let mut db = demo_database(
        &[
            ("U1", "audience"),
            ("U2", "critic"),
            ("U3", "audience"),
            ("U4", "critic"),
        ],
        &mut store,
    );
    let audience = reviews_relation(
        "audience_reviews",
        &[
            ("U1", "MatchPoint", 3.0),
            ("U1", "Friday", 4.0),
            ("U1", "PartyGirl", 2.0),
            ("U3", "MatchPoint", 5.0),
            ("U3", "Friday", 2.0),
            ("U3", "PartyGirl", 4.0),
        ],
    );
    let critic = reviews_relation(
        "critic_reviews",
        &[
            ("U2", "MatchPoint", 4.0),
            ("U2", "Friday", 3.0),
            ("U2", "PartyGirl", 3.0),
            ("U4", "MatchPoint", 2.0),
            ("U4", "Friday", 5.0),
            ("U4", "PartyGirl", 3.0),
        ],
    );
    let ports = movie_workflow()
        .run(
            vec![
                ("audience_reviews".into(), audience),
                ("critic_reviews".into(), critic),
            ],
            &mut db,
            &mut store,
        )
        .expect("workflow runs");
    let guarded = movies_provenance(&ports["sanitized"], &mut store, AggKind::Max);
    (store, guarded)
}

#[test]
fn workflow_output_summarizes_end_to_end() {
    let (mut store, guarded) = run_workflow();
    // Guards present (one per sanitized review).
    assert!(guarded.tensors().all(|(_, t)| t.guards.len() == 1));

    // Discharge guards (statistics assumed reliable) and summarize.
    let p0 = guarded.discharge_guards(&Valuation::all_true());
    assert!(p0.size() < guarded.size());

    let users_dom = store.domain("users");
    let users: Vec<_> = ["U1", "U2", "U3", "U4"]
        .iter()
        .map(|u| store.by_name(u).expect("interned by the run"))
        .collect();
    let valuations = ValuationClass::CancelSingleAnnotation.generate(&store, &users, &[users_dom]);
    let constraints =
        ConstraintConfig::new().allow(users_dom, MergeRule::SharedAttribute { attrs: vec![] });
    let config = SummarizeConfig {
        w_dist: 0.7,
        w_size: 0.3,
        max_steps: 4,
        ..Default::default()
    };
    let mut summarizer = Summarizer::new(&mut store, constraints, config);
    let res = summarizer
        .summarize(&p0, &valuations)
        .expect("valid config");
    assert!(res.final_size() < p0.size());
    assert!(res.history.check_monotone().is_ok());

    // Groups merge users sharing a role (the only attribute here).
    for step in &res.history.steps {
        let ann = store.get(step.target);
        assert!(!ann.attrs.is_empty(), "groups share the role attribute");
    }

    // Insights compare a group against its complement on real coordinates.
    if let Some(step) = res.history.steps.first() {
        let members = store.base_of(step.target);
        let ins = group_insights(&p0, step.target, &members, &store);
        assert!(!ins.is_empty());
        for i in &ins {
            assert!(i.group_value >= 0.0 && i.complement_value >= 0.0);
        }
    }
}

#[test]
fn workflow_provenance_roundtrips_through_the_store() {
    let (store, guarded) = run_workflow();
    let dir = std::env::temp_dir().join(format!("prox_workflow_store_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut builder =
        StoreBuilder::create(&dir, &store, AggKind::Max).expect("temp dir is writable");
    for (object, tensor) in guarded.tensors() {
        builder.append(object, tensor, 1).expect("store append");
    }
    builder.finish().expect("store finish");
    let mut segments = SegmentStore::open(&dir).expect("store opens");
    let (lp, outcome) = segments
        .collect(&mut ExecutionBudget::unlimited().start())
        .expect("store folds");
    let loaded = segments.anns().clone();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(outcome.stopped.is_none(), "an unlimited fold reads it all");

    // Every annotation keeps its id, its name and its domain's name.
    assert_eq!(loaded.len(), store.len());
    for (id, ann) in store.iter() {
        assert_eq!(loaded.by_name(&ann.name), Some(id));
        assert_eq!(loaded.name(id), &*ann.name);
        assert_eq!(
            loaded.domain_name(loaded.get(id).domain),
            store.domain_name(ann.domain)
        );
    }

    // Every object keeps its tensors. A fold orders objects by id and an
    // object's tensors by fingerprint, so compare per object, not with `==`.
    assert_eq!(lp.num_objects(), guarded.num_objects());
    for (object, expr) in guarded.entries() {
        let (_, back) = lp
            .entries()
            .iter()
            .find(|(o, _)| o == object)
            .expect("every object comes back");
        assert_eq!(back.len(), expr.len());
        for t in expr.tensors() {
            assert!(back.tensors().contains(t), "{t:?} lost");
        }
    }

    // Guards survive the round trip semantically: cancelling a stats
    // annotation drops the review either way.
    let s2 = loaded.by_name("S_U3").expect("stats annotation");
    let v = Valuation::cancel(&[s2]);
    let mp = loaded.by_name("MatchPoint").expect("movie");
    assert_eq!(lp.eval(&v).scalar_for(mp), guarded.eval(&v).scalar_for(mp));
    assert_eq!(lp.eval(&v).scalar_for(mp), Some(4.0), "U3's 5 dropped");
}
