//! `POST /summarize/store` against a quick synthetic store attached
//! through `StoreState`: the fold tallies in the body are those of a full
//! `collect()`, a repeat is answered from the response cache, a budget
//! trip mid-fold is still a `200` over the partial fold, and summarizing
//! over an overlay of the store's annotation table answers what
//! summarizing over a copy of it did.

use std::path::PathBuf;

use prox_core::SummarizeConfig;
use prox_obs::Json;
use prox_provenance::AnnStore;
use prox_robust::{CancelFlag, ExecutionBudget, FaultGuard};
use prox_serve::http::Request;
use prox_serve::service::{self, ServiceCtx, StoreState};
use prox_store::{build_synthetic, encode_annstore, SegmentStore, SynthSpec};
use prox_system::summarize_selection;

/// A quick synthetic store in a fresh temp dir, and a service over it.
fn served_store(tag: &str) -> (PathBuf, ServiceCtx) {
    let dir = std::env::temp_dir().join(format!("prox-serve-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    build_synthetic(&dir, &SynthSpec::quick(2016)).unwrap_or_else(|e| panic!("build: {e}"));
    let state =
        StoreState::open(&dir.display().to_string()).unwrap_or_else(|e| panic!("open: {e}"));
    let ctx = ServiceCtx::new(16, 60_000, CancelFlag::new()).with_store(state);
    (dir, ctx)
}

fn call(ctx: &ServiceCtx, method: &str, path: &str, body: &str) -> (u16, String) {
    let req = Request {
        method: method.to_owned(),
        path: path.to_owned(),
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
    };
    let resp = service::route(&req, ctx);
    (resp.status, resp.body)
}

fn fold_field<'a>(body: &'a Json, key: &str) -> &'a Json {
    body.get("fold")
        .and_then(|f| f.get(key))
        .unwrap_or_else(|| panic!("fold.{key} missing"))
}

fn fold_count(body: &Json, key: &str) -> u64 {
    fold_field(body, key)
        .as_u64()
        .unwrap_or_else(|| panic!("fold.{key} is not a count"))
}

#[test]
fn store_route_reports_the_full_fold_and_caches_repeats() {
    let _clean = FaultGuard::disabled();
    let (dir, ctx) = served_store("route");
    let mut store = SegmentStore::open(&dir).expect("store opens");
    let (expr, outcome) = store
        .collect(&mut ExecutionBudget::unlimited().start())
        .expect("collect succeeds");

    for objects in [1, 4] {
        let request = format!(r#"{{"objects":{objects},"steps":3}}"#);
        let (status, text) = call(&ctx, "POST", "/summarize/store", &request);
        assert_eq!(status, 200, "{text}");
        let body = Json::parse(&text).expect("JSON body");
        assert_eq!(fold_count(&body, "objects"), expr.num_objects() as u64);
        assert_eq!(fold_count(&body, "tensors"), expr.size() as u64);
        assert_eq!(fold_count(&body, "logical_seen"), outcome.logical_seen);
        assert_eq!(fold_field(&body, "stopped"), &Json::Bool(false));
        assert_eq!(
            body.get("selected_objects").and_then(Json::as_u64),
            Some(objects)
        );

        // A cache hit never folds: the store's reads stand still.
        let (_, before) = call(&ctx, "GET", "/store/stats", "");
        let (status, again) = call(&ctx, "POST", "/summarize/store", &request);
        let (_, after) = call(&ctx, "GET", "/store/stats", "");
        assert_eq!(status, 200);
        assert_eq!(again, text, "the repeat is byte-identical");
        assert_eq!(before, after, "the repeat is answered from the cache");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_route_answers_a_budget_trip_with_the_partial_fold() {
    let _clean = FaultGuard::disabled();
    let (dir, ctx) = served_store("budget");
    for objects in [1, 4] {
        let request = format!(r#"{{"objects":{objects},"budget_steps":2}}"#);
        let (status, text) = call(&ctx, "POST", "/summarize/store", &request);
        assert_eq!(status, 200, "{text}");
        let body = Json::parse(&text).expect("JSON body");
        assert_eq!(fold_field(&body, "stopped"), &Json::Bool(true), "{text}");
        assert_eq!(fold_count(&body, "records_seen"), 2);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The route summarizes in an overlay over the store's annotation table.
/// Against a summarization of the same fold in a copy of the table, the
/// overlay gets the same summary, the same new ids with the same names,
/// domains and members, and the route answers the same body; the table
/// itself does not change.
#[test]
fn summarizing_over_the_overlay_matches_a_copy_and_leaves_the_table() {
    let _clean = FaultGuard::disabled();
    let (dir, ctx) = served_store("overlay");
    let mut store = SegmentStore::open(&dir).expect("store opens");
    let table = encode_annstore(store.anns()).expect("the table encodes");
    let fold = store
        .fold(&mut ExecutionBudget::unlimited().start(), 1)
        .expect("fold succeeds");
    let base = store.anns().len();
    for w_dist in [0.25, 0.5, 0.75] {
        let config = || SummarizeConfig {
            w_dist,
            w_size: 1.0 - w_dist,
            max_steps: 4,
            ..SummarizeConfig::default()
        };
        let mut copy: AnnStore = store.anns().clone();
        let mut overlay = store.overlay();
        let want = summarize_selection(&fold.selection, &mut copy, config()).expect("copy run");
        let got =
            summarize_selection(&fold.selection, &mut overlay, config()).expect("overlay run");
        let case = format!("w_dist {w_dist}");
        assert_eq!(got.summary, want.summary, "{case}: summary");
        assert_eq!(got.stop_reason, want.stop_reason, "{case}");
        assert_eq!(got.final_distance, want.final_distance, "{case}");
        let targets = |r: &prox_core::SummaryResult<_>| -> Vec<_> {
            r.history.steps.iter().map(|s| s.target).collect()
        };
        assert_eq!(targets(&got), targets(&want), "{case}: step targets");
        assert_eq!(overlay.len(), copy.len(), "{case}: ids");
        assert!(overlay.len() > base, "{case}: the run added summaries");
        for id in overlay.ids() {
            let (a, b) = (overlay.get(id), copy.get(id));
            assert_eq!(a.name, b.name, "{case}: {id:?}");
            assert_eq!(a.domain, b.domain, "{case}: {id:?}");
            assert_eq!(a.attrs, b.attrs, "{case}: {id:?}");
            assert_eq!(a.kind, b.kind, "{case}: {id:?}");
            assert_eq!(overlay.by_name(&a.name), Some(id), "{case}: {id:?}");
        }

        let request = format!(r#"{{"objects":1,"steps":4,"w_dist":{w_dist}}}"#);
        let (status, text) = call(&ctx, "POST", "/summarize/store", &request);
        assert_eq!(status, 200, "{text}");
        let body = Json::parse(&text).expect("JSON body");
        let names: Vec<Json> = want
            .summary
            .annotations()
            .into_iter()
            .map(|a| Json::from(copy.name(a)))
            .collect();
        assert_eq!(body.get("summary"), Some(&Json::Arr(names)), "{case}");
        assert_eq!(
            body.get("final_size").and_then(Json::as_u64),
            Some(want.final_size() as u64),
            "{case}"
        );
        assert_eq!(
            body.get("steps").and_then(Json::as_u64),
            Some(want.history.len() as u64),
            "{case}"
        );
        assert_eq!(
            body.get("stop_reason").and_then(Json::as_str),
            Some(want.stop_reason.name()),
            "{case}"
        );
    }
    assert_eq!(store.anns().len(), base, "the table gained nothing");
    assert_eq!(
        encode_annstore(store.anns()).expect("the table encodes"),
        table,
        "the table is unchanged"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
