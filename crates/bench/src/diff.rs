//! The manifest regression gate: `prox bench diff <baseline> <current>`.
//!
//! Compares two deterministic `reports/manifest_*.json` files leaf by
//! leaf. Under `PROX_DETERMINISTIC` a manifest is a pure function of the
//! code and the seeds, so the comparison is exact: every number, string
//! and bool must be equal, and a leaf present on one side only is a
//! difference (manifests omit zero counters, so nothing reads as 0).
//! Timing verdicts come from the benchmark's spread-aware `compare`.
//!
//! Two manifests are only comparable when `experiment`, `config`,
//! `scale`, and `datasets` match exactly and neither carries
//! `wall_time_ms`, which marks a run written without
//! `PROX_DETERMINISTIC`. Anything else is an input error, not a
//! difference.
//!
//! The report (`reports/regression.json`) has sorted keys and lists the
//! differences by path, so on identical inputs it is byte-stable (rule L2).

use std::collections::BTreeMap;
use std::fmt;

use prox_obs::Json;

/// One leaf that is not equal in both manifests.
#[derive(Clone, Debug, PartialEq)]
pub struct Difference {
    /// Dotted path, e.g. `counters.distance/evaluations`.
    pub path: String,
    /// The leaf in the baseline manifest, `None` when absent there.
    pub baseline: Option<Json>,
    /// The leaf in the current manifest, `None` when absent there.
    pub current: Option<Json>,
}

/// The full comparison of two manifests.
#[derive(Clone, Debug)]
pub struct DiffReport {
    /// Experiment id both manifests describe.
    pub experiment: String,
    /// Number of leaves compared (union of both manifests).
    pub checked: usize,
    /// Every leaf that differs, sorted by path.
    pub differences: Vec<Difference>,
}

impl DiffReport {
    /// Did any leaf differ?
    pub fn regressed(&self) -> bool {
        !self.differences.is_empty()
    }

    /// The report as JSON (the `reports/regression.json` schema). A side
    /// on which a leaf is absent has no key in its difference entry.
    pub fn to_json(&self) -> Json {
        let differences = self.differences.iter().map(|d| {
            let mut entry = Json::obj().with("path", d.path.as_str());
            for (side, leaf) in [("baseline", &d.baseline), ("current", &d.current)] {
                if let Some(leaf) = leaf {
                    entry.set(side, leaf.clone());
                }
            }
            entry
        });
        Json::obj()
            .with("experiment", self.experiment.as_str())
            .with("checked", self.checked)
            .with("status", if self.regressed() { "regressed" } else { "ok" })
            .with("differences", Json::Arr(differences.collect()))
    }
}

/// Why two manifests could not be compared (input error, CLI exit 2 —
/// distinct from a difference, exit 1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiffError(pub String);

impl fmt::Display for DiffError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "manifests not comparable: {}", self.0)
    }
}

impl std::error::Error for DiffError {}

/// Sections that define *what ran* rather than what it did; they must
/// match for the manifests to be comparable and are not flattened.
const STRUCTURAL: &[&str] = &["experiment", "config", "scale", "datasets"];

/// Both manifests' leaves by dotted path: `[baseline, current]`.
type Leaves = BTreeMap<String, [Option<Json>; 2]>;

/// Record every leaf of `j` as side `side` of `leaves`. Arrays index as
/// `.0`, `.1`, ...
fn flatten(path: String, j: &Json, side: usize, leaves: &mut Leaves) {
    match j {
        Json::Obj(entries) => {
            for (k, v) in entries {
                flatten(format!("{path}.{k}"), v, side, leaves);
            }
        }
        Json::Arr(items) => {
            for (ix, v) in items.iter().enumerate() {
                flatten(format!("{path}.{ix}"), v, side, leaves);
            }
        }
        leaf => leaves.entry(path).or_default()[side] = Some(leaf.clone()),
    }
}

/// Check that two manifests can be compared exactly; returns the
/// experiment id they share.
fn check_comparable<'a>(baseline: &'a Json, current: &Json) -> Result<&'a str, DiffError> {
    for (side, manifest) in [("baseline", baseline), ("current", current)] {
        if manifest.get("wall_time_ms").is_some() {
            return Err(DiffError(format!(
                "{side} carries wall_time_ms, so it is a timed run; rerun with \
                 PROX_DETERMINISTIC=1 for an exact comparison, and compare timings \
                 with the benchmark's `compare`"
            )));
        }
    }
    for key in STRUCTURAL {
        let b = baseline.get(key).map(|j| j.sorted().render());
        let c = current.get(key).map(|j| j.sorted().render());
        if b != c {
            return Err(DiffError(format!(
                "{key} differs: baseline {} vs current {}",
                b.unwrap_or_else(|| "<absent>".into()),
                c.unwrap_or_else(|| "<absent>".into()),
            )));
        }
    }
    // `experiment` is structural: the current manifest's is the same.
    baseline
        .get("experiment")
        .and_then(Json::as_str)
        .ok_or_else(|| DiffError("no `experiment` field".into()))
}

/// Compare two parsed manifests exactly. Returns an error when they are
/// not comparable (different experiment/config/scale/datasets, or a timed
/// manifest).
pub fn diff_manifests(baseline: &Json, current: &Json) -> Result<DiffReport, DiffError> {
    let experiment = check_comparable(baseline, current)?.to_owned();
    let mut leaves = Leaves::new();
    for (side, manifest) in [baseline, current].into_iter().enumerate() {
        for (k, v) in manifest.entries().unwrap_or_default() {
            if !STRUCTURAL.contains(&k.as_str()) {
                flatten(k.clone(), v, side, &mut leaves);
            }
        }
    }
    let checked = leaves.len();
    let differences = leaves
        .into_iter()
        .filter(|(_, [b, c])| b != c)
        .map(|(path, [baseline, current])| Difference {
            path,
            baseline,
            current,
        })
        .collect();
    Ok(DiffReport {
        experiment,
        checked,
        differences,
    })
}

/// Read and parse a manifest file.
pub fn load_manifest(path: &str) -> Result<Json, DiffError> {
    let body =
        std::fs::read_to_string(path).map_err(|e| DiffError(format!("cannot read {path}: {e}")))?;
    Json::parse(&body).map_err(|e| DiffError(format!("cannot parse {path}: {e}")))
}

/// Run the whole gate: load both manifests, diff them, write the report
/// to `out_path`, and print a human summary to stderr. Returns the
/// process exit code: 0 equal, 1 differs, 2 input error.
pub fn run_diff(baseline_path: &str, current_path: &str, out_path: &str) -> i32 {
    let loaded = load_manifest(baseline_path).and_then(|b| {
        let c = load_manifest(current_path)?;
        diff_manifests(&b, &c)
    });
    let report = match loaded {
        Ok(r) => r,
        Err(e) => {
            eprintln!("prox bench diff: {e}");
            return 2;
        }
    };
    let rendered = report.to_json().sorted().pretty();
    if let Some(dir) = std::path::Path::new(out_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(out_path, &rendered) {
        eprintln!("prox bench diff: cannot write {out_path}: {e}");
        return 2;
    }
    eprintln!(
        "prox bench diff: {} — {} leaves checked, {} difference(s) -> {out_path}",
        report.experiment,
        report.checked,
        report.differences.len(),
    );
    let text = |leaf: &Option<Json>| leaf.as_ref().map_or("<absent>".into(), Json::render);
    for d in &report.differences {
        eprintln!(
            "  DIFFERS {}: baseline {} -> current {}",
            d.path,
            text(&d.baseline),
            text(&d.current)
        );
    }
    i32::from(report.regressed())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal synthetic manifest with the structural sections fixed.
    fn manifest(counters: &[(&str, u64)]) -> Json {
        let mut c = Json::obj();
        for (name, v) in counters {
            c.set(name, *v);
        }
        Json::obj()
            .with("experiment", "t")
            .with("scale", Json::obj().with("quick", true))
            .with("config", Json::obj().with("w_dist", 0.5))
            .with(
                "datasets",
                Json::Arr(vec![Json::obj().with("name", "ml").with("seed", 1000u64)]),
            )
            .with("counters", c)
            .with(
                "phases",
                Json::obj().with("summarize", Json::obj().with("count", 8u64)),
            )
            .with("memory", Json::obj().with("allocator", "counting"))
            .with("status", "completed")
    }

    fn paths(r: &DiffReport) -> Vec<&str> {
        r.differences.iter().map(|d| d.path.as_str()).collect()
    }

    #[test]
    fn identical_manifests_pass_with_empty_lists() {
        let m = manifest(&[("core/steps", 40)]);
        let r = diff_manifests(&m, &m).expect("comparable");
        assert!(!r.regressed() && r.differences.is_empty(), "{r:?}");
        assert_eq!(r.checked, 4, "counter, phase count, allocator, status");
        // Byte-stability: same inputs, same report bytes.
        assert_eq!(
            r.to_json().sorted().pretty(),
            diff_manifests(&m, &m).unwrap().to_json().sorted().pretty()
        );
    }

    #[test]
    fn exact_counter_drift_is_a_regression_either_direction() {
        let base = manifest(&[("core/steps", 40)]);
        for drifted in [39u64, 41] {
            let r = diff_manifests(&base, &manifest(&[("core/steps", drifted)])).unwrap();
            let expected = Difference {
                path: "counters.core/steps".into(),
                baseline: Some(Json::UInt(40)),
                current: Some(Json::UInt(drifted)),
            };
            assert_eq!(r.differences, [expected]);
        }
    }

    #[test]
    fn a_leaf_on_one_side_only_is_a_difference() {
        // A counter that only fired in the current run, as a fault raising
        // run/stop/budget_exhausted from unregistered to N does.
        let base = manifest(&[]);
        let cur = manifest(&[("run/stop/budget_exhausted", 5)]);
        let r = diff_manifests(&base, &cur).unwrap();
        let entry = Json::obj()
            .with("path", "counters.run/stop/budget_exhausted")
            .with("current", 5u64);
        assert_eq!(
            r.to_json().get("differences"),
            Some(&Json::Arr(vec![entry]))
        );
        let r = diff_manifests(&cur, &base).unwrap();
        assert_eq!(
            (&r.differences[0].baseline, &r.differences[0].current),
            (&Some(Json::UInt(5)), &None)
        );
    }

    #[test]
    fn strings_bools_and_outcome_metadata_are_compared_too() {
        let mut cur = manifest(&[]);
        cur.set("memory", Json::obj().with("allocator", "system"));
        cur.set("attempts", 2u64).set("status", "degraded");
        cur.set("store", Json::obj().with("stopped", true));
        let r = diff_manifests(&manifest(&[]), &cur).unwrap();
        assert_eq!(
            paths(&r),
            ["attempts", "memory.allocator", "status", "store.stopped"]
        );
        // A float that moves in its last bit differs.
        let (mut a, mut b) = (manifest(&[]), manifest(&[]));
        a.set("rate", 0.5);
        b.set("rate", 0.5 + f64::EPSILON);
        assert_eq!(paths(&diff_manifests(&a, &b).unwrap()), ["rate"]);
    }

    #[test]
    fn structural_mismatch_is_an_input_error_not_a_regression() {
        let base = manifest(&[]);
        let mut other = manifest(&[]);
        other.set("config", Json::obj().with("w_dist", 0.9));
        let err = diff_manifests(&base, &other).unwrap_err();
        assert!(err.to_string().contains("config"), "{err}");
        let mut renamed = manifest(&[]);
        renamed.set("experiment", "other");
        assert!(diff_manifests(&base, &renamed).is_err());
    }

    #[test]
    fn timed_manifest_is_an_input_error() {
        let base = manifest(&[]);
        let mut timed = manifest(&[]);
        timed.set("wall_time_ms", 1234u64);
        for (b, c) in [(&base, &timed), (&timed, &base), (&timed, &timed)] {
            let err = diff_manifests(b, c).unwrap_err().to_string();
            assert!(
                err.contains("PROX_DETERMINISTIC=1") && err.contains("compare"),
                "{err}"
            );
        }
    }
}
