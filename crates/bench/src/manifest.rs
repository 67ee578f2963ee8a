//! Run manifests: one JSON file per experiment under `reports/` capturing
//! what ran (base config, dataset generator seeds, scale), how runs ended
//! (stop-reason counters), and what they cost (per-phase span durations
//! plus the full counter snapshot).
//!
//! The experiments binary resets the observability registry before each
//! experiment and writes `manifest_<experiment>.json` after it, so every
//! manifest's counters cover exactly one experiment. A counter or span
//! registers on first use and the reset only zeroes it, so the manifest
//! omits every counter, stop reason and phase still at zero: it lists what
//! its experiment touched, whatever ran earlier in the process.

use std::fs;
use std::io;
use std::path::PathBuf;
use std::time::Duration;

use prox_core::SummarizeConfig;
use prox_obs::Json;

use crate::report::reports_dir;
use crate::workload::Workload;
use crate::Scale;

/// Builder for one experiment's manifest. Metadata (datasets, config) is
/// pushed in while the experiment runs; [`RunManifest::write`] folds in the
/// observability snapshot at that moment and writes the file.
pub struct RunManifest {
    experiment: String,
    scale: Json,
    datasets: Vec<Json>,
    config: Json,
    wall_time_ms: Option<u64>,
    status: Option<String>,
    attempts: Option<u32>,
    timeout_ms: Option<u64>,
    deterministic: bool,
    extra: Vec<(String, Json)>,
}

impl RunManifest {
    /// Start a manifest for `experiment` at `scale`. The config defaults to
    /// [`SummarizeConfig::default`], the base every sweep perturbs.
    pub fn new(experiment: &str, scale: Scale) -> Self {
        RunManifest {
            experiment: experiment.to_owned(),
            scale: Json::obj()
                .with("instances", scale.instances)
                .with("random_seeds", scale.random_seeds)
                .with("quick", scale.quick),
            datasets: Vec::new(),
            config: config_json(&SummarizeConfig::default()),
            wall_time_ms: None,
            status: None,
            attempts: None,
            timeout_ms: None,
            deterministic: deterministic_from_env(),
            extra: Vec::new(),
        }
    }

    /// Switch deterministic mode on or off explicitly (the default follows
    /// the `PROX_DETERMINISTIC` environment variable). In deterministic
    /// mode the manifest omits wall-clock measurements — `wall_time_ms`
    /// and the per-phase timing statistics (only `count` is kept) — so two
    /// same-seed runs write byte-identical files (rule L2).
    pub fn set_deterministic(&mut self, on: bool) {
        self.deterministic = on;
    }

    /// Whether the manifest is in deterministic mode (the default follows
    /// `PROX_DETERMINISTIC`; see [`RunManifest::set_deterministic`]).
    pub fn deterministic(&self) -> bool {
        self.deterministic
    }

    /// Attach an experiment-specific top-level section under `key`
    /// (e.g. the `chaos` soak report). Use keys that don't collide with
    /// the builder's own sections (`counters`, `phases`, ...).
    pub fn extra(&mut self, key: &str, value: Json) {
        self.extra.push((key.to_owned(), value));
    }

    /// Record the workloads (dataset name + generator seed) the experiment
    /// ran over.
    pub fn datasets<E>(&mut self, workloads: &[Workload<E>]) {
        for w in workloads {
            self.datasets
                .push(Json::obj().with("name", w.name).with("seed", w.seed));
        }
    }

    /// Override the recorded base config (for experiments whose base is not
    /// the default).
    pub fn config(&mut self, config: &SummarizeConfig) {
        self.config = config_json(config);
    }

    /// Record the experiment's wall-clock time.
    pub fn wall_time(&mut self, elapsed: Duration) {
        self.wall_time_ms = Some(elapsed.as_millis() as u64);
    }

    /// Record how the experiment ended: `status` is `completed` (all runs
    /// finished normally), `degraded` (runs were cut short by the
    /// per-experiment timeout or an injected budget), or `skipped` (the
    /// experiment panicked on every attempt); `attempts` counts executions
    /// including retries; `timeout_ms` is the per-experiment deadline that
    /// was in force, if any.
    pub fn outcome(&mut self, status: &str, attempts: u32, timeout_ms: Option<u64>) {
        self.status = Some(status.to_owned());
        self.attempts = Some(attempts);
        self.timeout_ms = timeout_ms;
    }

    /// Assemble the manifest, folding in the current observability
    /// snapshot: `stop_reasons` (the `run/stop/*` counters), `phases`
    /// (span durations), and the `counters` object, each without the
    /// entries that are zero since the last reset.
    pub fn to_json(&self) -> Json {
        let snapshot = prox_obs::snapshot();
        let mut stop_reasons = Json::obj();
        let mut counters = Json::obj();
        if let Some(entries) = snapshot.get("counters").and_then(Json::entries) {
            for (name, value) in entries.iter().filter(|(_, v)| v.as_u64() != Some(0)) {
                counters.set(name, value.clone());
                if let Some(reason) = name.strip_prefix("run/stop/") {
                    stop_reasons.set(reason, value.clone());
                }
            }
        }
        // Per-phase durations: the span histograms minus their buckets.
        // Deterministic mode keeps only the call counts — durations and
        // allocation deltas are measurements that differ between
        // same-seed runs (rule L2).
        let timing_keys: &[&str] = if self.deterministic {
            &["count"]
        } else {
            &[
                "count",
                "total_ns",
                "mean_ns",
                "min_ns",
                "max_ns",
                "alloc_bytes",
                "allocs",
            ]
        };
        let mut phases = Json::obj();
        if let Some(entries) = snapshot.get("spans").and_then(Json::entries) {
            let entered = entries
                .iter()
                .filter(|(_, span)| span.get("count").and_then(Json::as_u64) != Some(0));
            for (name, span) in entered {
                let mut phase = Json::obj();
                for key in timing_keys {
                    if let Some(v) = span.get(key) {
                        phase.set(key, v.clone());
                    }
                }
                phases.set(name, phase);
            }
        }
        let mut manifest = Json::obj()
            .with("experiment", self.experiment.as_str())
            .with("scale", self.scale.clone())
            .with("config", self.config.clone())
            .with("datasets", Json::Arr(self.datasets.clone()));
        for (key, value) in &self.extra {
            manifest.set(key, value.clone());
        }
        if let Some(ms) = self.wall_time_ms {
            if !self.deterministic {
                manifest.set("wall_time_ms", ms);
            }
        }
        if let Some(status) = &self.status {
            manifest.set("status", status.as_str());
        }
        if let Some(attempts) = self.attempts {
            manifest.set("attempts", attempts);
        }
        if let Some(ms) = self.timeout_ms {
            manifest.set("timeout_ms", ms);
        }
        manifest
            .with("stop_reasons", stop_reasons)
            .with("phases", phases)
            .with("counters", counters)
            // Process-level allocator stats: peak/total bytes and event
            // count since the last registry reset (i.e. this experiment).
            // In deterministic mode only the stable `allocator` tag stays.
            .with("memory", prox_obs::alloc::memory_json(self.deterministic))
    }

    /// Write `manifest_<experiment>.json` (dots and dashes mapped to `_`)
    /// under [`reports_dir`]; returns the path written.
    pub fn write(&self) -> io::Result<PathBuf> {
        let dir = reports_dir();
        fs::create_dir_all(&dir)?;
        let stem = self.experiment.replace(['.', '-'], "_");
        let path = dir.join(format!("manifest_{stem}.json"));
        // Sorted keys: the on-disk form never depends on assembly order,
        // so same-seed runs diff clean byte for byte (rule L2).
        fs::write(&path, self.to_json().sorted().pretty())?;
        Ok(path)
    }
}

/// Whether `PROX_DETERMINISTIC` asks for reproducible manifests (any value
/// except `0` or empty counts as on).
fn deterministic_from_env() -> bool {
    std::env::var("PROX_DETERMINISTIC").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn config_json(c: &SummarizeConfig) -> Json {
    // Budget limits are opt-in; only the ones actually set are recorded
    // (absolute `deadline` instants are process-relative and omitted).
    let mut budget = Json::obj();
    if let Some(ms) = c.budget.max_millis {
        budget.set("max_millis", ms);
    }
    if let Some(steps) = c.budget.max_steps {
        budget.set("max_steps", steps);
    }
    if let Some(entries) = c.budget.max_memo_entries {
        budget.set("max_memo_entries", entries);
    }
    budget.set("cancellable", c.budget.cancel.is_some());
    Json::obj()
        .with("w_dist", c.w_dist)
        .with("w_size", c.w_size)
        .with("w_tax", c.w_tax)
        .with("target_size", c.target_size)
        .with("target_dist", c.target_dist)
        .with("max_steps", c.max_steps)
        .with("k", c.k)
        .with("score_mode", format!("{:?}", c.score_mode))
        .with("tie_break", format!("{:?}", c.tie_break))
        .with("val_func", format!("{:?}", c.val_func))
        .with("skip_group_equivalent", c.skip_group_equivalent)
        .with("budget", budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;
    use prox_cluster::Linkage;
    use prox_provenance::{AggKind, ValuationClass};

    #[test]
    fn manifest_records_datasets_config_and_snapshot_sections() {
        let ws = workload::movielens(
            2,
            ValuationClass::CancelSingleAttribute,
            AggKind::Max,
            Linkage::Single,
        );
        let mut m = RunManifest::new("9.9-test", Scale::quick());
        m.datasets(&ws);
        m.wall_time(Duration::from_millis(12));
        let j = m.to_json();
        assert_eq!(j.get("experiment").and_then(Json::as_str), Some("9.9-test"));
        let datasets = match j.get("datasets") {
            Some(Json::Arr(items)) => items,
            other => panic!("datasets not an array: {other:?}"),
        };
        assert_eq!(datasets.len(), 2);
        assert_eq!(
            datasets[0].get("seed").and_then(Json::as_u64),
            Some(1000),
            "movielens seeds start at 1000"
        );
        assert_eq!(j.get("wall_time_ms").and_then(Json::as_u64), Some(12));
        let config = j.get("config").expect("config present");
        assert!(config.get("w_dist").is_some());
        assert!(config.get("val_func").and_then(Json::as_str).is_some());
        for section in ["stop_reasons", "phases", "counters", "memory"] {
            assert!(j.get(section).is_some(), "missing {section}");
        }
        // This test binary does not install the counting allocator, so the
        // memory section must say so instead of reporting zeros as data.
        assert!(j
            .get("memory")
            .and_then(|m| m.get("allocator"))
            .and_then(Json::as_str)
            .is_some());
        // The whole manifest round-trips through the serializer.
        assert_eq!(Json::parse(&j.pretty()).unwrap(), j);
    }

    #[test]
    fn outcome_and_budget_appear_in_the_manifest() {
        let mut m = RunManifest::new("9.9-outcome", Scale::quick());
        m.outcome("degraded", 2, Some(120_000));
        let mut config = SummarizeConfig::default();
        config.budget = config.budget.with_deadline_ms(50).with_max_steps(7);
        m.config(&config);
        let j = m.to_json();
        assert_eq!(j.get("status").and_then(Json::as_str), Some("degraded"));
        assert_eq!(j.get("attempts").and_then(Json::as_u64), Some(2));
        assert_eq!(j.get("timeout_ms").and_then(Json::as_u64), Some(120_000));
        let budget = j
            .get("config")
            .and_then(|c| c.get("budget"))
            .expect("budget section");
        assert_eq!(budget.get("max_millis").and_then(Json::as_u64), Some(50));
        assert_eq!(budget.get("max_steps").and_then(Json::as_u64), Some(7));
        assert_eq!(budget.get("max_memo_entries"), None);
        assert!(budget.get("cancellable").is_some());
    }

    #[test]
    fn write_lands_under_reports_with_sanitized_name() {
        let m = RunManifest::new("9.9-wr.test", Scale::quick());
        let path = m.write().unwrap();
        assert!(path.ends_with("manifest_9_9_wr_test.json"));
        let body = fs::read_to_string(&path).unwrap();
        assert!(Json::parse(&body).is_ok());
        let _ = fs::remove_file(&path);
    }
}
