//! The PROX CLI: a terminal rendition of the web UI's three views
//! (selection → summarization → summary/provisioning, §7.2).
//!
//! Usage:
//!   prox demo                 — scripted walkthrough (non-interactive)
//!   prox summarize [flags]    — one-shot run with typed exit codes
//!   prox serve [flags]        — HTTP service (see `prox-serve`)
//!   prox bench diff <a> <b>   — manifest regression gate (see `prox-bench`)
//!   prox store <cmd> ...      — segment-store tools (see `prox-store`)
//!   prox                      — interactive shell
//!
//! One-shot flags: `--wdist <f>`, `--steps <n>`, `--tsize <n>`,
//! `--tdist <f>`, `--budget-ms <n>`, `--store <dir>`. Without `--store`
//! the run summarizes the demo MovieLens instance; with it, the whole
//! segment store at `<dir>` (built by `prox store build`), through the
//! pipeline `POST /summarize/store` runs. Exit codes classify failures:
//! 2 = invalid input (a corrupt store included), 3 = budget exhausted
//! before any work, 4 = internal error. A budget that trips *mid-run* is
//! not a failure — the best-so-far summary is printed and the exit code
//! is 0.
//!
//! Serve flags: `--addr <host:port>`, `--workers <n>`, `--queue <n>`,
//! `--cache <n>`, `--budget-ms <n>` (default wall-clock budget per
//! request), `--store <dir>` (attach a segment store; adds
//! `POST /summarize/store` and `GET /store/stats`), `--profile <path>`
//! (write folded-stack profile on exit). The server runs until
//! SIGINT/SIGTERM, then drains admitted connections and exits.
//!
//! Store tools: `prox store build --out <dir> [--users n] [--movies n]
//! [--unique n] [--logical n] [--seed n]` builds a synthetic
//! MovieLens-shaped store; `prox store stat <dir> [--sample n]` prints
//! its statistics (and optionally the first entries, decoded);
//! `prox store verify <dir>` runs the full offline checksum pass and
//! exits 2 on any corruption.
//!
//! Bench gate: `prox bench diff <baseline.json> <current.json>
//! [--out <path>]` compares two deterministic run manifests exactly,
//! writes `reports/regression.json`, and exits 1 when any leaf differs
//! (2 when the manifests are not comparable, or either is a timed run).
//!
//! Interactive commands:
//! ```text
//!   search <needle>           — select movies by title substring
//!   genre <genre> [year]      — select movies by genre and year
//!   all                       — select every movie
//!   params                    — show the current summarization parameters
//!   set wdist|steps|tsize|tdist <value>
//!   summarize                 — run Algorithm 1 on the selection
//!   expr | groups             — summary subviews
//!   back | forward            — step through the algorithm
//!   insights                  — ranked group-vs-complement trends
//!   cancel <name> [...]       — provision: evaluate with annotations false
//!   cancelattr <attr>=<value> — provision: cancel an attribute value
//!   stats                     — print the observability registry snapshot
//!   quit
//! ```
//!
//! Observability: `--trace <path>` (or `PROX_TRACE=<path>`) writes a JSONL
//! span trace; either also enables the counters/spans behind `stats`.
//!
//! Every stdout write goes through `out`. A reader that closes stdout
//! early (`prox store stat <dir> --sample 3 | head -5`) has what it
//! wanted: the subcommands that print a report stop and exit 0, and
//! `serve` drops its banner lines and keeps serving.

use std::fmt;
use std::io::{self, BufRead, Write};
use std::path::Path;

use prox_core::{ExecutionBudget, ProxError};
use prox_datasets::MovieLens;
use prox_serve::service::DEMO_DATASET;
use prox_system::evaluator::{evaluate_both, Assignment};
use prox_system::render;
use prox_system::selection::{select, Selected, Selection};
use prox_system::session::Session;
use prox_system::summarization::{summarize, summarize_selection, SummarizationRequest};

// Count this binary's heap through prox-obs so `prox stats`, `/metrics`,
// and `/metrics.json` report real live/peak/total allocation numbers.
#[global_allocator]
static ALLOC: prox_obs::CountingAlloc = prox_obs::CountingAlloc::system();

struct App {
    data: MovieLens,
    request: SummarizationRequest,
    selected: Option<Selected>,
    session: Option<Session>,
}

impl App {
    fn new() -> Self {
        App {
            data: MovieLens::generate(DEMO_DATASET),
            request: SummarizationRequest::default(),
            selected: None,
            session: None,
        }
    }

    fn select(&mut self, selection: Selection) -> String {
        let sel = select(&mut self.data, &selection, self.request.aggregation);
        let view = render::selection_view(&sel.provenance, &self.data.store);
        self.selected = Some(sel);
        self.session = None;
        view
    }

    fn summarize(&mut self) -> String {
        let Some(sel) = &self.selected else {
            return "select provenance first (try: all)".to_owned();
        };
        match summarize(&mut self.data, sel, self.request.clone()) {
            Ok(out) => {
                let steps = out.result.history.len();
                let session = Session::new(out);
                let view = render::expression_view(&session, &self.data.store);
                self.session = Some(session);
                format!("ran {steps} steps\n{view}")
            }
            Err(e) => format!("error: {e}"),
        }
    }

    fn provision(&mut self, assignment: Assignment) -> String {
        let Some(session) = &self.session else {
            return "summarize first".to_owned();
        };
        let original = &session.summarized().original;
        let summary = session.expression();
        let (orig, summ) = evaluate_both(original, summary, &assignment, &self.data.store);
        format!(
            "On the ORIGINAL provenance:\n{}\nOn the SUMMARY (approximate):\n{}",
            render::evaluation_view(&orig),
            render::evaluation_view(&summ),
        )
    }

    fn dispatch(&mut self, line: &str) -> Option<String> {
        let mut parts = line.split_whitespace();
        let cmd = parts.next()?;
        let rest: Vec<&str> = parts.collect();
        Some(match cmd {
            "search" => self.select(Selection::Search(rest.join(" "))),
            "genre" => {
                let genre = rest.first().map(|s| s.to_string());
                let year = rest.get(1).and_then(|s| s.parse().ok());
                self.select(Selection::GenreYear { genre, year })
            }
            "all" => self.select(Selection::All),
            "params" => render::summarization_view(&self.request),
            "set" => match (rest.first(), rest.get(1)) {
                (Some(&"wdist"), Some(v)) => {
                    self.request.w_dist = v.parse().unwrap_or(self.request.w_dist);
                    format!("wDist = {}", self.request.w_dist)
                }
                (Some(&"steps"), Some(v)) => {
                    self.request.steps = v.parse().unwrap_or(self.request.steps);
                    format!("steps = {}", self.request.steps)
                }
                (Some(&"tsize"), Some(v)) => {
                    self.request.target_size = v.parse().unwrap_or(self.request.target_size);
                    format!("TARGET-SIZE = {}", self.request.target_size)
                }
                (Some(&"tdist"), Some(v)) => {
                    self.request.target_dist = v.parse().unwrap_or(self.request.target_dist);
                    format!("TARGET-DIST = {}", self.request.target_dist)
                }
                _ => "usage: set wdist|steps|tsize|tdist <value>".to_owned(),
            },
            "summarize" => self.summarize(),
            "expr" => match &self.session {
                Some(s) => render::expression_view(s, &self.data.store),
                None => "summarize first".to_owned(),
            },
            "groups" => match &self.session {
                Some(s) => render::groups_view(&s.groups(&self.data.store)),
                None => "summarize first".to_owned(),
            },
            "back" => match &mut self.session {
                Some(s) => {
                    s.back();
                    render::expression_view(s, &self.data.store)
                }
                None => "summarize first".to_owned(),
            },
            "forward" => match &mut self.session {
                Some(s) => {
                    s.forward();
                    render::expression_view(s, &self.data.store)
                }
                None => "summarize first".to_owned(),
            },
            "insights" => match &self.session {
                Some(sess) => {
                    let ins = prox_system::insights(sess.summarized(), &self.data.store);
                    if ins.is_empty() {
                        "no group trends detected".to_owned()
                    } else {
                        ins.iter()
                            .take(10)
                            .map(|i| format!("  {}", i.statement))
                            .collect::<Vec<_>>()
                            .join("\n")
                    }
                }
                None => "summarize first".to_owned(),
            },
            "cancel" => self.provision(Assignment::FalseAnnotations(
                rest.iter().map(|s| s.to_string()).collect(),
            )),
            "cancelattr" => {
                let pairs: Vec<(String, String)> = rest
                    .iter()
                    .filter_map(|s| s.split_once('=').map(|(a, v)| (a.to_owned(), v.to_owned())))
                    .collect();
                self.provision(Assignment::FalseAttributes(pairs))
            }
            "stats" => {
                if prox_obs::enabled() {
                    format!(
                        "{}{}{}",
                        prox_obs::render_snapshot(),
                        render_store_stats(),
                        render_lint_stats()
                    )
                } else {
                    format!(
                        "observability is off — run with --trace <path> or PROX_TRACE=1\n{}{}",
                        render_store_stats(),
                        render_lint_stats()
                    )
                }
            }
            "help" => HELP.to_owned(),
            "quit" | "exit" => return None,
            other => format!("unknown command {other:?} — try `help`"),
        })
    }
}

const HELP: &str = "commands: search <s> | genre <g> [year] | all | params | \
set wdist|steps|tsize|tdist <v> | summarize | expr | groups | back | forward | \
cancel <names…> | cancelattr a=v | insights | stats | quit";

fn parse_flag<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, ProxError> {
    value
        .parse()
        .map_err(|_| ProxError::config(format!("invalid value for {flag}: {value:?}")))
}

/// Render the last `prox-lint --json` report (`reports/lint.json`), or
/// nothing when no report has been written — lint state is part of the
/// repo's health picture alongside the runtime counters.
fn render_lint_stats() -> String {
    let path = prox_bench::report::reports_dir().join("lint.json");
    let Ok(text) = std::fs::read_to_string(&path) else {
        return String::new();
    };
    let Ok(report) = prox_obs::Json::parse(&text) else {
        return format!("lint: unreadable report at {}\n", path.display());
    };
    let count = |key: &str| {
        report
            .get(key)
            .and_then(prox_obs::Json::as_u64)
            .unwrap_or(0)
    };
    let arr_len = |key: &str| match report.get(key) {
        Some(prox_obs::Json::Arr(items)) => items.len(),
        _ => 0,
    };
    let mut out = format!(
        "lint (reports/lint.json):\n  {:<40} {}\n  {:<40} {}\n  {:<40} {}\n  {:<40} {}\n",
        "violations",
        arr_len("violations"),
        "allowlisted",
        count("allowed"),
        "files scanned",
        count("files_scanned"),
        "determinism-sensitive files",
        arr_len("det_files")
    );
    if let Some(entries) = report.get("violations_by_rule").and_then(|v| v.entries()) {
        let nonzero: Vec<String> = entries
            .iter()
            .filter_map(|(rule, n)| {
                let n = n.as_u64().unwrap_or(0);
                (n > 0).then(|| format!("{rule}={n}"))
            })
            .collect();
        if !nonzero.is_empty() {
            out.push_str(&format!(
                "  {:<40} {}\n",
                "findings by rule (incl. allowlisted)",
                nonzero.join(" ")
            ));
        }
    }
    out
}

/// Render the store section of the last bench store run
/// (`reports/manifest_store.json`), or nothing when no store manifest
/// has been written. The live-server counterpart is `GET /store/stats`.
fn render_store_stats() -> String {
    let path = prox_bench::report::reports_dir().join("manifest_store.json");
    let Ok(text) = std::fs::read_to_string(&path) else {
        return String::new();
    };
    let Ok(manifest) = prox_obs::Json::parse(&text) else {
        return format!("store: unreadable manifest at {}\n", path.display());
    };
    let Some(store) = manifest.get("store") else {
        return String::new();
    };
    let u = |j: Option<&prox_obs::Json>, key: &str| {
        j.and_then(|v| v.get(key))
            .and_then(prox_obs::Json::as_u64)
            .unwrap_or(0)
    };
    let reader = store.get("reader");
    let cache = reader.and_then(|r| r.get("page_cache"));
    let dedup = reader
        .and_then(|r| r.get("dedup_ratio"))
        .and_then(|v| match v {
            prox_obs::Json::Float(f) => Some(*f),
            prox_obs::Json::UInt(n) => Some(*n as f64),
            _ => None,
        })
        .unwrap_or(0.0);
    let hits = u(cache, "hits");
    let misses = u(cache, "misses");
    let hit_rate = if hits + misses > 0 {
        hits as f64 / (hits + misses) as f64
    } else {
        0.0
    };
    format!(
        "store (reports/manifest_store.json):\n\
         \x20 {:<40} {}\n\
         \x20 {:<40} {}\n\
         \x20 {:<40} {}\n\
         \x20 {:<40} {dedup:.2}x\n\
         \x20 {:<40} {hit_rate:.4} ({hits}/{})\n\
         \x20 {:<40} {} / {} ceiling\n",
        "logical expressions",
        u(reader, "logical_expressions"),
        "unique frames",
        u(reader, "unique_frames"),
        "segments",
        u(reader, "segments"),
        "dedup ratio",
        "page-cache hit rate",
        hits + misses,
        "page-cache peak bytes",
        u(cache, "peak_bytes"),
        u(Some(store), "cache_ceiling_bytes"),
    )
}

/// `prox store build|stat|verify`: segment-store tools (see `prox-store`).
fn store_cmd(args: &[String]) -> Result<String, ProxError> {
    const USAGE: &str = "usage: prox store build --out <dir> [--users n] [--movies n] \
                         [--unique n] [--logical n] [--seed n] | \
                         prox store stat <dir> [--sample n] | \
                         prox store verify <dir>";
    let sub = args
        .first()
        .ok_or_else(|| ProxError::config(USAGE))?
        .as_str();
    match sub {
        "build" => {
            let mut spec = prox_store::SynthSpec::quick(2016);
            let mut out: Option<String> = None;
            let mut ix = 1;
            while ix < args.len() {
                let flag = args[ix].as_str();
                let value = args
                    .get(ix + 1)
                    .ok_or_else(|| ProxError::config(format!("{flag} requires a value")))?;
                match flag {
                    "--out" => out = Some(value.clone()),
                    "--users" => spec.users = parse_flag(flag, value)?,
                    "--movies" => spec.movies = parse_flag(flag, value)?,
                    "--unique" => spec.unique_frames = parse_flag(flag, value)?,
                    "--logical" => spec.logical = parse_flag(flag, value)?,
                    "--seed" => spec.seed = parse_flag(flag, value)?,
                    other => {
                        return Err(ProxError::config(format!(
                            "unknown flag {other:?} — {USAGE}"
                        )))
                    }
                }
                ix += 2;
            }
            let out =
                out.ok_or_else(|| ProxError::config(format!("--out is required — {USAGE}")))?;
            let report = prox_store::build_synthetic(Path::new(&out), &spec)?;
            Ok(format!(
                "built {out}: {} logical expressions, {} unique frames \
                 ({:.2}x dedup), {} segments, {} payload bytes",
                report.summary.logical,
                report.summary.unique,
                report.summary.dedup_ratio(),
                report.summary.segments.len(),
                report.summary.payload_bytes,
            ))
        }
        "stat" => {
            let dir = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .ok_or_else(|| ProxError::config(format!("stat needs a <dir> — {USAGE}")))?;
            let mut sample = 0usize;
            let mut ix = 2;
            while ix < args.len() {
                match args[ix].as_str() {
                    "--sample" => {
                        let value = args
                            .get(ix + 1)
                            .ok_or_else(|| ProxError::config("--sample requires a value"))?;
                        sample = parse_flag("--sample", value)?;
                        ix += 2;
                    }
                    other => {
                        return Err(ProxError::config(format!(
                            "unknown flag {other:?} — {USAGE}"
                        )))
                    }
                }
            }
            let mut store = prox_store::SegmentStore::open(Path::new(dir))?;
            let mut out = String::new();
            if sample > 0 {
                // A step-capped scan decodes exactly the first `sample`
                // log records; budget polling makes the cap exact.
                let budget = prox_robust::ExecutionBudget::unlimited().with_max_steps(sample);
                let mut session = budget.start();
                let anns = store.overlay();
                let mut lines = Vec::new();
                store.scan(&mut session, &mut |object, tensor, n| {
                    lines.push(
                        prox_store::entry_to_json(&anns, object, &tensor, n)
                            .sorted()
                            .render(),
                    );
                    Ok(())
                })?;
                for line in lines {
                    out.push_str(&line);
                    out.push('\n');
                }
            }
            out.push_str(&store.stats_json().sorted().pretty());
            Ok(out)
        }
        "verify" => {
            let dir = args
                .get(1)
                .ok_or_else(|| ProxError::config(format!("verify needs a <dir> — {USAGE}")))?;
            let report = prox_store::verify_store(Path::new(dir))?;
            Ok(format!(
                "ok: {}\n{}",
                dir,
                report.to_json().sorted().pretty()
            ))
        }
        other => Err(ProxError::config(format!(
            "unknown store command {other:?} — {USAGE}"
        ))),
    }
}

/// `prox summarize [flags]`: one run, report on stdout, typed exit code.
fn one_shot_summarize(args: &[String]) -> Result<String, ProxError> {
    let mut request = SummarizationRequest::default();
    let mut store_dir: Option<String> = None;
    let mut ix = 0;
    while ix < args.len() {
        let flag = args[ix].as_str();
        let value = args
            .get(ix + 1)
            .ok_or_else(|| ProxError::config(format!("{flag} requires a value")))?;
        match flag {
            "--wdist" => request.w_dist = parse_flag(flag, value)?,
            "--steps" => request.steps = parse_flag(flag, value)?,
            "--tsize" => request.target_size = parse_flag(flag, value)?,
            "--tdist" => request.target_dist = parse_flag(flag, value)?,
            "--budget-ms" => {
                let ms: u64 = parse_flag(flag, value)?;
                request.budget = ExecutionBudget::unlimited().with_deadline_ms(ms);
            }
            "--store" => store_dir = Some(value.clone()),
            other => {
                return Err(ProxError::config(format!(
                    "unknown flag {other:?} — see `prox summarize` usage in --help"
                )))
            }
        }
        ix += 2;
    }

    let result = match store_dir {
        Some(dir) => {
            // The whole store, folded under the request budget and
            // summarized as `POST /summarize/store` summarizes its fold.
            let mut store = prox_store::SegmentStore::open(Path::new(&dir))?;
            let (selection, outcome) = store.collect(&mut request.budget.start())?;
            let mut anns = store.overlay();
            let mut result = summarize_selection(&selection, &mut anns, request.config())?;
            // A fold the budget cut short summarized part of the store:
            // the stop line says so, as it does for a mid-run trip.
            if let Some(stop) = outcome.stopped {
                result.stop_reason = stop.into();
            }
            result
        }
        None => {
            let mut data = MovieLens::generate(DEMO_DATASET);
            let sel = select(&mut data, &Selection::All, request.aggregation);
            summarize(&mut data, &sel, request)?.result
        }
    };
    Ok(format!(
        "steps: {}\nsize: {} -> {}\ndistance: {:.4}\nstop: {:?}",
        result.history.len(),
        result.initial_size,
        result.final_size(),
        result.final_distance,
        result.stop_reason,
    ))
}

/// `prox serve [flags]`: run the HTTP service until SIGINT/SIGTERM.
fn serve(args: &[String]) -> Result<(), ProxError> {
    let mut config = prox_serve::ServerConfig::default();
    let mut profile: Option<String> = None;
    let mut ix = 0;
    while ix < args.len() {
        let flag = args[ix].as_str();
        let value = args
            .get(ix + 1)
            .ok_or_else(|| ProxError::config(format!("{flag} requires a value")))?;
        match flag {
            "--addr" => config.addr = value.clone(),
            "--workers" => config.workers = parse_flag(flag, value)?,
            "--queue" => config.queue_capacity = parse_flag(flag, value)?,
            "--cache" => config.cache_capacity = parse_flag(flag, value)?,
            "--budget-ms" => config.default_budget_ms = parse_flag(flag, value)?,
            "--trace-seed" => config.trace_seed = parse_flag(flag, value)?,
            "--sample-rate" => config.trace_sample_rate = parse_flag(flag, value)?,
            "--trace-ring" => config.trace_capacity = parse_flag(flag, value)?,
            "--tenant-rate" => config.tenant_rate = parse_flag(flag, value)?,
            "--tenant-burst" => config.tenant_burst = parse_flag(flag, value)?,
            "--store" => config.store_dir = Some(value.clone()),
            "--profile" => profile = Some(value.clone()),
            other => {
                return Err(ProxError::config(format!(
                    "unknown flag {other:?} — usage: prox serve [--addr host:port] \
                     [--workers n] [--queue n] [--cache n] [--budget-ms n] \
                     [--trace-seed n] [--sample-rate f] [--trace-ring n] \
                     [--tenant-rate f] [--tenant-burst f] [--store dir] \
                     [--profile path]"
                )))
            }
        }
        ix += 2;
    }
    // `/metrics` and the cache hit/miss counters live in the prox-obs
    // registry; a server without them would be flying blind.
    prox_obs::set_enabled(true);
    if let Some(path) = &profile {
        // Worker span stacks fold into flamegraph input, written on
        // shutdown. Boundary mode keeps deterministic runs reproducible.
        if prox_obs::deterministic_mode() {
            prox_obs::prof::enable_boundary();
        } else {
            prox_obs::prof::enable_interval(std::time::Duration::from_millis(1));
        }
        banner(format_args!(
            "profiling to {path} (folded stacks, written on shutdown)"
        ));
    }
    prox_serve::install_signal_handlers();
    let has_store = config.store_dir.is_some();
    let handle = prox_serve::Server::start(config)?;
    banner(format_args!(
        "prox-serve listening on http://{}",
        handle.addr()
    ));
    banner(
        "endpoints: POST /summarize | POST /provision | GET /datasets | \
         GET /healthz | GET /metrics | GET /metrics.json | GET /debug/traces[/<id>]",
    );
    if has_store {
        banner("store endpoints: POST /summarize/store | GET /store/stats");
    }
    let shutdown = handle.shutdown_flag();
    while !prox_serve::signalled() && !shutdown.is_cancelled() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    banner("shutting down: draining admitted connections");
    handle.shutdown();
    if let Some(path) = &profile {
        prox_obs::prof::disable();
        match prox_obs::prof::write_folded(path) {
            Ok(()) => banner(format_args!("profile (folded stacks) written to {path}")),
            Err(e) => eprintln!("cannot write profile {path}: {e}"),
        }
    }
    Ok(())
}

/// `prox bench diff <baseline> <current> [--out <path>]`: the manifest
/// regression gate. Exits 0 (equal), 1 (differs), or 2 (input error).
fn bench_diff(args: &[String]) -> i32 {
    let mut out: Option<String> = None;
    let mut positional: Vec<&str> = Vec::new();
    let mut ix = 0;
    while ix < args.len() {
        if args[ix] == "--out" {
            let Some(value) = args.get(ix + 1) else {
                eprintln!("--out requires a path");
                return 2;
            };
            out = Some(value.clone());
            ix += 2;
        } else {
            positional.push(args[ix].as_str());
            ix += 1;
        }
    }
    let [baseline, current] = positional[..] else {
        eprintln!("usage: prox bench diff <baseline.json> <current.json> [--out <path>]");
        return 2;
    };
    let out = out.unwrap_or_else(|| {
        prox_bench::report::reports_dir()
            .join("regression.json")
            .to_string_lossy()
            .into_owned()
    });
    prox_bench::diff::run_diff(baseline, current, &out)
}

/// Write `text` to stdout and flush: the CLI's one stdout writer.
/// Unlike `print!`, which panics when the reader has gone, it hands a
/// failed write back to the caller.
fn out(text: fmt::Arguments<'_>) -> io::Result<()> {
    let mut stdout = io::stdout().lock();
    stdout.write_fmt(text)?;
    stdout.flush()
}

/// [`out`] one line.
fn say(text: impl fmt::Display) -> io::Result<()> {
    out(format_args!("{text}\n"))
}

/// A `serve` status line. The server's work is its socket, not its
/// stdout: a line that cannot be written is dropped.
fn banner(text: impl fmt::Display) {
    let _ = say(text);
}

/// End the run if writing its output failed. A reader that closed stdout
/// early has what it wanted, so a broken pipe exits 0 without a word;
/// any other failed write is an I/O error and exits with its code.
fn exit_if_unwritten(written: io::Result<()>) {
    let Err(e) = written else { return };
    prox_obs::flush_sink();
    if e.kind() == io::ErrorKind::BrokenPipe {
        std::process::exit(0);
    }
    let e = ProxError::io("write to stdout", &e);
    eprintln!("error: {e}");
    std::process::exit(e.kind().exit_code());
}

fn demo() -> io::Result<()> {
    let mut app = App::new();
    let script = [
        "all",
        "params",
        "set wdist 0.7",
        "set steps 8",
        "summarize",
        "groups",
        "back",
        "forward",
        "cancelattr gender=M",
        "insights",
        "stats",
    ];
    for cmd in script {
        say(format_args!("prox> {cmd}"))?;
        match app.dispatch(cmd) {
            Some(out) => say(out)?,
            None => break,
        }
    }
    Ok(())
}

/// The interactive shell, until `quit` or the end of stdin.
fn shell() -> io::Result<()> {
    say("PROX — approximated summarization of data provenance")?;
    say(HELP)?;
    let stdin = io::stdin();
    let mut app = App::new();
    loop {
        out(format_args!("prox> "))?;
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match app.dispatch(line) {
            Some(out) => say(out)?,
            None => break,
        }
    }
    Ok(())
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--trace <path>` anywhere on the command line; PROX_TRACE also works.
    if let Some(ix) = args.iter().position(|a| a == "--trace") {
        if ix + 1 >= args.len() {
            eprintln!("--trace requires a path");
            std::process::exit(2);
        }
        let path = args.remove(ix + 1);
        args.remove(ix);
        if let Err(e) = prox_obs::install_sink(&path) {
            eprintln!("cannot open trace file {path}: {e}");
            std::process::exit(2);
        }
    }
    prox_obs::init_from_env();
    prox_robust::fault::init_from_env();

    if args.first().map(String::as_str) == Some("demo") {
        exit_if_unwritten(demo());
        prox_obs::flush_sink();
        return;
    }
    if args.first().map(String::as_str) == Some("bench") {
        match args.get(1).map(String::as_str) {
            Some("diff") => std::process::exit(bench_diff(&args[2..])),
            _ => {
                eprintln!("usage: prox bench diff <baseline.json> <current.json> [--out <path>]");
                std::process::exit(2);
            }
        }
    }
    if args.first().map(String::as_str) == Some("store") {
        match store_cmd(&args[1..]) {
            Ok(report) => {
                exit_if_unwritten(say(report));
                prox_obs::flush_sink();
            }
            Err(e) => {
                eprintln!("error: {e}");
                prox_obs::flush_sink();
                std::process::exit(e.kind().exit_code());
            }
        }
        return;
    }
    if args.first().map(String::as_str) == Some("serve") {
        match serve(&args[1..]) {
            Ok(()) => prox_obs::flush_sink(),
            Err(e) => {
                eprintln!("error: {e}");
                prox_obs::flush_sink();
                std::process::exit(e.kind().exit_code());
            }
        }
        return;
    }
    if args.first().map(String::as_str) == Some("summarize") {
        match one_shot_summarize(&args[1..]) {
            Ok(report) => {
                exit_if_unwritten(say(report));
                prox_obs::flush_sink();
            }
            Err(e) => {
                eprintln!("error: {e}");
                prox_obs::flush_sink();
                std::process::exit(e.kind().exit_code());
            }
        }
        return;
    }
    exit_if_unwritten(shell());
    prox_obs::flush_sink();
}
