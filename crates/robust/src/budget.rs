//! Execution budgets: bounded work with an anytime best-so-far contract.
//!
//! An [`ExecutionBudget`] bundles the four limits the summarization loops
//! honor — a wall-clock deadline, a step ceiling, a cap on how many
//! valuations the distance memo may hold, and a cooperative cancel flag.
//! [`ExecutionBudget::start`] freezes it into a [`BudgetSession`] whose
//! `check`/`note_step` calls report exhaustion as a [`BudgetStop`].
//!
//! The contract every consumer follows: exhaustion *mid-run* is not an
//! error — the loop breaks and returns the best summary committed so far,
//! with the stop recorded in the result's `StopReason`. Only exhaustion
//! *before any work* (the very first check) surfaces as
//! `ProxError::Budget`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use prox_obs::{Counter, SpanGuard, SpanTimer, TraceContext};

use crate::fault;

static DEADLINE_TRIPS: Counter = Counter::new("budget/deadline_exceeded");
static STEP_TRIPS: Counter = Counter::new("budget/steps_exhausted");
static CANCEL_TRIPS: Counter = Counter::new("budget/cancelled");
static INJECTED_TRIPS: Counter = Counter::new("budget/injected");
static MEMO_CAPPED: Counter = Counter::new("budget/memo_capped");

/// Steps of [`BudgetSession::note_fine_step`] per clock read. A store
/// fold's log record costs about 0.2 µs and a clock read about 45 ns, so
/// reading it on every record cost a read a fifth of its fold; at this
/// stride a deadline is noticed within about 15 µs of records.
pub const CLOCK_STRIDE: usize = 64;

/// Why a budget session stopped the computation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BudgetStop {
    /// The wall-clock deadline passed.
    Deadline,
    /// The budget's own step ceiling was reached (distinct from the
    /// algorithm's `max_steps` stopping rule).
    Steps,
    /// The cooperative cancel flag was raised.
    Cancelled,
    /// The fault-injection harness tripped the budget (`PROX_FAULT=budget@N:seed`).
    Injected,
}

impl std::fmt::Display for BudgetStop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BudgetStop::Deadline => "wall-clock deadline exceeded",
            BudgetStop::Steps => "step budget exhausted",
            BudgetStop::Cancelled => "cancelled by caller",
            BudgetStop::Injected => "budget exhaustion injected by fault harness",
        };
        f.write_str(s)
    }
}

/// A shared, thread-safe cancel flag for cooperative cancellation.
///
/// Clone it, hand one copy to the summarizer via
/// [`ExecutionBudget::with_cancel`], keep the other, and call
/// [`CancelFlag::cancel`] from anywhere (another thread, a signal handler's
/// deferred path, a UI). The running loop notices at its next budget check.
#[derive(Clone, Debug, Default)]
pub struct CancelFlag(Arc<AtomicBool>);

impl CancelFlag {
    /// A fresh, un-raised flag.
    pub fn new() -> Self {
        CancelFlag::default()
    }

    /// Raise the flag.
    ///
    /// Relaxed ordering suffices (L7): the flag is advisory and carries
    /// no data — it only ever flips false→true, the polling loop acts on
    /// it by *stopping* (never by reading shared state the canceller
    /// wrote), and a late observation just means one more budget-bounded
    /// step.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Has the flag been raised?
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Limits on a single summarization (or clustering) run.
///
/// The default budget is unlimited; every limit is opt-in.
#[derive(Clone, Debug, Default)]
pub struct ExecutionBudget {
    /// Relative wall-clock limit, applied from [`ExecutionBudget::start`].
    pub max_millis: Option<u64>,
    /// Absolute deadline; combined with `max_millis` by taking the minimum.
    pub deadline: Option<Instant>,
    /// Ceiling on committed merge steps.
    pub max_steps: Option<usize>,
    /// Cap on how many valuations the distance memo may hold. Exceeding it
    /// silently degrades (the class is truncated), it does not stop the run.
    pub max_memo_entries: Option<usize>,
    /// Cooperative cancel flag.
    pub cancel: Option<CancelFlag>,
    /// Request-scoped trace context. Rides along so the serve request
    /// path reaches the summarizer, HAC, and candidate enumeration with
    /// no extra parameter threading. Not a limit: it does not affect
    /// [`ExecutionBudget::is_unlimited`] or the session fast path.
    pub trace: Option<TraceContext>,
}

impl ExecutionBudget {
    /// The unlimited budget.
    pub fn unlimited() -> Self {
        ExecutionBudget::default()
    }

    /// Limit wall-clock time, measured from the moment the run starts.
    pub fn with_deadline_ms(mut self, millis: u64) -> Self {
        self.max_millis = Some(millis);
        self
    }

    /// Impose an absolute deadline; tightens (never loosens) an existing one.
    pub fn with_deadline_at(mut self, at: Instant) -> Self {
        self.deadline = Some(self.deadline.map_or(at, |d| d.min(at)));
        self
    }

    /// Limit the number of committed merge steps.
    pub fn with_max_steps(mut self, steps: usize) -> Self {
        self.max_steps = Some(steps);
        self
    }

    /// Cap the distance memo (number of valuations evaluated per distance).
    pub fn with_memo_cap(mut self, entries: usize) -> Self {
        self.max_memo_entries = Some(entries);
        self
    }

    /// Attach a cooperative cancel flag.
    pub fn with_cancel(mut self, flag: CancelFlag) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// Attach a request-scoped trace context (see [`TraceContext`]).
    pub fn with_trace(mut self, trace: TraceContext) -> Self {
        self.trace = Some(trace);
        self
    }

    /// True when no limit is set (the common case; sessions short-circuit).
    /// The trace context is *not* a limit: a traced-but-unlimited budget
    /// still takes the session fast path.
    pub fn is_unlimited(&self) -> bool {
        self.max_millis.is_none()
            && self.deadline.is_none()
            && self.max_steps.is_none()
            && self.max_memo_entries.is_none()
            && self.cancel.is_none()
    }

    /// Freeze the budget into a running session. The relative `max_millis`
    /// clock starts now.
    pub fn start(&self) -> BudgetSession {
        let relative = self
            .max_millis
            .map(|ms| Instant::now() + Duration::from_millis(ms));
        let deadline = match (self.deadline, relative) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let trip_at = fault::budget_trip_after();
        BudgetSession {
            limited: !self.is_unlimited() || trip_at.is_some(),
            deadline,
            max_steps: self.max_steps,
            memo_entries: self.max_memo_entries,
            cancel: self.cancel.clone(),
            trace: self.trace.clone(),
            trip_at,
            steps: 0,
            checks: 0,
            tripped: None,
        }
    }
}

/// A running budget: tracks elapsed steps/checks and reports exhaustion.
///
/// Once a session trips it stays tripped — every later `check` returns the
/// same [`BudgetStop`], so loops may poll freely without double-counting.
#[derive(Debug)]
pub struct BudgetSession {
    limited: bool,
    deadline: Option<Instant>,
    max_steps: Option<usize>,
    memo_entries: Option<usize>,
    cancel: Option<CancelFlag>,
    trace: Option<TraceContext>,
    /// Fault harness: trip with `Injected` after this many checks.
    trip_at: Option<u64>,
    steps: usize,
    checks: u64,
    tripped: Option<BudgetStop>,
}

impl BudgetSession {
    /// Poll the budget. Cheap when the budget is unlimited.
    pub fn check(&mut self) -> Result<(), BudgetStop> {
        self.poll(true)
    }

    /// Poll every limit, the deadline only when `read_clock`.
    fn poll(&mut self, read_clock: bool) -> Result<(), BudgetStop> {
        if let Some(stop) = self.tripped {
            return Err(stop);
        }
        if !self.limited {
            return Ok(());
        }
        self.checks += 1;
        if let Some(at) = self.trip_at {
            if self.checks > at {
                return Err(self.trip(BudgetStop::Injected));
            }
        }
        if let Some(flag) = &self.cancel {
            if flag.is_cancelled() {
                return Err(self.trip(BudgetStop::Cancelled));
            }
        }
        if let (true, Some(deadline)) = (read_clock, self.deadline) {
            if Instant::now() >= deadline {
                return Err(self.trip(BudgetStop::Deadline));
            }
        }
        Ok(())
    }

    /// Record one committed-step attempt, then poll. Call at the top of
    /// each merge-loop iteration.
    pub fn note_step(&mut self) -> Result<(), BudgetStop> {
        self.count_step()?;
        self.check()
    }

    /// [`BudgetSession::note_step`] for loops whose steps cost less than a
    /// clock read: the deadline is read on this session's first step and
    /// then on every [`CLOCK_STRIDE`]th, so a passed deadline stops the
    /// loop at most `CLOCK_STRIDE - 1` steps late. The step cap, the
    /// cancel flag and an injected `PROX_FAULT=budget@N` trip still act
    /// on the exact step.
    pub fn note_fine_step(&mut self) -> Result<(), BudgetStop> {
        self.count_step()?;
        let read_clock = (self.steps - 1).is_multiple_of(CLOCK_STRIDE);
        self.poll(read_clock)
    }

    fn count_step(&mut self) -> Result<(), BudgetStop> {
        self.steps += 1;
        if let Some(max) = self.max_steps {
            if self.steps > max {
                return Err(self.trip(BudgetStop::Steps));
            }
        }
        Ok(())
    }

    /// How many valuations the distance memo may hold, given `available`.
    /// Capping is silent degradation, not a stop.
    pub fn memo_cap(&self, available: usize) -> usize {
        match self.memo_entries {
            Some(cap) if cap < available => {
                MEMO_CAPPED.incr();
                cap
            }
            _ => available,
        }
    }

    /// Steps recorded so far via [`BudgetSession::note_step`].
    pub fn steps_taken(&self) -> usize {
        self.steps
    }

    /// The request-scoped trace riding on this session, if any.
    pub fn trace(&self) -> Option<&TraceContext> {
        self.trace.as_ref()
    }

    /// Enter the phase `timer` times, under this session's trace context
    /// when the request is traced (see [`SpanTimer::enter`]). Instrumented
    /// phases hold the guard for the phase's extent:
    ///
    /// ```ignore
    /// let _phase = session.span(&SPAN_ENUMERATE);
    /// ```
    pub fn span(&self, timer: &'static SpanTimer) -> SpanGuard {
        timer.enter(self.trace.as_ref())
    }

    /// Attach an attribute to the trace's innermost open span (no-op when
    /// untraced).
    pub fn trace_note(&self, key: &str, value: impl Into<prox_obs::Json>) {
        if let Some(trace) = &self.trace {
            trace.note(key, value);
        }
    }

    /// The stop this session tripped on, if any.
    pub fn stopped(&self) -> Option<BudgetStop> {
        self.tripped
    }

    fn trip(&mut self, stop: BudgetStop) -> BudgetStop {
        match stop {
            BudgetStop::Deadline => DEADLINE_TRIPS.incr(),
            BudgetStop::Steps => STEP_TRIPS.incr(),
            BudgetStop::Cancelled => CANCEL_TRIPS.incr(),
            BudgetStop::Injected => INJECTED_TRIPS.incr(),
        }
        self.tripped = Some(stop);
        stop
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let mut s = ExecutionBudget::unlimited().start();
        for _ in 0..10_000 {
            assert!(s.check().is_ok());
            assert!(s.note_step().is_ok());
        }
    }

    #[test]
    fn expired_deadline_trips_immediately_and_stays_tripped() {
        let budget = ExecutionBudget::unlimited().with_deadline_at(Instant::now());
        let mut s = budget.start();
        assert_eq!(s.check(), Err(BudgetStop::Deadline));
        assert_eq!(s.check(), Err(BudgetStop::Deadline));
        assert_eq!(s.stopped(), Some(BudgetStop::Deadline));
    }

    #[test]
    fn deadline_at_tightens_not_loosens() {
        let near = Instant::now();
        let far = near + Duration::from_secs(3600);
        let b = ExecutionBudget::unlimited()
            .with_deadline_at(far)
            .with_deadline_at(near);
        assert_eq!(b.deadline, Some(near));
        let b2 = ExecutionBudget::unlimited()
            .with_deadline_at(near)
            .with_deadline_at(far);
        assert_eq!(b2.deadline, Some(near));
    }

    #[test]
    fn step_budget_allows_exactly_max_steps() {
        let mut s = ExecutionBudget::unlimited().with_max_steps(3).start();
        assert!(s.note_step().is_ok());
        assert!(s.note_step().is_ok());
        assert!(s.note_step().is_ok());
        assert_eq!(s.note_step(), Err(BudgetStop::Steps));
        assert_eq!(s.steps_taken(), 4);
    }

    #[test]
    fn fine_steps_read_the_clock_first_and_then_every_stride() {
        let passed = ExecutionBudget::unlimited().with_deadline_at(Instant::now());
        let mut s = passed.start();
        assert_eq!(s.note_fine_step(), Err(BudgetStop::Deadline));
        assert_eq!(s.steps_taken(), 1, "a passed deadline stops the first step");

        let mut s = ExecutionBudget::unlimited().with_deadline_ms(100).start();
        let _ = s.note_fine_step();
        std::thread::sleep(Duration::from_millis(150));
        let mut late = 0;
        while s.note_fine_step().is_ok() {
            late += 1;
        }
        assert_eq!(s.stopped(), Some(BudgetStop::Deadline));
        assert!(late < CLOCK_STRIDE, "{late} steps past the deadline");
    }

    #[test]
    fn fine_steps_keep_the_step_cap_and_cancel_flag_exact() {
        let mut s = ExecutionBudget::unlimited().with_max_steps(70).start();
        for _ in 0..70 {
            assert!(s.note_fine_step().is_ok());
        }
        assert_eq!(s.note_fine_step(), Err(BudgetStop::Steps));

        let flag = CancelFlag::new();
        let mut s = ExecutionBudget::unlimited()
            .with_cancel(flag.clone())
            .with_deadline_ms(60_000)
            .start();
        for _ in 0..3 {
            assert!(s.note_fine_step().is_ok());
        }
        flag.cancel();
        assert_eq!(s.note_fine_step(), Err(BudgetStop::Cancelled));
        assert_eq!(s.steps_taken(), 4);
    }

    #[test]
    fn cancel_flag_is_noticed_at_next_check() {
        let flag = CancelFlag::new();
        let mut s = ExecutionBudget::unlimited()
            .with_cancel(flag.clone())
            .start();
        assert!(s.check().is_ok());
        flag.cancel();
        assert_eq!(s.check(), Err(BudgetStop::Cancelled));
    }

    #[test]
    fn memo_cap_truncates_silently() {
        let s = ExecutionBudget::unlimited().with_memo_cap(5).start();
        assert_eq!(s.memo_cap(100), 5);
        assert_eq!(s.memo_cap(3), 3);
        let unlimited = ExecutionBudget::unlimited().start();
        assert_eq!(unlimited.memo_cap(100), 100);
    }

    static SPAN_ENUMERATE: SpanTimer = SpanTimer::new("budget_test/enumerate");

    #[test]
    fn trace_rides_the_session_without_becoming_a_limit() {
        let trace = TraceContext::new(0xabcd);
        let budget = ExecutionBudget::unlimited().with_trace(trace.clone());
        assert!(budget.is_unlimited(), "trace must not count as a limit");
        let mut s = budget.start();
        assert!(s.check().is_ok());
        {
            let _phase = s.span(&SPAN_ENUMERATE);
            s.trace_note("candidates", 3u64);
        }
        assert_eq!(
            s.trace().map(TraceContext::trace_id),
            Some(trace.trace_id())
        );
        let tree = trace.to_json().render();
        assert!(tree.contains("\"enumerate\""), "{tree}");
        assert!(
            !tree.contains("budget_test/"),
            "trace node takes the last segment: {tree}"
        );
        assert!(tree.contains("candidates"), "{tree}");
        let untraced = ExecutionBudget::unlimited().start();
        untraced.span(&SPAN_ENUMERATE).finish();
        assert_eq!(trace.to_json().render(), tree, "untraced span stays out");
    }

    #[test]
    fn relative_deadline_holds_for_a_while() {
        let mut s = ExecutionBudget::unlimited()
            .with_deadline_ms(60_000)
            .start();
        assert!(s.check().is_ok());
    }
}
