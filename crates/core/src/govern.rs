//! Execution governance: budgets, deadlines, cooperative cancellation,
//! panic isolation, and (feature-gated) deterministic fault injection.
//!
//! The querying functionalities of the paper are provably expensive in
//! the worst case — exact counting is SpanL-complete (§4.1), and even
//! plain RPQ evaluation is super-linear in the product size — so an
//! engine that serves untrusted queries must bound every evaluation.
//! This module provides the shared vocabulary:
//!
//! * [`Budget`] — declarative limits: wall-clock deadline, step budget,
//!   memory budget, result budget.
//! * [`CancelToken`] — a shared cooperative cancellation flag; flipping
//!   it from any thread interrupts every governed evaluation holding a
//!   clone.
//! * [`Governor`] — one evaluation's live accounting against a budget:
//!   worker threads charge steps / memory / results and observe a
//!   *sticky* trip, so the first limit crossed is the one every thread
//!   reports.
//! * [`Ticker`] — a per-worker batching handle: hot loops tick once per
//!   unit of work, and only every [`Ticker::BATCH`] ticks is the shared
//!   governor (atomics + clock) consulted, keeping the governed path
//!   within a few percent of the ungoverned one.
//! * [`Interrupt`] / [`EvalError`] — the typed taxonomy every governed
//!   entry point returns instead of panicking or running forever.
//! * [`Governed`] / [`Completion`] — a result wrapper that distinguishes
//!   complete answers from partial ones (with the reason), and flags
//!   degraded answers (e.g. exact count replaced by an FPRAS estimate).
//! * [`isolate`] — `catch_unwind`-based panic isolation converting
//!   worker panics into [`EvalError::Panic`].
//!
//! The degradation ladder implemented across the evaluation modules is
//! **exact → approximate → partial**: exact counting that exhausts its
//! budget falls back to the FPRAS counter (`degraded: true`), truncated
//! enumeration returns a prefix plus a continuation cursor, and
//! reachability scans return the per-source prefix computed so far.
//!
//! With the `fault-injection` cargo feature, the [`fault`] submodule
//! adds deterministic, seed-addressable fault points (forced panics,
//! artificial delays, budget starvation) that the robustness test suite
//! uses to prove the engine never poisons the query cache, never leaks
//! a worker thread, and always returns a typed error.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Declarative resource limits for one query evaluation.
///
/// `None` everywhere (the [`Budget::unlimited`] default) means the
/// governed code paths run to completion, byte-identical to their
/// ungoverned counterparts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Budget {
    /// Wall-clock limit, measured from [`Governor`] construction.
    pub deadline: Option<Duration>,
    /// Abstract work units (product transitions, BFS expansions, DP
    /// cell updates, match candidates…).
    pub max_steps: Option<u64>,
    /// Coarse allocation budget in bytes (major data structures only:
    /// products, DP tables, sample pools, visited sets).
    pub max_memory_bytes: Option<u64>,
    /// Maximum number of answers materialized (pairs, paths, rows).
    pub max_results: Option<u64>,
}

impl Budget {
    /// No limits at all.
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// Sets the wall-clock deadline.
    pub fn with_deadline(mut self, d: Duration) -> Budget {
        self.deadline = Some(d);
        self
    }

    /// Sets the step budget.
    pub fn with_max_steps(mut self, n: u64) -> Budget {
        self.max_steps = Some(n);
        self
    }

    /// Sets the memory budget.
    pub fn with_max_memory(mut self, bytes: u64) -> Budget {
        self.max_memory_bytes = Some(bytes);
        self
    }

    /// Sets the result budget.
    pub fn with_max_results(mut self, n: u64) -> Budget {
        self.max_results = Some(n);
        self
    }

    /// True when no limit is set.
    pub fn is_unlimited(&self) -> bool {
        *self == Budget::default()
    }
}

/// Shared cooperative cancellation flag.
///
/// Cheap to clone (an `Arc<AtomicBool>`); every governed evaluation
/// holding a clone observes [`CancelToken::cancel`] at its next batch
/// boundary and unwinds cleanly with [`Interrupt::Cancelled`].
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation; idempotent, callable from any thread.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Why a governed evaluation stopped early.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Interrupt {
    /// The wall-clock deadline passed.
    DeadlineExceeded,
    /// The step budget was exhausted.
    StepBudget,
    /// The memory budget was exhausted.
    MemoryBudget,
    /// The result budget was reached.
    ResultBudget,
    /// The [`CancelToken`] was flipped.
    Cancelled,
}

impl fmt::Display for Interrupt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Interrupt::DeadlineExceeded => "deadline exceeded",
            Interrupt::StepBudget => "step budget exhausted",
            Interrupt::MemoryBudget => "memory budget exhausted",
            Interrupt::ResultBudget => "result budget reached",
            Interrupt::Cancelled => "cancelled",
        })
    }
}

/// Typed error taxonomy for governed evaluation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvalError {
    /// The evaluation was stopped by its governor before any partial
    /// answer could be salvaged.
    Interrupted(Interrupt),
    /// An exact count does not fit in `u128`.
    Overflow,
    /// A worker thread panicked; the panic was isolated and converted
    /// (payload message preserved).
    Panic(String),
    /// User-supplied input (e.g. a continuation cursor) failed
    /// validation.
    InvalidInput(String),
    /// A query plan failed independent soundness verification before
    /// execution; running it could have produced wrong answers.
    PlanUnsound(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Interrupted(i) => write!(f, "evaluation interrupted: {i}"),
            EvalError::Overflow => f.write_str("path count overflows u128"),
            EvalError::Panic(msg) => write!(f, "worker panicked: {msg}"),
            EvalError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            EvalError::PlanUnsound(msg) => {
                write!(f, "plan failed soundness verification: {msg}")
            }
        }
    }
}

impl std::error::Error for EvalError {}

impl From<Interrupt> for EvalError {
    fn from(i: Interrupt) -> EvalError {
        EvalError::Interrupted(i)
    }
}

impl From<crate::count::CountError> for EvalError {
    fn from(_: crate::count::CountError) -> EvalError {
        EvalError::Overflow
    }
}

/// Whether a governed answer is the full answer or a clean prefix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Completion {
    /// The full answer set.
    Complete,
    /// A prefix of the answer set; the reason evaluation stopped.
    Partial(Interrupt),
}

impl Completion {
    /// True for [`Completion::Complete`].
    pub fn is_complete(&self) -> bool {
        matches!(self, Completion::Complete)
    }
}

/// A governed answer: the value, whether it is complete, and whether it
/// was produced by a degraded (approximate) algorithm.
#[derive(Clone, Debug, PartialEq)]
pub struct Governed<T> {
    /// The (possibly partial) answer.
    pub value: T,
    /// Complete, or partial with the interrupt reason.
    pub completion: Completion,
    /// True when a cheaper algorithm substituted for the requested one
    /// (e.g. FPRAS estimate instead of an exact count).
    pub degraded: bool,
}

impl<T> Governed<T> {
    /// Wraps a complete, non-degraded answer.
    pub fn complete(value: T) -> Governed<T> {
        Governed {
            value,
            completion: Completion::Complete,
            degraded: false,
        }
    }

    /// Wraps a partial answer with its interrupt reason.
    pub fn partial(value: T, why: Interrupt) -> Governed<T> {
        Governed {
            value,
            completion: Completion::Partial(why),
            degraded: false,
        }
    }

    /// True when the answer is a partial prefix.
    pub fn is_partial(&self) -> bool {
        !self.completion.is_complete()
    }

    /// Transforms the value, keeping the completion and degraded flags.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Governed<U> {
        Governed {
            value: f(self.value),
            completion: self.completion,
            degraded: self.degraded,
        }
    }
}

/// Packed sticky-trip encoding: 0 = not tripped, else `Interrupt` + 1.
fn encode_trip(i: Interrupt) -> u8 {
    match i {
        Interrupt::DeadlineExceeded => 1,
        Interrupt::StepBudget => 2,
        Interrupt::MemoryBudget => 3,
        Interrupt::ResultBudget => 4,
        Interrupt::Cancelled => 5,
    }
}

fn decode_trip(v: u8) -> Option<Interrupt> {
    Some(match v {
        1 => Interrupt::DeadlineExceeded,
        2 => Interrupt::StepBudget,
        3 => Interrupt::MemoryBudget,
        4 => Interrupt::ResultBudget,
        5 => Interrupt::Cancelled,
        _ => return None,
    })
}

/// Live accounting of one evaluation against a [`Budget`].
///
/// Shared by reference across worker threads; all counters are atomic.
/// The trip state is *sticky*: the first limit crossed is recorded and
/// every subsequent check returns the same [`Interrupt`], so partial
/// results assembled by different workers agree on the reason.
#[derive(Debug)]
pub struct Governor {
    deadline: Option<Instant>,
    max_steps: u64,
    max_memory: u64,
    max_results: u64,
    cancel: CancelToken,
    steps: AtomicU64,
    memory: AtomicU64,
    results: AtomicU64,
    tripped: AtomicU8,
}

impl Default for Governor {
    fn default() -> Governor {
        Governor::new(&Budget::unlimited())
    }
}

impl Governor {
    /// Starts governing against `budget` (deadline measured from now)
    /// with a private cancel token.
    pub fn new(budget: &Budget) -> Governor {
        Governor::with_cancel(budget, CancelToken::new())
    }

    /// Starts governing against `budget`, observing `cancel`.
    pub fn with_cancel(budget: &Budget, cancel: CancelToken) -> Governor {
        Governor {
            deadline: budget.deadline.map(|d| Instant::now() + d),
            max_steps: budget.max_steps.unwrap_or(u64::MAX),
            max_memory: budget.max_memory_bytes.unwrap_or(u64::MAX),
            max_results: budget.max_results.unwrap_or(u64::MAX),
            cancel,
            steps: AtomicU64::new(0),
            memory: AtomicU64::new(0),
            results: AtomicU64::new(0),
            tripped: AtomicU8::new(0),
        }
    }

    /// An unlimited governor (useful as a default argument).
    pub fn unlimited() -> Governor {
        Governor::default()
    }

    /// A follow-up governor for a later rung of the degradation ladder:
    /// same deadline instant and cancel token, fresh counters, and a
    /// step budget of whatever this governor has not yet spent.
    pub fn successor(&self) -> Governor {
        self.successor_with_steps(
            self.max_steps
                .saturating_sub(self.steps.load(Ordering::Relaxed)),
        )
    }

    /// [`Governor::successor`] with an explicit step budget — used when
    /// the first rung ran under a deliberately smaller cap than the
    /// caller's total budget.
    pub fn successor_with_steps(&self, max_steps: u64) -> Governor {
        Governor {
            deadline: self.deadline,
            max_steps,
            max_memory: self.max_memory,
            max_results: self.max_results,
            cancel: self.cancel.clone(),
            steps: AtomicU64::new(0),
            memory: AtomicU64::new(0),
            results: AtomicU64::new(0),
            tripped: AtomicU8::new(0),
        }
    }

    /// The cancel token this governor observes.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// The step budget this governor enforces (`u64::MAX` when
    /// unlimited).
    pub fn step_limit(&self) -> u64 {
        self.max_steps
    }

    /// The result budget this governor enforces (`u64::MAX` when
    /// unlimited).
    pub(crate) fn result_limit(&self) -> u64 {
        self.max_results
    }

    /// Steps charged so far.
    pub fn steps_used(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
    }

    /// Bytes of tracked allocations currently charged.
    pub fn memory_used(&self) -> u64 {
        self.memory.load(Ordering::Relaxed)
    }

    /// Results charged so far.
    pub fn results_used(&self) -> u64 {
        self.results.load(Ordering::Relaxed)
    }

    /// The sticky interrupt, if the governor has tripped.
    pub fn trip_state(&self) -> Option<Interrupt> {
        decode_trip(self.tripped.load(Ordering::Relaxed))
    }

    fn trip(&self, why: Interrupt) -> Interrupt {
        // First writer wins; later trips observe the original reason.
        let _ = self.tripped.compare_exchange(
            0,
            encode_trip(why),
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
        self.trip_state().unwrap_or(why)
    }

    fn check_ambient(&self) -> Result<(), Interrupt> {
        if let Some(t) = self.trip_state() {
            return Err(t);
        }
        #[cfg(feature = "fault-injection")]
        if fault::starved("govern::tick") {
            return Err(self.trip(Interrupt::StepBudget));
        }
        if self.cancel.is_cancelled() {
            return Err(self.trip(Interrupt::Cancelled));
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Err(self.trip(Interrupt::DeadlineExceeded));
            }
        }
        Ok(())
    }

    /// Charges `n` work units and checks every limit. Called at batch
    /// granularity — use a [`Ticker`] in hot loops rather than calling
    /// this per unit.
    pub fn charge_steps(&self, n: u64) -> Result<(), Interrupt> {
        let total = self.steps.fetch_add(n, Ordering::Relaxed).saturating_add(n);
        if total > self.max_steps {
            return Err(self.trip(Interrupt::StepBudget));
        }
        self.check_ambient()
    }

    /// Charges `bytes` of tracked allocation.
    pub fn charge_memory(&self, bytes: u64) -> Result<(), Interrupt> {
        let total = self
            .memory
            .fetch_add(bytes, Ordering::Relaxed)
            .saturating_add(bytes);
        if total > self.max_memory {
            return Err(self.trip(Interrupt::MemoryBudget));
        }
        if let Some(t) = self.trip_state() {
            return Err(t);
        }
        Ok(())
    }

    /// Releases `bytes` charged earlier (transient allocations).
    pub fn release_memory(&self, bytes: u64) {
        let _ = self
            .memory
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |m| {
                Some(m.saturating_sub(bytes))
            });
    }

    /// Charges `n` materialized answers.
    pub fn charge_results(&self, n: u64) -> Result<(), Interrupt> {
        self.admit_results(n)?;
        match self.trip_state() {
            Some(t) => Err(t),
            None => Ok(()),
        }
    }

    /// Charges `n` answers that are already computed, against the result
    /// budget only: another limit's trip stops the work that computes
    /// answers, not the admission of those in hand. A result-budget trip
    /// still reports the first trip.
    pub fn admit_results(&self, n: u64) -> Result<(), Interrupt> {
        let total = self
            .results
            .fetch_add(n, Ordering::Relaxed)
            .saturating_add(n);
        if total >= self.max_results.saturating_add(1) {
            return Err(self.trip(Interrupt::ResultBudget));
        }
        Ok(())
    }
}

/// Per-worker batching handle over an optional [`Governor`].
///
/// Hot loops call [`Ticker::tick`] once per unit of work; the shared
/// governor (atomic counters, cancel flag, clock) is only consulted
/// every [`Ticker::BATCH`] ticks, so the ungoverned configuration
/// (`Ticker::none()`) costs a single branch and increment per unit.
pub struct Ticker<'g> {
    gov: Option<&'g Governor>,
    pending: u32,
}

impl<'g> Ticker<'g> {
    /// Units of work batched between governor consultations.
    pub const BATCH: u32 = 1024;

    /// A ticker charging `gov`.
    pub fn new(gov: &'g Governor) -> Ticker<'g> {
        Ticker {
            gov: Some(gov),
            pending: 0,
        }
    }

    /// A ticker over an optional governor.
    pub fn maybe(gov: Option<&'g Governor>) -> Ticker<'g> {
        Ticker { gov, pending: 0 }
    }

    /// A no-op ticker (ungoverned execution).
    pub fn none() -> Ticker<'static> {
        Ticker {
            gov: None,
            pending: 0,
        }
    }

    /// The governor this ticker charges, if any.
    pub fn governor(&self) -> Option<&'g Governor> {
        self.gov
    }

    /// Records one unit of work; consults the governor at batch
    /// boundaries.
    #[inline]
    pub fn tick(&mut self) -> Result<(), Interrupt> {
        if let Some(gov) = self.gov {
            self.pending += 1;
            if self.pending >= Self::BATCH {
                let n = u64::from(self.pending);
                self.pending = 0;
                gov.charge_steps(n)?;
            }
        }
        Ok(())
    }

    /// Records `n` units of work at once — equivalent to `n`
    /// [`Ticker::tick`] calls with a single branch, for hot loops that
    /// know a block's size up front (e.g. one product state's out-degree).
    #[inline]
    pub fn tick_n(&mut self, n: u32) -> Result<(), Interrupt> {
        if let Some(gov) = self.gov {
            self.pending = self.pending.saturating_add(n);
            if self.pending >= Self::BATCH {
                let t = u64::from(self.pending);
                self.pending = 0;
                gov.charge_steps(t)?;
            }
        }
        Ok(())
    }

    /// Flushes the pending batch and checks limits immediately.
    pub fn flush(&mut self) -> Result<(), Interrupt> {
        if let Some(gov) = self.gov {
            let n = u64::from(self.pending);
            self.pending = 0;
            gov.charge_steps(n)?;
        }
        Ok(())
    }
}

/// [`Ticker`]'s sibling for memory accounting: accumulates byte charges
/// locally and consults the shared governor once per
/// [`MemMeter::BATCH`] bytes, so per-item charges in construction loops
/// stay off the atomic counters. The trip point moves by at most one
/// batch; totals are exact once [`MemMeter::flush`] runs.
pub struct MemMeter<'g> {
    gov: Option<&'g Governor>,
    pending: u64,
}

impl<'g> MemMeter<'g> {
    /// Bytes batched between governor consultations.
    pub const BATCH: u64 = 64 * 1024;

    /// A meter over an optional governor.
    pub fn maybe(gov: Option<&'g Governor>) -> MemMeter<'g> {
        MemMeter { gov, pending: 0 }
    }

    /// Records `bytes` of tracked allocation; consults the governor at
    /// batch boundaries.
    #[inline]
    pub fn charge(&mut self, bytes: u64) -> Result<(), Interrupt> {
        if let Some(gov) = self.gov {
            self.pending += bytes;
            if self.pending >= Self::BATCH {
                let n = self.pending;
                self.pending = 0;
                gov.charge_memory(n)?;
            }
        }
        Ok(())
    }

    /// Flushes the pending bytes and checks limits immediately.
    pub fn flush(&mut self) -> Result<(), Interrupt> {
        if let Some(gov) = self.gov {
            let n = self.pending;
            self.pending = 0;
            gov.charge_memory(n)?;
        }
        Ok(())
    }
}

/// Runs `f`, converting a panic into [`EvalError::Panic`] and an
/// [`Interrupt`] into [`EvalError::Interrupted`].
///
/// Worker closures in the parallel scans run under this guard, so a
/// panicking worker surfaces as a typed error instead of tearing down
/// the thread pool (and the process).
pub fn isolate<T>(f: impl FnOnce() -> Result<T, Interrupt>) -> Result<T, EvalError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(i)) => Err(EvalError::Interrupted(i)),
        Err(payload) => Err(EvalError::Panic(panic_message(&*payload))),
    }
}

/// [`isolate`] for closures that already speak [`EvalError`] — used to
/// wrap whole governed entry points (build + evaluate) so a panic
/// anywhere inside surfaces as [`EvalError::Panic`].
pub fn isolate_eval<T>(f: impl FnOnce() -> Result<T, EvalError>) -> Result<T, EvalError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => Err(EvalError::Panic(panic_message(&*payload))),
    }
}

/// Extracts a human-readable message from a panic payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_owned()
    }
}

/// Compile-in fault point. Expands to a call into [`fault`] under the
/// `fault-injection` feature and to nothing otherwise, so release
/// builds carry zero overhead.
macro_rules! fault_point {
    ($site:expr) => {{
        #[cfg(feature = "fault-injection")]
        $crate::govern::fault::hit($site);
    }};
}
pub(crate) use fault_point;

/// Deterministic fault injection (only with `--features fault-injection`).
///
/// A global plan arms named fault *sites* (e.g. `"product::build"`)
/// with an [`fault::Action`] that fires on the n-th hit of that site.
/// Hit counting is deterministic for deterministic workloads, and
/// [`fault::arm_seeded`] derives the firing hit from a seed via
/// splitmix64, so a whole randomized campaign is reproducible from one
/// integer. Intended strictly for tests; the plan is process-global, so
/// tests arming faults must serialize on a lock.
#[cfg(feature = "fault-injection")]
pub mod fault {
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Mutex, OnceLock};

    /// What an armed fault site does when it fires.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum Action {
        /// Panic with a recognizable `"injected fault at <site>"` payload.
        Panic,
        /// Sleep for the given number of milliseconds (models a stall).
        DelayMs(u64),
        /// Starve the budget: the governor treats its step budget as
        /// exhausted at the next check (only meaningful at the
        /// `"govern::tick"` site).
        Starve,
        /// I/O fault: a write persists only its first `n` bytes and then
        /// reports failure (models a torn write / full disk mid-record).
        /// Only meaningful at sites consulted via [`io`].
        TornWrite(u64),
        /// I/O fault: a read returns only its first `n` bytes (models a
        /// short read of a truncated or still-in-flight file).
        ShortRead(u64),
        /// I/O fault: `fsync` reports failure; the durability layer must
        /// treat the batch as uncommitted.
        FsyncFail,
        /// I/O fault: the process "crashes" (panics with a recognizable
        /// payload) after the first `n` bytes of the write have reached
        /// the file — the torn-tail shape a power loss leaves behind.
        CrashAfter(u64),
    }

    struct Arm {
        action: Action,
        fire_on_hit: u64,
        once: bool,
        hits: AtomicU64,
    }

    fn plan() -> &'static Mutex<HashMap<String, Arm>> {
        static PLAN: OnceLock<Mutex<HashMap<String, Arm>>> = OnceLock::new();
        PLAN.get_or_init(|| Mutex::new(HashMap::new()))
    }

    /// Arms `site` to fire `action` once, on its `fire_on_hit`-th hit
    /// (0-based).
    pub fn arm(site: &str, action: Action, fire_on_hit: u64) {
        plan().lock().unwrap().insert(
            site.to_owned(),
            Arm {
                action,
                fire_on_hit,
                once: true,
                hits: AtomicU64::new(0),
            },
        );
    }

    /// Arms `site` to fire `action` on *every* hit from `fire_on_hit`
    /// onwards (e.g. persistent starvation).
    pub fn arm_persistent(site: &str, action: Action, fire_on_hit: u64) {
        plan().lock().unwrap().insert(
            site.to_owned(),
            Arm {
                action,
                fire_on_hit,
                once: false,
                hits: AtomicU64::new(0),
            },
        );
    }

    /// splitmix64 — the standard 64-bit finalizer, deterministic.
    fn splitmix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E3779B97F4A7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
        x ^ (x >> 31)
    }

    /// Arms each site with `action`, firing on a hit index derived
    /// deterministically from `seed` and the site name (uniform in
    /// `0..max_hit`).
    pub fn arm_seeded(seed: u64, sites: &[&str], action: Action, max_hit: u64) {
        for site in sites {
            let mut h = seed;
            for b in site.bytes() {
                h = splitmix64(h ^ u64::from(b));
            }
            arm(site, action, h % max_hit.max(1));
        }
    }

    /// Disarms every site and resets hit counters.
    pub fn clear() {
        plan().lock().unwrap().clear();
    }

    /// Number of times `site` has been hit since it was armed.
    pub fn hits(site: &str) -> u64 {
        plan()
            .lock()
            .unwrap()
            .get(site)
            .map_or(0, |a| a.hits.load(Ordering::Relaxed))
    }

    fn firing(site: &str) -> Option<Action> {
        let guard = plan().lock().unwrap();
        let arm = guard.get(site)?;
        let hit = arm.hits.fetch_add(1, Ordering::Relaxed);
        let fires = if arm.once {
            hit == arm.fire_on_hit
        } else {
            hit >= arm.fire_on_hit
        };
        fires.then_some(arm.action)
    }

    /// Executes `site`'s armed action if it fires on this hit. Called
    /// from `fault_point!` sites; panics / sleeps in the caller's
    /// context. [`Action::Starve`] is handled by [`starved`] instead,
    /// and the I/O actions by [`io`].
    pub fn hit(site: &str) {
        match firing(site) {
            Some(Action::Panic) => panic!("injected fault at {site}"),
            Some(Action::DelayMs(ms)) => std::thread::sleep(std::time::Duration::from_millis(ms)),
            _ => {}
        }
    }

    /// Consults `site` for an I/O fault. Returns the fired action —
    /// [`Action::TornWrite`], [`Action::ShortRead`], [`Action::FsyncFail`]
    /// or [`Action::CrashAfter`] — for the I/O layer to interpret
    /// (truncate the write, clip the read, fail the fsync, panic after
    /// N bytes). Non-I/O actions armed at an `io`-consulted site keep
    /// their usual semantics: `Panic` panics here, `DelayMs` sleeps,
    /// `Starve` is ignored.
    pub fn io(site: &str) -> Option<Action> {
        match firing(site) {
            Some(Action::Panic) => panic!("injected fault at {site}"),
            Some(Action::DelayMs(ms)) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                None
            }
            Some(Action::Starve) | None => None,
            fired => fired,
        }
    }

    /// True when `site` is armed with [`Action::Starve`] and fires on
    /// this hit; consulted by the governor's ambient check.
    pub fn starved(site: &str) -> bool {
        matches!(firing(site), Some(Action::Starve))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let gov = Governor::unlimited();
        for _ in 0..10 {
            assert!(gov.charge_steps(1_000_000).is_ok());
            assert!(gov.charge_memory(1 << 30).is_ok());
            assert!(gov.charge_results(1 << 20).is_ok());
        }
        assert_eq!(gov.trip_state(), None);
    }

    #[test]
    fn step_budget_trips_sticky() {
        let gov = Governor::new(&Budget::unlimited().with_max_steps(100));
        assert!(gov.charge_steps(100).is_ok());
        assert_eq!(gov.charge_steps(1), Err(Interrupt::StepBudget));
        // Sticky: later charges of any kind report the original reason.
        assert_eq!(gov.charge_memory(1), Err(Interrupt::StepBudget));
        assert_eq!(gov.charge_results(1), Err(Interrupt::StepBudget));
        assert_eq!(gov.trip_state(), Some(Interrupt::StepBudget));
    }

    #[test]
    fn admitted_results_see_only_the_result_budget() {
        let gov = Governor::new(&Budget::unlimited().with_max_steps(1).with_max_results(2));
        assert_eq!(gov.charge_steps(2), Err(Interrupt::StepBudget));
        assert!(gov.admit_results(2).is_ok());
        // Crossing the result budget after a step trip reports the first.
        assert_eq!(gov.admit_results(1), Err(Interrupt::StepBudget));
        let gov = Governor::new(&Budget::unlimited().with_max_results(1));
        assert!(gov.admit_results(1).is_ok());
        assert_eq!(gov.admit_results(1), Err(Interrupt::ResultBudget));
    }

    #[test]
    fn deadline_trips() {
        let gov = Governor::new(&Budget::unlimited().with_deadline(Duration::from_millis(5)));
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(gov.charge_steps(1), Err(Interrupt::DeadlineExceeded));
    }

    #[test]
    fn cancellation_is_observed_across_clones() {
        let token = CancelToken::new();
        let gov = Governor::with_cancel(&Budget::unlimited(), token.clone());
        assert!(gov.charge_steps(1).is_ok());
        token.cancel();
        assert_eq!(gov.charge_steps(1), Err(Interrupt::Cancelled));
        assert_eq!(gov.trip_state(), Some(Interrupt::Cancelled));
    }

    #[test]
    fn memory_charges_and_releases() {
        let gov = Governor::new(&Budget::unlimited().with_max_memory(1000));
        assert!(gov.charge_memory(900).is_ok());
        gov.release_memory(800);
        assert!(gov.charge_memory(800).is_ok());
        assert_eq!(gov.charge_memory(200), Err(Interrupt::MemoryBudget));
    }

    #[test]
    fn result_budget_allows_exactly_max() {
        let gov = Governor::new(&Budget::unlimited().with_max_results(3));
        assert!(gov.charge_results(1).is_ok());
        assert!(gov.charge_results(1).is_ok());
        assert!(gov.charge_results(1).is_ok());
        assert_eq!(gov.charge_results(1), Err(Interrupt::ResultBudget));
    }

    #[test]
    fn ticker_batches_and_flushes() {
        let gov = Governor::new(&Budget::unlimited().with_max_steps(Ticker::BATCH as u64 / 2));
        let mut t = Ticker::new(&gov);
        // Under one batch: no consultation yet, so no trip observed.
        for _ in 0..(Ticker::BATCH - 1) {
            assert!(t.tick().is_ok());
        }
        // Flush pushes the batch through and trips the step budget.
        assert_eq!(t.flush(), Err(Interrupt::StepBudget));
    }

    #[test]
    fn successor_inherits_deadline_and_remaining_steps() {
        let gov = Governor::new(&Budget::unlimited().with_max_steps(1000));
        gov.charge_steps(400).unwrap();
        let next = gov.successor();
        assert!(next.charge_steps(600).is_ok());
        assert_eq!(next.charge_steps(1), Err(Interrupt::StepBudget));
    }

    #[test]
    fn isolate_converts_panics_and_interrupts() {
        let ok: Result<u32, EvalError> = isolate(|| Ok(7));
        assert_eq!(ok, Ok(7));
        let interrupted: Result<(), EvalError> = isolate(|| Err(Interrupt::Cancelled));
        assert_eq!(
            interrupted,
            Err(EvalError::Interrupted(Interrupt::Cancelled))
        );
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let panicked: Result<(), EvalError> = isolate(|| panic!("boom {}", 3));
        std::panic::set_hook(prev);
        assert_eq!(panicked, Err(EvalError::Panic("boom 3".to_owned())));
    }

    #[test]
    fn display_taxonomy_is_stable() {
        assert_eq!(Interrupt::DeadlineExceeded.to_string(), "deadline exceeded");
        assert_eq!(
            EvalError::Interrupted(Interrupt::StepBudget).to_string(),
            "evaluation interrupted: step budget exhausted"
        );
        assert_eq!(
            EvalError::Panic("x".into()).to_string(),
            "worker panicked: x"
        );
        assert_eq!(EvalError::Overflow.to_string(), "path count overflows u128");
    }
}
