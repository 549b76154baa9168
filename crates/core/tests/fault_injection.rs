//! Fault-injection suite (requires `--features fault-injection`).
//!
//! Arms the engine's compiled-in fault points with deterministic panics,
//! delays and budget starvation, and proves three properties:
//!
//! 1. faults never poison the [`QueryCache`] — an errored compile leaves
//!    the map untouched and a retry is byte-identical to a cold run;
//! 2. no worker thread ever leaks — the rayon shim's live-worker gauge
//!    returns to its baseline after every faulted scan;
//! 3. every fault surfaces as a typed [`EvalError`], never an unwinding
//!    panic or a hang, and the outcome is reproducible from the seed.
//!
//! The fault plan is process-global, so every test serializes on one
//! mutex.
#![cfg(feature = "fault-injection")]

use kgq_core::cache::QueryCache;
use kgq_core::count::count_paths_governed;
use kgq_core::enumerate::enumerate_paths_governed;
use kgq_core::eval::Evaluator;
use kgq_core::govern::{fault, Budget, CancelToken, EvalError, Governor, Interrupt};
use kgq_core::model::LabeledView;
use kgq_core::parallel::set_threads;
use kgq_core::parser::parse_expr;
use kgq_graph::generate::gnm_labeled;
use std::sync::{Mutex, MutexGuard, Once};
use std::time::Duration;

/// Every compiled-in fault site.
const SITES: [&str; 8] = [
    "product::build",
    "det::build",
    "eval::bfs",
    "count::dp",
    "approx::build",
    "enumerate::build",
    "cache::compile",
    "govern::tick",
];

static LOCK: Mutex<()> = Mutex::new(());

/// Serializes tests on the global fault plan and silences the default
/// panic hook for injected panics (they are caught and converted to
/// typed errors; their backtraces are just noise).
fn serial() -> MutexGuard<'static, ()> {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(|s| s.contains("injected fault"))
                .or_else(|| {
                    info.payload()
                        .downcast_ref::<&str>()
                        .map(|s| s.contains("injected fault"))
                })
                .unwrap_or(false);
            if !injected {
                default(info);
            }
        }));
    });
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();
    guard
}

fn setup() -> (kgq_graph::LabeledGraph, kgq_core::PathExpr) {
    let mut g = gnm_labeled(14, 40, &["a", "b"], &["p", "q"], 7);
    let e = parse_expr("(p+q)*", g.consts_mut()).unwrap();
    (g, e)
}

/// A graph spanning several 64-source kernel batches, for faults that
/// must land *mid-scan* (the `eval::bfs` site fires once per batch, not
/// once per source).
fn setup_batched() -> (kgq_graph::LabeledGraph, kgq_core::PathExpr) {
    let mut g = gnm_labeled(200, 600, &["a", "b"], &["p", "q"], 7);
    let e = parse_expr("(p+q)*", g.consts_mut()).unwrap();
    (g, e)
}

#[test]
fn injected_compile_panic_is_typed_and_never_poisons_the_cache() {
    let _guard = serial();
    let (g, e) = setup();
    let view = LabeledView::new(&g);
    let cold = Evaluator::new(&view, &e).pairs();
    let cache = QueryCache::new();
    fault::arm("cache::compile", fault::Action::Panic, 0);
    let err = cache
        .get_or_compile_governed(&view, 0, &e, &Governor::unlimited())
        .unwrap_err();
    match err {
        EvalError::Panic(msg) => assert!(msg.contains("injected fault at cache::compile")),
        other => panic!("expected a typed panic, got {other}"),
    }
    assert!(cache.is_empty(), "errored compile inserted a partial entry");
    fault::clear();
    // Retry on the same cache: byte-identical to the cold run.
    let retry = cache
        .get_or_compile_governed(&view, 0, &e, &Governor::unlimited())
        .unwrap();
    assert_eq!(retry.evaluator().pairs(), cold);
}

#[test]
fn injected_product_panic_inside_compile_is_typed() {
    let _guard = serial();
    let (g, e) = setup();
    let view = LabeledView::new(&g);
    let cache = QueryCache::new();
    fault::arm("product::build", fault::Action::Panic, 0);
    let err = cache
        .get_or_compile_governed(&view, 0, &e, &Governor::unlimited())
        .unwrap_err();
    assert!(matches!(err, EvalError::Panic(_)), "got {err}");
    assert!(cache.is_empty());
}

#[test]
fn injected_worker_panic_is_isolated_at_every_thread_count() {
    let _guard = serial();
    let (g, e) = setup_batched();
    let view = LabeledView::new(&g);
    let ev = Evaluator::new(&view, &e);
    let reference = ev.pairs();
    for threads in [1, 2, 4] {
        set_threads(threads);
        fault::arm("eval::bfs", fault::Action::Panic, 3);
        let err = ev.pairs_governed(&Governor::unlimited()).unwrap_err();
        match err {
            EvalError::Panic(msg) => assert!(msg.contains("injected fault at eval::bfs")),
            other => panic!("threads={threads}: expected a typed panic, got {other}"),
        }
        fault::clear();
        // The pool survived the panic: the next scan is correct.
        let again = ev.pairs_governed(&Governor::unlimited()).unwrap();
        assert_eq!(again.value, reference, "threads={threads}");
    }
    set_threads(1);
}

#[test]
fn injected_delay_trips_the_deadline() {
    let _guard = serial();
    let (g, e) = setup();
    let view = LabeledView::new(&g);
    fault::arm("product::build", fault::Action::DelayMs(30), 0);
    let gov = Governor::new(&Budget::default().with_deadline(Duration::from_millis(5)));
    let cache = QueryCache::new();
    let err = cache
        .get_or_compile_governed(&view, 0, &e, &gov)
        .unwrap_err();
    assert!(
        matches!(err, EvalError::Interrupted(Interrupt::DeadlineExceeded)),
        "got {err}"
    );
    assert!(cache.is_empty());
}

#[test]
fn starvation_trips_the_step_budget_and_partials_are_prefixes() {
    let _guard = serial();
    set_threads(1);
    let (g, e) = setup_batched();
    let view = LabeledView::new(&g);
    let ev = Evaluator::new(&view, &e);
    let full = ev.pairs();
    // Every governor consultation from the third onward reports
    // starvation: the scan trips mid-way and must return a clean prefix.
    fault::arm_persistent("govern::tick", fault::Action::Starve, 2);
    let res = ev.pairs_governed(&Governor::unlimited()).unwrap();
    fault::clear();
    assert!(res.is_partial(), "starvation did not trip");
    assert!(matches!(
        res.completion,
        kgq_core::govern::Completion::Partial(Interrupt::StepBudget)
    ));
    let took = res.value.len();
    assert_eq!(&res.value[..], &full[..took], "partial is not a prefix");
}

#[test]
fn seeded_fault_campaign_is_deterministic_typed_and_leak_free() {
    let _guard = serial();
    set_threads(1);
    // Every thread the engine starts is a rayon shim worker, and the
    // gauge counts only those: the process thread count would also count
    // the test harness's threads, including tests queued on `serial()`.
    let baseline = rayon::live_workers();
    for seed in 0..12 {
        let first = campaign(seed);
        let second = campaign(seed);
        assert_eq!(first, second, "seed {seed} was not reproducible");
    }
    assert_eq!(
        rayon::live_workers(),
        baseline,
        "faulted scans leaked worker threads"
    );
}

/// Runs the whole governed pipeline under a seed-derived panic plan and
/// records every outcome as a string. Each call must be: free of
/// unwinding panics (every fault surfaces as `Err`), and a pure
/// function of `seed`.
fn campaign(seed: u64) -> Vec<String> {
    fault::clear();
    fault::arm_seeded(seed, &SITES, fault::Action::Panic, 40);
    let mut g = gnm_labeled(12, 30, &["a", "b"], &["p", "q"], seed);
    let e = parse_expr("(p+q)*", g.consts_mut()).unwrap();
    let view = LabeledView::new(&g);
    let mut out = Vec::new();

    let cache = QueryCache::new();
    let compile = cache.get_or_compile_governed(&view, 0, &e, &Governor::unlimited());
    out.push(match &compile {
        Ok(c) => format!("compile: ok ({} states)", c.product().state_count()),
        Err(err) => format!("compile: {err}"),
    });
    out.push(format!("cache entries: {}", cache.len()));

    out.push(match &compile {
        // Ungoverned construction would hit `product::build` outside any
        // isolation — reuse the governed compile instead.
        Ok(c) => match c.evaluator().pairs_governed(&Governor::unlimited()) {
            Ok(res) => format!(
                "pairs: {} rows, partial={}",
                res.value.len(),
                res.is_partial()
            ),
            Err(err) => format!("pairs: {err}"),
        },
        Err(_) => "pairs: skipped (compile failed)".to_owned(),
    });

    out.push(
        match count_paths_governed(&view, &e, 3, &Budget::default(), CancelToken::new()) {
            Ok(res) => format!("count: {} degraded={}", res.value, res.degraded),
            Err(err) => format!("count: {err}"),
        },
    );

    out.push(
        match enumerate_paths_governed(&view, &e, 2, &Governor::unlimited()) {
            Ok(res) => format!(
                "enumerate: {} paths, cursor={}",
                res.value.paths.len(),
                res.value.cursor.is_some()
            ),
            Err(err) => format!("enumerate: {err}"),
        },
    );

    fault::clear();
    out
}
