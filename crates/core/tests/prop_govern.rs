//! Property-based tests for governed evaluation: with an unlimited
//! budget, governance must be invisible — byte-identical results at
//! every thread count — and with a finite budget, every partial result
//! must be an exact prefix of the full answer, with the enumeration
//! cursor replaying the remainder to exactly the full set.

use kgq_core::cache::QueryCache;
use kgq_core::count::{count_paths, count_paths_governed, CountOutcome};
use kgq_core::enumerate::{enumerate_paths, enumerate_paths_governed, enumerate_paths_resumed};
use kgq_core::eval::Evaluator;
use kgq_core::govern::{Budget, CancelToken, Completion, Governor};
use kgq_core::model::LabeledView;
use kgq_core::parallel::set_threads;
use kgq_core::parser::parse_expr;
use kgq_graph::generate::{barabasi_albert, gnm_labeled};
use kgq_graph::LabeledGraph;
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

const ER_EXPRS: [&str; 4] = ["(p+q)*", "p/q^-", "?a/(p)*", "(p/q)*+q^-"];
const BA_EXPRS: [&str; 3] = ["(link)*", "link/link^-", "?v/(link+link^-)*"];

#[derive(Clone, Debug)]
enum Spec {
    Er {
        n: usize,
        m: usize,
        seed: u64,
        expr: usize,
    },
    Ba {
        n: usize,
        seed: u64,
        expr: usize,
    },
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    prop_oneof![
        (3usize..14, 2usize..30, 0u64..1000, 0..ER_EXPRS.len())
            .prop_map(|(n, m, seed, expr)| Spec::Er { n, m, seed, expr }),
        (4usize..14, 0u64..1000, 0..BA_EXPRS.len()).prop_map(|(n, seed, expr)| Spec::Ba {
            n,
            seed,
            expr
        }),
    ]
}

fn build(spec: &Spec) -> (LabeledGraph, kgq_core::PathExpr) {
    match *spec {
        Spec::Er { n, m, seed, expr } => {
            let mut g = gnm_labeled(n, m, &["a", "b"], &["p", "q"], seed);
            let e = parse_expr(ER_EXPRS[expr], g.consts_mut()).unwrap();
            (g, e)
        }
        Spec::Ba { n, seed, expr } => {
            let mut g = barabasi_albert(n, 2, "v", "link", seed);
            let e = parse_expr(BA_EXPRS[expr], g.consts_mut()).unwrap();
            (g, e)
        }
    }
}

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// The pool size is process-wide: tests that set it hold this guard, so
/// one that needs a single thread is not switched to four mid-scan.
fn pin_threads() -> MutexGuard<'static, ()> {
    static THREADS: Mutex<()> = Mutex::new(());
    THREADS.lock().unwrap_or_else(|e| e.into_inner())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn unlimited_governed_pairs_equal_ungoverned_at_every_thread_count(spec in spec_strategy()) {
        let (g, expr) = build(&spec);
        let view = LabeledView::new(&g);
        let ev = Evaluator::new(&view, &expr);
        let reference = ev.pairs();
        let _threads = pin_threads();
        for &t in &THREAD_COUNTS {
            set_threads(t);
            let gov = Governor::unlimited();
            let res = ev.pairs_governed(&gov).unwrap();
            prop_assert_eq!(res.completion, Completion::Complete, "threads={}", t);
            prop_assert!(!res.degraded);
            prop_assert_eq!(&res.value, &reference, "threads={}", t);
        }
    }

    #[test]
    fn unlimited_governed_starts_equal_ungoverned_at_every_thread_count(spec in spec_strategy()) {
        let (g, expr) = build(&spec);
        let view = LabeledView::new(&g);
        let ev = Evaluator::new(&view, &expr);
        let reference = ev.matching_starts();
        let _threads = pin_threads();
        for &t in &THREAD_COUNTS {
            set_threads(t);
            let gov = Governor::unlimited();
            let res = ev.matching_starts_governed(&gov).unwrap();
            prop_assert_eq!(res.completion, Completion::Complete, "threads={}", t);
            prop_assert_eq!(&res.value, &reference, "threads={}", t);
        }
    }

    #[test]
    fn unlimited_governed_count_is_exact(spec in spec_strategy()) {
        let (g, expr) = build(&spec);
        let view = LabeledView::new(&g);
        let k = 3;
        let exact = count_paths(&view, &expr, k).unwrap();
        let res =
            count_paths_governed(&view, &expr, k, &Budget::default(), CancelToken::new()).unwrap();
        prop_assert!(!res.degraded);
        prop_assert_eq!(res.value, CountOutcome::Exact(exact));
    }

    #[test]
    fn governed_pairs_with_a_result_budget_are_an_exact_prefix(
        spec in spec_strategy(),
        cap in 0u64..40,
    ) {
        let (g, expr) = build(&spec);
        let view = LabeledView::new(&g);
        let ev = Evaluator::new(&view, &expr);
        let full = ev.pairs();
        let gov = Governor::new(&Budget::default().with_max_results(cap));
        let res = ev.pairs_governed(&gov).unwrap();
        let took = res.value.len();
        prop_assert!(took as u64 <= cap.max(full.len() as u64));
        prop_assert_eq!(&res.value[..], &full[..took], "not a prefix (cap={})", cap);
        if full.len() as u64 <= cap {
            prop_assert_eq!(res.completion, Completion::Complete);
            prop_assert_eq!(took, full.len());
        } else {
            prop_assert!(res.is_partial());
        }
    }

    #[test]
    fn governed_pairs_with_a_step_budget_are_an_exact_prefix(
        spec in spec_strategy(),
        steps in 1u64..4000,
    ) {
        let (g, expr) = build(&spec);
        let view = LabeledView::new(&g);
        let ev = Evaluator::new(&view, &expr);
        let full = ev.pairs();
        let _threads = pin_threads();
        for &t in &THREAD_COUNTS {
            set_threads(t);
            let gov = Governor::new(&Budget::default().with_max_steps(steps));
            let res = ev.pairs_governed(&gov).unwrap();
            let took = res.value.len();
            prop_assert_eq!(&res.value[..], &full[..took], "not a prefix (steps={}, threads={})", steps, t);
            if res.completion == Completion::Complete {
                prop_assert_eq!(took, full.len());
            }
        }
    }

    #[test]
    fn governed_pairs_with_a_deadline_are_an_exact_prefix(
        spec in spec_strategy(),
        micros in 0u64..400,
    ) {
        let (g, expr) = build(&spec);
        let view = LabeledView::new(&g);
        let ev = Evaluator::new(&view, &expr);
        let full = ev.pairs();
        let _threads = pin_threads();
        for &t in &THREAD_COUNTS {
            set_threads(t);
            let gov = Governor::new(
                &Budget::default().with_deadline(std::time::Duration::from_micros(micros)),
            );
            let res = ev.pairs_governed(&gov).unwrap();
            let took = res.value.len();
            prop_assert_eq!(&res.value[..], &full[..took], "not a prefix ({}us, threads={})", micros, t);
            if res.completion == Completion::Complete {
                prop_assert_eq!(took, full.len());
            }
        }
    }

    #[test]
    fn governed_starts_with_a_step_budget_are_an_exact_prefix(
        spec in spec_strategy(),
        steps in 1u64..4000,
    ) {
        let (g, expr) = build(&spec);
        let view = LabeledView::new(&g);
        let ev = Evaluator::new(&view, &expr);
        let full = ev.matching_starts();
        let _threads = pin_threads();
        for &t in &THREAD_COUNTS {
            set_threads(t);
            let gov = Governor::new(&Budget::default().with_max_steps(steps));
            let res = ev.matching_starts_governed(&gov).unwrap();
            let took = res.value.len();
            prop_assert_eq!(&res.value[..], &full[..took], "not a prefix (steps={}, threads={})", steps, t);
            if res.completion == Completion::Complete {
                prop_assert_eq!(took, full.len());
            }
        }
    }

    #[test]
    fn truncated_enumeration_replays_to_the_full_set(
        spec in spec_strategy(),
        k in 0usize..4,
        page_cap in 1u64..8,
    ) {
        let (g, expr) = build(&spec);
        let view = LabeledView::new(&g);
        let full = enumerate_paths(&view, &expr, k);
        // Page through with a per-page result budget; chain cursors
        // until the enumeration reports complete.
        let mut collected = Vec::new();
        let gov = Governor::new(&Budget::default().with_max_results(page_cap));
        let mut page = enumerate_paths_governed(&view, &expr, k, &gov).unwrap();
        collected.extend(page.value.paths.iter().cloned());
        let mut rounds = 0;
        while let Some(cursor) = page.value.cursor.clone() {
            rounds += 1;
            prop_assert!(rounds <= full.len() + 2, "cursor chain does not converge");
            let gov = Governor::new(&Budget::default().with_max_results(page_cap));
            page = enumerate_paths_resumed(&view, &expr, &cursor, &gov).unwrap();
            collected.extend(page.value.paths.iter().cloned());
        }
        prop_assert_eq!(page.completion, Completion::Complete);
        prop_assert_eq!(collected, full, "k={} page_cap={}", k, page_cap);
    }

    #[test]
    fn governed_cache_hit_is_byte_identical_to_cold_evaluation(spec in spec_strategy()) {
        let (g, expr) = build(&spec);
        let view = LabeledView::new(&g);
        let cold_pairs = Evaluator::new(&view, &expr).pairs();
        let cache = QueryCache::new();
        cache
            .get_or_compile_governed(&view, 0, &expr, &Governor::unlimited())
            .unwrap();
        let warm = cache
            .get_or_compile_governed(&view, 0, &expr, &Governor::unlimited())
            .unwrap();
        prop_assert_eq!(cache.hits(), 1);
        prop_assert_eq!(warm.evaluator().pairs(), cold_pairs);
    }
}
