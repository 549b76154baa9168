//! Exact counting of paths — the problem `Count(G, r, k)` of §4.1.
//!
//! `Count` takes a graph, an expression and a length `k`, and returns the
//! number of distinct paths `p ∈ ⟦r⟧` with `|p| = k`. The paper notes the
//! problem is SpanL-complete, so no polynomial exact algorithm is expected.
//! Two exact algorithms are provided:
//!
//! * [`ExactCounter`] — determinize the product (worst-case exponential,
//!   where the hardness lives), then count by one dynamic program over the
//!   deterministic automaton in `O(k · |det|)` — the standard "exponential
//!   preprocessing, fast per-k" tradeoff. Every entry (all lengths, one
//!   length, one start, one start and end, governed or not) runs that one
//!   DP; [`count_paths_governed`] climbs from it to the FPRAS when the
//!   budget runs out.
//! * [`count_paths_naive`] — enumerate every length-`k` walk of the graph
//!   and test acceptance, in `Θ(Σ_paths)` time: the brute-force baseline
//!   the experiments contrast against.
//!
//! Counts use `u128` with overflow checking ([`CountError::Overflow`]).

use crate::automata::Nfa;
use crate::expr::PathExpr;
use crate::govern::{
    fault_point, Budget, CancelToken, EvalError, Governed, Governor, Interrupt, Ticker,
};
use crate::model::PathGraph;
use crate::product::{DetProduct, Product};
use kgq_graph::{EdgeId, NodeId};
use std::fmt;

/// Errors from exact counting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CountError {
    /// The count does not fit in `u128`.
    Overflow,
}

impl fmt::Display for CountError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CountError::Overflow => write!(f, "path count overflows u128"),
        }
    }
}

impl std::error::Error for CountError {}

/// A reusable exact counter: pays determinization once, then answers
/// `Count(G, r, k)` for any `k` by dynamic programming.
pub struct ExactCounter {
    det: DetProduct,
}

impl ExactCounter {
    /// Builds the deterministic product for `(g, expr)`.
    pub fn new<G: PathGraph>(g: &G, expr: &PathExpr) -> ExactCounter {
        let nfa = Nfa::compile_min(expr).nfa;
        ExactCounter {
            det: DetProduct::build(g, &nfa),
        }
    }

    /// Wraps an already-built deterministic product.
    pub fn from_det(det: DetProduct) -> ExactCounter {
        ExactCounter { det }
    }

    /// The deterministic product automaton.
    pub fn det(&self) -> &DetProduct {
        &self.det
    }

    /// `Count(G, r, k)` — distinct paths of length exactly `k`.
    pub fn count(&self, k: usize) -> Result<u128, CountError> {
        // `count_by_length` always returns k+1 entries, so `last` is
        // present; avoid unwrapping on the hot path regardless.
        Ok(self.count_by_length(k)?.pop().unwrap_or(0))
    }

    /// Governed `Count(G, r, k)`: the DP charges one step per seed and per
    /// cell update and two transient `u128` rows of memory, so a runaway
    /// determinized product cannot pin the CPU past its budget.
    pub fn count_governed(&self, k: usize, gov: &Governor) -> Result<u128, EvalError> {
        fault_point!("count::dp");
        let row_bytes = 16 * self.det.state_count() as u64;
        gov.charge_memory(2 * row_bytes)
            .map_err(EvalError::Interrupted)?;
        let mut ticker = Ticker::new(gov);
        let seeds = self.det.initial_slots().iter().flatten().copied();
        let result = self.dp(seeds, k, &mut ticker, |_| Ok(())).and_then(|last| {
            ticker.flush()?;
            Ok(self.accepting_total(&last, None)?)
        });
        gov.release_memory(2 * row_bytes);
        result
    }

    /// Counts for every length `0..=k` in one DP pass.
    pub fn count_by_length(&self, k: usize) -> Result<Vec<u128>, CountError> {
        let mut totals = Vec::with_capacity(k + 1);
        let seeds = self.det.initial_slots().iter().flatten().copied();
        ungoverned(self.dp(seeds, k, &mut Ticker::none(), |layer| {
            totals.push(self.accepting_total(layer, None)?);
            Ok(())
        }))?;
        Ok(totals)
    }

    /// Count of paths of length `k` starting at a specific node.
    pub fn count_from(&self, start: NodeId, k: usize) -> Result<u128, CountError> {
        let seeds = self.det.initial(start);
        let last = ungoverned(self.dp(seeds, k, &mut Ticker::none(), |_| Ok(())))?;
        self.accepting_total(&last, None)
    }

    /// Count of length-`k` paths from `start` to `end`.
    pub fn count_between(&self, start: NodeId, end: NodeId, k: usize) -> Result<u128, CountError> {
        let seeds = self.det.initial(start);
        let last = ungoverned(self.dp(seeds, k, &mut Ticker::none(), |_| Ok(())))?;
        self.accepting_total(&last, Some(end))
    }

    /// The `Count` DP, written once: seeds the product states `seeds` (one
    /// tick each), then relaxes `k` layers of the deterministic product
    /// (one tick per relaxation), handing every layer's distribution —
    /// layer 0 included — to `per_layer`. Returns the last layer.
    fn dp(
        &self,
        seeds: impl IntoIterator<Item = u32>,
        k: usize,
        ticker: &mut Ticker,
        mut per_layer: impl FnMut(&[u128]) -> Result<(), EvalError>,
    ) -> Result<Vec<u128>, EvalError> {
        let m = self.det.state_count();
        let mut cur = vec![0u128; m];
        for s in seeds {
            ticker.tick()?;
            cur[s as usize] = cur[s as usize].checked_add(1).ok_or(EvalError::Overflow)?;
        }
        per_layer(&cur)?;
        let mut next = vec![0u128; m];
        for _ in 0..k {
            next.fill(0);
            for (s, &c) in cur.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                for &(_, s2) in self.det.out(s as u32) {
                    ticker.tick()?;
                    next[s2 as usize] = next[s2 as usize]
                        .checked_add(c)
                        .ok_or(EvalError::Overflow)?;
                }
            }
            std::mem::swap(&mut cur, &mut next);
            per_layer(&cur)?;
        }
        Ok(cur)
    }

    /// Paths counted in `dist` that end in an accepting state, and at
    /// node `end` when one is given.
    fn accepting_total(&self, dist: &[u128], end: Option<NodeId>) -> Result<u128, CountError> {
        dist.iter()
            .enumerate()
            .filter(|&(s, _)| {
                let s = s as u32;
                self.det.is_accepting(s) && end.is_none_or(|e| self.det.node_of(s) == e)
            })
            .map(|(_, &c)| c)
            .try_fold(0u128, u128::checked_add)
            .ok_or(CountError::Overflow)
    }
}

/// An unticked DP can only overflow: it has no governor to trip.
fn ungoverned<T>(r: Result<T, EvalError>) -> Result<T, CountError> {
    r.map_err(|e| match e {
        EvalError::Overflow => CountError::Overflow,
        e => unreachable!("an ungoverned DP failed with {e}"),
    })
}

/// `Count(G, r, k)` via determinization + DP. See [`ExactCounter`].
pub fn count_paths<G: PathGraph>(g: &G, expr: &PathExpr, k: usize) -> Result<u128, CountError> {
    ExactCounter::new(g, expr).count(k)
}

/// A governed count: exact when the budget allowed it, or an FPRAS
/// estimate when exact counting was cut short (the `degraded` flag on
/// the surrounding [`Governed`] is set in that case).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CountOutcome {
    /// The exact number of length-`k` matching paths.
    Exact(u128),
    /// An approximate count from the FPRAS fallback.
    Approximate(f64),
}

impl fmt::Display for CountOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CountOutcome::Exact(c) => write!(f, "{c}"),
            CountOutcome::Approximate(e) => write!(f, "~{e:.1}"),
        }
    }
}

/// The counting rung of the degradation ladder (exact → approximate):
/// try the exact count under half the step budget; if that trips on
/// anything except explicit cancellation, rerun as the FPRAS
/// approximation under whatever budget is left (same wall-clock
/// deadline) and mark the answer `degraded`.
///
/// Exact counting is SpanL-complete (§4.1) — determinization can blow
/// up exponentially — while the FPRAS stays polynomial, so the fallback
/// usually completes comfortably inside the remaining budget.
pub fn count_paths_governed<G: PathGraph + Sync>(
    g: &G,
    expr: &PathExpr,
    k: usize,
    budget: &Budget,
    cancel: CancelToken,
) -> Result<Governed<CountOutcome>, EvalError> {
    count_paths_governed_with(
        g,
        expr,
        k,
        &Governor::with_cancel(budget, cancel),
        &crate::approx::ApproxParams::default(),
    )
}

/// [`count_paths_governed`] against a caller-built governor (its step
/// limit is the ladder's *total*; counters are kept on per-rung
/// successors) and with explicit FPRAS parameters for the fallback rung
/// (fewer trials trade accuracy for a smaller footprint, letting the
/// approximation fit tighter leftover budgets).
pub fn count_paths_governed_with<G: PathGraph + Sync>(
    g: &G,
    expr: &PathExpr,
    k: usize,
    total: &Governor,
    params: &crate::approx::ApproxParams,
) -> Result<Governed<CountOutcome>, EvalError> {
    let gov = total.successor_with_steps(total.step_limit() / 2);
    let nfa = Nfa::compile_min(expr).nfa;
    let exact = crate::govern::isolate_eval(|| {
        DetProduct::build_governed(g, &nfa, &gov)
            .map_err(EvalError::from)
            .and_then(|det| ExactCounter::from_det(det).count_governed(k, &gov))
    });
    match exact {
        Ok(c) => return Ok(Governed::complete(CountOutcome::Exact(c))),
        // Cancellation is a user decision, not exhaustion — don't burn
        // more work on a fallback nobody is waiting for. Overflow and
        // panics are not budget problems either.
        Err(EvalError::Interrupted(Interrupt::Cancelled)) => {
            return Err(Interrupt::Cancelled.into())
        }
        Err(EvalError::Interrupted(_)) => {}
        Err(e) => return Err(e),
    }
    // Degrade: FPRAS under the unspent part of the *total* step budget,
    // against the same deadline instant (sticky trips force a fresh
    // governor rather than reusing the tripped one).
    let gov2 = gov.successor_with_steps(total.step_limit().saturating_sub(gov.steps_used()));
    let estimate = crate::govern::isolate_eval(|| {
        crate::approx::approx_count_governed_with(g, expr, k, params, &gov2)
    })?;
    Ok(Governed {
        value: CountOutcome::Approximate(estimate),
        completion: crate::govern::Completion::Complete,
        degraded: true,
    })
}

/// Brute-force `Count(G, r, k)`: enumerate every length-`k` walk
/// (`n₀, e₁ … e_k`) by DFS and test acceptance against the product NFA.
///
/// Each path is visited exactly once (the word encoding is unique), so no
/// dedup is needed — but the running time is proportional to the *number
/// of walks*, which grows as `d^k`. This is the baseline that motivates
/// the approximation algorithms of §4.1. Start nodes are explored in
/// parallel when threads are available; the per-start totals are summed,
/// which is order-insensitive, so the count never depends on thread count.
pub fn count_paths_naive<G: PathGraph + Sync>(g: &G, expr: &PathExpr, k: usize) -> u128 {
    let nfa = Nfa::compile_min(expr).nfa;
    let prod = Product::build(g, &nfa);
    let n = g.node_count();
    let count_start = |v: usize| -> u128 {
        let v = NodeId(v as u32);
        let mut total: u128 = 0;
        let mut word: Vec<EdgeId> = Vec::with_capacity(k);
        dfs_count(g, &prod, v, v, k, &mut word, &mut total);
        total
    };
    if crate::parallel::effective_threads() > 1 && n >= 2 {
        use rayon::prelude::*;
        (0..n).into_par_iter().map(count_start).sum()
    } else {
        (0..n).map(count_start).sum()
    }
}

fn dfs_count<G: PathGraph>(
    g: &G,
    prod: &Product,
    start: NodeId,
    cur: NodeId,
    remaining: usize,
    word: &mut Vec<EdgeId>,
    total: &mut u128,
) {
    if remaining == 0 {
        if prod.accepts(start, word) {
            *total += 1;
        }
        return;
    }
    let mut steps: Vec<(EdgeId, NodeId)> = g
        .out(cur)
        .iter()
        .chain(g.inc(cur).iter())
        .copied()
        .collect();
    steps.sort_unstable_by_key(|&(e, _)| e.0);
    steps.dedup_by_key(|&mut (e, _)| e.0);
    for (e, m) in steps {
        word.push(e);
        dfs_count(g, prod, start, m, remaining - 1, word, total);
        word.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LabeledView;
    use crate::parser::parse_expr;
    use kgq_graph::figures::figure2_labeled;
    use kgq_graph::generate::{cycle_graph, gnm_labeled, path_graph};
    use kgq_graph::LabeledGraph;

    fn count_both(g: &mut LabeledGraph, expr: &str, k: usize) -> (u128, u128) {
        let e = parse_expr(expr, g.consts_mut()).unwrap();
        let view = LabeledView::new(g);
        let exact = count_paths(&view, &e, k).unwrap();
        let naive = count_paths_naive(&view, &e, k);
        (exact, naive)
    }

    #[test]
    fn exact_equals_naive_on_figure2() {
        let exprs = [
            "?person/rides/?bus/rides^-/?infected",
            "(contact)*",
            "(rides + rides^-)*",
            "?person/(lives + contact)/?infected",
        ];
        for expr in exprs {
            for k in 0..=4 {
                let mut g = figure2_labeled();
                let (exact, naive) = count_both(&mut g, expr, k);
                assert_eq!(exact, naive, "expr={expr} k={k}");
            }
        }
    }

    #[test]
    fn exact_equals_naive_on_random_graphs() {
        for seed in 0..4 {
            let mut g = gnm_labeled(12, 30, &["a", "b"], &["p", "q"], seed);
            for expr in ["(p)*", "p/q^-", "(p+q)*/?a"] {
                for k in 0..=3 {
                    let (exact, naive) = count_both(&mut g, expr, k);
                    assert_eq!(exact, naive, "seed={seed} expr={expr} k={k}");
                }
            }
        }
    }

    #[test]
    fn path_graph_counts_are_obvious() {
        // On a directed path of n nodes, (next)* has n-k paths of length k.
        let mut g = path_graph(6, "v", "next");
        let e = parse_expr("(next)*", g.consts_mut()).unwrap();
        let view = LabeledView::new(&g);
        let counter = ExactCounter::new(&view, &e);
        let by_len = counter.count_by_length(5).unwrap();
        assert_eq!(by_len, vec![6, 5, 4, 3, 2, 1]);
    }

    #[test]
    fn cycle_counts_wrap_forever() {
        // On a directed cycle of n nodes, every length has exactly n
        // forward paths.
        let mut g = cycle_graph(5, "v", "next");
        let e = parse_expr("(next)*", g.consts_mut()).unwrap();
        let view = LabeledView::new(&g);
        let counter = ExactCounter::new(&view, &e);
        let by_len = counter.count_by_length(7).unwrap();
        assert!(by_len.iter().all(|&c| c == 5));
    }

    #[test]
    fn ambiguity_does_not_overcount() {
        // (a + a/a) over a path: ambiguous NFA; exact counting must not
        // double-count the length-1 paths.
        let mut g = path_graph(4, "v", "a");
        let e = parse_expr("a + a/a", g.consts_mut()).unwrap();
        let view = LabeledView::new(&g);
        assert_eq!(count_paths(&view, &e, 1).unwrap(), 3);
        assert_eq!(count_paths(&view, &e, 2).unwrap(), 2);
        // Highly ambiguous: (a + a)* — each path still counted once.
        let e2 = parse_expr("(a + a)*", g.consts_mut()).unwrap();
        let view = LabeledView::new(&g);
        assert_eq!(count_paths(&view, &e2, 1).unwrap(), 3);
        assert_eq!(count_paths(&view, &e2, 3).unwrap(), 1);
    }

    #[test]
    fn count_from_restricts_the_start() {
        let mut g = figure2_labeled();
        let e = parse_expr("rides", g.consts_mut()).unwrap();
        let view = LabeledView::new(&g);
        let counter = ExactCounter::new(&view, &e);
        let n1 = g.node_named("n1").unwrap();
        let n7 = g.node_named("n7").unwrap();
        assert_eq!(counter.count_from(n1, 1).unwrap(), 1);
        assert_eq!(counter.count_from(n7, 1).unwrap(), 0);
        // The sum over all starts equals the global count.
        let total: u128 = g
            .base()
            .nodes()
            .map(|n| counter.count_from(n, 1).unwrap())
            .sum();
        assert_eq!(total, counter.count(1).unwrap());
    }

    #[test]
    fn count_between_partitions_count_from() {
        let mut g = figure2_labeled();
        let e = parse_expr("(rides + rides^- + contact)*", g.consts_mut()).unwrap();
        let view = LabeledView::new(&g);
        let counter = ExactCounter::new(&view, &e);
        let k = 3;
        for a in g.base().nodes() {
            let per_end: u128 = g
                .base()
                .nodes()
                .map(|b| counter.count_between(a, b, k).unwrap())
                .sum();
            assert_eq!(per_end, counter.count_from(a, k).unwrap());
        }
    }

    #[test]
    fn huge_counts_overflow_cleanly() {
        // Complete graph: counts grow ~ (n-1)^k and overflow u128 well
        // before k = 160.
        use kgq_graph::generate::complete_graph;
        let mut g = complete_graph(8, "v", "e");
        let e = parse_expr("(e + e^-)*", g.consts_mut()).unwrap();
        let view = LabeledView::new(&g);
        let counter = ExactCounter::new(&view, &e);
        assert!(counter.count(2).is_ok());
        assert_eq!(counter.count(160), Err(CountError::Overflow));
        // Per-source and per-pair variants share the checked arithmetic.
        let v0 = kgq_graph::NodeId(0);
        assert!(counter.count_from(v0, 2).is_ok());
        assert_eq!(counter.count_from(v0, 160), Err(CountError::Overflow));
        assert!(counter.count_between(v0, v0, 2).is_ok());
        assert_eq!(
            counter.count_between(v0, v0, 160),
            Err(CountError::Overflow)
        );
        assert_eq!(
            CountError::Overflow.to_string(),
            "path count overflows u128"
        );
    }

    #[test]
    fn zero_length_counts_are_node_tests() {
        let mut g = figure2_labeled();
        let e = parse_expr("?person", g.consts_mut()).unwrap();
        let view = LabeledView::new(&g);
        // Figure 2 has persons n1, n4, n8.
        assert_eq!(count_paths(&view, &e, 0).unwrap(), 3);
        assert_eq!(count_paths(&view, &e, 1).unwrap(), 0);
    }
}

#[cfg(test)]
mod governed_tests {
    use super::*;
    use crate::approx::ApproxParams;
    use crate::govern::Completion;
    use crate::model::LabeledView;
    use crate::parser::parse_expr;
    use kgq_graph::generate::gnm_labeled;

    /// A workload where the product stays expensive even after Hopcroft
    /// minimization: the suffix forces any automaton for the language to
    /// remember the last `depth` steps, so the minimal DFA has
    /// `2^(depth+1)` states and the exact rung's cost scales with it,
    /// while a small-trial FPRAS is insensitive to the automaton size.
    fn blowup_depth(depth: usize) -> (kgq_graph::LabeledGraph, PathExpr) {
        let mut g = gnm_labeled(20, 80, &["v"], &["p", "q"], 3);
        let text = "(p+q)*/p".to_string() + &"/(p+q)".repeat(depth);
        let e = parse_expr(&text, g.consts_mut()).unwrap();
        (g, e)
    }

    fn blowup() -> (kgq_graph::LabeledGraph, PathExpr) {
        blowup_depth(8)
    }

    #[test]
    fn unlimited_budget_counts_exactly() {
        let (g, e) = blowup();
        let view = LabeledView::new(&g);
        let expected = count_paths(&view, &e, 9).unwrap();
        let res =
            count_paths_governed(&view, &e, 9, &Budget::default(), CancelToken::new()).unwrap();
        assert!(!res.degraded);
        assert_eq!(res.completion, Completion::Complete);
        assert_eq!(res.value, CountOutcome::Exact(expected));
    }

    #[test]
    fn step_exhaustion_degrades_to_fpras() {
        // Depth 10 → a ~2k-state minimal DFA, so the exact rung needs
        // ~340k governed steps while a 16-trial FPRAS needs ~150k.
        let (g, e) = blowup_depth(10);
        let view = LabeledView::new(&g);
        let exact = count_paths(&view, &e, 11).unwrap() as f64;
        // Stage 1 gets half of this — not enough to determinize and run
        // the DP — while the leftover covers the 16-trial estimator.
        let budget = Budget::default().with_max_steps(400_000);
        let params = ApproxParams {
            trials: Some(16),
            pool_cap: 32,
            ..Default::default()
        };
        let res =
            count_paths_governed_with(&view, &e, 11, &Governor::new(&budget), &params).unwrap();
        assert!(res.degraded, "exact should have been cut short");
        assert_eq!(res.completion, Completion::Complete);
        let CountOutcome::Approximate(est) = res.value else {
            panic!("expected the FPRAS fallback, got {:?}", res.value);
        };
        assert!(
            (est - exact).abs() / exact < 0.5,
            "estimate {est} too far from {exact}"
        );
    }

    #[test]
    fn cancellation_skips_the_fallback() {
        let (g, e) = blowup();
        let view = LabeledView::new(&g);
        let cancel = CancelToken::new();
        cancel.cancel();
        let err = count_paths_governed(&view, &e, 9, &Budget::default(), cancel).unwrap_err();
        assert!(matches!(err, EvalError::Interrupted(Interrupt::Cancelled)));
    }

    #[test]
    fn hopeless_budget_is_a_typed_error() {
        let (g, e) = blowup();
        let view = LabeledView::new(&g);
        let budget = Budget::default().with_max_steps(1_000);
        let err = count_paths_governed(&view, &e, 9, &budget, CancelToken::new()).unwrap_err();
        assert!(matches!(err, EvalError::Interrupted(Interrupt::StepBudget)));
    }

    /// The DP ticks once per seed and once per relaxation; the outcome and
    /// the steps charged under each step budget are pinned.
    #[test]
    fn governed_dp_is_pinned() {
        let mut g = kgq_graph::figures::figure2_labeled();
        let mut got = String::new();
        for (text, k) in [
            ("(rides + rides^- + contact)*", 3),
            ("(rides + rides^- + contact)*", 130),
            ("(contact + contact^-)*", 700),
        ] {
            let e = parse_expr(text, g.consts_mut()).unwrap();
            let view = LabeledView::new(&g);
            let counter = ExactCounter::new(&view, &e);
            for steps in [
                Some(1),
                Some(2),
                Some(1023),
                Some(1024),
                Some(1025),
                Some(5000),
                None,
            ] {
                let budget = match steps {
                    Some(n) => Budget::unlimited().with_max_steps(n),
                    None => Budget::unlimited(),
                };
                let gov = Governor::new(&budget);
                let res = counter.count_governed(k, &gov);
                got.push_str(&format!(
                    "{text} {k} {steps:?}: {res:?} {}\n",
                    gov.steps_used()
                ));
            }
        }
        let want = [
            "(rides + rides^- + contact)* 3 Some(1): Err(Interrupted(StepBudget)) 32",
            "(rides + rides^- + contact)* 3 Some(2): Err(Interrupted(StepBudget)) 32",
            "(rides + rides^- + contact)* 3 Some(1023): Ok(29) 32",
            "(rides + rides^- + contact)* 3 Some(1024): Ok(29) 32",
            "(rides + rides^- + contact)* 3 Some(1025): Ok(29) 32",
            "(rides + rides^- + contact)* 3 Some(5000): Ok(29) 32",
            "(rides + rides^- + contact)* 3 None: Ok(29) 32",
            "(rides + rides^- + contact)* 130 Some(1): Err(Interrupted(StepBudget)) 1024",
            "(rides + rides^- + contact)* 130 Some(2): Err(Interrupted(StepBudget)) 1024",
            "(rides + rides^- + contact)* 130 Some(1023): Err(Interrupted(StepBudget)) 1024",
            "(rides + rides^- + contact)* 130 Some(1024): Err(Interrupted(StepBudget)) 1048",
            "(rides + rides^- + contact)* 130 Some(1025): Err(Interrupted(StepBudget)) 1048",
            "(rides + rides^- + contact)* 130 Some(5000): Ok(1857922597893967079544435880537064372) 1048",
            "(rides + rides^- + contact)* 130 None: Ok(1857922597893967079544435880537064372) 1048",
            "(contact + contact^-)* 700 Some(1): Err(Interrupted(StepBudget)) 1024",
            "(contact + contact^-)* 700 Some(2): Err(Interrupted(StepBudget)) 1024",
            "(contact + contact^-)* 700 Some(1023): Err(Interrupted(StepBudget)) 1024",
            "(contact + contact^-)* 700 Some(1024): Err(Overflow) 1024",
            "(contact + contact^-)* 700 Some(1025): Err(Overflow) 1024",
            "(contact + contact^-)* 700 Some(5000): Err(Overflow) 1024",
            "(contact + contact^-)* 700 None: Err(Overflow) 1024",
        ];
        assert_eq!(got.lines().collect::<Vec<_>>(), want);
    }

    #[test]
    fn count_outcome_renders() {
        assert_eq!(CountOutcome::Exact(42).to_string(), "42");
        assert_eq!(CountOutcome::Approximate(41.96).to_string(), "~42.0");
    }
}
