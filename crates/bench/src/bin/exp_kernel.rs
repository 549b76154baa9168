//! Experiment `exp_kernel` — bit-parallel reachability kernel vs the
//! per-source sequential baseline, plus automaton-minimization effect on
//! product size, emitted as `BENCH_kernel.json`.
//!
//! For each graph (Erdős–Rényi n=2000 m=10000, Barabási–Albert n=2000)
//! and three representative RPQs, the experiment measures wall time of
//!
//! * all-pairs evaluation: kernel [`Evaluator::pairs`] (64 BFS sources
//!   per sweep) vs per-source [`Evaluator::pairs_sequential`];
//! * start extraction: [`Evaluator::matching_starts`] vs its sequential
//!   reference;
//! * point lookups: bidirectional [`Evaluator::check`] vs a forward
//!   BFS baseline (`ends_from(a).contains(b)`);
//!
//! and records raw-NFA vs minimized-DFA product state counts. Every
//! timed kernel result is first checked byte-for-byte against its
//! sequential reference — any divergence aborts with a nonzero exit, so
//! CI can use this binary as a parity smoke test (`--quick` trims the
//! repetitions to fit a tight time box).

use kgq_bench::{timed, write_report};
use kgq_core::parallel::set_threads;
use kgq_core::product::Product;
use kgq_core::{parse_expr, Evaluator, LabeledView, Nfa, PathExpr};
use kgq_graph::generate::{barabasi_albert, gnm_labeled};
use kgq_graph::{LabeledGraph, NodeId};
use std::fmt::Write as _;
use std::time::Duration;

fn median_secs<T>(mut f: impl FnMut() -> T, reps: usize) -> f64 {
    let mut times: Vec<Duration> = (0..reps).map(|_| timed(&mut f).1).collect();
    times.sort();
    times[times.len() / 2].as_secs_f64()
}

struct Case {
    graph: &'static str,
    expr: String,
    raw_states: usize,
    min_states: usize,
    pairs: usize,
    t_pairs_kernel: f64,
    t_pairs_baseline: f64,
    t_starts_kernel: f64,
    t_starts_baseline: f64,
    t_check_kernel: f64,
    t_check_baseline: f64,
}

fn run_case(graph: &'static str, g: &LabeledGraph, expr_text: &str, reps: usize) -> Case {
    let mut g = g.clone();
    let expr: PathExpr = parse_expr(expr_text, g.consts_mut()).unwrap();
    let view = LabeledView::new(&g);

    // Product sizes: raw Thompson NFA vs minimized DFA.
    let raw_nfa = Nfa::compile(&expr);
    let min = Nfa::compile_min(&expr);
    let raw_product = Product::build(&view, &raw_nfa);
    let min_product = Product::build(&view, &min.nfa);
    let raw_states = raw_product.state_count();
    let min_states = min_product.state_count();

    let ev = Evaluator::new(&view, &expr);

    // Parity self-checks first: the kernel answers must be byte-identical
    // to the per-source references before any of them is worth timing.
    let reference_pairs = ev.pairs_sequential();
    assert_eq!(
        ev.pairs(),
        reference_pairs,
        "kernel pairs() diverged from the sequential reference ({graph}, {expr_text})"
    );
    let reference_starts = ev.matching_starts_sequential();
    assert_eq!(
        ev.matching_starts(),
        reference_starts,
        "kernel matching_starts() diverged ({graph}, {expr_text})"
    );

    // Point-lookup workload: a deterministic spread of (a, b) pairs.
    let n = g.node_count() as u32;
    let queries: Vec<(NodeId, NodeId)> = (0..64u32)
        .map(|i| (NodeId((i * 131) % n), NodeId((i * 7919 + 13) % n)))
        .collect();
    for &(a, b) in &queries {
        let baseline = ev.ends_from(a).binary_search(&b).is_ok();
        assert_eq!(
            ev.check(a, b),
            baseline,
            "bidirectional check() diverged ({graph}, {expr_text}, {a:?}->{b:?})"
        );
    }

    let t_pairs_kernel = median_secs(|| ev.pairs().len(), reps);
    let t_pairs_baseline = median_secs(|| ev.pairs_sequential().len(), reps);
    let t_starts_kernel = median_secs(|| ev.matching_starts().len(), reps);
    let t_starts_baseline = median_secs(|| ev.matching_starts_sequential().len(), reps);
    let t_check_kernel = median_secs(
        || queries.iter().filter(|&&(a, b)| ev.check(a, b)).count(),
        reps,
    );
    let t_check_baseline = median_secs(
        || {
            queries
                .iter()
                .filter(|&&(a, b)| ev.ends_from(a).binary_search(&b).is_ok())
                .count()
        },
        reps,
    );

    Case {
        graph,
        expr: expr_text.to_owned(),
        raw_states,
        min_states,
        pairs: reference_pairs.len(),
        t_pairs_kernel,
        t_pairs_baseline,
        t_starts_kernel,
        t_starts_baseline,
        t_check_kernel,
        t_check_baseline,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let reps = if quick { 1 } else { 3 };
    // Timings compare the kernel's 64-way batching against per-source
    // scans at the same thread count, so the speedup is algorithmic, not
    // core-count dependent.
    set_threads(1);

    let er = gnm_labeled(2_000, 10_000, &["v"], &["p", "q"], 11);
    let ba = barabasi_albert(2_000, 5, "v", "link", 11);

    // Three representative shapes per graph: unbounded closure, a
    // concat-guarded closure, and an alternation with an inverse step.
    let er_exprs = ["(p+q)*", "p/(p+q)*/q", "(p/q) + (q/p^-)"];
    let ba_exprs = ["link*", "link/link*/link", "(link/link) + (link/link^-)"];

    let mut cases = Vec::new();
    for e in er_exprs {
        cases.push(run_case("er", &er, e, reps));
    }
    for e in ba_exprs {
        cases.push(run_case("ba", &ba, e, reps));
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(
        json,
        "  \"graphs\": {{\"er\": {{\"nodes\": {}, \"edges\": {}}}, \"ba\": {{\"nodes\": {}, \"edges\": {}}}}},",
        er.node_count(),
        er.edge_count(),
        ba.node_count(),
        ba.edge_count()
    );
    json.push_str("  \"cases\": [\n");
    let entries: Vec<String> = cases
        .iter()
        .map(|c| {
            format!(
                "    {{\"graph\": \"{}\", \"expr\": \"{}\", \
                 \"raw_product_states\": {}, \"min_product_states\": {}, \"pairs\": {}, \
                 \"pairs_kernel_s\": {:.6}, \"pairs_baseline_s\": {:.6}, \"pairs_speedup\": {:.3}, \
                 \"starts_kernel_s\": {:.6}, \"starts_baseline_s\": {:.6}, \"starts_speedup\": {:.3}, \
                 \"check_kernel_s\": {:.6}, \"check_baseline_s\": {:.6}, \"check_speedup\": {:.3}}}",
                c.graph,
                c.expr.replace('\\', "\\\\"),
                c.raw_states,
                c.min_states,
                c.pairs,
                c.t_pairs_kernel,
                c.t_pairs_baseline,
                c.t_pairs_baseline / c.t_pairs_kernel.max(1e-9),
                c.t_starts_kernel,
                c.t_starts_baseline,
                c.t_starts_baseline / c.t_starts_kernel.max(1e-9),
                c.t_check_kernel,
                c.t_check_baseline,
                c.t_check_baseline / c.t_check_kernel.max(1e-9),
            )
        })
        .collect();
    json.push_str(&entries.join(",\n"));
    json.push_str("\n  ]\n}\n");

    write_report(&args, "kernel", &json);
    print!("{json}");

    // Headline assertions mirroring the PR's acceptance bar, so CI fails
    // loudly if a regression erodes the kernel's advantage.
    let er_allpairs = cases
        .iter()
        .find(|c| c.graph == "er" && c.expr == "(p+q)*")
        .unwrap();
    let speedup = er_allpairs.t_pairs_baseline / er_allpairs.t_pairs_kernel.max(1e-9);
    eprintln!("er all-pairs kernel speedup: {speedup:.2}x");
    let shrunk = cases
        .iter()
        .filter(|c| c.graph == "er")
        .filter(|c| c.min_states < c.raw_states)
        .count();
    eprintln!("er RPQs with smaller minimized products: {shrunk}/3");
    if !quick {
        assert!(
            speedup >= 5.0,
            "all-pairs kernel speedup {speedup:.2}x below the 5x bar"
        );
        assert!(shrunk >= 2, "minimization shrank only {shrunk}/3 products");
    }
}
