//! Experiment `exp_bgp` — worst-case optimal BGP joins (leapfrog
//! triejoin) vs the backtracking baseline, plus a planner A/B between
//! the sketch-driven cost model and the greedy exact-count oracle,
//! emitted as `BENCH_bgp.json`.
//!
//! For each store (Erdős–Rényi and Barabási–Albert labeled graphs
//! converted to RDF) and four BGP families — triangle, directed
//! 4-clique, length-3 path, 3-arm star — the experiment measures wall
//! time of the triejoin against [`Bgp::solve_baseline`], the original
//! backtracking matcher. Cyclic families (triangle, clique) are where
//! the AGM bound bites: the baseline enumerates every open path before
//! discovering the closing edge is absent, while the triejoin
//! intersects all patterns variable-at-a-time.
//!
//! On top of the engine-vs-baseline comparison, every case times the
//! same triejoin under both planners: `greedy_plan_s` executes the
//! exact-prefix-count greedy order, `sketch_plan_s` the order chosen by
//! the two-level sketch cost model ([`kgq_rdf::StoreSketch`]). Sketch
//! construction is excluded — it is built once per store generation and
//! amortized across queries. A `skew` store (hub-heavy two-predicate
//! graph where one-level counts mislead the greedy planner) shows the
//! cost model's advantage; the binary asserts the sketch order never
//! regresses >10% on any case and beats greedy ≥1.5× on the skew case.
//!
//! Every timed answer is first checked against the baseline as a
//! multiset of bindings — any divergence aborts with a nonzero exit, so
//! CI can use this binary as a parity smoke test (`--quick` trims sizes
//! and repetitions to fit a tight time box).

use kgq_bench::{timed, write_report};
use kgq_core::parallel::set_threads;
use kgq_graph::generate::{barabasi_albert, gnm_labeled};
use kgq_rdf::bgp::{Bgp, Binding};
use kgq_rdf::{labeled_to_rdf, lftj, StoreSketch, TripleStore};
use std::fmt::Write as _;
use std::time::Duration;

fn median_secs<T>(mut f: impl FnMut() -> T, reps: usize) -> f64 {
    let mut times: Vec<Duration> = (0..reps).map(|_| timed(&mut f).1).collect();
    times.sort();
    times[times.len() / 2].as_secs_f64()
}

/// Canonical multiset form of an answer, for the parity check.
fn canon(bindings: Vec<Binding>) -> Vec<Vec<(String, u32)>> {
    let mut v: Vec<Vec<(String, u32)>> = bindings
        .into_iter()
        .map(|b| {
            let mut row: Vec<(String, u32)> = b.into_iter().map(|(k, s)| (k, s.0)).collect();
            row.sort();
            row
        })
        .collect();
    v.sort();
    v
}

/// The query families over the converted edge predicate `e`, plus the
/// two-predicate `hubpair` family over the skew store.
fn bgp_for(st: &mut TripleStore, family: &str) -> Bgp {
    let mut q = Bgp::new();
    match family {
        "triangle" => {
            q.add(st, "?a", "e", "?b");
            q.add(st, "?b", "e", "?c");
            q.add(st, "?c", "e", "?a");
        }
        "clique4" => {
            q.add(st, "?a", "e", "?b");
            q.add(st, "?a", "e", "?c");
            q.add(st, "?a", "e", "?d");
            q.add(st, "?b", "e", "?c");
            q.add(st, "?b", "e", "?d");
            q.add(st, "?c", "e", "?d");
        }
        "path3" => {
            q.add(st, "?a", "e", "?b");
            q.add(st, "?b", "e", "?c");
            q.add(st, "?c", "e", "?d");
        }
        "star3" => {
            q.add(st, "?hub", "e", "?x");
            q.add(st, "?hub", "e", "?y");
            q.add(st, "?hub", "e", "?z");
        }
        // Pairs of leaves under the same hub that are near the same
        // center. Every pattern has the same one-level cardinality, so
        // the greedy planner tie-breaks to `?a < ?c < ?b < ?h` and
        // enumerates every leaf; the sketch planner sees 8 distinct
        // `spoke` subjects in the heavy-hitter buckets and leads with
        // `?h`.
        "hubpair" => {
            q.add(st, "?a", "near", "?c");
            q.add(st, "?b", "near", "?c");
            q.add(st, "?h", "spoke", "?a");
            q.add(st, "?h", "spoke", "?b");
        }
        other => panic!("unknown BGP family {other}"),
    }
    q
}

/// The skew-adversarial store: `hubs` hubs own contiguous ranges of
/// `leaves` leaves (`spoke` edges), and leaf `i` is `near` center
/// `i % centers`. One-level prefix counts are identical across all
/// patterns of the `hubpair` query, so only degree statistics reveal
/// that leading with the 8-subject `spoke` predicate collapses the
/// search space.
fn skew_store(leaves: usize, hubs: usize, centers: usize) -> TripleStore {
    let mut st = TripleStore::new();
    let per_hub = leaves / hubs;
    for i in 0..leaves {
        st.insert_strs(&format!("h{}", i / per_hub), "spoke", &format!("n{i}"));
        st.insert_strs(&format!("n{i}"), "near", &format!("c{}", i % centers));
    }
    st
}

struct Case {
    store: &'static str,
    family: &'static str,
    patterns: usize,
    rows: usize,
    t_baseline: f64,
    t_greedy: f64,
    t_sketch: f64,
    agree: bool,
}

fn run_case(store: &'static str, st: &mut TripleStore, family: &'static str, reps: usize) -> Case {
    let q = bgp_for(st, family);
    let st = &*st;

    let gplan = lftj::plan(st, &q);
    let sk = StoreSketch::build(st);
    let sp = lftj::plan_sketched(st, &sk, &q);
    if let Err(e) = lftj::verify_plan(st, &q, &sp.plan) {
        panic!("sketch plan failed verification ({store}, {family}): {e}");
    }
    let agree = sp.plan.vars == gplan.vars;

    // Parity first: timing a wrong answer is worthless. Both planners'
    // orders must reproduce the backtracking oracle as a multiset.
    let greedy_run = lftj::solve_planned(st, &q, &gplan, 1);
    let sketch_run = lftj::solve_planned(st, &q, &sp.plan, 1);
    let oracle = canon(q.solve_baseline(st));
    assert_eq!(
        canon(greedy_run.bindings()),
        oracle,
        "greedy-planned LFTJ diverged from the backtracking baseline ({store}, {family})"
    );
    assert_eq!(
        canon(sketch_run.bindings()),
        oracle,
        "sketch-planned LFTJ diverged from the backtracking baseline ({store}, {family})"
    );
    let rows = greedy_run.rows.len();

    let t_greedy = median_secs(|| lftj::solve_planned(st, &q, &gplan, 1).rows.len(), reps);
    // Identical orders execute identically — reuse the measurement so
    // timer noise cannot fake a planner gap in either direction.
    let t_sketch = if agree {
        t_greedy
    } else {
        median_secs(|| lftj::solve_planned(st, &q, &sp.plan, 1).rows.len(), reps)
    };
    let t_baseline = median_secs(|| q.solve_baseline(st).len(), reps);

    Case {
        store,
        family,
        patterns: q.patterns.len(),
        rows,
        t_baseline,
        t_greedy,
        t_sketch,
        agree,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let reps = if quick { 1 } else { 3 };
    // Single-thread timings: the speedup is algorithmic (AGM bound +
    // flat rows vs per-candidate HashMap clones), not core-count.
    set_threads(1);

    let (er_n, er_m, ba_n) = if quick {
        (400, 3_200, 400)
    } else {
        (1_000, 8_000, 1_000)
    };
    let (leaves, hubs, centers) = if quick {
        (4_000, 8, 100)
    } else {
        (16_000, 8, 400)
    };
    let er = gnm_labeled(er_n, er_m, &["v"], &["e"], 17);
    let ba = barabasi_albert(ba_n, 5, "v", "e", 17);
    let mut er_st = labeled_to_rdf(&er);
    let mut ba_st = labeled_to_rdf(&ba);
    let mut skew_st = skew_store(leaves, hubs, centers);

    let families = ["triangle", "clique4", "path3", "star3"];
    let mut cases = Vec::new();
    for f in families {
        cases.push(run_case("er", &mut er_st, f, reps));
    }
    for f in families {
        cases.push(run_case("ba", &mut ba_st, f, reps));
    }
    cases.push(run_case("skew", &mut skew_st, "hubpair", reps));

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(
        json,
        "  \"stores\": {{\"er\": {{\"nodes\": {}, \"edges\": {}, \"triples\": {}}}, \
         \"ba\": {{\"nodes\": {}, \"edges\": {}, \"triples\": {}}}, \
         \"skew\": {{\"leaves\": {leaves}, \"hubs\": {hubs}, \"centers\": {centers}, \
         \"triples\": {}}}}},",
        er.node_count(),
        er.edge_count(),
        er_st.len(),
        ba.node_count(),
        ba.edge_count(),
        ba_st.len(),
        skew_st.len()
    );
    json.push_str("  \"cases\": [\n");
    let entries: Vec<String> = cases
        .iter()
        .map(|c| {
            format!(
                "    {{\"store\": \"{}\", \"family\": \"{}\", \"patterns\": {}, \"rows\": {}, \
                 \"lftj_s\": {:.6}, \"baseline_s\": {:.6}, \"speedup\": {:.3}, \
                 \"sketch_plan_s\": {:.6}, \"greedy_plan_s\": {:.6}, \"plans_agree\": {}}}",
                c.store,
                c.family,
                c.patterns,
                c.rows,
                c.t_greedy,
                c.t_baseline,
                c.t_baseline / c.t_greedy.max(1e-9),
                c.t_sketch,
                c.t_greedy,
                c.agree,
            )
        })
        .collect();
    json.push_str(&entries.join(",\n"));
    json.push_str("\n  ]\n}\n");

    write_report(&args, "bgp", &json);
    print!("{json}");

    // Headline assertions mirroring the PR's acceptance bar: the cyclic
    // families must clear 10x on the skewed (BA) store — the case the
    // AGM bound is about. On uniform ER data greedy backtracking is
    // near-optimal and the gap is structurally smaller; those numbers
    // are reported but not gated.
    for family in ["triangle", "clique4"] {
        for store in ["ba", "er"] {
            let c = cases
                .iter()
                .find(|c| c.store == store && c.family == family)
                .expect("case present");
            let speedup = c.t_baseline / c.t_greedy.max(1e-9);
            eprintln!("{store} {family} LFTJ speedup: {speedup:.2}x");
            if !quick && store == "ba" {
                assert!(
                    speedup >= 10.0,
                    "{store} {family} speedup {speedup:.2}x below the 10x bar"
                );
            }
        }
    }

    // Planner A/B gates. The relative bar is the acceptance criterion;
    // the small absolute slack keeps sub-millisecond cases from failing
    // on timer noise alone.
    for c in &cases {
        eprintln!(
            "{} {} planner A/B: sketch {:.4}s vs greedy {:.4}s (agree: {})",
            c.store, c.family, c.t_sketch, c.t_greedy, c.agree
        );
        assert!(
            c.t_sketch <= c.t_greedy * 1.10 + 0.02,
            "{} {}: sketch-planned run {:.4}s regressed >10% vs greedy {:.4}s",
            c.store,
            c.family,
            c.t_sketch,
            c.t_greedy
        );
    }
    if let Some(c) = cases.iter().find(|c| c.store == "skew") {
        let gain = c.t_greedy / c.t_sketch.max(1e-9);
        eprintln!("skew hubpair sketch-planner gain: {gain:.2}x");
        if !quick {
            assert!(
                gain >= 1.5,
                "skew hubpair: sketch plan gain {gain:.2}x below the 1.5x bar"
            );
        }
    }
}
