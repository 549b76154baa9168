//! Differential test of the SPARQL row surface: the pipeline keeps rows
//! as term symbols, ranks them per answer and writes strings once; its
//! body must equal the string algorithm it replaced — project each row to
//! `String`s, `sort`, `dedup`, join with tabs — over random stores whose
//! symbol order disagrees with string order, at 1, 2 and 4 threads.

use kgq_core::govern::{Budget, Completion, Governed, Governor};
use kgq_core::parallel::set_threads;
use kgq_graph::generate::{contact_network, ContactParams};
use kgq_rdf::lftj::{self, Solution};
use kgq_rdf::{analyze_bgp, labeled_to_rdf, parse_select, plan_sketched};
use kgq_rdf::{SelectQuery, StoreSketch, TermPattern, TripleStore};
use kgq_serve::pipeline;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Terms whose string order is not their interning order: numeric
/// suffixes (`p1` < `p10` < `p2`), shared prefixes, case, literals and a
/// non-ASCII byte.
const POOL: &[&str] = &[
    "p1", "p10", "p2", "p100", "p", "a", "ab", "abc", "B", "z", "Z", "\"p1\"", "\"a b\"", "\"\"",
    "é", "p1/x",
];

/// Predicates, a prefix of [`POOL`].
const PREDS: &[&str] = &["p1", "p10", "p2"];

/// Spells a term as a SPARQL constant.
fn constant(t: &str) -> String {
    if t.starts_with('"') {
        t.to_owned()
    } else {
        format!("<{t}>")
    }
}

/// A random store over a random slice of [`POOL`], interned in reverse
/// or shuffled order before any triple is inserted.
fn random_store(rng: &mut StdRng) -> (TripleStore, Vec<&'static str>) {
    let mut terms: Vec<&str> = POOL[..rng.gen_range(3..=POOL.len())].to_vec();
    let mut st = TripleStore::new();
    if rng.gen_bool(0.5) {
        terms.reverse();
    } else {
        for i in (1..terms.len()).rev() {
            terms.swap(i, rng.gen_range(0..=i));
        }
    }
    for t in &terms {
        st.term(t);
    }
    for _ in 0..rng.gen_range(0..60) {
        let s = terms[rng.gen_range(0..terms.len())];
        let p = PREDS[rng.gen_range(0..PREDS.len())];
        let o = terms[rng.gen_range(0..terms.len())];
        st.insert_strs(s, p, o);
    }
    (st, terms)
}

/// A random query text: 1–3 patterns over `?v0..?v3`, then a projection
/// of a random subset (so duplicates appear), `*`, or COUNT.
fn random_query(rng: &mut StdRng, terms: &[&str]) -> String {
    let mut vars: Vec<String> = Vec::new();
    let slot = |rng: &mut StdRng, vars: &mut Vec<String>, pred: bool| {
        if rng.gen_bool(if pred { 0.15 } else { 0.75 }) {
            let v = format!("?v{}", rng.gen_range(0..4));
            if !vars.contains(&v) {
                vars.push(v.clone());
            }
            v
        } else if pred {
            constant(PREDS[rng.gen_range(0..PREDS.len())])
        } else {
            constant(terms[rng.gen_range(0..terms.len())])
        }
    };
    let mut body = String::new();
    for _ in 0..rng.gen_range(1..=3) {
        let s = slot(rng, &mut vars, false);
        let p = slot(rng, &mut vars, true);
        let o = slot(rng, &mut vars, false);
        body.push_str(&format!("{s} {p} {o} . "));
    }
    let head = match rng.gen_range(0..4) {
        0 => "*".to_owned(),
        1 => "(COUNT(*) AS ?n)".to_owned(),
        _ if vars.is_empty() => "*".to_owned(),
        _ => {
            let keep: Vec<&str> = vars
                .iter()
                .map(String::as_str)
                .filter(|_| rng.gen_bool(0.5))
                .collect();
            if keep.is_empty() {
                vars[0].clone()
            } else {
                keep.join(" ")
            }
        }
    };
    format!("SELECT {head} WHERE {{ {body}}}")
}

/// The replaced algorithm: rows projected to strings, sorted,
/// deduplicated and joined with tabs, then the partial trailer.
fn string_rows(st: &TripleStore, q: &SelectQuery, solved: Governed<Solution>) -> String {
    let sol = &solved.value;
    let idx: Vec<usize> = q
        .vars
        .iter()
        .map(|v| sol.vars.iter().position(|u| u == v).unwrap())
        .collect();
    let mut rows: Vec<Vec<String>> = sol
        .rows
        .iter()
        .map(|row| {
            idx.iter()
                .map(|&i| st.term_str(row[i]).to_owned())
                .collect()
        })
        .collect();
    rows.sort();
    rows.dedup();
    let mut out = String::new();
    for row in rows {
        out.push_str(&row.join("\t"));
        out.push('\n');
    }
    if let Completion::Partial(why) = &solved.completion {
        out.push_str(&format!("# partial: {why}\n"));
    }
    out
}

/// What the pipeline must answer for `q` under `budget`: the string
/// algorithm over the same sketch plan, or the exact count.
fn oracle(st: &TripleStore, q: &SelectQuery, budget: &Budget) -> String {
    if q.count.is_some() {
        return format!("{}\n", lftj::solve(st, &q.pattern).rows.len());
    }
    if analyze_bgp(st, &q.pattern, Some(&q.vars)).provably_empty {
        return String::new();
    }
    let sk = StoreSketch::build(st);
    let plan = plan_sketched(st, &sk, &q.pattern).plan;
    let solved = lftj::solve_planned_governed(st, &q.pattern, &plan, &Governor::new(budget))
        .expect("sound plan");
    string_rows(st, q, solved)
}

/// Distinct variables of the WHERE pattern.
fn pattern_vars(q: &SelectQuery) -> usize {
    let mut seen: Vec<&str> = Vec::new();
    for tp in &q.pattern.patterns {
        for t in [&tp.s, &tp.p, &tp.o] {
            if let TermPattern::Var(v) = t {
                if !seen.contains(&v.as_str()) {
                    seen.push(v);
                }
            }
        }
    }
    seen.len()
}

fn pipeline_body(st: &TripleStore, q: &SelectQuery, budget: &Budget) -> String {
    let answer = pipeline::sparql(st, || StoreSketch::build(st), q, &Governor::new(budget));
    answer
        .into_result()
        .expect("SPARQL answers are never errors")
}

#[test]
fn symbol_rows_equal_string_rows() {
    let mut big = labeled_to_rdf(
        contact_network(&ContactParams {
            people: 2_000,
            buses: 80,
            addresses: 500,
            seed: 1,
            ..ContactParams::default()
        })
        .labeled(),
    );
    let co_riders = parse_select(
        "SELECT ?a ?b WHERE { ?a <rides> ?bus . ?b <rides> ?bus . }",
        &mut big,
    )
    .unwrap();
    let mut fixed = TripleStore::new();
    fixed.insert_strs("a", "b", "c");
    let width0 = parse_select("SELECT * WHERE { <a> <b> <c> }", &mut fixed).unwrap();
    let width0_empty = parse_select("SELECT * WHERE { <a> <b> <a> }", &mut fixed).unwrap();

    let unlimited = Budget::unlimited();
    for threads in [1usize, 2, 4] {
        set_threads(threads);
        let mut rng = StdRng::seed_from_u64(threads as u64);
        let (mut dropped, mut widths, mut partials, mut rows) = (0, [0usize; 5], 0, 0);
        for case in 0..300 {
            let (mut st, terms) = random_store(&mut rng);
            let text = random_query(&mut rng, &terms);
            let q = parse_select(&text, &mut st).expect("generated queries parse");
            let budget = if q.count.is_none() && rng.gen_bool(0.3) {
                Budget::unlimited().with_max_results(rng.gen_range(0..6))
            } else {
                Budget::unlimited()
            };
            let got = pipeline_body(&st, &q, &budget);
            assert_eq!(
                got,
                oracle(&st, &q, &budget),
                "threads {threads}, case {case}: {text}"
            );
            if q.count.is_none() {
                widths[q.vars.len().min(4)] += 1;
                dropped += usize::from(q.vars.len() < pattern_vars(&q));
                partials += usize::from(got.contains("# partial:"));
                rows += got.lines().filter(|l| !l.starts_with('#')).count();
            }
        }
        // The generator reaches the shapes this test is about.
        assert!(
            dropped > 20 && partials > 5 && rows > 200,
            "{dropped} {partials} {rows}"
        );
        assert!(widths.iter().all(|&n| n > 0), "{widths:?}");

        assert_eq!(pipeline_body(&fixed, &width0, &unlimited), "\n");
        assert_eq!(pipeline_body(&fixed, &width0_empty, &unlimited), "");
        let got = pipeline_body(&big, &co_riders, &unlimited);
        assert!(got.len() > 1 << 20, "{} bytes", got.len());
        assert_eq!(
            got,
            oracle(&big, &co_riders, &unlimited),
            "threads {threads}"
        );
    }
}
