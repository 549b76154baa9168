//! `kgq` — command-line interface to the library.
//!
//! ```text
//! kgq generate contact --people 50 --seed 7        # emit a graph (text format)
//! kgq query GRAPH 'EXPR' [pairs|starts|count K|enumerate K|sample K N]
//! kgq cypher GRAPH 'MATCH ... RETURN ...'
//! kgq analytics GRAPH [pagerank|betweenness|components|diameter|densest]
//! kgq rdf FILE.nt path 'EXPR' | infer
//! kgq sparql FILE.nt 'SELECT ... WHERE { ... }' [--explain|--count]
//! kgq analyze (query|cypher|sparql|rules) FILE 'TEXT'
//! ```
//!
//! Graphs use the text format of `kgq::graph::io` (`node`/`edge`/`nprop`/
//! `eprop` lines); RDF files are N-Triples.

use kgq::analytics;
use kgq::core::{
    analyze_expr, count_paths_analyzed, count_paths_governed, enumerate_paths,
    enumerate_paths_governed, enumerate_paths_resumed, parse_expr, Budget, CancelToken, Completion,
    Cursor, EvalError, Governed, Governor, PropertyView, QueryCache, UniformSampler,
};
use kgq::cypher;
use kgq::graph::generate::{barabasi_albert, contact_network, gnm_labeled, ContactParams};
use kgq::graph::io::{read_property, write_labeled, write_property};
use kgq::rdf;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  kgq generate (contact|er|ba) [--people N] [--nodes N] [--edges M] [--seed S]\n  \
         kgq query GRAPH EXPR [pairs|starts|count K|enumerate K|sample K N] [GOVERN]\n  \
         kgq cypher GRAPH QUERY [GOVERN]\n  \
         kgq analytics GRAPH (pagerank|betweenness|components|diameter|densest)\n  \
         kgq rdf FILE (path EXPR|select QUERY|infer)\n  \
         kgq sparql FILE QUERY [--explain|--count] [GOVERN]\n  \
         kgq analyze (query|cypher|sparql|rules) FILE TEXT\n  \
         kgq serve GRAPH [--nt FILE] [--store DIR] [--port P] [--workers W] [GOVERN]\n  \
         kgq store (init DIR [--nt FILE]|append DIR FILE [--delete]|compact DIR|verify DIR|dump DIR)\n  \
         kgq scale gen FILE.seg [--nodes N] [--m M] [--labels L] [--seed S] [--edge-ids]\n  \
         kgq scale stats FILE.seg\n  \
         kgq scale query FILE.seg EXPR [pairs|starts] [--from V] [--span K] [--chunks C] [GOVERN]\n  \
         kgq scale triangles FILE.seg LAB LBC LAC [--from V] [--span K] [--chunks C] [GOVERN]\n\n  \
         GOVERN: --timeout MS | --max-steps N | --max-results N | --max-memory-mb N\n  \
         query/cypher also take --explain (print the static-analysis\n  \
         verdict instead of executing), --verbose (cache stats on\n  \
         stderr) and honor KGQ_CACHE_CAP (compiled-query cache capacity)\n  \
         (partial results end with `# partial: REASON`; enumerate adds\n  \
         `# cursor: C`, replayable via `enumerate K --resume C`)"
    );
    ExitCode::from(2)
}

fn flag(args: &[String], name: &str, default: usize) -> usize {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn num_flag(args: &[String], name: &str) -> Result<Option<u64>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or_else(|| format!("{name} needs a number")),
    }
}

fn str_flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Parses the resource-governance flags. `None` when no flag is present:
/// the command then takes the ungoverned (zero-overhead) paths.
fn budget_from(args: &[String]) -> Result<Option<Budget>, String> {
    let mut budget = Budget::default();
    let mut any = false;
    if let Some(ms) = num_flag(args, "--timeout")? {
        budget = budget.with_deadline(std::time::Duration::from_millis(ms));
        any = true;
    }
    if let Some(n) = num_flag(args, "--max-steps")? {
        budget = budget.with_max_steps(n);
        any = true;
    }
    if let Some(n) = num_flag(args, "--max-results")? {
        budget = budget.with_max_results(n);
        any = true;
    }
    if let Some(n) = num_flag(args, "--max-memory-mb")? {
        budget = budget.with_max_memory(n.saturating_mul(1 << 20));
        any = true;
    }
    Ok(any.then_some(budget))
}

/// Appends the `# partial:` / `# degraded:` trailer lines that mark a
/// governed result as incomplete or downgraded.
fn completion_marker<T>(out: &mut String, res: &Governed<T>) {
    if let Completion::Partial(why) = &res.completion {
        out.push_str(&format!("# partial: {why}\n"));
    }
    if res.degraded {
        out.push_str("# degraded: exact budget exhausted, approximate estimate\n");
    }
}

fn load_graph(path: &str) -> Result<kgq::graph::PropertyGraph, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    read_property(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_generate(args: &[String]) -> Result<String, String> {
    let kind = args.first().ok_or("generate needs a kind")?;
    let seed = flag(args, "--seed", 42) as u64;
    match kind.as_str() {
        "contact" => {
            let g = contact_network(&ContactParams {
                people: flag(args, "--people", 50),
                buses: flag(args, "--buses", 5),
                addresses: flag(args, "--addresses", 20),
                seed,
                ..ContactParams::default()
            });
            Ok(write_property(&g))
        }
        "er" => {
            let g = gnm_labeled(
                flag(args, "--nodes", 100),
                flag(args, "--edges", 400),
                &["v"],
                &["p", "q"],
                seed,
            );
            Ok(write_labeled(&g))
        }
        "ba" => {
            let g = barabasi_albert(flag(args, "--nodes", 100), 3, "v", "link", seed);
            Ok(write_labeled(&g))
        }
        other => Err(format!("unknown generator `{other}`")),
    }
}

fn cmd_query(args: &[String]) -> Result<String, String> {
    let [path, expr_text, rest @ ..] = args else {
        return Err("query needs GRAPH and EXPR".into());
    };
    let mut g = load_graph(path)?;
    let expr =
        parse_expr(expr_text, g.labeled_mut().consts_mut()).map_err(|e| e.render(expr_text))?;
    // Static analysis before compiling any product: emptiness,
    // satisfiability, blowup and plan advice (DESIGN.md §10). With
    // `--explain` the verdict IS the output — nothing is executed.
    let schema = kgq::graph::SchemaSummary::from_property(&g);
    let report = analyze_expr(&expr, &schema, Some((expr_text, g.labeled().consts())));
    if rest.iter().any(|a| a == "--explain") {
        return Ok(report.render(expr_text));
    }
    let view = PropertyView::new(&g);
    let op = rest
        .first()
        .map(String::as_str)
        .filter(|s| !s.starts_with("--"))
        .unwrap_or("pairs");
    let budget = budget_from(rest)?;
    // Reachability-style ops share one compiled product via the query
    // cache (keyed by the graph's generation stamp and the query's
    // minimal-DFA signature). Capacity honors KGQ_CACHE_CAP.
    let cache = QueryCache::from_env();
    let verbose = rest.iter().any(|a| a == "--verbose");
    let mut out = String::new();
    match op {
        "pairs" => {
            if let Some(b) = &budget {
                let gov = Governor::new(b);
                let compiled =
                    match cache.get_or_compile_governed(&view, g.generation(), &expr, &gov) {
                        Ok(c) => c,
                        // Budget exhausted before the automaton even built:
                        // the answer is the empty prefix, reported as a
                        // typed partial rather than a hard error.
                        Err(EvalError::Interrupted(why)) => {
                            out.push_str(&format!("# partial: {why}\n"));
                            return Ok(out);
                        }
                        Err(e) => return Err(e.to_string()),
                    };
                let res = compiled
                    .evaluator()
                    .pairs_governed(&gov)
                    .map_err(|e| e.to_string())?;
                for (a, b) in &res.value {
                    out.push_str(&format!(
                        "{}\t{}\n",
                        g.labeled().node_name(*a),
                        g.labeled().node_name(*b)
                    ));
                }
                completion_marker(&mut out, &res);
            } else if let Some(compiled) =
                cache.get_or_compile_checked(&view, g.generation(), &expr, &report)
            {
                for (a, b) in compiled.evaluator().pairs_planned(report.plan) {
                    out.push_str(&format!(
                        "{}\t{}\n",
                        g.labeled().node_name(a),
                        g.labeled().node_name(b)
                    ));
                }
            }
        }
        "starts" => {
            if let Some(b) = &budget {
                let gov = Governor::new(b);
                let compiled =
                    match cache.get_or_compile_governed(&view, g.generation(), &expr, &gov) {
                        Ok(c) => c,
                        Err(EvalError::Interrupted(why)) => {
                            out.push_str(&format!("# partial: {why}\n"));
                            return Ok(out);
                        }
                        Err(e) => return Err(e.to_string()),
                    };
                let res = compiled
                    .evaluator()
                    .matching_starts_governed(&gov)
                    .map_err(|e| e.to_string())?;
                for n in &res.value {
                    out.push_str(g.labeled().node_name(*n));
                    out.push('\n');
                }
                completion_marker(&mut out, &res);
            } else if let Some(compiled) =
                cache.get_or_compile_checked(&view, g.generation(), &expr, &report)
            {
                for n in compiled.evaluator().matching_starts_planned(report.plan) {
                    out.push_str(g.labeled().node_name(n));
                    out.push('\n');
                }
            }
        }
        "count" => {
            let k: usize = rest
                .get(1)
                .and_then(|v| v.parse().ok())
                .ok_or("count needs K")?;
            if let Some(b) = &budget {
                let res = count_paths_governed(&view, &expr, k, b, CancelToken::new())
                    .map_err(|e| e.to_string())?;
                out.push_str(&format!("{}\n", res.value));
                completion_marker(&mut out, &res);
            } else {
                // The analyzer's verdict routes the count: provably-empty
                // short-circuits to 0, a dfa-blowup `Deny` re-routes to
                // the FPRAS estimator with a degraded annotation.
                let res =
                    count_paths_analyzed(&view, &expr, k, &report).map_err(|e| e.to_string())?;
                out.push_str(&format!("{}\n", res.value));
                if res.degraded {
                    out.push_str(
                        "# degraded: exact counting denied (determinization blowup), \
                         approximate estimate\n",
                    );
                }
            }
        }
        "enumerate" => {
            let k: usize = rest
                .get(1)
                .and_then(|v| v.parse().ok())
                .ok_or("enumerate needs K")?;
            let resume: Option<Cursor> = match str_flag(rest, "--resume") {
                Some(text) => Some(text.parse().map_err(|e| format!("--resume: {e}"))?),
                None => None,
            };
            if budget.is_some() || resume.is_some() {
                let gov = Governor::new(&budget.unwrap_or_default());
                let res = match match &resume {
                    Some(cursor) => enumerate_paths_resumed(&view, &expr, cursor, &gov),
                    None => enumerate_paths_governed(&view, &expr, k, &gov),
                } {
                    Ok(res) => res,
                    // Exhausted before the enumerator was built: empty
                    // partial (no cursor — there is nothing to resume).
                    Err(EvalError::Interrupted(why)) => {
                        out.push_str(&format!("# partial: {why}\n"));
                        return Ok(out);
                    }
                    Err(e) => return Err(e.to_string()),
                };
                for p in &res.value.paths {
                    out.push_str(&p.render(g.labeled()));
                    out.push('\n');
                }
                if let Some(cursor) = &res.value.cursor {
                    out.push_str(&format!("# cursor: {cursor}\n"));
                }
                completion_marker(&mut out, &res);
            } else {
                for p in enumerate_paths(&view, &expr, k) {
                    out.push_str(&p.render(g.labeled()));
                    out.push('\n');
                }
            }
        }
        "sample" => {
            let k: usize = rest
                .get(1)
                .and_then(|v| v.parse().ok())
                .ok_or("sample needs K")?;
            let n: usize = rest.get(2).and_then(|v| v.parse().ok()).unwrap_or(5);
            let sampler = UniformSampler::new(&view, &expr, k).map_err(|e| e.to_string())?;
            let mut rng = StdRng::seed_from_u64(flag(rest, "--seed", 1) as u64);
            for _ in 0..n {
                match sampler.sample(&mut rng) {
                    Some(p) => {
                        out.push_str(&p.render(g.labeled()));
                        out.push('\n');
                    }
                    None => return Err("no answers to sample".into()),
                }
            }
        }
        other => return Err(format!("unknown query op `{other}`")),
    }
    if verbose {
        eprintln!("cache: {}", cache.stats());
    }
    Ok(out)
}

fn cmd_cypher(args: &[String]) -> Result<String, String> {
    let [path, query_text, rest @ ..] = args else {
        return Err("cypher needs GRAPH and QUERY".into());
    };
    let g = load_graph(path)?;
    let q = cypher::parse_query(query_text).map_err(|e| e.render(query_text))?;
    if rest.iter().any(|a| a == "--explain") {
        let report = cypher::analyze_query(&g, &q, Some(query_text));
        return Ok(report.render(query_text));
    }
    let cache = QueryCache::from_env();
    let verbose = rest.iter().any(|a| a == "--verbose");
    let mut out = String::new();
    if let Some(b) = budget_from(rest)? {
        let gov = Governor::new(&b);
        let res = cypher::execute_governed(&g, &q, &cache, &gov).map_err(|e| e.to_string())?;
        for row in &res.value {
            out.push_str(&row.join("\t"));
            out.push('\n');
        }
        completion_marker(&mut out, &res);
    } else {
        for row in cypher::execute_cached(&g, &q, &cache) {
            out.push_str(&row.join("\t"));
            out.push('\n');
        }
    }
    if verbose {
        eprintln!("cache: {}", cache.stats());
    }
    Ok(out)
}

fn cmd_analytics(args: &[String]) -> Result<String, String> {
    let [path, metric] = args else {
        return Err("analytics needs GRAPH and METRIC".into());
    };
    let g = load_graph(path)?.into_labeled();
    let mut out = String::new();
    match metric.as_str() {
        "pagerank" => {
            let pr = analytics::pagerank(&g, &analytics::PageRankParams::default());
            let mut scored: Vec<(usize, f64)> = pr.iter().copied().enumerate().collect();
            scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("no NaN"));
            for (i, score) in scored.into_iter().take(20) {
                out.push_str(&format!(
                    "{}\t{score:.5}\n",
                    g.node_name(kgq::graph::NodeId(i as u32))
                ));
            }
        }
        "betweenness" => {
            let bc = analytics::betweenness_undirected(&g);
            let mut scored: Vec<(usize, f64)> = bc.iter().copied().enumerate().collect();
            scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("no NaN"));
            for (i, score) in scored.into_iter().take(20) {
                out.push_str(&format!(
                    "{}\t{score:.2}\n",
                    g.node_name(kgq::graph::NodeId(i as u32))
                ));
            }
        }
        "components" => {
            let comp = analytics::weakly_connected_components(&g);
            let count = comp.iter().max().map_or(0, |m| m + 1);
            out.push_str(&format!("{count} weakly connected components\n"));
        }
        "diameter" => match analytics::diameter(&g, false) {
            Some(d) => out.push_str(&format!("diameter {d}\n")),
            None => out.push_str("no finite distances\n"),
        },
        "densest" => {
            let (nodes, density) = analytics::densest_subgraph_exact(&g);
            out.push_str(&format!("density {density:.3} on {} nodes:\n", nodes.len()));
            for n in nodes {
                out.push_str(g.node_name(n));
                out.push('\n');
            }
        }
        other => return Err(format!("unknown metric `{other}`")),
    }
    Ok(out)
}

fn cmd_rdf(args: &[String]) -> Result<String, String> {
    let [path, rest @ ..] = args else {
        return Err("rdf needs FILE".into());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut st = rdf::parse_ntriples(&text).map_err(|e| e.to_string())?;
    match rest.first().map(String::as_str) {
        Some("path") => {
            let expr = rest.get(1).ok_or("path needs EXPR")?;
            let mut out = String::new();
            for (a, b) in rdf::rpq_pairs(&st, expr).map_err(|e| e.to_string())? {
                out.push_str(&format!("{a}\t{b}\n"));
            }
            Ok(out)
        }
        Some("select") => {
            let q = rest.get(1).ok_or("select needs a query")?;
            let mut out = String::new();
            for row in rdf::select(&mut st, q).map_err(|e| e.to_string())? {
                out.push_str(&row.join("\t"));
                out.push('\n');
            }
            Ok(out)
        }
        Some("infer") => {
            let stats = rdf::materialize_rdfs(&mut st);
            let mut out = rdf::write_ntriples(&st);
            out.push_str(&format!(
                "# inferred {} triples in {} rounds\n",
                stats.inferred, stats.rounds
            ));
            Ok(out)
        }
        _ => Err("rdf needs `path EXPR`, `select QUERY` or `infer`".into()),
    }
}

/// `kgq sparql FILE QUERY [--explain|--count] [GOVERN]` — SELECT evaluation by
/// the leapfrog triejoin, with the analyzer + plan report behind
/// `--explain` and the standard governance flags.
fn cmd_sparql(args: &[String]) -> Result<String, String> {
    let [path, query, rest @ ..] = args else {
        return Err("sparql needs FILE and QUERY".into());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut st = rdf::parse_ntriples(&text).map_err(|e| e.to_string())?;
    if rest.iter().any(|a| a == "--explain") {
        return rdf::explain_select(&mut st, query).map_err(|e| e.to_string());
    }
    let mut out = String::new();
    if rest.iter().any(|a| a == "--count") {
        // Count surface: exact under budget, XOR-hash estimate past it
        // (the `# degraded` marker flags the estimate).
        let mut q = rdf::parse_select(query, &mut st).map_err(|e| e.to_string())?;
        if q.count.is_none() {
            q.count = Some("count".to_owned());
            q.vars.clear();
        }
        let budget = budget_from(rest)?.unwrap_or_default();
        let gov = Governor::new(&budget);
        let sk = rdf::StoreSketch::build(&st);
        let res = rdf::select_governed_with(&st, &q, Some(&sk), &gov).map_err(|e| e.to_string())?;
        for row in &res.rows.value {
            out.push_str(&row.join("\t"));
            out.push('\n');
        }
        completion_marker(&mut out, &res.rows);
        return Ok(out);
    }
    match budget_from(rest)? {
        Some(budget) => {
            let q = rdf::parse_select(query, &mut st).map_err(|e| e.to_string())?;
            let gov = Governor::new(&budget);
            let res = rdf::select_governed(&st, &q, &gov).map_err(|e| e.to_string())?;
            for row in &res.value {
                out.push_str(&row.join("\t"));
                out.push('\n');
            }
            completion_marker(&mut out, &res);
        }
        None => {
            for row in rdf::select(&mut st, query).map_err(|e| e.to_string())? {
                out.push_str(&row.join("\t"));
                out.push('\n');
            }
        }
    }
    Ok(out)
}

/// `kgq analyze (query|cypher|sparql|rules) FILE TEXT` — run the
/// matching static analyzer and print its report without executing
/// anything. `query`/`cypher` load a property graph, `sparql`/`rules`
/// an N-Triples file; for `rules`, TEXT may also name a file holding
/// the program (one `head :- body .` rule per line).
fn cmd_analyze(args: &[String]) -> Result<String, String> {
    let [kind, path, text_arg, ..] = args else {
        return Err(
            "analyze needs (query|cypher|sparql|rules), a data FILE and the query text".into(),
        );
    };
    match kind.as_str() {
        "query" => {
            let mut g = load_graph(path)?;
            let expr = parse_expr(text_arg, g.labeled_mut().consts_mut())
                .map_err(|e| e.render(text_arg))?;
            let schema = kgq::graph::SchemaSummary::from_property(&g);
            let report = analyze_expr(&expr, &schema, Some((text_arg, g.labeled().consts())));
            Ok(report.render(text_arg))
        }
        "cypher" => {
            let g = load_graph(path)?;
            let q = cypher::parse_query(text_arg).map_err(|e| e.render(text_arg))?;
            Ok(cypher::analyze_query(&g, &q, Some(text_arg)).render(text_arg))
        }
        "sparql" => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let mut st = rdf::parse_ntriples(&text).map_err(|e| e.to_string())?;
            let q = rdf::parse_select(text_arg, &mut st).map_err(|e| e.to_string())?;
            let (_report, rendered) = rdf::explain_parsed(&st, &q);
            Ok(rendered)
        }
        "rules" => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let mut st = rdf::parse_ntriples(&text).map_err(|e| e.to_string())?;
            let program = match std::fs::read_to_string(text_arg) {
                Ok(file_text) => file_text,
                Err(_) => text_arg.clone(),
            };
            let rules = kgq::logic::parse_program(&mut st, &program).map_err(|e| e.to_string())?;
            Ok(kgq::logic::analyze_program(&st, &rules).render())
        }
        other => Err(format!(
            "unknown analyze kind `{other}` (expected query|cypher|sparql|rules)"
        )),
    }
}

/// `kgq store (init|append|compact|verify|dump)` — manage a durable
/// store directory (checksummed WAL + immutable segment; see
/// DESIGN.md §13). `verify` is read-only: it reports segment shape, WAL
/// health and what recovery would truncate, without mutating anything.
fn cmd_store(args: &[String]) -> Result<String, String> {
    let [sub, dir, rest @ ..] = args else {
        return Err("store needs (init|append|compact|verify|dump) and DIR".into());
    };
    let path = std::path::Path::new(dir);
    let io_err = |e: std::io::Error| format!("{dir}: {e}");
    match sub.as_str() {
        "init" => {
            let (mut store, _) = kgq_store::DurableStore::open(path).map_err(io_err)?;
            if let Some(nt_path) = str_flag(rest, "--nt") {
                let text =
                    std::fs::read_to_string(nt_path).map_err(|e| format!("{nt_path}: {e}"))?;
                let parsed = rdf::parse_ntriples(&text).map_err(|e| e.to_string())?;
                for t in parsed.iter() {
                    store.stage_insert(
                        parsed.term_str(t.s),
                        parsed.term_str(t.p),
                        parsed.term_str(t.o),
                    );
                }
                store.commit().map_err(io_err)?;
                // Bulk loads go straight to a compact segment.
                store.compact().map_err(io_err)?;
            }
            Ok(format!(
                "initialized {dir} at generation {} ({} triples)\n",
                store.generation(),
                store.len()
            ))
        }
        "append" => {
            let [file, ..] = rest else {
                return Err("store append needs DIR and FILE.nt".into());
            };
            let delete = rest.iter().any(|a| a == "--delete");
            let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
            let parsed = rdf::parse_ntriples(&text).map_err(|e| e.to_string())?;
            let (mut store, _) = kgq_store::DurableStore::open(path).map_err(io_err)?;
            for t in parsed.iter() {
                let (s, p, o) = (
                    parsed.term_str(t.s),
                    parsed.term_str(t.p),
                    parsed.term_str(t.o),
                );
                if delete {
                    store.stage_delete(s, p, o);
                } else {
                    store.stage_insert(s, p, o);
                }
            }
            let ops = store.pending_len();
            let generation = store.commit().map_err(io_err)?;
            Ok(format!(
                "committed generation {generation} ({ops} op(s)); {} triples, wal {} bytes\n",
                store.len(),
                store.wal_len()
            ))
        }
        "compact" => {
            let (mut store, _) = kgq_store::DurableStore::open(path).map_err(io_err)?;
            store.compact().map_err(io_err)?;
            Ok(format!(
                "compacted {dir} at generation {} ({} triples, {} edges); wal {} bytes\n",
                store.generation(),
                store.len(),
                store.edge_count(),
                store.wal_len()
            ))
        }
        "verify" => {
            let report = kgq_store::DurableStore::verify(path).map_err(io_err)?;
            Ok(format!("{}\n", report.render()))
        }
        "dump" => {
            let (store, _) = kgq_store::DurableStore::open(path).map_err(io_err)?;
            let mut out = String::new();
            for (s, p, o) in store.scan_all() {
                out.push_str(&format!("<{s}> <{p}> <{o}> .\n"));
            }
            Ok(out)
        }
        other => Err(format!(
            "unknown store subcommand `{other}` (expected init|append|compact|verify|dump)"
        )),
    }
}

/// `kgq serve GRAPH [--nt FILE] [--port P] [--workers W] [GOVERN]` —
/// long-lived multi-client query server over the loaded snapshot.
/// GOVERN flags become the *server-side* caps every request is admitted
/// under (componentwise min with the client's own caps). Prints
/// `listening on ADDR` once bound, then blocks until a client sends
/// `SHUTDOWN`; shuts down cleanly (all threads joined) and reports
/// final stats on stderr.
fn cmd_serve(args: &[String]) -> Result<String, String> {
    let [path, rest @ ..] = args else {
        return Err("serve needs GRAPH".into());
    };
    let mut g = load_graph(path)?;
    let mut st = match str_flag(rest, "--nt") {
        Some(nt_path) => {
            let text = std::fs::read_to_string(nt_path).map_err(|e| format!("{nt_path}: {e}"))?;
            rdf::parse_ntriples(&text).map_err(|e| e.to_string())?
        }
        None => rdf::TripleStore::new(),
    };
    // `--store DIR`: recover the durable store and fold its committed
    // state into the snapshot; INSERT/DELETE batches are then
    // WAL-committed (fsynced) before acknowledgement, and FLUSH
    // compacts. Without it mutations stay in-memory only.
    let durable = match str_flag(rest, "--store") {
        Some(dir) => {
            let (durable, replay) = kgq_store::DurableStore::open(std::path::Path::new(dir))
                .map_err(|e| format!("{dir}: {e}"))?;
            if replay.total_len > replay.committed_len {
                eprintln!(
                    "kgq serve: {dir}: WAL tail was {}; truncated to the committed prefix \
                     ({} uncommitted op(s) discarded)",
                    replay.tail.describe(),
                    replay.uncommitted_ops
                );
            }
            // One bulk merge into whatever `--nt` loaded, terms interned
            // in the merged view's sorted order.
            st.extend_strs(&durable.scan_all());
            kgq_serve::apply_edges(&mut g, durable.all_edges());
            eprintln!(
                "kgq serve: {dir}: recovered generation {} ({} triples, {} edges)",
                durable.generation(),
                durable.len(),
                durable.edge_count()
            );
            Some(durable)
        }
        None => None,
    };
    let cfg = kgq_serve::ServerConfig {
        addr: format!("127.0.0.1:{}", flag(rest, "--port", 0)),
        workers: flag(rest, "--workers", 4),
        caps: budget_from(rest)?.unwrap_or_default(),
    };
    let handle = kgq_serve::serve_with_store(g, st, durable, cfg).map_err(|e| e.to_string())?;
    println!("listening on {}", handle.addr());
    use std::io::Write;
    std::io::stdout().flush().ok();
    handle.wait();
    let stats = handle.snapshot().stats.render(
        &handle.snapshot().cache().stats(),
        flag(rest, "--workers", 4),
    );
    handle.shutdown();
    eprintln!("kgq serve: shut down cleanly; final stats:\n{stats}");
    Ok(String::new())
}

/// `kgq scale (gen|stats|query|triangles)` — the compressed out-of-core
/// data plane (DESIGN.md §14). `gen` builds a bit-packed BA graph and
/// writes it as the packed section of an immutable segment; `stats`,
/// `query` and `triangles` open the segment through the mmap reader and
/// evaluate label-only RPQs / the wedge triangle pattern straight off
/// the mapping, sharded by source range, under the standard governance
/// flags plus `--max-memory-mb`.
fn cmd_scale(args: &[String]) -> Result<String, String> {
    use kgq::core::scale::{triangle_count, LabelDfa, PackedAdjacency, ScaleEvaluator};
    use kgq::graph::packed::{PackOptions, PackedLabelIndex, PackedView};

    let [sub, file, rest @ ..] = args else {
        return Err("scale needs (gen|stats|query|triangles) and FILE.seg".into());
    };
    let path = std::path::Path::new(file);
    let io_err = |e: std::io::Error| format!("{file}: {e}");

    // Everything except `gen` starts from a validated mapping.
    let open_packed = || -> Result<kgq_store::SegmentMap, String> {
        kgq_store::SegmentMap::open(path).map_err(io_err)
    };
    fn packed_view<'m>(
        file: &str,
        map: &'m kgq_store::SegmentMap,
    ) -> Result<PackedView<'m>, String> {
        let bytes = map.packed_bytes().ok_or_else(|| {
            format!("{file}: segment has no packed section (run `kgq scale gen`)")
        })?;
        PackedView::parse(bytes).map_err(|e| e.to_string())
    }

    match sub.as_str() {
        "gen" => {
            let n = flag(rest, "--nodes", 100_000) as u32;
            let m = flag(rest, "--m", 10) as u32;
            let n_labels = flag(rest, "--labels", 4) as u32;
            let seed = flag(rest, "--seed", 42) as u64;
            let edge_ids = rest.iter().any(|a| a == "--edge-ids");
            let stream = kgq::graph::generate::ba_edge_stream(n, m, n_labels, seed);
            let n_edges = stream.len();
            let quads = stream
                .into_iter()
                .enumerate()
                .map(|(i, (s, l, d))| (s, l, d, i as u32))
                .collect();
            let labels: Vec<String> = (0..n_labels).map(|i| format!("l{i}")).collect();
            let packed = PackedLabelIndex::from_quads(
                n,
                &labels,
                quads,
                PackOptions {
                    edge_ids,
                    inverse: true,
                },
            )
            .map_err(|e| e.to_string())?;
            let bytes = packed.into_bytes();
            let packed_len = bytes.len();
            let seg = kgq_store::segment::Segment {
                generation: 1,
                triples: Vec::new(),
                edges: Vec::new(),
                packed: Some(bytes),
            };
            kgq_store::segment::write_atomic(path, &seg).map_err(io_err)?;
            Ok(format!(
                "packed {n} nodes, {n_edges} edges, {n_labels} labels into {file}: \
                 {packed_len} packed bytes ({:.2} bytes/edge)\n",
                packed_len as f64 / n_edges as f64
            ))
        }
        "stats" => {
            let map = open_packed()?;
            let view = packed_view(file, &map)?;
            Ok(format!(
                "{file}: generation {} | {} nodes, {} edges, {} labels | packed {} bytes \
                 ({:.2} bytes/edge) | file {} bytes | {} | edge ids: {} | inverse: {}\n",
                map.generation(),
                view.node_count(),
                view.edge_count(),
                view.label_count(),
                view.byte_len(),
                view.byte_len() as f64 / view.edge_count().max(1) as f64,
                map.file_len(),
                if map.is_mapped() { "mmap" } else { "heap" },
                view.has_edge_ids(),
                view.has_inverse(),
            ))
        }
        "query" => {
            let [expr_text, more @ ..] = rest else {
                return Err("scale query needs FILE.seg and EXPR".into());
            };
            let map = open_packed()?;
            let view = packed_view(file, &map)?;
            let mut consts = kgq::graph::Interner::new();
            let expr =
                kgq::core::parse_expr(expr_text, &mut consts).map_err(|e| e.render(expr_text))?;
            let dfa = LabelDfa::compile(&expr, |s| view.label_by_name(consts.resolve(s)))
                .map_err(|e| e.to_string())?;
            let n = view.node_count() as u32;
            let from = flag(more, "--from", 0) as u32;
            let span = flag(more, "--span", n as usize) as u32;
            let sources = from..from.saturating_add(span).min(n);
            let chunks = flag(more, "--chunks", kgq::core::parallel::effective_threads());
            let op = more
                .first()
                .map(String::as_str)
                .filter(|s| !s.starts_with("--"))
                .unwrap_or("pairs");
            let adj = PackedAdjacency(view);
            let ev = ScaleEvaluator::new(&adj, dfa);
            let budget = budget_from(more)?;
            let mut out = String::new();
            match op {
                "pairs" => {
                    let res = ev
                        .pairs_governed(
                            sources,
                            chunks,
                            &Governor::new(&budget.unwrap_or_default()),
                        )
                        .map_err(|e| e.to_string())?;
                    for (s, t) in &res.value {
                        out.push_str(&format!("{s}\t{t}\n"));
                    }
                    completion_marker(&mut out, &res);
                }
                "starts" => {
                    let res = ev
                        .matching_starts_governed(
                            sources,
                            chunks,
                            &Governor::new(&budget.unwrap_or_default()),
                        )
                        .map_err(|e| e.to_string())?;
                    for s in &res.value {
                        out.push_str(&format!("{s}\n"));
                    }
                    completion_marker(&mut out, &res);
                }
                other => return Err(format!("unknown scale query op `{other}`")),
            }
            Ok(out)
        }
        "triangles" => {
            let [la, lb, lc, more @ ..] = rest else {
                return Err("scale triangles needs FILE.seg and three labels".into());
            };
            let map = open_packed()?;
            let view = packed_view(file, &map)?;
            let dense = |name: &str| -> Result<u32, String> {
                view.label_by_name(name)
                    .ok_or_else(|| format!("label `{name}` not in segment"))
            };
            let labels = (dense(la)?, dense(lb)?, dense(lc)?);
            let n = view.node_count() as u32;
            let from = flag(more, "--from", 0) as u32;
            let span = flag(more, "--span", n as usize) as u32;
            let arange = from..from.saturating_add(span).min(n);
            let chunks = flag(more, "--chunks", kgq::core::parallel::effective_threads());
            let budget = budget_from(more)?;
            let adj = PackedAdjacency(view);
            let res = triangle_count(
                &adj,
                labels,
                arange,
                chunks,
                &Governor::new(&budget.unwrap_or_default()),
                10,
            )
            .map_err(|e| e.to_string())?;
            let mut out = format!("{} triangles\n", res.value.count);
            for (a, b, c) in &res.value.sample {
                out.push_str(&format!("{a}\t{b}\t{c}\n"));
            }
            completion_marker(&mut out, &res);
            Ok(out)
        }
        other => Err(format!(
            "unknown scale subcommand `{other}` (expected gen|stats|query|triangles)"
        )),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let result = match cmd.as_str() {
        "generate" => cmd_generate(&args[1..]),
        "query" => cmd_query(&args[1..]),
        "cypher" => cmd_cypher(&args[1..]),
        "analytics" => cmd_analytics(&args[1..]),
        "rdf" => cmd_rdf(&args[1..]),
        "sparql" => cmd_sparql(&args[1..]),
        "analyze" => cmd_analyze(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "store" => cmd_store(&args[1..]),
        "scale" => cmd_scale(&args[1..]),
        _ => return usage(),
    };
    match result {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
