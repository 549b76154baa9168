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
    enumerate_paths_governed, enumerate_paths_resumed, parse_expr, Budget, Cursor, EnumerationPage,
    EvalError, Governed, Governor, PropertyView, QueryCache, UniformSampler,
};
use kgq::cypher;
use kgq::graph::generate::{barabasi_albert, contact_network, gnm_labeled, ContactParams};
use kgq::graph::io::{read_property, write_labeled, write_property};
use kgq::graph::SchemaSummary;
use kgq::rdf;
use kgq_serve::pipeline::{self, RpqOp, Subject};
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
         kgq serve GRAPH [--nt FILE | --store DIR] [--port P] [--workers W] [GOVERN]\n  \
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

/// A numeric flag with a default for when it is absent.
fn flag(args: &[String], name: &str, default: usize) -> Result<usize, String> {
    Ok(num_flag(args, name)?.map_or(default, |v| v as usize))
}

fn str_flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Parses the resource-governance flags; no flag means no limit.
fn budget_from(args: &[String]) -> Result<Budget, String> {
    let mut budget = Budget::default();
    if let Some(ms) = num_flag(args, "--timeout")? {
        budget = budget.with_deadline(std::time::Duration::from_millis(ms));
    }
    if let Some(n) = num_flag(args, "--max-steps")? {
        budget = budget.with_max_steps(n);
    }
    if let Some(n) = num_flag(args, "--max-results")? {
        budget = budget.with_max_results(n);
    }
    if let Some(n) = num_flag(args, "--max-memory-mb")? {
        budget = budget.with_max_memory(n.saturating_mul(1 << 20));
    }
    Ok(budget)
}

fn load_graph(path: &str) -> Result<kgq::graph::PropertyGraph, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    read_property(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_generate(args: &[String]) -> Result<String, String> {
    let kind = args.first().ok_or("generate needs a kind")?;
    let seed = flag(args, "--seed", 42)? as u64;
    match kind.as_str() {
        "contact" => {
            let g = contact_network(&ContactParams {
                people: flag(args, "--people", 50)?,
                buses: flag(args, "--buses", 5)?,
                addresses: flag(args, "--addresses", 20)?,
                seed,
                ..ContactParams::default()
            });
            Ok(write_property(&g))
        }
        "er" => {
            let g = gnm_labeled(
                flag(args, "--nodes", 100)?,
                flag(args, "--edges", 400)?,
                &["v"],
                &["p", "q"],
                seed,
            );
            Ok(write_labeled(&g))
        }
        "ba" => {
            let g = barabasi_albert(flag(args, "--nodes", 100)?, 3, "v", "link", seed);
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
    let schema = SchemaSummary::from_property(&g);
    // With `--explain` the static-analysis verdict IS the output —
    // nothing is executed (DESIGN.md §10).
    if has_flag(rest, "--explain") {
        return pipeline::analyze(Subject::Rpq(&g, &schema, &expr, expr_text)).into_result();
    }
    let op = rest
        .first()
        .map(String::as_str)
        .filter(|s| !s.starts_with("--"))
        .unwrap_or("pairs");
    let operands = rest.iter().skip(1).map(String::as_str);
    let length = |what: &str| -> Result<usize, String> {
        rest.get(1)
            .and_then(|v| v.parse().ok())
            .ok_or(format!("{what} needs K"))
    };
    let gov = Governor::new(&budget_from(rest)?);
    let view = PropertyView::new(&g);
    // Capacity honors KGQ_CACHE_CAP.
    let cache = QueryCache::from_env();
    let mut out = String::new();
    match op {
        "enumerate" => {
            let k = length("enumerate")?;
            let page = match str_flag(rest, "--resume") {
                Some(text) => {
                    let cursor: Cursor = text.parse().map_err(|e| format!("--resume: {e}"))?;
                    enumerate_paths_resumed(&view, &expr, &cursor, &gov)
                }
                None => enumerate_paths_governed(&view, &expr, k, &gov),
            };
            let res = match page {
                Ok(res) => res,
                // Exhausted before the enumerator was built: empty
                // partial (no cursor — there is nothing to resume).
                Err(EvalError::Interrupted(why)) => {
                    let empty = EnumerationPage {
                        paths: Vec::new(),
                        cursor: None,
                    };
                    Governed::partial(empty, why)
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
            pipeline::trailer(&mut out, &res, pipeline::EXHAUSTED);
        }
        "sample" => {
            let k = length("sample")?;
            let n: usize = rest.get(2).and_then(|v| v.parse().ok()).unwrap_or(5);
            let sampler = UniformSampler::new(&view, &expr, k).map_err(|e| e.to_string())?;
            let mut rng = StdRng::seed_from_u64(flag(rest, "--seed", 1)? as u64);
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
        _ => {
            let op = RpqOp::parse(std::iter::once(op).chain(operands))?;
            out = pipeline::rpq(&g, &schema, &cache, op, &expr, expr_text, &gov).into_result()?;
        }
    }
    if has_flag(rest, "--verbose") {
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
    if has_flag(rest, "--explain") {
        return pipeline::analyze(Subject::Cypher(&g, &q, query_text)).into_result();
    }
    let cache = QueryCache::from_env();
    let gov = Governor::new(&budget_from(rest)?);
    let out = pipeline::cypher(&g, &cache, &q, &gov).into_result()?;
    if has_flag(rest, "--verbose") {
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

fn load_store(path: &str) -> Result<rdf::TripleStore, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    rdf::parse_ntriples(&text).map_err(|e| e.to_string())
}

fn cmd_rdf(args: &[String]) -> Result<String, String> {
    let [path, rest @ ..] = args else {
        return Err("rdf needs FILE".into());
    };
    match rest.first().map(String::as_str) {
        Some("path") => {
            let expr = rest.get(1).ok_or("path needs EXPR")?;
            let mut out = String::new();
            for (a, b) in rdf::rpq_pairs(&load_store(path)?, expr).map_err(|e| e.to_string())? {
                out.push_str(&format!("{a}\t{b}\n"));
            }
            Ok(out)
        }
        Some("select") => {
            let q = rest.get(1).ok_or("select needs a query")?;
            cmd_sparql(&[path.clone(), q.clone()])
        }
        Some("infer") => {
            let mut st = load_store(path)?;
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
    let mut st = load_store(path)?;
    let mut q = rdf::parse_select(query, &mut st).map_err(|e| e.to_string())?;
    if has_flag(rest, "--explain") {
        return pipeline::analyze(Subject::Sparql(&st, &q)).into_result();
    }
    // `--count` asks any SELECT for its answer count: exact under
    // budget, XOR-hash estimate past it (`# degraded` flags the estimate).
    if has_flag(rest, "--count") && q.count.is_none() {
        q.count = Some("count".to_owned());
        q.vars.clear();
    }
    let gov = Governor::new(&budget_from(rest)?);
    pipeline::sparql(&st, || rdf::StoreSketch::build(&st), &q, &gov).into_result()
}

/// `kgq analyze (query|cypher|sparql|rules) FILE TEXT` — run the
/// matching static analyzer and print its report without executing
/// anything. `query`/`cypher` load a property graph, `sparql`/`rules`
/// an N-Triples file; for `rules`, TEXT may also name a file holding
/// the program (one `head :- body .` rule per line).
fn cmd_analyze(args: &[String]) -> Result<String, String> {
    let [kind, path, text, ..] = args else {
        return Err(
            "analyze needs (query|cypher|sparql|rules), a data FILE and the query text".into(),
        );
    };
    let answer = match kind.as_str() {
        "query" => {
            let mut g = load_graph(path)?;
            let expr =
                parse_expr(text, g.labeled_mut().consts_mut()).map_err(|e| e.render(text))?;
            let schema = SchemaSummary::from_property(&g);
            pipeline::analyze(Subject::Rpq(&g, &schema, &expr, text))
        }
        "cypher" => {
            let q = cypher::parse_query(text).map_err(|e| e.render(text))?;
            pipeline::analyze(Subject::Cypher(&load_graph(path)?, &q, text))
        }
        "sparql" => {
            let mut st = load_store(path)?;
            let q = rdf::parse_select(text, &mut st).map_err(|e| e.to_string())?;
            pipeline::analyze(Subject::Sparql(&st, &q))
        }
        "rules" => {
            let mut st = load_store(path)?;
            let program = std::fs::read_to_string(text).unwrap_or_else(|_| text.clone());
            let rules = kgq::logic::parse_program(&mut st, &program).map_err(|e| e.to_string())?;
            pipeline::analyze(Subject::Rules(&st, &rules))
        }
        other => return Err(pipeline::unknown_analyze_kind(other)),
    };
    answer.into_result()
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
                let parsed = load_store(nt_path)?;
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
            let parsed = load_store(file)?;
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

/// `kgq serve GRAPH [--nt FILE | --store DIR] [--port P] [--workers W]
/// [GOVERN]` — long-lived multi-client query server over the loaded
/// snapshot.
/// GOVERN flags become the *server-side* caps every request is admitted
/// under (componentwise min with the client's own caps). Prints
/// `listening on ADDR` once bound, then blocks until a client sends
/// `SHUTDOWN`; shuts down cleanly (all threads joined) and reports
/// final stats on stderr.
fn cmd_serve(args: &[String]) -> Result<String, String> {
    let [path, rest @ ..] = args else {
        return Err("serve needs GRAPH".into());
    };
    let (nt, store_dir) = (str_flag(rest, "--nt"), str_flag(rest, "--store"));
    if let (Some(nt_path), Some(dir)) = (nt, store_dir) {
        return Err(format!(
            "serve: --nt and --store cannot be combined: triples loaded with --nt would \
             be served but never persisted; load them into the store first with \
             `kgq store init {dir} --nt {nt_path}`"
        ));
    }
    let mut g = load_graph(path)?;
    let st = match nt {
        Some(nt_path) => load_store(nt_path)?,
        None => rdf::TripleStore::new(),
    };
    // `--store DIR`: recover the durable store, which the server then
    // serves as its store; INSERT/DELETE batches are WAL-committed
    // (fsynced) before acknowledgement, and FLUSH compacts. Without it
    // mutations stay in-memory only.
    let durable = match store_dir {
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
    let workers = flag(rest, "--workers", 4)?;
    let cfg = kgq_serve::ServerConfig {
        addr: format!("127.0.0.1:{}", flag(rest, "--port", 0)?),
        workers,
        caps: budget_from(rest)?,
    };
    let handle = kgq_serve::serve_with_store(g, st, durable, cfg).map_err(|e| e.to_string())?;
    println!("listening on {}", handle.addr());
    use std::io::Write;
    std::io::stdout().flush().ok();
    handle.wait();
    let stats = handle
        .snapshot()
        .stats
        .render(&handle.snapshot().cache().stats(), workers);
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
    use std::fmt::Write as _;

    let [sub, file, rest @ ..] = args else {
        return Err("scale needs (gen|stats|query|triangles) and FILE.seg".into());
    };
    let path = std::path::Path::new(file);
    let io_err = |e: std::io::Error| format!("{file}: {e}");

    // Everything except `gen` starts from a mapping whose header is
    // validated; the view verifies each chunk it reads on first touch,
    // so `query` and `triangles` consult `map.check()` before they
    // return any row.
    let open_packed = || -> Result<kgq_store::SegmentMap, String> {
        kgq_store::SegmentMap::open(path).map_err(io_err)
    };
    fn packed_view<'m>(
        file: &str,
        map: &'m kgq_store::SegmentMap,
    ) -> Result<PackedView<'m>, String> {
        map.packed_view()
            .map_err(|e| format!("{file}: {e}"))?
            .ok_or_else(|| format!("{file}: segment has no packed section (run `kgq scale gen`)"))
    }

    match sub.as_str() {
        "gen" => {
            let n = flag(rest, "--nodes", 100_000)? as u32;
            let m = flag(rest, "--m", 10)? as u32;
            let n_labels = flag(rest, "--labels", 4)? as u32;
            let seed = flag(rest, "--seed", 42)? as u64;
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
            let from = flag(more, "--from", 0)? as u32;
            let span = flag(more, "--span", n as usize)? as u32;
            let sources = from..from.saturating_add(span).min(n);
            let chunks = flag(more, "--chunks", kgq::core::parallel::effective_threads())?;
            let op = more
                .first()
                .map(String::as_str)
                .filter(|s| !s.starts_with("--"))
                .unwrap_or("pairs");
            let adj = PackedAdjacency(view);
            let ev = ScaleEvaluator::new(&adj, dfa);
            let gov = Governor::new(&budget_from(more)?);
            let mut out = String::new();
            match op {
                "pairs" => {
                    let res = ev
                        .pairs_governed(sources, chunks, &gov)
                        .map_err(|e| e.to_string())?;
                    for (s, t) in &res.value {
                        let _ = writeln!(out, "{s}\t{t}");
                    }
                    pipeline::trailer(&mut out, &res, pipeline::EXHAUSTED);
                }
                "starts" => {
                    let res = ev
                        .matching_starts_governed(sources, chunks, &gov)
                        .map_err(|e| e.to_string())?;
                    for s in &res.value {
                        let _ = writeln!(out, "{s}");
                    }
                    pipeline::trailer(&mut out, &res, pipeline::EXHAUSTED);
                }
                other => return Err(format!("unknown scale query op `{other}`")),
            }
            map.check().map_err(io_err)?;
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
            let from = flag(more, "--from", 0)? as u32;
            let span = flag(more, "--span", n as usize)? as u32;
            let arange = from..from.saturating_add(span).min(n);
            let chunks = flag(more, "--chunks", kgq::core::parallel::effective_threads())?;
            let gov = Governor::new(&budget_from(more)?);
            let adj = PackedAdjacency(view);
            let res = triangle_count(&adj, labels, arange, chunks, &gov, 10)
                .map_err(|e| e.to_string())?;
            let mut out = format!("{} triangles\n", res.value.count);
            for (a, b, c) in &res.value.sample {
                let _ = writeln!(out, "{a}\t{b}\t{c}");
            }
            pipeline::trailer(&mut out, &res, pipeline::EXHAUSTED);
            map.check().map_err(io_err)?;
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
