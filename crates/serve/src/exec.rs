//! Request execution against the shared snapshot.
//!
//! The server holds **one** property graph, **one** triple store and
//! **one** [`QueryCache`] for its whole lifetime. Reads (every
//! evaluation) take a shared `RwLock` guard and run concurrently;
//! the only writes are query parsing, which may intern previously
//! unseen constants into the graph's/store's symbol table. Interning is
//! append-only and does **not** bump the generation stamp, so cache
//! entries stay valid and a constant spelled the same way in two
//! requests resolves to the same [`kgq_graph::Sym`] — which is what
//! makes the shared cache's signature keys sound across clients.
//!
//! Every query verb runs through [`crate::pipeline`], the same bodies
//! the CLI calls, so a response body can be diffed directly against
//! `kgq query`/`kgq cypher`/`kgq sparql` output, `# partial: REASON`
//! trailer included; this module adds only locking, parsing and stats.

use crate::pipeline::{self, Answer, RpqOp, Subject};
use crate::protocol::{effective_budget, Caps, Verb};
use crate::stats::ServerStats;
use kgq_core::{parse_expr, Budget, CancelToken, Governor, QueryCache};
use kgq_graph::{PropertyGraph, SchemaSummary};
use kgq_rdf::{StoreSketch, TripleStore};
use kgq_store::{DurableLog, DurableStore, EdgeRec, StoreOp};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// The state one server instance shares across all connections.
pub struct Snapshot {
    graph: RwLock<PropertyGraph>,
    /// Schema summary for the static analyzer, memoized per cache
    /// generation so every query verb can consult the analyzer without
    /// rescanning the graph. Acquired only while the graph read lock is
    /// already held (lock order: graph before schema).
    schema: Mutex<Option<(u64, Arc<SchemaSummary>)>>,
    store: RwLock<TripleStore>,
    /// Cardinality sketches for the SPARQL planner, memoized per cache
    /// generation exactly like the schema summary: every committed
    /// mutation bumps the generation, so a stale sketch is never
    /// consulted. Acquired only while the store read lock is already
    /// held (same rank: store before sketches is the store rank).
    sketches: Mutex<Option<(u64, Arc<StoreSketch>)>>,
    cache: QueryCache,
    /// The durable store's log half, when the server was started with a
    /// store directory; its triples are `store` itself. Mutations are
    /// WAL-committed (fsynced) here *before* they are applied to the
    /// live graph/store or acknowledged, so the fsync never holds the
    /// store lock; the mutex also serializes mutation batches into a
    /// total order.
    durable: Option<Mutex<DurableLog>>,
    /// Server-side caps; intersected with each request's own.
    caps: Budget,
    /// Aggregate counters.
    pub stats: ServerStats,
}

/// Outcome of one executed request.
pub struct Outcome {
    /// Response body (already CLI-formatted).
    pub body: String,
    /// `OK` vs `ERR` on the wire.
    pub ok: bool,
    /// Whether the body carries a `# partial:` trailer.
    pub partial: bool,
}

impl Outcome {
    fn ok(body: String, partial: bool) -> Outcome {
        Outcome {
            body,
            ok: true,
            partial,
        }
    }

    fn err(message: String) -> Outcome {
        Outcome {
            body: message,
            ok: false,
            partial: false,
        }
    }
}

impl Snapshot {
    /// Wraps the data a server will share. `caps` bounds every request
    /// (a client can tighten but never exceed it).
    pub fn new(graph: PropertyGraph, store: TripleStore, caps: Budget) -> Snapshot {
        Snapshot {
            graph: RwLock::new(graph),
            schema: Mutex::new(None),
            store: RwLock::new(store),
            sketches: Mutex::new(None),
            cache: QueryCache::from_env(),
            durable: None,
            caps,
            stats: ServerStats::new(),
        }
    }

    /// Attaches a durable store: its committed triples become the
    /// served store (replacing the one given to [`Snapshot::new`]),
    /// every `INSERT`/`DELETE` batch is WAL-committed to its log before
    /// being applied, and `FLUSH` compacts the served store. The caller
    /// loads the store's edge records into `graph` (see
    /// [`apply_edges`]).
    pub fn with_durable(mut self, durable: DurableStore) -> Snapshot {
        let (log, store) = durable.into_parts();
        self.store = RwLock::new(store);
        self.durable = Some(Mutex::new(log));
        self
    }

    /// The shared compiled-query cache.
    pub fn cache(&self) -> &QueryCache {
        &self.cache
    }

    /// The current cache-generation stamp (the live graph's). Every
    /// committed mutation advances it, so cached results keyed at an
    /// older stamp are unreachable — the same contract `QueryCache`
    /// documents for single-process use.
    pub fn generation(&self) -> u64 {
        self.graph_read().generation()
    }

    /// One-line durability summary for `STATS`: the live generation
    /// plus, when a durable store is attached, its committed generation
    /// and WAL size.
    pub fn durability_stats(&self) -> String {
        let mut out = format!("generation {}\n", self.generation());
        if let Some(d) = self.durable_lock() {
            out.push_str(&format!(
                "store_generation {}\nwal_bytes {}\n",
                d.generation(),
                d.wal_len(),
            ));
        }
        out
    }

    fn graph_read(&self) -> RwLockReadGuard<'_, PropertyGraph> {
        self.graph.read().unwrap_or_else(|e| e.into_inner())
    }

    fn graph_write(&self) -> RwLockWriteGuard<'_, PropertyGraph> {
        self.graph.write().unwrap_or_else(|e| e.into_inner())
    }

    fn store_read(&self) -> RwLockReadGuard<'_, TripleStore> {
        self.store.read().unwrap_or_else(|e| e.into_inner())
    }

    /// The planner sketches for the current store snapshot, memoized
    /// against the cache generation. `generation` must be read under
    /// the graph lock *before* taking the store lock (the documented
    /// lock order), so the pair `(st, generation)` is consistent.
    pub fn store_sketch(&self, st: &TripleStore, generation: u64) -> Arc<StoreSketch> {
        let mut cached = self.sketches.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((stamp, sk)) = cached.as_ref() {
            if *stamp == generation {
                return Arc::clone(sk);
            }
        }
        let sk = Arc::new(StoreSketch::build(st));
        *cached = Some((generation, Arc::clone(&sk)));
        sk
    }

    fn store_write(&self) -> RwLockWriteGuard<'_, TripleStore> {
        self.store.write().unwrap_or_else(|e| e.into_inner())
    }

    /// The schema summary for the analyzer, memoized against the cache
    /// generation: mutations invalidate it exactly when they invalidate
    /// cached query results. The caller already holds the graph read
    /// lock, so the summary is consistent with the snapshot it queries.
    fn schema_summary(&self, g: &PropertyGraph) -> Arc<SchemaSummary> {
        let mut cached = self.schema.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((generation, schema)) = cached.as_ref() {
            if *generation == g.generation() {
                return Arc::clone(schema);
            }
        }
        let schema = Arc::new(SchemaSummary::from_property(g));
        *cached = Some((g.generation(), Arc::clone(&schema)));
        schema
    }

    /// Tallies what a pipeline run reported into the server counters
    /// and frames its body.
    fn tally(&self, answer: Answer) -> Outcome {
        let [deny, warn, note] = answer.verdicts;
        self.stats.analysis(deny, warn, note);
        if answer.short_circuited {
            self.stats.deny_short_circuit();
        }
        if answer.planned {
            self.stats.sparql_plan();
        }
        if answer.approx_count {
            self.stats.approx_count();
        }
        Outcome {
            body: answer.body,
            ok: answer.ok,
            partial: answer.partial,
        }
    }

    /// Executes one query request under its effective budget. `cancel`
    /// is the connection's token: a disconnect trips in-flight work at
    /// its next governed batch boundary.
    pub fn execute(&self, verb: Verb, caps: &Caps, payload: &str, cancel: CancelToken) -> Outcome {
        let budget = effective_budget(&self.caps, caps);
        let res = match verb {
            Verb::Query => self.run_rpq(&budget, payload, cancel),
            Verb::Cypher => self.run_cypher(&budget, payload, cancel),
            Verb::Sparql => self.run_sparql(&budget, payload, cancel),
            Verb::Insert => self.run_insert(payload),
            Verb::Delete => self.run_delete(payload),
            Verb::Flush => self.run_flush(),
            Verb::Analyze => self.run_analyze(payload),
            // STATS/PING/SHUTDOWN are handled by the server loop, not
            // the snapshot executor.
            _ => Err(format!("verb {} is not a query", verb.as_str())),
        };
        match res {
            Ok(outcome) => outcome,
            Err(message) => Outcome::err(message),
        }
    }

    /// `QUERY` payload: first line `pairs` | `starts` | `count K`, the
    /// remainder is the path expression.
    fn run_rpq(
        &self,
        budget: &Budget,
        payload: &str,
        cancel: CancelToken,
    ) -> Result<Outcome, String> {
        let (op, expr_text) = payload
            .split_once('\n')
            .ok_or("QUERY payload needs an op line and an expression line")?;
        let expr = {
            // Parse under the write lock: interning new constants is the
            // one mutation queries perform.
            let mut g = self.graph_write();
            parse_expr(expr_text, g.labeled_mut().consts_mut()).map_err(|e| e.render(expr_text))?
        };
        let op = RpqOp::parse(op.split_ascii_whitespace())?;
        let g = self.graph_read();
        let schema = self.schema_summary(&g);
        let gov = Governor::with_cancel(budget, cancel);
        let answer = pipeline::rpq(&g, &schema, &self.cache, op, &expr, expr_text, &gov);
        Ok(self.tally(answer))
    }

    fn run_cypher(
        &self,
        budget: &Budget,
        payload: &str,
        cancel: CancelToken,
    ) -> Result<Outcome, String> {
        let q = kgq_cypher::parse_query(payload).map_err(|e| e.render(payload))?;
        let g = self.graph_read();
        let gov = Governor::with_cancel(budget, cancel);
        Ok(self.tally(pipeline::cypher(&g, &self.cache, &q, &gov)))
    }

    fn run_sparql(
        &self,
        budget: &Budget,
        payload: &str,
        cancel: CancelToken,
    ) -> Result<Outcome, String> {
        let q = {
            let mut st = self.store_write();
            kgq_rdf::parse_select(payload, &mut st).map_err(|e| e.to_string())?
        };
        // Generation under the graph lock, store lock after — the
        // documented order; mutators hold graph before store, so the
        // pair is a consistent snapshot.
        let g = self.graph_read();
        let generation = g.generation();
        let st = self.store_read();
        drop(g);
        let sketch = || self.store_sketch(&st, generation);
        let gov = Governor::with_cancel(budget, cancel);
        Ok(self.tally(pipeline::sparql(&st, sketch, &q, &gov)))
    }

    /// `INSERT` payload: one mutation per line — an N-Triples line or
    /// `edge SRC LABEL DST [SRC_LABEL [DST_LABEL]]`. The batch is
    /// durably committed (when a store is attached) before it is
    /// applied to the live snapshot; the cache generation advances
    /// exactly once per committed batch.
    fn run_insert(&self, payload: &str) -> Result<Outcome, String> {
        let (triples, edge_specs) = parse_mutations(payload, true)?;
        if triples.is_empty() && edge_specs.is_empty() {
            return Err("INSERT payload holds no mutations".into());
        }
        let mut ops: Vec<StoreOp> = triples
            .into_iter()
            .map(|(s, p, o)| StoreOp::Insert { s, p, o })
            .collect();
        // Serialize mutations and make the batch durable first: if the
        // WAL commit fails, nothing is applied and nothing acknowledged.
        let mut durable = self.durable_lock();
        // Unique, stable edge ids: continue the committed sequence.
        let next_seq = match durable.as_deref() {
            Some(d) => d.edge_count(),
            None => self.graph_read().edge_count(),
        };
        for (i, (src, label, dst, src_label, dst_label)) in edge_specs.into_iter().enumerate() {
            ops.push(StoreOp::EdgeAdd(EdgeRec {
                id: format!("srv-e{}", next_seq + i),
                src,
                src_label,
                label,
                dst,
                dst_label,
            }));
        }
        if let Some(d) = durable.as_deref_mut() {
            d.commit(&ops)
                .map_err(|e| format!("durable commit failed: {e}"))?;
        }
        // Apply to the live snapshot and bump the shared generation.
        let mut g = self.graph_write();
        let edges = ops.iter().filter_map(|op| match op {
            StoreOp::EdgeAdd(e) => Some(e),
            _ => None,
        });
        let applied_edges = apply_edges(&mut g, edges);
        let mut st = self.store_write();
        let (applied_triples, _) = kgq_store::apply(&mut st, &ops);
        g.touch();
        let body = format!(
            "inserted {applied_triples} triple(s), {applied_edges} edge(s)\ngeneration {}\n",
            g.generation()
        );
        Ok(Outcome::ok(body, false))
    }

    /// `DELETE` payload: N-Triples lines naming the triples to remove.
    fn run_delete(&self, payload: &str) -> Result<Outcome, String> {
        let (triples, edge_specs) = parse_mutations(payload, false)?;
        if !edge_specs.is_empty() {
            return Err("DELETE supports triples only".into());
        }
        if triples.is_empty() {
            return Err("DELETE payload holds no triples".into());
        }
        let ops: Vec<StoreOp> = triples
            .into_iter()
            .map(|(s, p, o)| StoreOp::Delete { s, p, o })
            .collect();
        let mut durable = self.durable_lock();
        if let Some(d) = durable.as_deref_mut() {
            d.commit(&ops)
                .map_err(|e| format!("durable commit failed: {e}"))?;
        }
        let mut g = self.graph_write();
        let mut st = self.store_write();
        let (_, removed) = kgq_store::apply(&mut st, &ops);
        g.touch();
        let body = format!(
            "deleted {removed} triple(s)\ngeneration {}\n",
            g.generation()
        );
        Ok(Outcome::ok(body, false))
    }

    /// `ANALYZE` payload: a kind line (`query` | `cypher` | `sparql` |
    /// `rules`) followed by the query or rule-program text. Runs the
    /// matching static analyzer and returns its rendered report without
    /// executing anything; verdicts are tallied into `STATS` like the
    /// query verbs' own analyzer gates.
    fn run_analyze(&self, payload: &str) -> Result<Outcome, String> {
        let (kind, text) = payload
            .split_once('\n')
            .ok_or("ANALYZE payload needs a kind line and the query text")?;
        let answer = match kind.trim() {
            "query" => {
                let expr = {
                    let mut g = self.graph_write();
                    parse_expr(text, g.labeled_mut().consts_mut()).map_err(|e| e.render(text))?
                };
                let g = self.graph_read();
                let schema = self.schema_summary(&g);
                pipeline::analyze(Subject::Rpq(&g, &schema, &expr, text))
            }
            "cypher" => {
                let q = kgq_cypher::parse_query(text).map_err(|e| e.render(text))?;
                pipeline::analyze(Subject::Cypher(&self.graph_read(), &q, text))
            }
            "sparql" => {
                let q = {
                    let mut st = self.store_write();
                    kgq_rdf::parse_select(text, &mut st).map_err(|e| e.to_string())?
                };
                pipeline::analyze(Subject::Sparql(&self.store_read(), &q))
            }
            "rules" => {
                let rules = {
                    let mut st = self.store_write();
                    kgq_logic::parse_program(&mut st, text).map_err(|e| e.to_string())?
                };
                pipeline::analyze(Subject::Rules(&self.store_read(), &rules))
            }
            other => return Err(pipeline::unknown_analyze_kind(other)),
        };
        Ok(self.tally(answer))
    }

    /// `FLUSH`: compacts the durable store (encode the served store into
    /// a fresh segment, truncate the WAL). The durable mutex keeps
    /// commits out, and the store read lock lets queries run on. A
    /// server without a durable store reports that there is nothing to
    /// flush.
    fn run_flush(&self) -> Result<Outcome, String> {
        let mut durable = self.durable_lock();
        let Some(d) = durable.as_deref_mut() else {
            return Ok(Outcome::ok(
                "flush: no durable store attached; state is in-memory only\n".into(),
                false,
            ));
        };
        let before = d.wal_len();
        d.compact(&self.store_read())
            .map_err(|e| format!("compaction failed: {e}"))?;
        let body = format!(
            "compacted at generation {}; wal {} -> {} bytes\n",
            d.generation(),
            before,
            d.wal_len()
        );
        Ok(Outcome::ok(body, false))
    }

    fn durable_lock(&self) -> Option<std::sync::MutexGuard<'_, DurableLog>> {
        self.durable
            .as_ref()
            .map(|m| m.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

/// Applies recovered or freshly committed edge records to a live
/// property graph: endpoints are created on demand (with the record's
/// labels), and an edge whose id already exists is skipped — which is
/// what makes replaying the same records idempotent. Returns the number
/// of edges actually added.
pub fn apply_edges<'a>(g: &mut PropertyGraph, edges: impl Iterator<Item = &'a EdgeRec>) -> usize {
    let mut applied = 0;
    for e in edges {
        let src = match g.labeled().node_named(&e.src) {
            Some(n) => n,
            None => match g.add_node(&e.src, &e.src_label) {
                Ok(n) => n,
                Err(_) => continue,
            },
        };
        let dst = match g.labeled().node_named(&e.dst) {
            Some(n) => n,
            None => match g.add_node(&e.dst, &e.dst_label) {
                Ok(n) => n,
                Err(_) => continue,
            },
        };
        if g.add_edge(&e.id, src, dst, &e.label).is_ok() {
            applied += 1;
        }
    }
    applied
}

/// Splits a mutation payload into triples (via the N-Triples parser)
/// and `edge` specs. `allow_edges` gates the edge syntax (DELETE is
/// triples-only).
#[allow(clippy::type_complexity)]
fn parse_mutations(
    payload: &str,
    allow_edges: bool,
) -> Result<
    (
        Vec<(String, String, String)>,
        Vec<(String, String, String, String, String)>,
    ),
    String,
> {
    let mut nt = String::new();
    let mut edges = Vec::new();
    for (no, line) in payload.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if let Some(spec) = trimmed.strip_prefix("edge ") {
            if !allow_edges {
                return Err(format!("line {}: edge mutations not allowed here", no + 1));
            }
            let parts: Vec<&str> = spec.split_ascii_whitespace().collect();
            let (src, label, dst) = match parts.as_slice() {
                [s, l, d, ..] if parts.len() <= 5 => (*s, *l, *d),
                _ => {
                    return Err(format!(
                        "line {}: expected `edge SRC LABEL DST [SRC_LABEL [DST_LABEL]]`",
                        no + 1
                    ))
                }
            };
            let src_label = parts.get(3).copied().unwrap_or("node");
            let dst_label = parts.get(4).copied().unwrap_or("node");
            edges.push((
                src.to_owned(),
                label.to_owned(),
                dst.to_owned(),
                src_label.to_owned(),
                dst_label.to_owned(),
            ));
        } else {
            nt.push_str(line);
            nt.push('\n');
        }
    }
    let parsed = kgq_rdf::parse_ntriples(&nt).map_err(|e| e.to_string())?;
    let triples = parsed
        .iter()
        .map(|t| {
            (
                parsed.term_str(t.s).to_owned(),
                parsed.term_str(t.p).to_owned(),
                parsed.term_str(t.o).to_owned(),
            )
        })
        .collect();
    Ok((triples, edges))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgq_graph::generate::{contact_network, ContactParams};
    use kgq_rdf::parse_ntriples;

    fn snapshot(caps: Budget) -> Snapshot {
        let g = contact_network(&ContactParams {
            people: 30,
            buses: 4,
            addresses: 12,
            seed: 11,
            ..ContactParams::default()
        });
        let st = parse_ntriples(
            "<a> <knows> <b> .\n<b> <knows> <c> .\n<c> <knows> <a> .\n\
             <a> <type> <P> .\n<b> <type> <P> .\n",
        )
        .unwrap();
        Snapshot::new(g, st, caps)
    }

    #[test]
    fn rpq_pairs_match_direct_evaluation() {
        let snap = snapshot(Budget::unlimited());
        let out = snap.execute(
            Verb::Query,
            &Caps::none(),
            "pairs\nrides/rides^-",
            CancelToken::new(),
        );
        assert!(out.ok, "{}", out.body);
        assert!(!out.partial);
        assert!(out.body.lines().count() > 0);
        // Identical second run: answered from the shared cache.
        let again = snap.execute(
            Verb::Query,
            &Caps::none(),
            "pairs\nrides/rides^-",
            CancelToken::new(),
        );
        assert_eq!(out.body, again.body);
        assert!(snap.cache().hits() >= 1);
    }

    #[test]
    fn tripped_rpq_returns_typed_exact_prefix() {
        let snap = snapshot(Budget::unlimited());
        let full = snap.execute(
            Verb::Query,
            &Caps::none(),
            "pairs\n(rides + contact + lives)*",
            CancelToken::new(),
        );
        let tripped = snap.execute(
            Verb::Query,
            &Caps {
                max_results: Some(3),
                ..Caps::default()
            },
            "pairs\n(rides + contact + lives)*",
            CancelToken::new(),
        );
        assert!(tripped.ok && tripped.partial, "{}", tripped.body);
        let trailer = "# partial: result budget reached\n";
        assert!(tripped.body.ends_with(trailer), "{}", tripped.body);
        // Exact prefix of the untripped answer.
        let prefix = tripped.body.strip_suffix(trailer).unwrap();
        assert!(full.body.starts_with(prefix));
        assert_eq!(prefix.lines().count(), 3);
    }

    #[test]
    fn server_caps_bound_client_requests() {
        // Server caps at 2 results; the client asks for 1000.
        let snap = snapshot(Budget::unlimited().with_max_results(2));
        let out = snap.execute(
            Verb::Query,
            &Caps {
                max_results: Some(1000),
                ..Caps::default()
            },
            "pairs\n(rides + contact + lives)*",
            CancelToken::new(),
        );
        assert!(out.ok && out.partial);
        assert_eq!(out.body.lines().count(), 3); // 2 rows + trailer
    }

    #[test]
    fn sparql_and_cypher_and_count_run_governed() {
        let snap = snapshot(Budget::unlimited());
        let s = snap.execute(
            Verb::Sparql,
            &Caps::none(),
            "SELECT ?x ?y WHERE { ?x <knows> ?y . ?y <type> <P> . }",
            CancelToken::new(),
        );
        assert!(s.ok, "{}", s.body);
        assert_eq!(s.body.lines().count(), 2); // c→a, a→b
        let c = snap.execute(
            Verb::Cypher,
            &Caps::none(),
            "MATCH (p:person)-[:rides]->(b:bus) RETURN p, b",
            CancelToken::new(),
        );
        assert!(c.ok, "{}", c.body);
        let n = snap.execute(
            Verb::Query,
            &Caps::none(),
            "count 3\nrides/rides^-",
            CancelToken::new(),
        );
        assert!(n.ok, "{}", n.body);
        n.body.trim().parse::<u128>().expect("count is a number");
    }

    #[test]
    fn cancelled_connection_trips_the_request() {
        let snap = snapshot(Budget::unlimited());
        let cancel = CancelToken::new();
        cancel.cancel();
        let out = snap.execute(
            Verb::Query,
            &Caps::none(),
            "pairs\n(rides + contact + lives)*",
            cancel,
        );
        // Already-cancelled work degrades to an empty typed partial.
        assert!(out.ok && out.partial, "{}", out.body);
        assert!(out.body.contains("# partial: cancelled"), "{}", out.body);
    }

    #[test]
    fn parse_errors_are_err_frames_not_panics() {
        let snap = snapshot(Budget::unlimited());
        for (verb, payload) in [
            (Verb::Query, "pairs\n(((("),
            (Verb::Query, "no-newline-payload"),
            (Verb::Query, "bogus-op\nrides"),
            (Verb::Cypher, "MATCH ("),
            (Verb::Sparql, "SELECT WHERE"),
        ] {
            let out = snap.execute(verb, &Caps::none(), payload, CancelToken::new());
            assert!(!out.ok, "{payload} should be an error");
        }
    }

    #[test]
    fn analyze_verb_reports_without_executing() {
        let snap = snapshot(Budget::unlimited());
        let q = snap.execute(
            Verb::Analyze,
            &Caps::none(),
            "query\nghost_label",
            CancelToken::new(),
        );
        assert!(q.ok, "{}", q.body);
        assert!(q.body.contains("deny"), "{}", q.body);
        let s = snap.execute(
            Verb::Analyze,
            &Caps::none(),
            "sparql\nSELECT ?x WHERE { ?x <knows> ?y . }",
            CancelToken::new(),
        );
        assert!(s.ok && s.body.contains("== verdict =="), "{}", s.body);
        let r = snap.execute(
            Verb::Analyze,
            &Caps::none(),
            "rules\n?x path ?y :- ?x knows ?y .",
            CancelToken::new(),
        );
        assert!(r.ok && r.body.contains("derivation bound"), "{}", r.body);
        let c = snap.execute(
            Verb::Analyze,
            &Caps::none(),
            "cypher\nMATCH (p:person)-[:rides]->(b:bus) RETURN p, b",
            CancelToken::new(),
        );
        assert!(c.ok, "{}", c.body);
        assert!(snap.stats.analyzed() >= 4);
        let bad = snap.execute(Verb::Analyze, &Caps::none(), "bogus\nx", CancelToken::new());
        assert!(!bad.ok);
        let headless = snap.execute(Verb::Analyze, &Caps::none(), "no-kind", CancelToken::new());
        assert!(!headless.ok);
    }

    #[test]
    fn deny_short_circuits_answer_empty_and_count() {
        let snap = snapshot(Budget::unlimited());
        let out = snap.execute(
            Verb::Query,
            &Caps::none(),
            "pairs\nghost_label_zzz",
            CancelToken::new(),
        );
        assert!(out.ok && out.body.is_empty(), "{}", out.body);
        assert_eq!(snap.stats.deny_short_circuits(), 1);
        let counted = snap.execute(
            Verb::Query,
            &Caps::none(),
            "count 3\nghost_label_zzz",
            CancelToken::new(),
        );
        assert!(counted.ok, "{}", counted.body);
        assert_eq!(counted.body, "0\n");
        let sparql = snap.execute(
            Verb::Sparql,
            &Caps::none(),
            "SELECT ?x WHERE { ?x <no_such_pred> ?y . }",
            CancelToken::new(),
        );
        assert!(sparql.ok && sparql.body.is_empty(), "{}", sparql.body);
        assert!(snap.stats.deny_short_circuits() >= 3);
    }

    #[test]
    fn sketch_cache_follows_the_generation_stamp() {
        let snap = snapshot(Budget::unlimited());
        let (gen0, sk0) = {
            let g = snap.graph_read();
            let generation = g.generation();
            let st = snap.store_read();
            drop(g);
            (generation, snap.store_sketch(&st, generation))
        };
        {
            let st = snap.store_read();
            let again = snap.store_sketch(&st, gen0);
            assert!(
                Arc::ptr_eq(&sk0, &again),
                "same generation must reuse the cached sketch"
            );
        }
        // Mutate through the public surface: INSERT bumps the generation,
        // so the next planner run rebuilds instead of consulting the
        // stale sketch.
        let out = snap.execute(
            Verb::Insert,
            &Caps::none(),
            "<d> <knows> <a> .",
            CancelToken::new(),
        );
        assert!(out.ok, "{}", out.body);
        let g = snap.graph_read();
        let gen1 = g.generation();
        let st = snap.store_read();
        drop(g);
        assert_ne!(gen0, gen1, "mutation bumps the generation");
        let sk1 = snap.store_sketch(&st, gen1);
        assert!(
            !Arc::ptr_eq(&sk0, &sk1),
            "a stale sketch must never survive touch()"
        );
        assert_eq!(sk1.triples, st.len());
    }

    #[test]
    fn new_constants_intern_without_invalidating_the_cache() {
        let snap = snapshot(Budget::unlimited());
        snap.execute(
            Verb::Query,
            &Caps::none(),
            "pairs\nrides",
            CancelToken::new(),
        );
        let misses_before = snap.cache().misses();
        // A query over a label the graph has never seen: interns a new
        // constant (graph write), still evaluates (empty), and the
        // earlier cache entry survives.
        let out = snap.execute(
            Verb::Query,
            &Caps::none(),
            "pairs\nnever_seen_label_xyz",
            CancelToken::new(),
        );
        assert!(out.ok && out.body.is_empty(), "{}", out.body);
        let cached = snap.execute(
            Verb::Query,
            &Caps::none(),
            "pairs\nrides",
            CancelToken::new(),
        );
        assert!(cached.ok);
        assert!(snap.cache().hits() >= 1);
        assert!(snap.cache().misses() >= misses_before);
    }
}
