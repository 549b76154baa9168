//! The traced run (`--trace 1`): where an end-to-end number comes from.
//!
//! It first repeats the end-to-end run with a short window, for the
//! numbers only the real server can give (its `STATS` service time, the
//! writer's commit latencies, the crash check). It then replays the
//! head of the same seeded stream in-process, three ways per request:
//!
//! 1. over TCP to an in-process `serve_with_store` — the round trip;
//! 2. through `Snapshot::execute` on a second copy of the data — the
//!    service time without the wire;
//! 3. call by call through each layer's public functions on a third
//!    copy, in the order `kgq-serve`'s executor calls them — the share
//!    of each layer.
//!
//! Spans are taken from outside the program, so a layer's calls are
//! timed in a replay next to the `execute` they explain, not inside it;
//! `serve.exec.residual_us` is what the replay does not account for
//! (locks, schema summary, row rendering). Spans go to
//! `target/bench/trace_<workload>.jsonl` when the run ends.

use crate::harness::{target_dir, Children, RunDir, WireClient};
use crate::packed::{self, PackedShape, KINDS};
use crate::workloads::{self, ContactData, Pool, WriteOp, WriterStream};
use crate::{measured, reads_pool, run_reads, run_rw_durable, Config};
use kgq_core::scale::{triangle_count, LabelDfa, PackedAdjacency, RawAdjacency, ScaleEvaluator};
use kgq_core::{
    analyze_expr, count_paths_governed, parse_expr, Budget, CancelToken, Governor, PropertyView,
    QueryCache,
};
use kgq_graph::generate::{ba_edge_stream, barabasi_albert};
use kgq_graph::io::read_property;
use kgq_graph::packed::{PackOptions, PackedLabelIndex, PackedView};
use kgq_graph::{Interner, LabelIndex, PropertyGraph, SchemaSummary};
use kgq_perfbench::{median, percentile, self_times_ns, Measured, Report, Rng, Span, PER_LAYER};
use kgq_rdf::{parse_ntriples, StoreSketch, TripleStore};
use kgq_serve::protocol::{read_request, read_response, write_request, write_response};
use kgq_serve::{
    apply_edges, serve_with_store, Caps, FairScheduler, Request, Response, ServerConfig, Snapshot,
    Verb,
};
use kgq_store::{DurableStore, EdgeRec, SegmentMap};
use std::io::BufReader;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests replayed per workload. The counts are fixed so that the
/// *exact* metrics (builds, fsyncs, evictions) repeat from run to run.
fn replay_len(name: &str) -> usize {
    match name {
        "point_reads" => 300,
        "scan_reads" => 60,
        "rw_durable" => 120,
        _ => 36,
    }
}

/// Spans in memory until the run ends.
struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Times `f` as a span and returns its result with the span's id.
    fn time<T>(
        &mut self,
        req: u32,
        name: &'static str,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> (T, u32) {
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.t0.elapsed().as_nanos() as u64;
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            req,
            id,
            name,
            parent,
            start_ns,
            end_ns,
        });
        (out, id)
    }

    /// Opens a span that other spans will be children of; [`Self::end`]
    /// closes it.
    fn begin(&mut self, req: u32, name: &'static str) -> u32 {
        let now = self.t0.elapsed().as_nanos() as u64;
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            req,
            id,
            name,
            parent: None,
            start_ns: now,
            end_ns: now,
        });
        id
    }

    fn end(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.t0.elapsed().as_nanos() as u64;
    }

    /// Renames a span once its kind is known (cache hit vs compile).
    fn rename(&mut self, id: u32, name: &'static str) {
        self.spans[id as usize].name = name;
    }

    /// Durations of every span called `name`, in microseconds.
    fn durs_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    fn dur_us(&self, id: u32) -> f64 {
        self.spans[id as usize].dur_ns() as f64 / 1e3
    }

    fn write(&self, workload: &str) -> Result<(), String> {
        let path = target_dir()
            .join("bench")
            .join(format!("trace_{workload}.jsonl"));
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&s.json_line());
            out.push('\n');
        }
        std::fs::write(&path, out).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// The per-layer metrics of one traced run, by name.
struct Layers(Vec<Measured>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        debug_assert!(PER_LAYER.iter().any(|d| d.name == name), "{name}");
        self.0.push(measured(name, value, samples));
    }

    /// Median of the span family a timing metric is named after:
    /// `store.durable.compact_ms` is the median `store.durable.compact`
    /// span in milliseconds, `cypher.parse_us` the median `cypher.parse`
    /// span in microseconds.
    fn median_of(&mut self, rec: &Recorder, metric: &'static str) {
        let (span, scale) = match metric.strip_suffix("_ms") {
            Some(span) => (span, 1e-3),
            None => (metric.strip_suffix("_us").expect("a timing metric"), 1.0),
        };
        let d = rec.durs_us(span);
        self.set(metric, median(&d).unwrap_or(0.0) * scale, d.len());
    }

    /// Every metric of the table, zero where the workload never called
    /// the layer.
    fn finish(self) -> Vec<Measured> {
        PER_LAYER
            .iter()
            .map(|d| {
                self.0
                    .iter()
                    .find(|m| m.name == d.name)
                    .cloned()
                    .unwrap_or_else(|| measured(d.name, 0.0, 0))
            })
            .collect()
    }
}

/// One replayed request.
enum TraceReq {
    Read(usize),
    Write(WriteOp),
    Flush,
}

/// The third copy of the data: the state `kgq-serve`'s executor keeps,
/// driven call by call.
struct Shadow {
    graph: PropertyGraph,
    store: TripleStore,
    durable: Option<DurableStore>,
    cache: QueryCache,
    schema: Option<(u64, SchemaSummary)>,
    sketch: Option<(u64, StoreSketch)>,
    sketch_builds: u64,
    eval_rows: u64,
    eval_us: f64,
    solve_rows: u64,
    solve_us: f64,
    wal_bytes: u64,
    wal_ops: u64,
    commits: u64,
    store_ops: [(f64, u64); 2],
}

impl Shadow {
    fn new(graph: PropertyGraph, store: TripleStore, durable: Option<DurableStore>) -> Shadow {
        Shadow {
            graph,
            store,
            durable,
            cache: QueryCache::from_env(),
            schema: None,
            sketch: None,
            sketch_builds: 0,
            eval_rows: 0,
            eval_us: 0.0,
            solve_rows: 0,
            solve_us: 0.0,
            wal_bytes: 0,
            wal_ops: 0,
            commits: 0,
            store_ops: [(0.0, 0); 2],
        }
    }

    /// `run_rpq`, call by call.
    fn rpq(
        &mut self,
        rec: &mut Recorder,
        req: u32,
        parent: u32,
        payload: &str,
    ) -> Result<(), String> {
        let p = Some(parent);
        let (op, text) = payload
            .split_once('\n')
            .ok_or("QUERY payload without an op line")?;
        let (expr, _) = rec.time(req, "core.parser.parse", p, || {
            parse_expr(text, self.graph.labeled_mut().consts_mut())
        });
        let expr = expr.map_err(|e| e.to_string())?;
        let generation = self.graph.generation();
        if self.schema.as_ref().is_none_or(|(g, _)| *g != generation) {
            self.schema = Some((generation, SchemaSummary::from_property(&self.graph)));
        }
        let schema = &self.schema.as_ref().expect("just set").1;
        let g = &self.graph;
        let (report, _) = rec.time(req, "core.analyze.expr", p, || {
            analyze_expr(&expr, schema, Some((text, g.labeled().consts())))
        });
        let op_name = op.split_ascii_whitespace().next().unwrap_or("");
        if report.provably_empty {
            return Ok(());
        }
        let view = PropertyView::new(g);
        let budget = Budget::unlimited();
        let gov = Governor::with_cancel(&budget, CancelToken::new());
        if op_name == "count" {
            let k: usize = op
                .split_ascii_whitespace()
                .nth(1)
                .and_then(|v| v.parse().ok())
                .ok_or("count needs K")?;
            let (res, _) = rec.time(req, "core.count.count", p, || {
                count_paths_governed(&view, &expr, k, &budget, CancelToken::new())
            });
            return res.map(|_| ()).map_err(|e| e.to_string());
        }
        let misses = self.cache.misses();
        let (compiled, id) = rec.time(req, "core.cache.hit", p, || {
            self.cache
                .get_or_compile_governed(&view, generation, &expr, &gov)
        });
        if self.cache.misses() > misses {
            rec.rename(id, "core.cache.compile");
        }
        let compiled = compiled.map_err(|e| e.to_string())?;
        let (rows, id) = match op_name {
            "pairs" => {
                let (res, id) = rec.time(req, "core.eval.pairs", p, || {
                    compiled.evaluator().pairs_governed(&gov)
                });
                (res.map_err(|e| e.to_string())?.value.len(), id)
            }
            "starts" => {
                let (res, id) = rec.time(req, "core.eval.starts", p, || {
                    compiled.evaluator().matching_starts_governed(&gov)
                });
                (res.map_err(|e| e.to_string())?.value.len(), id)
            }
            other => return Err(format!("unknown query op `{other}`")),
        };
        self.eval_rows += rows as u64;
        self.eval_us += rec.dur_us(id);
        Ok(())
    }

    /// `run_cypher`, call by call.
    fn cypher(
        &mut self,
        rec: &mut Recorder,
        req: u32,
        parent: u32,
        payload: &str,
    ) -> Result<(), String> {
        let p = Some(parent);
        let (q, _) = rec.time(req, "cypher.parse", p, || kgq_cypher::parse_query(payload));
        let q = q.map_err(|e| e.to_string())?;
        let (report, _) = rec.time(req, "cypher.analyze", p, || {
            kgq_cypher::analyze_query(&self.graph, &q, Some(payload))
        });
        if report.provably_empty {
            return Ok(());
        }
        let gov = Governor::with_cancel(&Budget::unlimited(), CancelToken::new());
        let (res, _) = rec.time(req, "cypher.execute", p, || {
            kgq_cypher::execute_governed(&self.graph, &q, &self.cache, &gov)
        });
        res.map(|_| ()).map_err(|e| e.to_string())
    }

    /// `run_sparql`, call by call.
    fn sparql(
        &mut self,
        rec: &mut Recorder,
        req: u32,
        parent: u32,
        payload: &str,
    ) -> Result<(), String> {
        let p = Some(parent);
        let (q, _) = rec.time(req, "rdf.sparql.parse", p, || {
            kgq_rdf::parse_select(payload, &mut self.store)
        });
        let q = q.map_err(|e| e.to_string())?;
        let projected = if q.count.is_some() {
            None
        } else {
            Some(q.vars.as_slice())
        };
        let st = &self.store;
        let (report, _) = rec.time(req, "rdf.analyze.bgp", p, || {
            kgq_rdf::analyze_bgp(st, &q.pattern, projected)
        });
        if report.provably_empty {
            return Ok(());
        }
        let generation = self.graph.generation();
        if self.sketch.as_ref().is_none_or(|(g, _)| *g != generation) {
            let (sk, _) = rec.time(req, "rdf.sketch.build", p, || StoreSketch::build(st));
            self.sketch = Some((generation, sk));
            self.sketch_builds += 1;
        }
        let sk = &self.sketch.as_ref().expect("just set").1;
        let (sp, _) = rec.time(req, "rdf.lftj.plan", p, || {
            kgq_rdf::plan_sketched(st, sk, &q.pattern)
        });
        let (verdict, _) = rec.time(req, "rdf.lftj.verify", p, || {
            kgq_rdf::verify_plan(st, &q.pattern, &sp.plan)
        });
        verdict?;
        let gov = Governor::with_cancel(&Budget::unlimited(), CancelToken::new());
        let (rows, id) = if q.count.is_some() {
            let (res, id) = rec.time(req, "rdf.lftj.solve", p, || {
                kgq_rdf::count_planned_governed(st, &q.pattern, &sp.plan, &gov)
            });
            (res.map_err(|e| e.to_string())?.value, id)
        } else {
            let (res, id) = rec.time(req, "rdf.lftj.solve", p, || {
                kgq_rdf::lftj::solve_planned_governed(st, &q.pattern, &sp.plan, &gov)
            });
            (res.map_err(|e| e.to_string())?.value.rows.len() as u64, id)
        };
        self.solve_rows += rows;
        self.solve_us += rec.dur_us(id);
        Ok(())
    }

    /// `run_insert` / `run_delete`, call by call.
    fn write(
        &mut self,
        rec: &mut Recorder,
        req: u32,
        parent: u32,
        op: &WriteOp,
    ) -> Result<(), String> {
        let p = Some(parent);
        let d = self
            .durable
            .as_mut()
            .ok_or("a write needs a durable store")?;
        let (triples, edge, insert) = match op {
            WriteOp::Insert { triples, edge } => (triples, edge.as_ref(), true),
            WriteOp::Delete { triples } => (triples, None, false),
        };
        let mut edges = Vec::new();
        if insert {
            let (next_seq, _) =
                rec.time(req, "store.durable.edge_seq", p, || d.all_edges().count());
            edges.extend(edge.map(|(src, dst)| EdgeRec {
                id: format!("srv-e{next_seq}"),
                src: src.clone(),
                src_label: "node".into(),
                label: "visits".into(),
                dst: dst.clone(),
                dst_label: "node".into(),
            }));
        }
        let wal_before = d.wal_len();
        let span = if triples.len() > 1 {
            "store.durable.commit100"
        } else {
            "store.durable.commit1"
        };
        let (committed, _) = rec.time(req, span, p, || {
            for (s, o) in triples {
                if insert {
                    d.stage_insert(s, "noted", o);
                } else {
                    d.stage_delete(s, "noted", o);
                }
            }
            for e in &edges {
                d.stage_edge(e.clone());
            }
            d.commit()
        });
        committed.map_err(|e| format!("commit: {e}"))?;
        self.commits += 1;
        self.wal_bytes += d.wal_len() - wal_before;
        self.wal_ops += op.ops() as u64;
        apply_edges(&mut self.graph, edges.iter());
        let st = &mut self.store;
        let (slot, span) = if insert {
            (0, "rdf.store.insert")
        } else {
            (1, "rdf.store.remove")
        };
        let (_, id) = rec.time(req, span, p, || {
            for (s, o) in triples {
                if insert {
                    st.insert_strs(s, "noted", o);
                } else if let (Some(s), Some(p), Some(o)) =
                    (st.get_term(s), st.get_term("noted"), st.get_term(o))
                {
                    st.remove(kgq_rdf::Triple { s, p, o });
                }
            }
        });
        self.store_ops[slot].0 += rec.dur_us(id);
        self.store_ops[slot].1 += triples.len() as u64;
        self.graph.touch();
        Ok(())
    }

    fn flush(&mut self, rec: &mut Recorder, req: u32, parent: u32) -> Result<(), String> {
        let d = self.durable.as_mut().ok_or("FLUSH needs a durable store")?;
        let (res, _) = rec.time(req, "store.durable.compact", Some(parent), || d.compact());
        res.map_err(|e| format!("compact: {e}"))
    }
}

fn exec_span(verb: Verb) -> &'static str {
    match verb {
        Verb::Query => "serve.exec.query",
        Verb::Cypher => "serve.exec.cypher",
        Verb::Sparql => "serve.exec.sparql",
        Verb::Insert => "serve.exec.insert",
        Verb::Delete => "serve.exec.delete",
        _ => "serve.exec.flush",
    }
}

/// The four codec calls of one exchange, on memory buffers.
fn codec_round(verb: Verb, payload: &str, body: &str) -> Result<(), String> {
    let mut wire = Vec::new();
    write_request(
        &mut wire,
        &Request {
            id: 1,
            verb,
            caps: Caps::none(),
            payload: payload.to_owned(),
        },
    )
    .and_then(|()| read_request(&mut BufReader::new(&wire[..])))
    .map_err(|e| format!("request codec: {e}"))?;
    wire.clear();
    write_response(
        &mut wire,
        &Response {
            id: 1,
            ok: true,
            body: body.to_owned(),
        },
    )
    .and_then(|()| read_response(&mut BufReader::new(&wire[..])))
    .map(|_| ())
    .map_err(|e| format!("response codec: {e}"))
}

/// `FairScheduler::submit` on one thread to `next` returning on another
/// that was parked waiting: the hand-off every request pays once.
fn sched_handoff_us(n: usize) -> Vec<f64> {
    let sched = Arc::new(FairScheduler::<Instant>::new());
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = {
        let sched = Arc::clone(&sched);
        std::thread::spawn(move || {
            while let Some(submitted) = sched.next() {
                if tx.send(submitted.elapsed()).is_err() {
                    break;
                }
            }
        })
    };
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        // Long enough for the worker to park on the condition variable.
        std::thread::sleep(Duration::from_micros(200));
        sched.submit(i as u64 % 2, Instant::now());
        if let Ok(d) = rx.recv() {
            out.push(d.as_secs_f64() * 1e6);
        }
    }
    sched.close();
    let _ = worker.join();
    out
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("{}: {e}", to.display()))?;
    for entry in std::fs::read_dir(from).map_err(|e| format!("{}: {e}", from.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))
            .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
    }
    Ok(())
}

/// Entry point of `--trace 1`.
pub fn run(
    name: &'static str,
    cfg: &Config,
    children: &Children,
    dir: &RunDir,
) -> Result<Report, String> {
    // The real pass: half the window, one set-up.
    let real = Config {
        seed: cfg.seed,
        window: cfg.window / 2,
        quick: cfg.quick,
        kgq: cfg.kgq.clone(),
        setup_repeats: 1,
    };
    let mut layers = Layers(Vec::new());
    let e2e = match name {
        "packed_cli" => {
            let r = packed::run(&real, children, dir)?;
            layers.set("cli.spawn_ms", r.spawn_ms, 5);
            r.report
        }
        "rw_durable" => {
            let r = run_rw_durable(&real, children, dir)?;
            let w = &r.writer;
            layers.set("serve.service_p50_us", r.service_p50_us as f64, 1);
            // The half window may hold too few commits for a tail; a
            // per-layer number is then left at 0 and not made up.
            for (metric, p) in [("rw.commit_p50_ms", 50.0), ("rw.commit_tail_ms", 80.0)] {
                match percentile(&w.commit_ms, p) {
                    Ok(v) => layers.set(metric, v, w.commit_ms.len()),
                    Err(why) => eprintln!("kgq_bench: rw_durable: {metric} left at 0: {why}"),
                }
            }
            layers.set(
                "rw.flush_wire_ms",
                median(&w.flush_ms).unwrap_or(0.0),
                w.flush_ms.len(),
            );
            layers.set("rw.disk_bytes_per_user_byte", w.disk_bytes_per_user_byte, 1);
            layers.set("rw.lost_acked_writes", r.lost as f64, 1);
            r.report
        }
        _ => {
            let r = run_reads(name, &real, children, dir)?;
            layers.set("serve.service_p50_us", r.service_p50_us as f64, 1);
            r.report
        }
    };
    let e2e_p50_ms = e2e.get("latency_p50_ms").unwrap_or(0.0);
    layers.set("e2e.latency_p50_ms", e2e_p50_ms, e2e.attempted as usize);
    layers.set(
        "e2e.failed_share",
        e2e.failed as f64 / e2e.attempted.max(1) as f64,
        e2e.attempted as usize,
    );

    let mut rec = Recorder::new();
    let (attempted, failed, traced_p50_ms) = if name == "packed_cli" {
        replay_packed(cfg, dir, &mut rec, &mut layers)?
    } else {
        replay_served(name, cfg, dir, &mut rec, &mut layers)?
    };
    if e2e_p50_ms > 0.0 {
        layers.set(
            "trace.overhead_ratio",
            traced_p50_ms / e2e_p50_ms,
            attempted,
        );
    }
    rec.write(name)?;
    Ok(Report {
        workload: name,
        traced: true,
        seed: cfg.seed,
        window_s: cfg.window.as_secs_f64(),
        attempted: e2e.attempted + attempted as u64,
        failed: e2e.failed + failed,
        metrics: layers.finish(),
    })
}

/// Replays the head of a served workload's stream in-process. Returns
/// requests replayed, requests whose answer differed from the oracle,
/// and the median round trip in ms.
fn replay_served(
    name: &'static str,
    cfg: &Config,
    dir: &RunDir,
    rec: &mut Recorder,
    layers: &mut Layers,
) -> Result<(usize, u64, f64), String> {
    let durable = name == "rw_durable";
    let size = if durable && !cfg.quick {
        workloads::CONTACT_10K
    } else {
        workloads::CONTACT_2K
    };
    let data: ContactData = workloads::contact_data(size, cfg.seed);
    let mut pool: Pool = if durable {
        workloads::rw_reader_pool(size)
    } else {
        reads_pool(name)
    };
    pool.compute_oracle(&data)?;

    // The stream: connection 0's draws; for `rw_durable` a commit and a
    // read in turn, with one `FLUSH` half way.
    let n = replay_len(name);
    let mut reads = pool.stream(Rng::new(cfg.seed, 0));
    let mut writer = WriterStream::new(cfg.seed, data.nt_text.lines().count());
    let stream: Vec<TraceReq> = (0..n)
        .map(|i| {
            if durable && i == n / 2 {
                TraceReq::Flush
            } else if durable && i % 2 == 0 {
                TraceReq::Write(writer.next_op())
            } else {
                TraceReq::Read(reads.next_idx())
            }
        })
        .collect();

    // Three copies of the data; the loads are themselves layer calls.
    let started = Instant::now();
    let graph = read_property(&data.graph_text).map_err(|e| e.to_string())?;
    layers.set(
        "graph.read_property_ms",
        started.elapsed().as_secs_f64() * 1e3,
        1,
    );
    let started = Instant::now();
    let store = parse_ntriples(&data.nt_text).map_err(|e| e.to_string())?;
    layers.set(
        "rdf.store.bulk_load_ms",
        started.elapsed().as_secs_f64() * 1e3,
        1,
    );
    let mut durables: Vec<Option<DurableStore>> = vec![None, None, None];
    if durable {
        let dirs: Vec<_> = (0..3)
            .map(|i| dir.join(&format!("trace-store-{i}")))
            .collect();
        {
            // What `kgq store init --nt` does.
            let (mut d, _) = DurableStore::open(&dirs[0]).map_err(|e| e.to_string())?;
            for t in store.iter() {
                d.stage_insert(
                    store.term_str(t.s),
                    store.term_str(t.p),
                    store.term_str(t.o),
                );
            }
            d.commit()
                .and_then(|_| d.compact())
                .map_err(|e| e.to_string())?;
            let seg = std::fs::metadata(dirs[0].join("base.seg")).map_err(|e| e.to_string())?;
            layers.set(
                "store.segment.bytes_per_triple",
                seg.len() as f64 / d.len().max(1) as f64,
                1,
            );
        }
        copy_dir(&dirs[0], &dirs[1])?;
        copy_dir(&dirs[0], &dirs[2])?;
        let mut open_ms = Vec::new();
        for (slot, d) in durables.iter_mut().zip(&dirs) {
            let started = Instant::now();
            let (opened, _) = DurableStore::open(d).map_err(|e| e.to_string())?;
            open_ms.push(started.elapsed().as_secs_f64() * 1e3);
            *slot = Some(opened);
        }
        layers.set(
            "store.durable.open_ms",
            median(&open_ms).unwrap_or(0.0),
            open_ms.len(),
        );
        let started = Instant::now();
        let scanned = durables[0].as_ref().expect("opened").scan_all().len();
        layers.set(
            "store.durable.scan_all_ms",
            started.elapsed().as_secs_f64() * 1e3,
            scanned,
        );
    }
    let mut durables = durables.into_iter();
    let server = serve_with_store(
        graph.clone(),
        store.clone(),
        durables.next().flatten(),
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("in-process server: {e}"))?;
    let mut snap = Snapshot::new(graph.clone(), store.clone(), Budget::unlimited());
    if let Some(d) = durables.next().flatten() {
        snap = snap.with_durable(d);
    }
    let mut shadow = Shadow::new(graph, store, durables.next().flatten());

    let mut client = WireClient::connect(server.addr())?;
    let (mut rtt_ms, mut wire_ms, mut failed) = (Vec::new(), Vec::new(), 0u64);
    for (i, treq) in stream.iter().enumerate() {
        let req = i as u32;
        let (verb, payload, want) = match treq {
            TraceReq::Read(idx) => {
                let r = &pool.reqs[*idx];
                (r.verb, r.payload.clone(), Some(&pool.expected[*idx]))
            }
            TraceReq::Write(op) => (op.verb(), op.payload(), None),
            TraceReq::Flush => (Verb::Flush, String::new(), None),
        };
        let (resp, rtt) = rec.time(req, "client.rtt", None, || {
            client.request(verb.as_str(), &payload)
        });
        let resp = resp?;
        let (out, exec) = rec.time(req, exec_span(verb), Some(rtt), || {
            snap.execute(verb, &Caps::none(), &payload, CancelToken::new())
        });
        let good = |ok: bool, body: &str| ok && want.is_none_or(|w| w.matches(body));
        if !good(resp.ok, &resp.body) || !good(out.ok, &out.body) {
            failed += 1;
            eprintln!(
                "kgq_bench: {name}: traced {} `{payload}` differs from the oracle",
                verb.as_str()
            );
        }
        rec.time(req, "serve.protocol.codec", Some(rtt), || {
            codec_round(verb, &payload, &out.body)
        })
        .0?;
        match treq {
            TraceReq::Read(_) => match verb {
                Verb::Query => shadow.rpq(rec, req, exec, &payload),
                Verb::Cypher => shadow.cypher(rec, req, exec, &payload),
                _ => shadow.sparql(rec, req, exec, &payload),
            },
            TraceReq::Write(op) => shadow.write(rec, req, exec, op),
            TraceReq::Flush => shadow.flush(rec, req, exec),
        }?;
        rtt_ms.push(rec.dur_us(rtt) / 1e3);
        wire_ms.push((rec.dur_us(rtt) - rec.dur_us(exec)).max(0.0) / 1e3);
    }
    server.shutdown();

    layers.set(
        "serve.wire_ms",
        median(&wire_ms).unwrap_or(0.0),
        wire_ms.len(),
    );
    layers.median_of(rec, "serve.protocol.codec_us");
    let handoff = sched_handoff_us(300);
    layers.set(
        "serve.sched.handoff_us",
        median(&handoff).unwrap_or(0.0),
        handoff.len(),
    );
    for metric in [
        "serve.exec.query_us",
        "serve.exec.cypher_us",
        "serve.exec.sparql_us",
        "serve.exec.insert_us",
        "serve.exec.delete_us",
        "serve.exec.flush_ms",
        "core.parser.parse_us",
        "core.analyze.expr_us",
        "core.cache.hit_us",
        "core.cache.compile_us",
        "core.eval.pairs_us",
        "core.eval.starts_us",
        "core.count.count_us",
        "cypher.parse_us",
        "cypher.analyze_us",
        "cypher.execute_us",
        "rdf.sparql.parse_us",
        "rdf.analyze.bgp_us",
        "rdf.lftj.plan_us",
        "rdf.lftj.verify_us",
        "rdf.lftj.solve_us",
        "rdf.sketch.build_ms",
        "store.durable.commit1_us",
        "store.durable.commit100_us",
        "store.durable.compact_ms",
        "store.durable.edge_seq_us",
    ] {
        layers.median_of(rec, metric);
    }
    // What the replay leaves unexplained of each `execute`.
    let selfs = self_times_ns(&rec.spans);
    let residual: Vec<f64> = rec
        .spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name.starts_with("serve.exec."))
        .map(|(_, (_, ns))| *ns as f64 / 1e3)
        .collect();
    layers.set(
        "serve.exec.residual_us",
        median(&residual).unwrap_or(0.0),
        residual.len(),
    );

    let stats = shadow.cache.stats();
    let lookups = stats.hits + stats.misses;
    layers.set(
        "core.cache.hit_rate",
        if lookups > 0 {
            stats.hits as f64 / lookups as f64
        } else {
            0.0
        },
        lookups as usize,
    );
    layers.set("core.cache.evictions", stats.evictions as f64, 1);
    let per_s = |rows: u64, us: f64| {
        if us > 0.0 {
            rows as f64 / (us / 1e6)
        } else {
            0.0
        }
    };
    layers.set(
        "core.eval.rows_per_s",
        per_s(shadow.eval_rows, shadow.eval_us),
        shadow.eval_rows as usize,
    );
    layers.set(
        "rdf.lftj.rows_per_s",
        per_s(shadow.solve_rows, shadow.solve_us),
        shadow.solve_rows as usize,
    );
    layers.set("rdf.sketch.builds", shadow.sketch_builds as f64, 1);
    let per_op = |(us, ops): (f64, u64)| if ops > 0 { us / ops as f64 } else { 0.0 };
    layers.set(
        "rdf.store.insert_us",
        per_op(shadow.store_ops[0]),
        shadow.store_ops[0].1 as usize,
    );
    layers.set(
        "rdf.store.remove_us",
        per_op(shadow.store_ops[1]),
        shadow.store_ops[1].1 as usize,
    );
    if shadow.wal_ops > 0 {
        layers.set(
            "store.wal.bytes_per_op",
            shadow.wal_bytes as f64 / shadow.wal_ops as f64,
            shadow.wal_ops as usize,
        );
        // One fsync per commit is the WAL's contract; the benchmark
        // cannot see the system call, so this counts commits.
        layers.set("store.wal.fsyncs", shadow.commits as f64, 1);
    }
    if let Some(d) = &shadow.durable {
        // The overlay read tax: a merged count against a plain one.
        let contact = shadow.store.get_term("contact");
        let reps = 20;
        let started = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(d.count(None, Some("contact"), None));
        }
        let merged = started.elapsed().as_secs_f64();
        let started = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(shadow.store.count(None, contact, None));
        }
        let plain = started.elapsed().as_secs_f64();
        if plain > 0.0 {
            layers.set("store.overlay.count_ratio", merged / plain, reps);
        }
    }
    Ok((stream.len(), failed, median(&rtt_ms).unwrap_or(0.0)))
}

/// Replays `packed_cli`'s invocations in-process: what the CLI does
/// after `main`, span by span. Returns invocations replayed, outputs
/// that differed from the oracle, and the median invocation in ms.
fn replay_packed(
    cfg: &Config,
    dir: &RunDir,
    rec: &mut Recorder,
    layers: &mut Layers,
) -> Result<(usize, u64, f64), String> {
    let shape = PackedShape::of(cfg);
    let (windows, expected) = packed::oracle(shape, cfg.seed);

    // `kgq scale gen`: stream, pack, write the segment.
    let edges = ba_edge_stream(shape.nodes, packed::M_PER, 1, cfg.seed);
    let n_edges = edges.len();
    let quads = edges
        .into_iter()
        .enumerate()
        .map(|(i, (s, l, d))| (s, l, d, i as u32))
        .collect();
    let started = Instant::now();
    let packed_index = PackedLabelIndex::from_quads(
        shape.nodes,
        &["l0".to_owned()],
        quads,
        PackOptions {
            edge_ids: false,
            inverse: true,
        },
    )
    .map_err(|e| e.to_string())?;
    let pack_s = started.elapsed().as_secs_f64();
    let bytes = packed_index.into_bytes();
    layers.set(
        "graph.packed.pack_edges_per_s",
        n_edges as f64 / pack_s,
        n_edges,
    );
    layers.set(
        "graph.packed.bytes_per_edge",
        bytes.len() as f64 / n_edges as f64,
        n_edges,
    );
    let seg_path = dir.join("trace.seg");
    kgq_store::segment::write_atomic(
        &seg_path,
        &kgq_store::segment::Segment {
            generation: 1,
            triples: Vec::new(),
            edges: Vec::new(),
            packed: Some(bytes),
        },
    )
    .map_err(|e| format!("write segment: {e}"))?;

    let n = replay_len("packed_cli");
    let (mut failed, mut inv_ms) = (0u64, Vec::new());
    let mut rates: [(f64, f64); 3] = [(0.0, 0.0); 3];
    for i in 0..n {
        let req = i as u32;
        let (k, w) = (i % KINDS.len(), (i / KINDS.len()) % windows.len());
        let range = windows[w]..windows[w] + shape.span;
        let root = rec.begin(req, "cli.invocation");
        let (map, _) = rec.time(req, "store.mmap.open", Some(root), || {
            SegmentMap::open(&seg_path)
        });
        let map = map.map_err(|e| format!("open segment: {e}"))?;
        let view = PackedView::parse(
            map.packed_bytes()
                .ok_or("segment without a packed section")?,
        )
        .map_err(|e| e.to_string())?;
        let adj = PackedAdjacency(view);
        let gov = Governor::new(&Budget::unlimited());
        let chunks = kgq_core::parallel::effective_threads();
        let mut out = String::new();
        let work = if KINDS[k] == "triangles" {
            let l0 = view.label_by_name("l0").ok_or("no label l0")?;
            let (res, _) = rec.time(req, "core.scale.triangles", Some(root), || {
                triangle_count(&adj, (l0, l0, l0), range.clone(), chunks, &gov, 10)
            });
            let tc = res.map_err(|e| e.to_string())?.value;
            out.push_str(&format!("{} triangles\n", tc.count));
            for (a, b, c) in &tc.sample {
                out.push_str(&format!("{a}\t{b}\t{c}\n"));
            }
            shape.span as f64
        } else {
            let mut consts = Interner::new();
            let expr = parse_expr("l0/l0", &mut consts).map_err(|e| e.to_string())?;
            let dfa = LabelDfa::compile(&expr, |s| view.label_by_name(consts.resolve(s)))
                .map_err(|e| e.to_string())?;
            let ev = ScaleEvaluator::new(&adj, dfa);
            if KINDS[k] == "pairs" {
                let (res, _) = rec.time(req, "core.scale.pairs", Some(root), || {
                    ev.pairs_governed(range.clone(), chunks, &gov)
                });
                let rows = res.map_err(|e| e.to_string())?.value;
                for (s, t) in &rows {
                    out.push_str(&format!("{s}\t{t}\n"));
                }
                rows.len() as f64
            } else {
                let (res, _) = rec.time(req, "core.scale.starts", Some(root), || {
                    ev.matching_starts_governed(range.clone(), chunks, &gov)
                });
                let rows = res.map_err(|e| e.to_string())?.value;
                for s in &rows {
                    out.push_str(&format!("{s}\n"));
                }
                rows.len() as f64
            }
        };
        let last = rec.spans.last().expect("a scale span was just pushed");
        rates[k].0 += work;
        rates[k].1 += last.dur_ns() as f64 / 1e9;
        rec.end(root);
        inv_ms.push(rec.dur_us(root) / 1e3);
        if !expected[k][w].matches(&out) {
            failed += 1;
            eprintln!(
                "kgq_bench: packed_cli: traced scale {} differs from the oracle",
                KINDS[k]
            );
        }
    }
    layers.median_of(rec, "store.mmap.open_ms");
    for (k, metric) in [
        "core.scale.pairs_rows_per_s",
        "core.scale.starts_rows_per_s",
        "core.scale.triangles_apexes_per_s",
    ]
    .into_iter()
    .enumerate()
    {
        let (work, secs) = rates[k];
        layers.set(
            metric,
            if secs > 0.0 { work / secs } else { 0.0 },
            n / KINDS.len(),
        );
    }

    // Packed against raw adjacency, on a graph small enough to hold as
    // a named `LabeledGraph` (the raw index needs one).
    let mut g = barabasi_albert(
        (shape.nodes / 10).max(1_000) as usize,
        10,
        "v",
        "l0",
        cfg.seed,
    );
    let expr = parse_expr("l0/l0", g.consts_mut()).map_err(|e| e.to_string())?;
    let idx = LabelIndex::build(&g);
    let small = PackedLabelIndex::from_labeled(&g).map_err(|e| e.to_string())?;
    let dfa = LabelDfa::compile(&expr, |s| idx.dense_id(s)).map_err(|e| e.to_string())?;
    let (raw, pk) = (RawAdjacency(&idx), PackedAdjacency(small.view()));
    let (ev_raw, ev_pk) = (
        ScaleEvaluator::new(&raw, dfa.clone()),
        ScaleEvaluator::new(&pk, dfa),
    );
    let nodes = g.node_count() as u32;
    let (mut t_raw, mut t_pk) = (f64::MAX, f64::MAX);
    for _ in 0..3 {
        let started = Instant::now();
        let a = ev_raw.pairs(0..nodes, 1);
        t_raw = t_raw.min(started.elapsed().as_secs_f64());
        let started = Instant::now();
        let b = ev_pk.pairs(0..nodes, 1);
        t_pk = t_pk.min(started.elapsed().as_secs_f64());
        if a != b {
            return Err("packed and raw adjacency disagree".into());
        }
    }
    layers.set("core.scale.packed_over_raw", t_pk / t_raw, 3);
    Ok((n, failed, median(&inv_ms).unwrap_or(0.0)))
}
