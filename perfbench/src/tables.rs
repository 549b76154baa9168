//! The benchmark's workloads and metrics. `BENCHMARK.json` is generated
//! from these tables (`kgq_bench --emit-benchmark-json`).

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

/// One workload: its name and why it is there (one line, at most 200
/// characters, naming the client count and loop type).
pub struct WorkloadDef {
    /// `--workload` value.
    pub name: &'static str,
    /// Reason for the workload.
    pub why: &'static str,
}

/// One metric: name, unit, direction, and for an end-to-end metric the
/// share of the parent's median by which it may worsen.
pub struct MetricDef {
    /// Metric name; per-layer names are crate and module names.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The four workloads.
pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "point_reads",
        why: "2 closed-loop connections, small answers: wire, parse, analyze, cache and plan do the work, engines little; a front-end change moves it, a kernel or LFTJ change leaves it flat",
    },
    WorkloadDef {
        name: "scan_reads",
        why: "1 closed-loop connection, every answer above 100 KB: execute, row rendering and socket write do the work; kernel, LFTJ and rendering gains show here, a small-frame wire fix does not",
    },
    WorkloadDef {
        name: "rw_durable",
        why: "1 closed-loop writer committing to a --store server plus 1 closed-loop reader, then SIGKILL and restart: WAL, overlay, compaction, recovery and the locks reads share with commits",
    },
    WorkloadDef {
        name: "packed_cli",
        why: "1 CLI process at a time over an mmap'd packed BA segment: the only run of packed, mmap, scale and the batch-CLI path (spawn, open, CRC); serve-side changes must leave it flat",
    },
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("latency_p50_ms", "ms", "lower", 0.25),
    e2e("latency_tail_ms", "ms", "lower", 0.25),
    e2e("throughput_rps", "1/s", "higher", 0.25),
    e2e("rows_per_s", "1/s", "higher", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.25),
    e2e("recover_s", "s", "lower", 0.25),
];

/// Per-layer metrics, reported by every workload with `--trace 1`; a
/// layer the workload never calls reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    // Real-server pass of the traced run.
    layer("e2e.latency_p50_ms", "ms", "lower"),
    layer("e2e.failed_share", "ratio", "lower"),
    layer("serve.service_p50_us", "us", "lower"),
    layer("rw.commit_p50_ms", "ms", "lower"),
    layer("rw.commit_tail_ms", "ms", "lower"),
    layer("rw.flush_wire_ms", "ms", "lower"),
    layer("rw.disk_bytes_per_user_byte", "ratio", "lower"),
    layer("rw.lost_acked_writes", "count", "lower"),
    layer("cli.spawn_ms", "ms", "lower"),
    // In-process replay: kgq-serve.
    layer("trace.overhead_ratio", "ratio", "lower"),
    layer("serve.wire_ms", "ms", "lower"),
    layer("serve.protocol.codec_us", "us", "lower"),
    layer("serve.sched.handoff_us", "us", "lower"),
    layer("serve.exec.query_us", "us", "lower"),
    layer("serve.exec.cypher_us", "us", "lower"),
    layer("serve.exec.sparql_us", "us", "lower"),
    layer("serve.exec.insert_us", "us", "lower"),
    layer("serve.exec.delete_us", "us", "lower"),
    layer("serve.exec.flush_ms", "ms", "lower"),
    layer("serve.exec.residual_us", "us", "lower"),
    // kgq-core.
    layer("core.parser.parse_us", "us", "lower"),
    layer("core.analyze.expr_us", "us", "lower"),
    layer("core.cache.hit_us", "us", "lower"),
    layer("core.cache.compile_us", "us", "lower"),
    layer("core.cache.hit_rate", "ratio", "higher"),
    layer("core.cache.evictions", "count", "lower"),
    layer("core.eval.pairs_us", "us", "lower"),
    layer("core.eval.starts_us", "us", "lower"),
    layer("core.eval.rows_per_s", "1/s", "higher"),
    layer("core.count.count_us", "us", "lower"),
    // kgq-cypher.
    layer("cypher.parse_us", "us", "lower"),
    layer("cypher.analyze_us", "us", "lower"),
    layer("cypher.execute_us", "us", "lower"),
    // kgq-rdf.
    layer("rdf.sparql.parse_us", "us", "lower"),
    layer("rdf.analyze.bgp_us", "us", "lower"),
    layer("rdf.lftj.plan_us", "us", "lower"),
    layer("rdf.lftj.verify_us", "us", "lower"),
    layer("rdf.lftj.solve_us", "us", "lower"),
    layer("rdf.lftj.rows_per_s", "1/s", "higher"),
    layer("rdf.sketch.build_ms", "ms", "lower"),
    layer("rdf.sketch.builds", "count", "lower"),
    layer("rdf.store.insert_us", "us", "lower"),
    layer("rdf.store.remove_us", "us", "lower"),
    layer("rdf.store.bulk_load_ms", "ms", "lower"),
    // kgq-store.
    layer("store.durable.commit1_us", "us", "lower"),
    layer("store.durable.commit100_us", "us", "lower"),
    layer("store.wal.bytes_per_op", "B", "lower"),
    layer("store.wal.fsyncs", "count", "lower"),
    layer("store.durable.compact_ms", "ms", "lower"),
    layer("store.durable.open_ms", "ms", "lower"),
    layer("store.durable.scan_all_ms", "ms", "lower"),
    layer("store.durable.edge_seq_us", "us", "lower"),
    layer("store.overlay.count_ratio", "ratio", "lower"),
    layer("store.segment.bytes_per_triple", "B", "lower"),
    layer("store.mmap.open_ms", "ms", "lower"),
    // kgq-graph.
    layer("graph.read_property_ms", "ms", "lower"),
    layer("graph.packed.bytes_per_edge", "B", "lower"),
    layer("graph.packed.pack_edges_per_s", "1/s", "higher"),
    // kgq-core::scale.
    layer("core.scale.pairs_rows_per_s", "1/s", "higher"),
    layer("core.scale.starts_rows_per_s", "1/s", "higher"),
    layer("core.scale.triangles_apexes_per_s", "1/s", "higher"),
    layer("core.scale.packed_over_raw", "ratio", "lower"),
];
