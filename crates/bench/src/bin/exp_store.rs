//! Experiment `exp_store` — the durable write path under honest fsync,
//! emitted as `BENCH_store.json`.
//!
//! Six measurements over `kgq-store` (DESIGN.md §13), all on a single
//! box against a real filesystem:
//!
//! 1. **batched append throughput** — triples committed per second when
//!    ops are batched before each fsynced commit, plus WAL bytes per
//!    op. This is the bulk-load shape.
//! 2. **single-op commit latency** — p50/p99 µs for a commit of one
//!    triple. Each commit pays a full fsync, so this is the *honest*
//!    durability floor of the box, not a page-cache number.
//! 3. **recovery time vs WAL length** — wall time for
//!    [`DurableStore::open`] (scan + CRC check + replay) at increasing
//!    committed WAL sizes, and the same store reopened after
//!    compaction (segment load, near-empty WAL).
//! 4. **read overhead** — full sorted scans and pattern counts through
//!    [`DurableStore::scan_all`] / [`DurableStore::count`], with a tenth
//!    of the triples inserted and a tenth deleted since the last
//!    compaction, versus the same reads on a plain
//!    [`kgq_rdf::TripleStore`] holding the same state, reported as a
//!    ratio. The durable store keeps one live `TripleStore`, so both
//!    ratios should sit near 1.
//! 5. **boot scaling** — `open` (segment load + replay of a log a fifth
//!    the base's size) and `compact` at three store sizes 4× apart,
//!    loaded in random order. Each is one bulk sorted-run merge, so 16×
//!    the data must cost well under 64× the time (a per-triple rebuild
//!    costs 256×); the run fails otherwise.
//! 6. **CRC-32 rate** — MB/s of [`kgq_store::crc32`] over a 32 MiB
//!    buffer against a byte-at-a-time reference loop in this binary,
//!    best of five each. Every WAL record and every segment chunk a
//!    reader touches is checked by this function, so the run fails
//!    below 3× the reference.
//! 7. **segment open cost** — [`SegmentMap::open`] on packed BA
//!    segments of ~4 MB and ~32 MB (~1 and ~8 MB with `--quick`), best
//!    of five each. Open reads the header and chunk table only, so the
//!    run fails if the larger takes more than twice the smaller's time
//!    plus 1 ms. Then the per-read price of first-touch verification:
//!    an all-sources `l0/l0` pairs sweep of the smaller segment through
//!    the lazily verified view, every chunk already verified, against
//!    the same sweep through [`PackedView::parse`], best of five each;
//!    the run fails above 1.10×.
//!
//! Correctness is asserted before anything is timed: every recovery
//! must reproduce the exact committed triple set, and the durable reads
//! must agree with the plain store's byte-for-byte. `--quick` trims
//! sizes for CI; `--out FILE` overrides the report path.

use kgq_bench::{fmt_duration, mean, percentile, print_table, timed, write_report};
use kgq_core::parser::parse_expr;
use kgq_core::scale::{LabelDfa, PackedAdjacency, ScaleEvaluator};
use kgq_graph::packed::{PackOptions, PackedLabelIndex, PackedView};
use kgq_graph::Interner;
use kgq_store::segment::{write_atomic, Segment};
use kgq_store::{DurableStore, SegmentMap};
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Exits with a message instead of panicking: a failed experiment run
/// should read like a diagnosis, not a backtrace.
fn orfail<T, E: std::fmt::Display>(result: Result<T, E>, what: &str) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("exp_store: {what}: {e}");
        std::process::exit(1);
    })
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic triple `i` over a closed vocabulary: enough distinct
/// subjects to exercise the orderings, few predicates (as in RDF data).
fn triple(i: u64) -> (String, String, String) {
    let mut s = i.wrapping_mul(0x0360_3AB5);
    let r = splitmix64(&mut s);
    (
        format!("s{}", r % 5_000),
        format!("p{}", (r >> 16) % 12),
        format!("o{i}"),
    )
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kgq-exp-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &Path) -> DurableStore {
    orfail(DurableStore::open(dir), "open store").0
}

/// One boot-scaling point: `[open, compact]` wall times in ms for a
/// store of `n` base triples and an `n / 5`-op log on top.
fn boot_point(n: u64) -> [f64; 2] {
    let dir = fresh_dir(&format!("boot-{n}"));
    let mut store = open(&dir);
    // A multiplicative walk visits 0..n in a scattered order (n is a
    // multiple of 10, the stride is coprime to it).
    for i in 0..n {
        let (s, p, o) = triple(i * 7_919 % n);
        store.stage_insert(&s, &p, &o);
    }
    orfail(store.commit(), "commit boot base");
    orfail(store.compact(), "compact boot base");
    for i in 0..n / 10 {
        let (s, p, o) = triple(3_000_000 + i);
        store.stage_insert(&s, &p, &o);
        let (s, p, o) = triple(i * 7 % n);
        store.stage_delete(&s, &p, &o);
    }
    orfail(store.commit(), "commit boot log");
    let expected = store.scan_all();
    assert_eq!(expected.len() as u64, n, "boot store has the wrong size");
    drop(store);

    // Median of three opens; compaction empties the log, so it is
    // timed once.
    let mut opens = Vec::new();
    let mut store = loop {
        let (opened, d) = timed(|| open(&dir));
        opens.push(d.as_secs_f64() * 1e3);
        assert_eq!(opened.len() as u64, n, "recovered view diverged");
        if opens.len() == 3 {
            break opened;
        }
    };
    let (r, d) = timed(|| store.compact());
    orfail(r, "compact boot store");
    drop(store);
    assert_eq!(
        open(&dir).scan_all(),
        expected,
        "compaction changed the view"
    );
    let _ = std::fs::remove_dir_all(&dir);
    [percentile(&opens, 50.0), d.as_secs_f64() * 1e3]
}

/// The byte-at-a-time CRC-32 loop the sliced [`kgq_store::crc32`] is
/// measured against (same polynomial, same values).
fn crc32_bytewise(table: &[u32; 256], bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ table[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Best of five MB/s of `crc` over `bytes`. The input goes through
/// `black_box` on every pass so the loop cannot be hoisted out.
fn crc_mb_per_s(bytes: &[u8], crc: impl Fn(&[u8]) -> u32) -> f64 {
    let best = (0..5)
        .map(|_| {
            let (_, d) = timed(|| black_box(crc(black_box(bytes))));
            d.as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    bytes.len() as f64 / 1e6 / best.max(1e-9)
}

/// Writes a one-label packed BA graph of `nodes` nodes (10 edges each,
/// no edge ids, both directions: `kgq scale gen`'s shape) to `path`.
fn write_packed_segment(path: &Path, nodes: u32) {
    let quads = kgq_graph::generate::ba_edge_stream(nodes, 10, 1, 7)
        .into_iter()
        .enumerate()
        .map(|(i, (s, l, d))| (s, l, d, i as u32))
        .collect();
    let opts = PackOptions {
        edge_ids: false,
        inverse: true,
    };
    let packed = orfail(
        PackedLabelIndex::from_quads(nodes, &["l0".to_string()], quads, opts),
        "pack segment",
    );
    let seg = Segment {
        generation: 1,
        triples: Vec::new(),
        edges: Vec::new(),
        packed: Some(packed.into_bytes()),
    };
    orfail(write_atomic(path, &seg), "write packed segment");
}

/// Wall time of `f` in ms, its result dropped outside the timing.
fn wall_ms<T>(f: impl FnOnce() -> T) -> f64 {
    let (v, d) = timed(f);
    drop(black_box(v));
    d.as_secs_f64() * 1e3
}

/// All-sources `l0/l0` pairs over `view`, on one thread.
fn pairs_sweep(view: PackedView<'_>) -> Vec<(u32, u32)> {
    let mut interner = Interner::new();
    let expr = orfail(parse_expr("l0/l0", &mut interner), "parse l0/l0");
    let dfa = orfail(
        LabelDfa::compile(&expr, |s| view.label_by_name(interner.resolve(s))),
        "compile l0/l0",
    );
    let adj = PackedAdjacency(view);
    ScaleEvaluator::new(&adj, dfa).pairs(0..view.node_count() as u32, 1)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    // (batches, ops per batch, single-op commits, read-overhead base size)
    let (batches, batch_ops, singles, base_n) = if quick {
        (60, 50, 60, 20_000)
    } else {
        (200, 100, 200, 100_000)
    };

    // -- 1. batched append throughput ------------------------------------
    let dir = fresh_dir("append");
    let mut store = open(&dir);
    let mut next = 0u64;
    let start = Instant::now();
    for _ in 0..batches {
        for _ in 0..batch_ops {
            let (s, p, o) = triple(next);
            store.stage_insert(&s, &p, &o);
            next += 1;
        }
        orfail(store.commit(), "commit batch");
    }
    let append_wall = start.elapsed();
    let total_ops = (batches * batch_ops) as f64;
    let append_ops_s = total_ops / append_wall.as_secs_f64();
    let wal_bytes = store.wal_len();
    let bytes_per_op = wal_bytes as f64 / total_ops;
    let committed_len = store.len();

    // -- 2. single-op commit latency (one fsync per triple) ---------------
    let mut lat_us = Vec::with_capacity(singles);
    for i in 0..singles {
        let (s, p, o) = triple(1_000_000 + i as u64);
        store.stage_insert(&s, &p, &o);
        let (r, d) = timed(|| store.commit());
        orfail(r, "single-op commit");
        lat_us.push(d.as_micros() as f64);
    }
    let p50 = percentile(&lat_us, 50.0);
    let p99 = percentile(&lat_us, 99.0);
    let expected = store.scan_all();
    let expected_generation = store.generation();
    drop(store);

    // -- 3. recovery time vs WAL length -----------------------------------
    // Reopen the same directory at increasing replay lengths by copying
    // WAL prefixes: recovery cost must scale with the log, not the data.
    let mut recovery_rows = Vec::new();
    let mut recovery_json = String::new();
    let wal = orfail(std::fs::read(dir.join("wal.log")), "read wal");
    for frac in [0.25f64, 0.5, 1.0] {
        let keep = kgq_store::wal::scan(&wal[..(wal.len() as f64 * frac) as usize], 0);
        let cut_dir = fresh_dir(&format!("recover-{}", (frac * 100.0) as u32));
        orfail(std::fs::create_dir_all(&cut_dir), "create recovery dir");
        orfail(
            std::fs::write(cut_dir.join("wal.log"), &wal[..keep.committed_len as usize]),
            "write wal prefix",
        );
        let ((recovered, replay), d) =
            timed(|| orfail(DurableStore::open(&cut_dir), "recover prefix"));
        let ops: usize = replay.batches.iter().map(|(_, b)| b.len()).sum();
        if frac == 1.0 {
            let got = recovered.scan_all();
            assert_eq!(
                got, expected,
                "full-WAL recovery diverged from writer state"
            );
            assert_eq!(recovered.generation(), expected_generation);
        }
        recovery_rows.push(vec![
            format!("{}%", (frac * 100.0) as u32),
            keep.committed_len.to_string(),
            ops.to_string(),
            fmt_duration(d),
            format!("{:.0}", ops as f64 / d.as_secs_f64().max(1e-9)),
        ]);
        let _ = writeln!(
            recovery_json,
            "    {{ \"wal_bytes\": {}, \"ops\": {}, \"recover_ms\": {:.3} }},",
            keep.committed_len,
            ops,
            d.as_secs_f64() * 1e3
        );
        let _ = std::fs::remove_dir_all(&cut_dir);
    }
    // After compaction the same state must reopen from the segment in
    // near-constant time regardless of how long the log had grown.
    let mut store = open(&dir);
    orfail(store.compact(), "compact");
    drop(store);
    let ((compacted, _), seg_open) = timed(|| orfail(DurableStore::open(&dir), "reopen segment"));
    assert_eq!(compacted.scan_all(), expected, "compacted state diverged");
    drop(compacted);

    // -- 4. read overhead ----------------------------------------------
    // A compacted base of `base_n` triples, then 10% inserts and 10%
    // deletes committed to the log — the steady state between flushes.
    let dir2 = fresh_dir("reads");
    let mut store = open(&dir2);
    for i in 0..base_n as u64 {
        let (s, p, o) = triple(i);
        store.stage_insert(&s, &p, &o);
    }
    orfail(store.commit(), "commit base");
    orfail(store.compact(), "compact base");
    let tenth = (base_n / 10) as u64;
    for i in 0..tenth {
        let (s, p, o) = triple(2_000_000 + i);
        store.stage_insert(&s, &p, &o);
        let (s, p, o) = triple(i * 7 % base_n as u64);
        store.stage_delete(&s, &p, &o);
    }
    orfail(store.commit(), "commit log");
    let plain = store.store().clone();
    let (via_store, scan_store) = timed(|| store.scan_all());
    let (via_plain, scan_plain) = timed(|| {
        let mut v: Vec<(String, String, String)> = plain
            .iter()
            .map(|t| {
                (
                    plain.term_str(t.s).to_string(),
                    plain.term_str(t.p).to_string(),
                    plain.term_str(t.o).to_string(),
                )
            })
            .collect();
        v.sort();
        v
    });
    assert_eq!(
        via_store, via_plain,
        "durable scan diverged from the plain store"
    );
    let probes: Vec<(String, Option<String>)> = (0..1_000u64)
        .map(|i| {
            let (s, p, _) = triple(i * 97 % base_n as u64);
            (s, if i % 2 == 0 { Some(p) } else { None })
        })
        .collect();
    let (n_store, count_store) = timed(|| {
        probes
            .iter()
            .map(|(s, p)| store.count(Some(s.as_str()), p.as_deref(), None))
            .sum::<usize>()
    });
    let (n_plain, count_plain) = timed(|| {
        probes
            .iter()
            .map(|(s, p)| {
                let sym = plain.get_term(s);
                let psym = p.as_deref().map(|p| plain.get_term(p));
                match (sym, psym) {
                    (None, _) | (_, Some(None)) => 0,
                    (Some(s), p) => plain.count(Some(s), p.flatten(), None),
                }
            })
            .sum::<usize>()
    });
    assert_eq!(
        n_store, n_plain,
        "durable counts diverged from the plain store"
    );
    let scan_ratio = scan_store.as_secs_f64() / scan_plain.as_secs_f64().max(1e-9);
    let count_ratio = count_store.as_secs_f64() / count_plain.as_secs_f64().max(1e-9);

    // -- 5. boot scaling ---------------------------------------------------
    let boot_sizes: [u64; 3] = if quick {
        [10_000, 40_000, 160_000]
    } else {
        [25_000, 100_000, 400_000]
    };
    let boot: Vec<[f64; 2]> = boot_sizes.iter().map(|&n| boot_point(n)).collect();
    let boot_total = |p: &[f64; 2]| p.iter().sum::<f64>();
    let boot_time_ratio = boot_total(&boot[2]) / boot_total(&boot[0]).max(1e-9);

    // -- 6. CRC-32 rate ------------------------------------------------------
    let table: [u32; 256] = std::array::from_fn(|i| {
        (0..8).fold(i as u32, |c, _| {
            if c & 1 != 0 {
                (c >> 1) ^ 0xEDB8_8320
            } else {
                c >> 1
            }
        })
    });
    let mut state = 0x5EED_C3C3u64;
    let crc_buf: Vec<u8> = (0..(32 << 20) / 8)
        .flat_map(|_| splitmix64(&mut state).to_le_bytes())
        .collect();
    assert_eq!(
        kgq_store::crc32(&crc_buf),
        crc32_bytewise(&table, &crc_buf),
        "crc32 diverged from the byte-at-a-time reference"
    );
    let crc_mb_s = crc_mb_per_s(&crc_buf, kgq_store::crc32);
    let crc_bytewise_mb_s = crc_mb_per_s(&crc_buf, |b| crc32_bytewise(&table, b));
    let crc_speedup = crc_mb_s / crc_bytewise_mb_s.max(1e-9);
    drop(crc_buf);

    // -- 7. segment open cost ------------------------------------------------
    let open_nodes: [u32; 2] = if quick {
        [17_500, 140_000]
    } else {
        [70_000, 560_000]
    };
    let open_dir = fresh_dir("open");
    orfail(std::fs::create_dir_all(&open_dir), "create open dir");
    let seg_paths = open_nodes.map(|n| {
        let path = open_dir.join(format!("ba-{n}.seg"));
        write_packed_segment(&path, n);
        path
    });
    let seg_bytes = seg_paths
        .clone()
        .map(|p| orfail(std::fs::metadata(p), "stat segment").len());
    let [open_small_ms, open_large_ms] = seg_paths.clone().map(|p| {
        (0..5)
            .map(|_| wall_ms(|| orfail(SegmentMap::open(&p), "open segment")))
            .fold(f64::INFINITY, f64::min)
    });
    let small = orfail(SegmentMap::open(&seg_paths[0]), "open small segment");
    let eager = orfail(
        PackedView::parse(small.packed_bytes().unwrap_or_else(|| {
            eprintln!("exp_store: small segment has no packed section");
            std::process::exit(1);
        })),
        "parse small segment",
    );
    let lazy = orfail(small.packed_view(), "lazy view").unwrap_or_else(|| {
        eprintln!("exp_store: small segment has no packed view");
        std::process::exit(1);
    });
    let reference = pairs_sweep(eager);
    assert_eq!(
        pairs_sweep(lazy),
        reference,
        "the lazy view answered differently"
    );
    orfail(small.check(), "verify small segment");
    let (mut eager_ms, mut lazy_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        eager_ms = eager_ms.min(wall_ms(|| pairs_sweep(eager)));
        lazy_ms = lazy_ms.min(wall_ms(|| pairs_sweep(lazy)));
    }
    let lazy_overhead = lazy_ms / eager_ms.max(1e-9);
    drop(small);
    let _ = std::fs::remove_dir_all(&open_dir);

    // -- report -----------------------------------------------------------
    print_table(
        "durable append path (fsync on every commit)",
        &["metric", "value"],
        &[
            vec!["batched ops/s".into(), format!("{append_ops_s:.0}")],
            vec!["WAL bytes/op".into(), format!("{bytes_per_op:.1}")],
            vec!["triples after load".into(), committed_len.to_string()],
            vec!["1-op commit p50".into(), format!("{p50:.0}µs")],
            vec!["1-op commit p99".into(), format!("{p99:.0}µs")],
            vec!["reopen after compact".into(), fmt_duration(seg_open)],
        ],
    );
    print_table(
        "recovery time vs WAL length",
        &["wal", "bytes", "ops", "open", "ops/s"],
        &recovery_rows,
    );
    print_table(
        "read overhead (vs a plain TripleStore)",
        &["operation", "durable", "plain", "ratio"],
        &[
            vec![
                "full sorted scan".into(),
                fmt_duration(scan_store),
                fmt_duration(scan_plain),
                format!("{scan_ratio:.2}x"),
            ],
            vec![
                "1000 pattern counts".into(),
                fmt_duration(count_store),
                fmt_duration(count_plain),
                format!("{count_ratio:.2}x"),
            ],
        ],
    );

    print_table(
        "boot scaling (open + compact, one bulk merge each)",
        &["triples", "open", "compact", "total"],
        &boot_sizes
            .iter()
            .zip(&boot)
            .map(|(n, p)| {
                vec![
                    n.to_string(),
                    format!("{:.1}ms", p[0]),
                    format!("{:.1}ms", p[1]),
                    format!("{:.1}ms", boot_total(p)),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("16x the data costs {boot_time_ratio:.1}x the time (gate: < 64x; quadratic: 256x)\n");
    println!(
        "crc32 over 32 MiB: {crc_mb_s:.0} MB/s, byte-at-a-time {crc_bytewise_mb_s:.0} MB/s, \
         {crc_speedup:.1}x (gate: >= 3x)\n"
    );
    println!(
        "segment open: {open_small_ms:.3} ms for {} bytes, {open_large_ms:.3} ms for {} bytes \
         (gate: larger <= 2x smaller + 1 ms)",
        seg_bytes[0], seg_bytes[1]
    );
    println!(
        "pairs sweep, verified lazy view {lazy_ms:.1} ms vs parsed view {eager_ms:.1} ms: \
         {lazy_overhead:.3}x (gate: <= 1.10x)\n"
    );

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"append_batches\": {batches},");
    let _ = writeln!(json, "  \"append_batch_ops\": {batch_ops},");
    let _ = writeln!(json, "  \"append_ops_per_s\": {append_ops_s:.1},");
    let _ = writeln!(json, "  \"wal_bytes_per_op\": {bytes_per_op:.2},");
    let _ = writeln!(json, "  \"commit_1op_p50_us\": {p50:.0},");
    let _ = writeln!(json, "  \"commit_1op_p99_us\": {p99:.0},");
    let _ = writeln!(json, "  \"commit_1op_mean_us\": {:.1},", mean(&lat_us));
    let _ = writeln!(json, "  \"recovery\": [");
    json.push_str(recovery_json.trim_end().trim_end_matches(','));
    json.push_str("\n  ],\n");
    let _ = writeln!(
        json,
        "  \"segment_reopen_ms\": {:.3},",
        seg_open.as_secs_f64() * 1e3
    );
    let _ = writeln!(json, "  \"read_base_triples\": {base_n},");
    let _ = writeln!(json, "  \"read_scan_ratio\": {scan_ratio:.3},");
    let _ = writeln!(json, "  \"read_count_ratio\": {count_ratio:.3},");
    let _ = writeln!(json, "  \"boot_scaling\": [");
    for (i, (n, p)) in boot_sizes.iter().zip(&boot).enumerate() {
        let _ = writeln!(
            json,
            "    {{ \"triples\": {n}, \"open_ms\": {:.3}, \"compact_ms\": {:.3}, \
             \"total_ms\": {:.3} }}{}",
            p[0],
            p[1],
            boot_total(p),
            if i + 1 < boot.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"boot_scaling_time_ratio_16x_data\": {boot_time_ratio:.2},"
    );
    let _ = writeln!(json, "  \"crc32_mb_per_s\": {crc_mb_s:.0},");
    let _ = writeln!(
        json,
        "  \"crc32_bytewise_mb_per_s\": {crc_bytewise_mb_s:.0},"
    );
    let _ = writeln!(json, "  \"crc32_speedup\": {crc_speedup:.2},");
    let _ = writeln!(json, "  \"mmap_open_small_bytes\": {},", seg_bytes[0]);
    let _ = writeln!(json, "  \"mmap_open_small_ms\": {open_small_ms:.4},");
    let _ = writeln!(json, "  \"mmap_open_large_bytes\": {},", seg_bytes[1]);
    let _ = writeln!(json, "  \"mmap_open_large_ms\": {open_large_ms:.4},");
    let _ = writeln!(json, "  \"lazy_view_overhead\": {lazy_overhead:.3}");
    json.push_str("}\n");

    write_report(&args, "store", &json);
    print!("{json}");

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);

    if boot_time_ratio >= 64.0 {
        eprintln!(
            "exp_store: boot scaling gate failed: 16x the data cost {boot_time_ratio:.1}x the \
             time (must stay under 64x)"
        );
        std::process::exit(1);
    }
    if crc_speedup < 3.0 {
        eprintln!(
            "exp_store: crc32 gate failed: {crc_mb_s:.0} MB/s is {crc_speedup:.1}x the \
             byte-at-a-time loop (must be at least 3x)"
        );
        std::process::exit(1);
    }
    if open_large_ms > 2.0 * open_small_ms + 1.0 {
        eprintln!(
            "exp_store: open-cost gate failed: {open_large_ms:.3} ms for the larger segment \
             against {open_small_ms:.3} ms for the smaller (must stay under 2x + 1 ms)"
        );
        std::process::exit(1);
    }
    if lazy_overhead > 1.10 {
        eprintln!(
            "exp_store: lazy-view gate failed: the verified lazy view sweeps at \
             {lazy_overhead:.3}x the parsed view (must stay at or under 1.10x)"
        );
        std::process::exit(1);
    }
}
