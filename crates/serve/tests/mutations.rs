//! End-to-end mutation tests: INSERT/DELETE/FLUSH over real TCP,
//! cache-generation invalidation, and durable-store restarts.

use kgq_core::Budget;
use kgq_graph::PropertyGraph;
use kgq_rdf::TripleStore;
use kgq_serve::{apply_edges, serve, serve_with_store, stat, Caps, Client, ServerConfig};
use kgq_store::DurableStore;
use std::path::PathBuf;
use std::time::Duration;

fn config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        caps: Budget::unlimited(),
    }
}

fn connect(handle: &kgq_serve::ServerHandle) -> Client {
    let c = Client::connect(handle.addr()).expect("connect");
    c.set_timeout(Some(Duration::from_secs(60))).unwrap();
    c
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kgq-serve-mut-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const KNOWS: &str = "SELECT ?x ?y WHERE { ?x <knows> ?y . }";

#[test]
fn insert_count_delete_count_round_trip_over_tcp() {
    let handle = serve(PropertyGraph::new(), TripleStore::new(), config()).expect("bind");
    let mut c = connect(&handle);

    // Empty store: zero rows.
    let r0 = c.sparql(KNOWS, &Caps::none()).unwrap();
    assert!(r0.ok, "{}", r0.body);
    assert_eq!(r0.body.lines().count(), 0);
    let gen0 = stat(&c.stats().unwrap(), "generation").unwrap();

    // INSERT a mixed batch: two triples and one property-graph edge.
    let ins = c
        .insert("<a> <knows> <b> .\n<b> <knows> <c> .\nedge n1 rides n2 person bus")
        .unwrap();
    assert!(ins.ok, "{}", ins.body);
    assert!(
        ins.body.contains("inserted 2 triple(s), 1 edge(s)"),
        "{}",
        ins.body
    );
    let r1 = c.sparql(KNOWS, &Caps::none()).unwrap();
    assert_eq!(r1.body.lines().count(), 2, "{}", r1.body);
    // The committed mutation advanced the shared cache generation.
    let gen1 = stat(&c.stats().unwrap(), "generation").unwrap();
    assert!(gen1 > gen0, "generation must advance on INSERT");
    // The edge is queryable through the RPQ path.
    let pairs = c.rpq("pairs", "rides", &Caps::none()).unwrap();
    assert!(pairs.ok, "{}", pairs.body);
    assert_eq!(pairs.body.trim(), "n1\tn2");

    // DELETE one triple; the count drops and the generation advances.
    let del = c.delete("<a> <knows> <b> .").unwrap();
    assert!(del.ok, "{}", del.body);
    assert!(del.body.contains("deleted 1 triple(s)"), "{}", del.body);
    let r2 = c.sparql(KNOWS, &Caps::none()).unwrap();
    assert_eq!(r2.body.lines().count(), 1, "{}", r2.body);
    let gen2 = stat(&c.stats().unwrap(), "generation").unwrap();
    assert!(gen2 > gen1, "generation must advance on DELETE");

    // Deleting it again is a no-op, not an error.
    let del2 = c.delete("<a> <knows> <b> .").unwrap();
    assert!(del2.ok && del2.body.contains("deleted 0 triple(s)"));

    // Malformed mutations are ERR frames, not panics.
    assert!(!c.insert("not an ntriples line").unwrap().ok);
    assert!(!c.insert("").unwrap().ok);
    assert!(!c.delete("edge n1 rides n2").unwrap().ok);

    drop(c);
    handle.shutdown();
}

/// The satellite regression: a cached query's answer must change after
/// an INSERT commits. A stale generation stamp would keep serving the
/// old compiled result; the bump makes the old cache entry unreachable.
/// The live store takes a committed batch through the bulk
/// `extend_strs` / `remove_all` pair; the acknowledged counts must be
/// the ones a point loop over the same lines would have produced, with
/// in-batch duplicates, already-present triples, absent triples and
/// never-interned terms all in the batch.
#[test]
fn hundred_op_batches_report_the_point_loop_counts() {
    let handle = serve(PropertyGraph::new(), TripleStore::new(), config()).expect("bind");
    let mut c = connect(&handle);
    let mut oracle = TripleStore::new();
    assert!(
        c.insert("<n0> <knows> <n1> .\n<n2> <knows> <n3> .")
            .unwrap()
            .ok
    );
    oracle.insert_strs("n0", "knows", "n1");
    oracle.insert_strs("n2", "knows", "n3");

    // 100 lines over 60 distinct triples, two of them already stored.
    let line = |i: usize| (format!("n{}", i % 60), format!("n{}", i % 60 + 1));
    let batch: String = (0..100)
        .map(|i| format!("<{}> <knows> <{}> .\n", line(i).0, line(i).1))
        .collect();
    let want = (0..100)
        .filter(|&i| oracle.insert_strs(&line(i).0, "knows", &line(i).1))
        .count();
    assert_eq!(want, 58);
    let ins = c.insert(&batch).unwrap();
    assert!(ins.ok, "{}", ins.body);
    assert!(
        ins.body
            .starts_with(&format!("inserted {want} triple(s), 0 edge(s)\n")),
        "{}",
        ins.body
    );

    // 100 lines: 24 stored triples (each named twice or more), absent
    // triples over known terms, and terms the store never interned.
    let victim = |i: usize| match i % 5 {
        3 => (format!("n{}", i % 60), format!("n{}", i % 60 + 7)),
        4 => (format!("ghost{i}"), "n1".to_owned()),
        _ => (format!("n{}", i % 40), format!("n{}", i % 40 + 1)),
    };
    let batch: String = (0..100)
        .map(|i| format!("<{}> <knows> <{}> .\n", victim(i).0, victim(i).1))
        .collect();
    let want = (0..100)
        .filter(|&i| {
            let (s, o) = victim(i);
            oracle
                .get_triple(&s, "knows", &o)
                .is_some_and(|t| oracle.remove(t))
        })
        .count();
    assert_eq!(want, 24);
    let del = c.delete(&batch).unwrap();
    assert!(del.ok, "{}", del.body);
    assert!(
        del.body.starts_with(&format!("deleted {want} triple(s)\n")),
        "{}",
        del.body
    );
    let rows = c.sparql(KNOWS, &Caps::none()).unwrap();
    assert_eq!(rows.body.lines().count(), oracle.len(), "{}", rows.body);
    drop(c);
    handle.shutdown();
}

#[test]
fn cached_query_invalidates_after_insert() {
    let handle = serve(PropertyGraph::new(), TripleStore::new(), config()).expect("bind");
    let mut c = connect(&handle);
    c.insert("edge n1 rides n2 person bus").unwrap();

    // Warm the cache: same RPQ twice, second answered from cache.
    let first = c.rpq("pairs", "rides", &Caps::none()).unwrap();
    assert_eq!(first.body.lines().count(), 1);
    let again = c.rpq("pairs", "rides", &Caps::none()).unwrap();
    assert_eq!(again.body, first.body);
    let stats = c.stats().unwrap();
    assert!(stat(&stats, "cache_hits").unwrap() >= 1);
    let misses_before = stat(&stats, "cache_misses").unwrap();
    let gen_before = stat(&stats, "generation").unwrap();

    // Commit a mutation that changes the answer.
    c.insert("edge n3 rides n4 person bus").unwrap();

    // The same query now returns the new row set — not the cached one.
    let after = c.rpq("pairs", "rides", &Caps::none()).unwrap();
    assert_eq!(after.body.lines().count(), 2, "{}", after.body);
    let stats = c.stats().unwrap();
    assert!(
        stat(&stats, "generation").unwrap() > gen_before,
        "cache generation must advance on committed mutation"
    );
    assert!(
        stat(&stats, "cache_misses").unwrap() > misses_before,
        "the re-run must be a miss at the new generation"
    );

    drop(c);
    handle.shutdown();
}

/// Every commit bumps the generation, so a query repeated after each
/// commit compiles once per generation. The cache must hold only the
/// live generation's entry, not one dead product per commit.
#[test]
fn commits_leave_one_cache_entry_for_a_repeated_query() {
    let handle = serve(PropertyGraph::new(), TripleStore::new(), config()).expect("bind");
    let mut c = connect(&handle);
    for i in 0..20 {
        let ins = c
            .insert(&format!("edge n{i} rides b{i} person bus"))
            .unwrap();
        assert!(ins.ok, "{}", ins.body);
        let pairs = c.rpq("pairs", "rides", &Caps::none()).unwrap();
        assert_eq!(pairs.body.lines().count(), i + 1, "{}", pairs.body);
    }
    let stats = c.stats().unwrap();
    assert_eq!(stat(&stats, "cache_len"), Some(1), "{stats}");
    assert_eq!(stat(&stats, "cache_evictions"), Some(19), "{stats}");
    drop(c);
    handle.shutdown();
}

#[test]
fn durable_mutations_survive_server_restart() {
    let dir = tmp_dir("restart");

    // Generation 1: an empty durable server takes a mixed batch.
    {
        let (durable, _) = DurableStore::open(&dir).unwrap();
        let handle = serve_with_store(
            PropertyGraph::new(),
            TripleStore::new(),
            Some(durable),
            config(),
        )
        .expect("bind");
        let mut c = connect(&handle);
        let ins = c
            .insert("<a> <knows> <b> .\n<b> <knows> <c> .\nedge n1 rides n2 person bus")
            .unwrap();
        assert!(ins.ok, "{}", ins.body);
        let stats = c.stats().unwrap();
        assert_eq!(stat(&stats, "store_generation"), Some(1));
        assert!(stat(&stats, "wal_bytes").unwrap() > 8);
        drop(c);
        handle.shutdown();
    }

    // Restart: recover from disk, rebuild the snapshot, serve again.
    let boot_recovered = |dir: &PathBuf| {
        let (durable, replay) = DurableStore::open(dir).unwrap();
        assert_eq!(replay.tail, kgq_store::TailState::Clean);
        let mut graph = PropertyGraph::new();
        apply_edges(&mut graph, durable.all_edges());
        // The server serves the durable store's own triples.
        serve_with_store(graph, TripleStore::new(), Some(durable), config()).expect("bind")
    };
    {
        let handle = boot_recovered(&dir);
        let mut c = connect(&handle);
        let rows = c.sparql(KNOWS, &Caps::none()).unwrap();
        assert_eq!(rows.body.lines().count(), 2, "{}", rows.body);
        let pairs = c.rpq("pairs", "rides", &Caps::none()).unwrap();
        assert_eq!(pairs.body.trim(), "n1\tn2");
        // Mutate again, then FLUSH so the log folds into a segment.
        assert!(c.delete("<a> <knows> <b> .").unwrap().ok);
        let flush = c.flush().unwrap();
        assert!(
            flush.ok && flush.body.contains("compacted"),
            "{}",
            flush.body
        );
        drop(c);
        handle.shutdown();
    }

    // Second restart: state now comes from the compacted segment.
    {
        let handle = boot_recovered(&dir);
        let mut c = connect(&handle);
        let rows = c.sparql(KNOWS, &Caps::none()).unwrap();
        assert_eq!(rows.body.lines().count(), 1, "{}", rows.body);
        let pairs = c.rpq("pairs", "rides", &Caps::none()).unwrap();
        assert_eq!(pairs.body.trim(), "n1\tn2");
        drop(c);
        handle.shutdown();
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flush_without_store_is_a_clean_no_op() {
    let handle = serve(PropertyGraph::new(), TripleStore::new(), config()).expect("bind");
    let mut c = connect(&handle);
    let flush = c.flush().unwrap();
    assert!(
        flush.ok && flush.body.contains("no durable store"),
        "{}",
        flush.body
    );
    drop(c);
    handle.shutdown();
}
