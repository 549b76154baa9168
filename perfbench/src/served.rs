//! The three served workloads: set-up of the real `kgq serve`, the
//! closed-loop connections, the `rw_durable` writer with its ledger, and
//! the crash-and-recover epilogue.

use crate::harness::{
    dir_bytes, run_cli, spawn_server, vm_hwm_mb, Children, RunDir, Server, WireClient,
};
use crate::workloads::{count_rows, triple_line, ContactData, Pool, WriteOp, WriterStream};
use kgq_perfbench::Rng;
use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Times the program's set-up is run in an end-to-end run; `setup_s`
/// is their median.
pub const SETUP_REPEATS: usize = 3;

/// Boots of a server that comes up in tens of milliseconds, half of
/// them before set-up and half after the window; `recover_s` is the best
/// tenth of them (`best_decile`). A boot is all processor time, and
/// twenty-five of them take under a second, which a busy neighbour
/// covers whole or not at all: two moments a window apart and the best
/// tenth show the program's own boot if either moment was quiet. A
/// durable server, whose recovery takes seconds, is crashed once.
pub const FAST_BOOTS: usize = 50;

/// Seconds between the writer's `FLUSH`es.
const FLUSH_EVERY_S: f64 = 5.0;

/// What one connection measured.
#[derive(Default)]
pub struct ConnStats {
    /// Client round trips in ms, send to last body byte.
    pub lat_ms: Vec<f64>,
    /// Pool index of each round trip in `lat_ms`.
    pub sent: Vec<usize>,
    /// Answer rows received.
    pub rows: u64,
    /// Requests sent in the window.
    pub attempted: u64,
    /// Requests that failed (transport, `ERR`, partial, oracle).
    pub failed: u64,
    /// Seconds from the window's start to this connection's last answer.
    pub elapsed_s: f64,
    /// Every whole deck answered inside the window.
    pub decks: Vec<Deck>,
    /// The first failure, for the log.
    pub first_failure: Option<String>,
}

/// One whole deck of a connection's stream (see `Pool::stream`),
/// answered inside the window.
pub struct Deck {
    /// Seconds from its first request to its last answer.
    pub secs: f64,
    /// Answer rows it received.
    pub rows: u64,
    /// Its round trips, as a range of [`ConnStats::lat_ms`].
    pub lat: std::ops::Range<usize>,
}

impl ConnStats {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }
}

/// The files and flags one served workload boots from.
pub struct ServedInputs {
    /// Property-graph file.
    pub graph: PathBuf,
    /// N-Triples file.
    pub nt: PathBuf,
    /// Whether the server runs on a durable store (`store init` +
    /// `--store`) or straight off the N-Triples file (`--nt`).
    pub durable: bool,
}

impl ServedInputs {
    /// Writes `data` into `dir`.
    pub fn write(dir: &RunDir, data: &ContactData, durable: bool) -> Result<ServedInputs, String> {
        let (graph, nt) = (dir.join("contact.g"), dir.join("contact.nt"));
        std::fs::write(&graph, &data.graph_text)
            .and_then(|()| std::fs::write(&nt, &data.nt_text))
            .map_err(|e| format!("write data set: {e}"))?;
        Ok(ServedInputs { graph, nt, durable })
    }

    fn serve_args<'a>(&'a self, store: &'a Path) -> Vec<&'a str> {
        let graph = self.graph.to_str().expect("run paths are UTF-8");
        let nt = self.nt.to_str().expect("run paths are UTF-8");
        let store = store.to_str().expect("run paths are UTF-8");
        if self.durable {
            vec![graph, "--store", store, "--workers", "2"]
        } else {
            vec![graph, "--nt", nt, "--workers", "2"]
        }
    }
}

/// A server that went through set-up, with what set-up cost.
pub struct Booted {
    /// The running server.
    pub server: Server,
    /// Its store directory (unused without `--store`).
    pub store: PathBuf,
    /// Seconds of each set-up repeat.
    pub setup_s: Vec<f64>,
}

/// Runs the program's own set-up `repeats` times — `store init` where
/// the workload is durable, then `kgq serve` to its first `PING`, then
/// one warm-up pass over every template, checked against the oracle —
/// and keeps the last server.
pub fn set_up(
    children: &Children,
    kgq: &Path,
    dir: &RunDir,
    inputs: &ServedInputs,
    pool: &Pool,
    repeats: usize,
) -> Result<Booted, String> {
    let mut setup_s = Vec::new();
    let mut kept = None;
    for i in 0..repeats.max(1) {
        if let Some((server, _)) = kept.take() {
            let server: Server = server;
            children.kill(server.pid);
        }
        let store = dir.join(&format!("store-{i}"));
        let started = Instant::now();
        if inputs.durable {
            let nt = inputs.nt.to_str().expect("run paths are UTF-8");
            let store = store.to_str().expect("run paths are UTF-8");
            run_cli(children, kgq, &["store", "init", store, "--nt", nt])?;
        }
        let stderr = dir.join(&format!("serve-{i}.stderr"));
        let (server, _) = spawn_server(children, kgq, &inputs.serve_args(&store), &stderr)?;
        let mut client = WireClient::connect(server.addr)?;
        for idx in pool.warmup() {
            let req = &pool.reqs[idx];
            let resp = client.request(req.verb.as_str(), &req.payload)?;
            if !resp.ok || !pool.expected[idx].matches(&resp.body) {
                return Err(format!(
                    "warm-up: {} `{}` does not match the oracle",
                    req.verb.as_str(),
                    req.payload
                ));
            }
        }
        setup_s.push(started.elapsed().as_secs_f64());
        kept = Some((server, store));
    }
    let (server, store) = kept.expect("set-up ran at least once");
    Ok(Booted {
        server,
        store,
        setup_s,
    })
}

/// One closed-loop connection: after `warm` of untimed traffic and the
/// barrier, sends the seeded stream for `window`, each request only
/// after the previous answer, and checks every answer.
pub fn reader_loop(
    addr: SocketAddr,
    pool: &Pool,
    rng: Rng,
    warm: Duration,
    window: Duration,
    start: &Barrier,
) -> ConnStats {
    let mut st = ConnStats::default();
    let mut client = match WireClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            start.wait();
            st.attempted = 1;
            st.fail(e);
            return st;
        }
    };
    let mut stream = pool.stream(rng);
    let warm_until = Instant::now() + warm;
    while Instant::now() < warm_until {
        let req = &pool.reqs[stream.next_idx()];
        if client.request(req.verb.as_str(), &req.payload).is_err() {
            break;
        }
    }
    start.wait();
    let t0 = Instant::now();
    let mut deck_began: Option<(Instant, u64, usize)> = None;
    while t0.elapsed() < window {
        if stream.at_deck_start() {
            let now = Instant::now();
            if let Some((began, rows, first)) = deck_began {
                st.decks.push(Deck {
                    secs: (now - began).as_secs_f64(),
                    rows: st.rows - rows,
                    lat: first..st.lat_ms.len(),
                });
            }
            deck_began = Some((now, st.rows, st.lat_ms.len()));
        }
        let idx = stream.next_idx();
        let req = &pool.reqs[idx];
        st.attempted += 1;
        let sent = Instant::now();
        match client.request(req.verb.as_str(), &req.payload) {
            Ok(resp) => {
                st.lat_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                st.sent.push(idx);
                let want = &pool.expected[idx];
                if resp.ok && want.matches(&resp.body) {
                    st.rows += want.rows as u64;
                } else {
                    st.rows += count_rows(&resp.body) as u64;
                    let kind = if !resp.ok {
                        "ERR"
                    } else if resp.body.contains("# partial:") {
                        "partial"
                    } else {
                        "oracle mismatch"
                    };
                    st.fail(format!("{kind}: {} `{}`", req.verb.as_str(), req.payload));
                }
            }
            Err(e) => {
                st.fail(e);
                match WireClient::connect(addr) {
                    Ok(c) => client = c,
                    Err(_) => break,
                }
            }
        }
        st.elapsed_s = t0.elapsed().as_secs_f64();
    }
    st
}

/// What the writer connection measured, and what it was told.
#[derive(Default)]
pub struct WriterStats {
    /// Commit round trips in ms (`INSERT`/`DELETE`).
    pub commit_ms: Vec<f64>,
    /// `FLUSH` round trips in ms.
    pub flush_ms: Vec<f64>,
    /// Commits sent.
    pub attempted: u64,
    /// Commits that failed.
    pub failed: u64,
    /// Seconds from the window's start to the last acknowledgement.
    pub elapsed_s: f64,
    /// Bytes in the store directory after the last `FLUSH` over the
    /// N-Triples bytes of the live set at that moment.
    pub disk_bytes_per_user_byte: f64,
    /// Triples acknowledged as inserted and not since deleted.
    pub present: BTreeSet<(String, String)>,
    /// Triples acknowledged as deleted.
    pub deleted: BTreeSet<(String, String)>,
    /// Edges acknowledged as inserted.
    pub edges: Vec<(String, String)>,
    /// The first failure, for the log.
    pub first_failure: Option<String>,
}

/// The `rw_durable` writer: commits its seeded op stream back to back
/// and sends `FLUSH` every [`FLUSH_EVERY_S`] seconds strictly inside
/// the window (once at half time when the window is shorter), keeping
/// the ledger of what the server acknowledged.
pub fn writer_loop(
    addr: SocketAddr,
    mut stream: WriterStream,
    store: &Path,
    base_nt_bytes: usize,
    window: Duration,
    start: &Barrier,
) -> WriterStats {
    let mut st = WriterStats::default();
    let mut client = match WireClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            start.wait();
            st.attempted = 1;
            st.failed = 1;
            st.first_failure = Some(e);
            return st;
        }
    };
    let w = window.as_secs_f64();
    let mut flush_at: Vec<f64> = (1..)
        .map(|k| k as f64 * FLUSH_EVERY_S)
        .take_while(|&t| t < w)
        .collect();
    if flush_at.is_empty() {
        flush_at.push(w / 2.0);
    }
    let mut live_bytes = base_nt_bytes;
    start.wait();
    let t0 = Instant::now();
    while t0.elapsed() < window {
        if flush_at
            .first()
            .is_some_and(|&t| t0.elapsed().as_secs_f64() >= t)
        {
            flush_at.remove(0);
            let sent = Instant::now();
            match client.request("FLUSH", "") {
                Ok(resp) if resp.ok => {
                    st.flush_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                    st.disk_bytes_per_user_byte = dir_bytes(store) as f64 / live_bytes as f64;
                }
                Ok(resp) => {
                    st.failed += 1;
                    st.first_failure
                        .get_or_insert(format!("FLUSH: {}", resp.body));
                }
                Err(e) => {
                    st.failed += 1;
                    st.first_failure.get_or_insert(e);
                    break;
                }
            }
            st.attempted += 1;
            continue;
        }
        let op = stream.next_op();
        st.attempted += 1;
        let sent = Instant::now();
        match client.request(op.verb().as_str(), &op.payload()) {
            Ok(resp) if resp.ok => {
                st.commit_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                match op {
                    WriteOp::Insert { triples, edge } => {
                        for t in triples {
                            live_bytes += triple_line(&t.0, &t.1).len();
                            st.deleted.remove(&t);
                            st.present.insert(t);
                        }
                        st.edges.extend(edge);
                    }
                    WriteOp::Delete { triples } => {
                        for t in triples {
                            live_bytes -= triple_line(&t.0, &t.1).len();
                            st.present.remove(&t);
                            st.deleted.insert(t);
                        }
                    }
                }
            }
            Ok(resp) => {
                st.failed += 1;
                st.first_failure
                    .get_or_insert(format!("commit: {}", resp.body));
            }
            Err(e) => {
                // The commit's fate is unknown; it is in neither ledger.
                st.failed += 1;
                st.first_failure.get_or_insert(e);
                break;
            }
        }
        st.elapsed_s = t0.elapsed().as_secs_f64();
    }
    st
}

/// Boots `kgq serve` on a workload's input files `cycles` times — spawn
/// to first `PING`, then `SIGKILL` — and returns the seconds of each.
/// For a server without a store the files are all the state there is,
/// so this is the restart after a crash whenever it is taken.
pub fn boot_cycles(
    children: &Children,
    kgq: &Path,
    dir: &RunDir,
    inputs: &ServedInputs,
    cycles: usize,
) -> Result<Vec<f64>, String> {
    let (stderr, no_store) = (dir.join("serve-boot.stderr"), dir.join("no-store"));
    let mut boot_s = Vec::new();
    for _ in 0..cycles {
        let (server, s) = spawn_server(children, kgq, &inputs.serve_args(&no_store), &stderr)?;
        children.kill(server.pid);
        boot_s.push(s);
    }
    Ok(boot_s)
}

/// Kills the server with `SIGKILL`, restarts it on the same inputs and
/// store, and returns the new server with the seconds from spawn to its
/// first `PING`.
pub fn crash_and_recover(
    children: &Children,
    kgq: &Path,
    dir: &RunDir,
    inputs: &ServedInputs,
    booted: Booted,
) -> Result<(Server, f64), String> {
    let stderr = dir.join("serve-recovered.stderr");
    children.kill(booted.server.pid);
    spawn_server(children, kgq, &inputs.serve_args(&booted.store), &stderr)
}

/// Checks the writer's ledger against the recovered server: every
/// acknowledged insert present, every acknowledged delete absent, every
/// acknowledged edge present. Returns the number of lost writes.
pub fn lost_acked_writes(addr: SocketAddr, ledger: &WriterStats) -> Result<u64, String> {
    let mut client = WireClient::connect(addr)?;
    let triples = client.request("SPARQL", "SELECT ?s ?o WHERE { ?s <noted> ?o . }")?;
    let edges = client.request("QUERY", "pairs\nvisits")?;
    if !triples.ok || !edges.ok {
        return Err(format!(
            "ledger check: {}{}",
            if triples.ok { "" } else { &triples.body },
            if edges.ok { "" } else { &edges.body }
        ));
    }
    let pairs = |body: &str| -> BTreeSet<(String, String)> {
        body.lines()
            .filter_map(|l| l.split_once('\t'))
            .map(|(a, b)| (a.to_owned(), b.to_owned()))
            .collect()
    };
    let (have, have_edges) = (pairs(&triples.body), pairs(&edges.body));
    let missing = ledger.present.difference(&have).count();
    let resurrected = ledger.deleted.intersection(&have).count();
    let missing_edges = ledger
        .edges
        .iter()
        .filter(|e| !have_edges.contains(*e))
        .count();
    Ok((missing + resurrected + missing_edges) as u64)
}

/// Peak resident set of the server in MB.
pub fn server_rss_mb(server: &Server) -> Result<f64, String> {
    vm_hwm_mb(server.pid).ok_or_else(|| format!("no VmHWM for pid {}", server.pid))
}
