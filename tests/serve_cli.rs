//! End-to-end tests of `kgq serve`: boot the real binary, drive it over
//! TCP, and hold the server to the satellite's byte-identity bar — N
//! concurrent clients each receive exactly what a solo batch-CLI run of
//! the same query prints.

use kgq_serve::{stat, Caps, Client};
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::Duration;

fn kgq() -> Command {
    Command::new(env!("CARGO_BIN_EXE_kgq"))
}

fn run(args: &[&str]) -> Output {
    kgq().args(args).output().expect("binary runs")
}

fn stdout(out: &Output) -> String {
    assert!(
        out.status.success(),
        "exit {:?}, stderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn temp_file(name: &str, contents: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("kgq-serve-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap();
    path
}

const NT: &str = "<a> <knows> <b> .\n<b> <knows> <c> .\n<c> <knows> <a> .\n\
                  <a> <type> <P> .\n<b> <type> <P> .\n";

/// Boots `kgq serve` on an OS-assigned port; returns the server and the
/// address parsed from its `listening on ...` line.
fn boot(extra: &[&str]) -> (Server, String, PathBuf, PathBuf) {
    let graph = temp_file(
        &format!("graph-{:?}.kgq", std::thread::current().id()),
        &stdout(&run(&[
            "generate", "contact", "--people", "30", "--seed", "7",
        ])),
    );
    let nt = temp_file(&format!("data-{:?}.nt", std::thread::current().id()), NT);
    let mut args = vec!["--nt", nt.to_str().unwrap()];
    args.extend(extra);
    let (child, addr) = spawn_server(&graph, &args);
    (child, addr, graph, nt)
}

/// A running `kgq serve` child. Dropping it kills and reaps the process,
/// so a test that fails before [`stop`] leaves no server behind.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns `kgq serve GRAPH ARGS --port 0` and waits for its banner.
fn spawn_server(graph: &Path, args: &[&str]) -> (Server, String) {
    let child = kgq()
        .arg("serve")
        .arg(graph)
        .args(args)
        .args(["--port", "0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("server boots");
    let mut child = Server(child);
    let mut line = String::new();
    std::io::BufReader::new(child.0.stdout.take().expect("piped"))
        .read_line(&mut line)
        .expect("banner");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {line:?}"))
        .to_string();
    (child, addr)
}

fn connect(addr: &str) -> Client {
    let c = Client::connect(addr).expect("connect");
    c.set_timeout(Some(Duration::from_secs(60))).unwrap();
    c
}

/// Sends SHUTDOWN and asserts the server process exits cleanly (status
/// 0) — the CLI-level clean-shutdown contract the CI smoke job relies
/// on.
fn stop(mut child: Server, addr: &str) {
    let mut c = connect(addr);
    assert!(c.shutdown().unwrap().ok);
    let status = child.0.wait().expect("server exits");
    assert!(status.success(), "server exited with {status:?}");
}

#[test]
fn concurrent_server_clients_match_solo_cli_runs_byte_for_byte() {
    let (child, addr, graph, nt) = boot(&[]);
    let g = graph.to_str().unwrap();
    let n = nt.to_str().unwrap();
    // Solo batch-CLI baselines: one process, one query, ungoverned.
    let rpq_expr = "?person/rides/?bus/rides^-/?infected";
    let cy = "MATCH (p:person)-[:rides]->(b:bus) RETURN p, b";
    let sq = "SELECT ?x ?y WHERE { ?x <knows> ?y . ?y <type> <P> . }";
    let cli_rpq = stdout(&run(&["query", g, rpq_expr, "pairs"]));
    let cli_starts = stdout(&run(&["query", g, rpq_expr, "starts"]));
    let cli_cy = stdout(&run(&["cypher", g, cy]));
    let cli_sq = stdout(&run(&["sparql", n, sq]));
    assert!(!cli_rpq.is_empty());

    std::thread::scope(|scope| {
        for t in 0..4 {
            let addr = addr.as_str();
            let (cli_rpq, cli_starts, cli_cy, cli_sq) = (&cli_rpq, &cli_starts, &cli_cy, &cli_sq);
            scope.spawn(move || {
                let mut c = connect(addr);
                for r in 0..5 {
                    match (t + r) % 4 {
                        0 => assert_eq!(
                            &c.rpq("pairs", rpq_expr, &Caps::none()).unwrap().body,
                            cli_rpq
                        ),
                        1 => assert_eq!(
                            &c.rpq("starts", rpq_expr, &Caps::none()).unwrap().body,
                            cli_starts
                        ),
                        2 => assert_eq!(&c.cypher(cy, &Caps::none()).unwrap().body, cli_cy),
                        _ => assert_eq!(&c.sparql(sq, &Caps::none()).unwrap().body, cli_sq),
                    }
                }
            });
        }
    });
    stop(child, &addr);
}

#[test]
fn governed_partials_match_the_cli_trailer_format() {
    let (child, addr, graph, _nt) = boot(&[]);
    let g = graph.to_str().unwrap();
    let expr = "(rides + contact + lives)*";
    // The same budget through the CLI flag and through the wire caps.
    let cli = stdout(&run(&["query", g, expr, "pairs", "--max-results", "7"]));
    assert!(cli.ends_with("# partial: result budget reached\n"));
    let mut c = connect(&addr);
    let srv = c
        .rpq(
            "pairs",
            expr,
            &Caps {
                max_results: Some(7),
                ..Caps::default()
            },
        )
        .unwrap();
    assert!(srv.ok);
    assert_eq!(srv.body, cli, "server partial must equal CLI partial");
    stop(child, &addr);
}

#[test]
fn server_side_caps_flag_applies_to_all_requests() {
    let (child, addr, _graph, _nt) = boot(&["--max-results", "3"]);
    let mut c = connect(&addr);
    let got = c
        .rpq("pairs", "(rides + contact + lives)*", &Caps::none())
        .unwrap();
    assert!(got.ok && got.is_partial(), "{}", got.body);
    assert_eq!(got.body.lines().count(), 4); // 3 rows + trailer
    let stats = c.stats().unwrap();
    assert!(stat(&stats, "partials").unwrap() >= 1);
    stop(child, &addr);
}

/// The skew-adversarial `hubpair` shape of `exp_bgp`, with leaves
/// interleaved across hubs: every pattern has the same one-level
/// cardinality, so the greedy planner tie-breaks to `?a < ?c < ?b < ?h`
/// while the sketch planner leads with the 8-subject `?h` — and the two
/// orders reach different binding prefixes under a result budget.
fn skew_nt() -> String {
    let mut nt = String::new();
    for i in 0..512 {
        nt.push_str(&format!("<h{}> <spoke> <n{i}> .\n", i % 8));
        nt.push_str(&format!("<n{i}> <near> <c{}> .\n", i / 16));
    }
    nt
}

/// The contract `kgq_serve::pipeline` exists for: for every query verb,
/// what the batch CLI prints is byte for byte what `Snapshot::execute`
/// answers over the same files — with no budget and with a tripping one
/// (`--max-results` for row verbs; a COUNT yields one number whatever
/// the result budget, so counts trip on `--max-steps` instead).
#[test]
fn cli_output_equals_snapshot_execute_for_every_verb() {
    use kgq_serve::{Snapshot, Verb};
    let graph_text = stdout(&run(&[
        "generate", "contact", "--people", "30", "--seed", "7",
    ]));
    let graph = temp_file("parity.kgq", &graph_text);
    let nt = temp_file("parity-skew.nt", &skew_nt());
    let (g, n) = (graph.to_str().unwrap(), nt.to_str().unwrap());
    let snap = Snapshot::new(
        kgq::graph::io::read_property(&graph_text).unwrap(),
        kgq::rdf::parse_ntriples(&skew_nt()).unwrap(),
        kgq::core::Budget::unlimited(),
    );

    let hubpair = "{ ?a <near> ?c . ?b <near> ?c . ?h <spoke> ?a . ?h <spoke> ?b . }";
    let rows = format!("SELECT ?a ?b ?h WHERE {hubpair}");
    let count = format!("SELECT (COUNT(*) AS ?n) WHERE {hubpair}");
    // Drift 1 is only pinned if the planners really disagree here.
    let explained = stdout(&run(&["sparql", n, &rows, "--explain"]));
    assert!(
        explained.contains("sketch planner overrides"),
        "{explained}"
    );

    let star = "(rides + contact + lives)*";
    let cy = "MATCH (p:person)-[:rides]->(b:bus) RETURN p, b";
    let results = |n| Caps {
        max_results: Some(n),
        ..Caps::default()
    };
    let steps = |n| Caps {
        max_steps: Some(n),
        ..Caps::default()
    };
    // (CLI arguments, wire verb, wire payload, tripping caps).
    let cases: Vec<(Vec<&str>, Verb, String, Caps)> = vec![
        (
            vec!["query", g, star, "pairs"],
            Verb::Query,
            format!("pairs\n{star}"),
            results(7),
        ),
        (
            vec!["query", g, star, "starts"],
            Verb::Query,
            format!("starts\n{star}"),
            results(3),
        ),
        (
            vec!["query", g, star, "count", "4"],
            Verb::Query,
            format!("count 4\n{star}"),
            steps(10),
        ),
        (
            vec!["cypher", g, cy],
            Verb::Cypher,
            cy.to_owned(),
            results(1),
        ),
        (
            vec!["sparql", n, &rows],
            Verb::Sparql,
            rows.clone(),
            results(5),
        ),
        (
            vec!["sparql", n, &count],
            Verb::Sparql,
            count.clone(),
            steps(50),
        ),
        (
            vec!["sparql", n, &rows, "--count"],
            Verb::Sparql,
            count.clone(),
            steps(50),
        ),
    ];
    for (cli_args, verb, payload, tripping) in cases {
        for caps in [Caps::none(), tripping] {
            let mut args = cli_args.clone();
            let limit = caps.max_results.or(caps.max_steps).map(|n| n.to_string());
            if let Some(limit) = &limit {
                let flag = match caps.max_results {
                    Some(_) => "--max-results",
                    None => "--max-steps",
                };
                args.extend([flag, limit]);
            }
            let out = run(&args);
            // An `ERR` body is what the CLI prints after `error: `.
            let cli = if out.status.success() {
                String::from_utf8_lossy(&out.stdout).into_owned()
            } else {
                let err = String::from_utf8_lossy(&out.stderr);
                err.trim_start_matches("error: ").trim_end().to_owned()
            };
            let srv = snap.execute(verb, &caps, &payload, kgq::core::CancelToken::new());
            assert_eq!(srv.ok, out.status.success(), "{args:?}: {}", srv.body);
            assert_eq!(srv.body, cli, "{args:?}");
            if caps.max_results.is_some() {
                assert!(srv.partial, "{args:?} did not trip: {cli}");
                assert!(cli.ends_with("# partial: result budget reached\n"), "{cli}");
            }
        }
    }
    // The step-starved counts took different exits, both typed: the
    // path count errs out, the BGP count degrades to a lower bound.
    assert!(stdout(&run(&["sparql", n, &count, "--max-steps", "50"]))
        .ends_with("# degraded: exact budget exhausted, approximate estimate\n"));

    // Drift 2: a budget does not switch the analyzer gate off. A
    // provably-empty language compiles nothing under either front-end,
    // and both count the short-circuit where `--verbose` / `STATS` show it.
    let out = run(&[
        "query",
        g,
        "ghost",
        "pairs",
        "--max-results",
        "5",
        "--verbose",
    ]);
    assert!(out.status.success() && out.stdout.is_empty());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("short_circuits=1") && err.contains("misses=0"),
        "{err}"
    );
    let before = snap.cache().stats();
    let srv = snap.execute(
        Verb::Query,
        &results(5),
        "pairs\nghost",
        kgq::core::CancelToken::new(),
    );
    assert!(srv.ok && srv.body.is_empty(), "{}", srv.body);
    let after = snap.cache().stats();
    assert_eq!(after.short_circuits, before.short_circuits + 1);
    assert_eq!(after.misses, before.misses);
}

/// `kgq serve --store DIR` through the binary: INSERT, DELETE, FLUSH and
/// more INSERTs, then a SIGKILL with no `SHUTDOWN` and a restart. Before
/// the kill and after the restart, SPARQL and RPQ answers equal those of
/// an oracle built from a point-updated `TripleStore` and the same edge
/// records.
#[test]
fn durable_server_survives_a_kill_and_matches_an_oracle_store() {
    use kgq::store::EdgeRec;
    use kgq_serve::{apply_edges, Snapshot, Verb};
    let graph_text = stdout(&run(&[
        "generate", "contact", "--people", "30", "--seed", "7",
    ]));
    let graph = temp_file("durable-graph.kgq", &graph_text);
    let nt = temp_file("durable-load.nt", NT);
    let dir = std::env::temp_dir().join(format!("kgq-serve-cli-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let d = dir.to_str().unwrap();
    stdout(&run(&["store", "init", d, "--nt", nt.to_str().unwrap()]));

    let mut oracle = kgq::rdf::parse_ntriples(NT).unwrap();
    let mut edges: Vec<EdgeRec> = Vec::new();
    let triple = |line: &str| -> (String, String, String) {
        let t: Vec<String> = line
            .split_whitespace()
            .take(3)
            .map(|w| w.trim_matches(|c| c == '<' || c == '>').to_owned())
            .collect();
        (t[0].clone(), t[1].clone(), t[2].clone())
    };
    let queries: Vec<(Verb, &str)> = vec![
        (Verb::Sparql, "SELECT ?x ?y WHERE { ?x <knows> ?y . }"),
        (
            Verb::Sparql,
            "SELECT ?x ?y ?z WHERE { ?x <knows> ?y . ?y <knows> ?z . }",
        ),
        (Verb::Sparql, "SELECT ?x WHERE { ?x <type> <P> . }"),
        (Verb::Query, "pairs\nrides"),
        (Verb::Query, "starts\nrides/rides^-"),
    ];
    let check = |addr: &str, oracle: &kgq::rdf::TripleStore, edges: &[EdgeRec], when: &str| {
        let mut g = kgq::graph::io::read_property(&graph_text).unwrap();
        apply_edges(&mut g, edges.iter());
        let snap = Snapshot::new(g, oracle.clone(), kgq::core::Budget::unlimited());
        let mut c = connect(addr);
        for (verb, payload) in &queries {
            let want = snap.execute(*verb, &Caps::none(), payload, kgq::core::CancelToken::new());
            let got = match verb {
                Verb::Sparql => c.sparql(payload, &Caps::none()).unwrap(),
                _ => {
                    let (op, expr) = payload.split_once('\n').unwrap();
                    c.rpq(op, expr, &Caps::none()).unwrap()
                }
            };
            assert!(got.ok && want.ok, "{when}: {payload}: {}", got.body);
            assert_eq!(got.body, want.body, "{when}: {payload}");
        }
    };

    let (mut child, addr) = spawn_server(&graph, &["--store", d]);
    let mut c = connect(&addr);
    let mut insert = |c: &mut Client, oracle: &mut kgq::rdf::TripleStore, lines: &[&str]| {
        let r = c.insert(&lines.join("\n")).unwrap();
        assert!(r.ok, "{}", r.body);
        for line in lines {
            if let Some(spec) = line.strip_prefix("edge ") {
                let w: Vec<&str> = spec.split_whitespace().collect();
                edges.push(EdgeRec {
                    id: format!("srv-e{}", edges.len()),
                    src: w[0].into(),
                    label: w[1].into(),
                    dst: w[2].into(),
                    src_label: w[3].into(),
                    dst_label: w[4].into(),
                });
            } else {
                let (s, p, o) = triple(line);
                oracle.insert_strs(&s, &p, &o);
            }
        }
    };
    let delete = |c: &mut Client, oracle: &mut kgq::rdf::TripleStore, lines: &[&str]| {
        let r = c.delete(&lines.join("\n")).unwrap();
        assert!(r.ok, "{}", r.body);
        for line in lines {
            let (s, p, o) = triple(line);
            if let Some(t) = oracle.get_triple(&s, &p, &o) {
                oracle.remove(t);
            }
        }
    };
    insert(
        &mut c,
        &mut oracle,
        &[
            "<c> <knows> <d> .",
            "<d> <knows> <a> .",
            "<d> <type> <P> .",
            "edge zed rides bus9 person bus",
        ],
    );
    delete(
        &mut c,
        &mut oracle,
        &["<a> <knows> <b> .", "<d> <type> <P> ."],
    );
    let flush = c.flush().unwrap();
    assert!(
        flush.ok && flush.body.contains("compacted"),
        "{}",
        flush.body
    );
    insert(
        &mut c,
        &mut oracle,
        &[
            "<a> <knows> <b> .",
            "<e> <knows> <c> .",
            "edge zed rides bus8 person bus",
        ],
    );
    delete(&mut c, &mut oracle, &["<b> <knows> <c> ."]);
    insert(
        &mut c,
        &mut oracle,
        &["<b> <knows> <c> .", "<e> <type> <P> ."],
    );
    let stats = c.stats().unwrap();
    assert!(
        !stats.contains("overlay"),
        "STATS still reports an overlay: {stats}"
    );
    check(&addr, &oracle, &edges, "before the kill");
    drop(c);

    // No SHUTDOWN: every acknowledged batch must come back from disk.
    child.0.kill().unwrap();
    child.0.wait().unwrap();
    let (child, addr) = spawn_server(&graph, &["--store", d]);
    check(&addr, &oracle, &edges, "after the restart");
    stop(child, &addr);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Triples loaded with `--nt` into a `--store` server would be served
/// but never persisted, so the pair is refused up front.
#[test]
fn serve_refuses_nt_together_with_store() {
    let graph = temp_file("refuse-graph.kgq", "");
    let nt = temp_file("refuse.nt", NT);
    let dir = std::env::temp_dir().join(format!("kgq-serve-cli-refuse-{}", std::process::id()));
    let out = run(&[
        "serve",
        graph.to_str().unwrap(),
        "--nt",
        nt.to_str().unwrap(),
        "--store",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.starts_with("error: serve: --nt and --store cannot be combined")
            && err.contains("kgq store init"),
        "{err}"
    );
    assert!(!dir.exists(), "a refused serve must not create the store");
}
