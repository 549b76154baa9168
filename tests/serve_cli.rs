//! End-to-end tests of `kgq serve`: boot the real binary, drive it over
//! TCP, and hold the server to the satellite's byte-identity bar — N
//! concurrent clients each receive exactly what a solo batch-CLI run of
//! the same query prints.

use kgq_serve::{stat, Caps, Client};
use std::io::BufRead;
use std::path::PathBuf;
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

/// Boots `kgq serve` on an OS-assigned port; returns the child and the
/// address parsed from its `listening on ...` line.
fn boot(extra: &[&str]) -> (Child, String, PathBuf, PathBuf) {
    let graph = temp_file(
        &format!("graph-{:?}.kgq", std::thread::current().id()),
        &stdout(&run(&[
            "generate", "contact", "--people", "30", "--seed", "7",
        ])),
    );
    let nt = temp_file(&format!("data-{:?}.nt", std::thread::current().id()), NT);
    let mut child = kgq()
        .arg("serve")
        .arg(&graph)
        .args(["--nt", nt.to_str().unwrap(), "--port", "0"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("server boots");
    let mut line = String::new();
    std::io::BufReader::new(child.stdout.take().expect("piped"))
        .read_line(&mut line)
        .expect("banner");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {line:?}"))
        .to_string();
    (child, addr, graph, nt)
}

fn connect(addr: &str) -> Client {
    let c = Client::connect(addr).expect("connect");
    c.set_timeout(Some(Duration::from_secs(60))).unwrap();
    c
}

/// Sends SHUTDOWN and asserts the server process exits cleanly (status
/// 0) — the CLI-level clean-shutdown contract the CI smoke job relies
/// on.
fn stop(mut child: Child, addr: &str) {
    let mut c = connect(addr);
    assert!(c.shutdown().unwrap().ok);
    let status = child.wait().expect("server exits");
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
