//! End-to-end tests of the `kgq` command-line interface: generate a
//! graph, pipe it through queries, Cypher, analytics, and RDF tooling.

use std::path::PathBuf;
use std::process::{Command, Output};

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

fn temp_graph(name: &str, contents: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("kgq-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    // Tests run in parallel and share these names: write a private file
    // and rename it into place, so no reader sees a half-written graph.
    let tmp = dir.join(format!("{name}.{:?}.tmp", std::thread::current().id()));
    std::fs::write(&tmp, contents).unwrap();
    std::fs::rename(&tmp, &path).unwrap();
    path
}

fn generated_contact() -> PathBuf {
    let out = run(&["generate", "contact", "--people", "30", "--seed", "7"]);
    temp_graph("contact.kgq", &stdout(&out))
}

#[test]
fn usage_on_no_args() {
    let out = run(&[]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn generate_query_roundtrip() {
    let path = generated_contact();
    let p = path.to_str().unwrap();
    // Node extraction.
    let starts = stdout(&run(&[
        "query",
        p,
        "?person/rides/?bus/rides^-/?infected",
        "starts",
    ]));
    assert!(!starts.is_empty());
    assert!(starts.lines().all(|l| l.starts_with('p')));
    // Counting agrees with enumeration.
    let count: usize = stdout(&run(&[
        "query",
        p,
        "?person/rides/?bus/rides^-/?infected",
        "count",
        "2",
    ]))
    .trim()
    .parse()
    .unwrap();
    let enumerated = stdout(&run(&[
        "query",
        p,
        "?person/rides/?bus/rides^-/?infected",
        "enumerate",
        "2",
    ]));
    assert_eq!(enumerated.lines().count(), count);
    // Sampling produces paths.
    let samples = stdout(&run(&[
        "query",
        p,
        "?person/rides/?bus/rides^-/?infected",
        "sample",
        "2",
        "3",
    ]));
    assert_eq!(samples.lines().count(), 3);
}

#[test]
fn cypher_over_generated_graph() {
    let path = generated_contact();
    let rows = stdout(&run(&[
        "cypher",
        path.to_str().unwrap(),
        "MATCH (p:person)-[:rides]->(b:bus) RETURN p, b",
    ]));
    assert!(!rows.is_empty());
    for line in rows.lines() {
        let cols: Vec<&str> = line.split('\t').collect();
        assert_eq!(cols.len(), 2);
        assert!(cols[1].starts_with('b'));
    }
}

#[test]
fn analytics_metrics() {
    let path = generated_contact();
    let p = path.to_str().unwrap();
    let pr = stdout(&run(&["analytics", p, "pagerank"]));
    assert_eq!(pr.lines().count(), 20);
    let comp = stdout(&run(&["analytics", p, "components"]));
    assert!(comp.contains("components"));
    let densest = stdout(&run(&["analytics", p, "densest"]));
    assert!(densest.starts_with("density"));
}

#[test]
fn rdf_path_and_infer() {
    let nt = temp_graph(
        "family.nt",
        "<ana> <parentOf> <ben> .\n<ben> <parentOf> <cal> .\n\
         <parentOf> <http://www.w3.org/2000/01/rdf-schema#subPropertyOf> <ancestorOf> .\n",
    );
    let p = nt.to_str().unwrap();
    let pairs = stdout(&run(&["rdf", p, "path", "parentOf/(parentOf)*"]));
    assert!(pairs.contains("ana\tcal"));
    let rows = stdout(&run(&[
        "rdf",
        p,
        "select",
        "SELECT ?x ?y WHERE { ?x <parentOf> ?y }",
    ]));
    assert!(rows.contains("ana\tben"));
    let inferred = stdout(&run(&["rdf", p, "infer"]));
    assert!(inferred.contains("<ana> <ancestorOf> <ben>"));
    assert!(inferred.contains("# inferred 2 triples"));
}

#[test]
fn unlimited_govern_flags_do_not_change_results() {
    let path = generated_contact();
    let p = path.to_str().unwrap();
    let expr = "?person/rides/?bus/rides^-/?infected";
    let plain = stdout(&run(&["query", p, expr, "pairs"]));
    let governed = stdout(&run(&[
        "query",
        p,
        expr,
        "pairs",
        "--timeout",
        "60000",
        "--max-steps",
        "1000000000",
    ]));
    assert_eq!(plain, governed, "a generous budget must be invisible");
    assert!(!governed.contains("# partial"));
}

#[test]
fn deadline_on_a_large_graph_returns_a_typed_partial() {
    // The acceptance scenario: a 10k-node BA graph under a 50 ms
    // deadline answers promptly with a typed partial, not a hang.
    let out = run(&["generate", "ba", "--nodes", "10000", "--seed", "7"]);
    let path = temp_graph("ba10k.kgq", &stdout(&out));
    let started = std::time::Instant::now();
    let got = stdout(&run(&[
        "query",
        path.to_str().unwrap(),
        "link/link/(link)*",
        "pairs",
        "--timeout",
        "50",
    ]));
    assert!(
        started.elapsed() < std::time::Duration::from_secs(30),
        "deadline was not honored"
    );
    let last = got.lines().last().unwrap_or_default();
    assert_eq!(last, "# partial: deadline exceeded", "got: {last}");
}

#[test]
fn result_budget_truncates_with_a_replayable_cursor() {
    let path = generated_contact();
    let p = path.to_str().unwrap();
    let expr = "?person/rides/?bus/rides^-/?infected";
    let full = stdout(&run(&["query", p, expr, "enumerate", "2"]));
    let full_lines: Vec<&str> = full.lines().collect();
    assert!(full_lines.len() > 2, "workload too small to truncate");
    // Page through two paths at a time, chaining cursors.
    let mut collected: Vec<String> = Vec::new();
    let mut cursor: Option<String> = None;
    for _ in 0..full_lines.len() {
        let mut args = vec!["query", p, expr, "enumerate", "2", "--max-results", "2"];
        if let Some(c) = &cursor {
            args.push("--resume");
            args.push(c);
        }
        let page = stdout(&run(&args));
        cursor = None;
        for line in page.lines() {
            if let Some(c) = line.strip_prefix("# cursor: ") {
                cursor = Some(c.to_owned());
            } else if !line.starts_with('#') {
                collected.push(line.to_owned());
            }
        }
        if cursor.is_none() {
            break;
        }
    }
    assert_eq!(
        collected, full_lines,
        "cursor replay lost or reordered answers"
    );
}

#[test]
fn cypher_respects_the_result_budget() {
    let path = generated_contact();
    let p = path.to_str().unwrap();
    let q = "MATCH (p:person)-[:rides]->(b:bus) RETURN p, b";
    let full = stdout(&run(&["cypher", p, q]));
    let governed = stdout(&run(&["cypher", p, q, "--max-results", "1"]));
    let lines: Vec<&str> = governed.lines().collect();
    assert_eq!(
        lines.len(),
        2,
        "one row plus the partial marker: {governed}"
    );
    assert_eq!(Some(lines[0]), full.lines().next(), "not a prefix");
    assert_eq!(lines[1], "# partial: result budget reached");
}

#[test]
fn bad_inputs_fail_cleanly() {
    let out = run(&["query", "/nonexistent.kgq", "p", "pairs"]);
    assert!(!out.status.success());
    let path = generated_contact();
    let out = run(&["query", path.to_str().unwrap(), "p/", "pairs"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
    let out = run(&["analytics", path.to_str().unwrap(), "nonsense"]);
    assert!(!out.status.success());
    // A numeric flag with an unparsable value is a typed error, never a
    // silent fall back to the default.
    let seg = std::env::temp_dir().join("kgq-cli-tests/flags.seg");
    let seg = seg.to_str().unwrap();
    stdout(&run(&["scale", "gen", seg, "--nodes", "200", "--m", "2"]));
    let p = path.to_str().unwrap();
    for (args, flag) in [
        (vec!["serve", p, "--port", "x"], "--port"),
        (vec!["serve", p, "--workers", "x"], "--workers"),
        (vec!["scale", "query", seg, "l0", "--span", "x"], "--span"),
        (
            vec!["scale", "query", seg, "l0", "--chunks", "x"],
            "--chunks",
        ),
        (vec!["generate", "er", "--seed", "x"], "--seed"),
    ] {
        let out = run(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!("error: {flag} needs a number\n"),
            "{args:?}"
        );
    }
}

#[test]
fn explain_prints_verdicts_for_rpq_queries() {
    let path = generated_contact();
    let p = path.to_str().unwrap();

    // 1. Provably-empty RPQ: deny + short-circuit plan, no execution.
    let empty = stdout(&run(&["query", p, "ghost", "--explain"]));
    assert!(empty.contains("deny[empty-language]"), "{empty}");
    assert!(empty.contains("warn[unsat-test]"), "{empty}");
    assert!(empty.contains('^'), "caret missing: {empty}");
    assert!(empty.contains("short-circuit (empty)"), "{empty}");
    assert!(empty.contains("language: empty"), "{empty}");

    // 2. Clean query: no diagnostics, full class/plan table.
    let clean = stdout(&run(&["query", p, "?person/rides/?bus", "--explain"]));
    assert!(clean.contains("(none)"), "{clean}");
    for needle in [
        "functionality",
        "check",
        "NL",
        "#P-hard (SpanL)",
        "FPRAS",
        "poly-delay",
        "bidirectional meet",
        "exact DP",
    ] {
        assert!(clean.contains(needle), "missing {needle}: {clean}");
    }

    // 3. Infinite language is a note, not a deny.
    let inf = stdout(&run(&["query", p, "(rides+contact)*", "--explain"]));
    assert!(inf.contains("note[infinite-language]"), "{inf}");
    assert!(inf.contains("language: infinite"), "{inf}");

    // 4. Contradictory conjunction: provably empty.
    let contra = stdout(&run(&["query", p, "{rides & !rides}", "--explain"]));
    assert!(contra.contains("deny[empty-language]"), "{contra}");

    // 5. A property pair never seen in the graph.
    let prop = stdout(&run(&["query", p, "[shoe='42']", "--explain"]));
    assert!(prop.contains("warn[unsat-test]"), "{prop}");
    assert!(prop.contains("deny[empty-language]"), "{prop}");
}

#[test]
fn explain_prints_verdicts_for_cypher_queries() {
    let path = generated_contact();
    let p = path.to_str().unwrap();

    // 6. Unknown node label in a pattern.
    let q = "MATCH (p:ghost) RETURN p";
    let empty = stdout(&run(&["cypher", p, q, "--explain"]));
    assert!(empty.contains("deny[unknown-label]"), "{empty}");
    assert!(empty.contains('^'), "caret missing: {empty}");
    assert!(empty.contains("short-circuit (empty)"), "{empty}");
    assert!(empty.contains("NP-hard"), "{empty}");

    // 7. Clean pattern: NP-hard verdict, sequential plan, no diagnostics.
    let clean = stdout(&run(&[
        "cypher",
        p,
        "MATCH (a:person)-[:rides]->(b:bus) RETURN a, b",
        "--explain",
    ]));
    assert!(clean.contains("(none)"), "{clean}");
    assert!(clean.contains("match"), "{clean}");
    assert!(clean.contains("sequential scan"), "{clean}");
}

#[test]
fn analyzer_short_circuits_are_visible_and_results_unchanged() {
    let path = generated_contact();
    let p = path.to_str().unwrap();

    // A provably-empty query prints nothing and reports the skipped
    // compilation in the verbose cache stats.
    let out = run(&["query", p, "ghost", "pairs", "--verbose"]);
    assert!(out.status.success());
    assert!(out.stdout.is_empty(), "expected no pairs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("short_circuits=1"), "{err}");
    assert!(err.contains("misses=0"), "{err}");

    // Counting a provably-empty language is exactly zero (not degraded).
    let zero = stdout(&run(&["query", p, "ghost", "count", "3"]));
    assert_eq!(zero.trim(), "0");

    // The same short-circuit applies to Cypher execution.
    let out = run(&[
        "cypher",
        p,
        "MATCH (x:person) WHERE x.age = 'never' AND x.age <> 'never' RETURN x",
        "--verbose",
    ]);
    assert!(out.status.success());
    assert!(out.stdout.is_empty(), "contradictory WHERE must be empty");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("short_circuits=1"), "{err}");
}

#[test]
fn analyze_subcommand_reports_all_four_kinds() {
    let graph = generated_contact();
    let g = graph.to_str().unwrap();
    let nt = temp_graph("analyze.nt", "<a> <knows> <b> .\n<b> <knows> <c> .\n");
    let n = nt.to_str().unwrap();

    let q = stdout(&run(&["analyze", "query", g, "rides/rides^-"]));
    assert!(q.contains("== verdict =="), "{q}");
    let ghost = stdout(&run(&["analyze", "query", g, "ghost_label"]));
    assert!(ghost.contains("deny"), "{ghost}");

    let c = stdout(&run(&[
        "analyze",
        "cypher",
        g,
        "MATCH (p:person)-[:rides]->(b:bus) RETURN p, b",
    ]));
    assert!(c.contains("== verdict =="), "{c}");

    let s = stdout(&run(&[
        "analyze",
        "sparql",
        n,
        "SELECT ?x ?y WHERE { ?x <knows> ?y . }",
    ]));
    assert!(s.contains("== plan =="), "{s}");
    assert!(s.contains("agm exponent"), "{s}");

    let r = stdout(&run(&[
        "analyze",
        "rules",
        n,
        "?x path ?y :- ?x knows ?y .\n?x path ?z :- ?x path ?y, ?y knows ?z .",
    ]));
    assert!(r.contains("recursive: yes"), "{r}");
    assert!(r.contains("derivation bound"), "{r}");

    // A rules program may also live in a file.
    let prog = temp_graph("closure.rules", "?x hop ?y :- ?x knows ?y .\n");
    let rf = stdout(&run(&["analyze", "rules", n, prog.to_str().unwrap()]));
    assert!(rf.contains("recursive: no"), "{rf}");

    let bad = run(&["analyze", "bogus", g, "x"]);
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("unknown analyze kind"));
}

#[test]
fn parse_errors_render_with_caret_and_expected_token() {
    let path = generated_contact();
    let p = path.to_str().unwrap();
    let out = run(&["cypher", p, "MATCH (a RETURN a"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("query parse error at byte"), "{err}");
    assert!(err.contains("^ expected `)`"), "{err}");
}

/// CRC-valid segments whose node index lies: every chunk CRC is
/// recomputed after the mutation (the writer computes them), so only
/// the lazy view's per-lookup bounds check stands between the bad
/// offsets and the decoder. Each case must be a typed error — exit 1,
/// nothing on stdout, no panic.
#[test]
fn hostile_node_offsets_are_typed_errors() {
    use kgq::graph::packed::{PackOptions, PackedLabelIndex};
    use kgq::store::segment::{write_atomic, Segment};
    let n = 2_000u32;
    let quads = kgq::graph::generate::ba_edge_stream(n, 4, 1, 11)
        .into_iter()
        .enumerate()
        .map(|(i, (s, l, d))| (s, l, d, i as u32))
        .collect();
    let opts = PackOptions {
        edge_ids: false,
        inverse: true,
    };
    let blob = PackedLabelIndex::from_quads(n, &["l0".to_string()], quads, opts)
        .unwrap()
        .into_bytes();
    let field = |at: usize| u64::from_le_bytes(blob[at..at + 8].try_into().unwrap()) as usize;
    let dir = std::env::temp_dir().join(format!("kgq-cli-hostile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let seg = dir.join("hostile.seg");
    let s = seg.to_str().unwrap();
    // A seeded 64-bit LCG picks the node each mutation lands on.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let out_cmds: [&[&str]; 2] = [
        &["scale", "query", s, "l0/l0", "pairs"],
        &["scale", "triangles", s, "l0", "l0", "l0"],
    ];
    let in_cmds: [&[&str]; 1] = [&["scale", "query", s, "l0^-/l0^-", "pairs"]];
    // (index offset, data length, the invocations that read that index)
    let directions: [(usize, usize, &[&[&str]]); 2] = [
        (field(36), field(52) - field(44), &out_cmds),
        (field(52), field(68) - field(60), &in_cmds),
    ];
    for (index_at, data_len, cmds) in directions {
        let entry = |k: usize| {
            let at = index_at + 4 * k;
            u32::from_le_bytes(blob[at..at + 4].try_into().unwrap())
        };
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        // The first node at or after a seeded start whose neighbours'
        // runs are non-empty, so every mutation breaks monotonicity.
        let v = (0..n as usize - 40)
            .map(|k| 10 + (k + (state >> 33) as usize) % (n as usize - 40))
            .find(|&v| (v - 1..v + 2).all(|k| entry(k) < entry(k + 1)))
            .expect("a node with non-empty neighbours");
        // (case, entry overwritten, its new value)
        let cases = [
            ("raised above its successor", v, entry(v + 2)),
            ("past the end of the data", v + 1, data_len as u32 + 4096),
            ("dropped below its predecessor", v + 1, entry(v - 1)),
        ];
        for (name, k, value) in cases {
            let mut bad = blob.clone();
            let at = index_at + 4 * k;
            bad[at..at + 4].copy_from_slice(&value.to_le_bytes());
            let image = Segment {
                generation: 1,
                triples: Vec::new(),
                edges: Vec::new(),
                packed: Some(bad),
            };
            write_atomic(&seg, &image).unwrap();
            for cmd in cmds {
                let out = run(cmd);
                let stderr = String::from_utf8_lossy(&out.stderr);
                assert_eq!(out.status.code(), Some(1), "{name} v={v} {cmd:?}: {stderr}");
                assert!(out.stdout.is_empty(), "{name} v={v} {cmd:?}: rows printed");
                assert!(
                    stderr.starts_with("error: ") && stderr.contains("node offset"),
                    "{name} v={v} {cmd:?}: {stderr}"
                );
                assert!(!stderr.contains("panicked"), "{name} v={v}: {stderr}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A Cypher search shorter than one governor batch still answers to a
/// step budget: the closing flush charges what the ticker held back,
/// so the rows come back as an exact prefix under a `# partial:` line.
#[test]
fn cypher_step_budget_trips_a_search_shorter_than_one_batch() {
    let fig2 = kgq::graph::io::write_property(&kgq::graph::figures::figure2_property());
    let path = temp_graph("fig2.kgq", &fig2);
    let p = path.to_str().unwrap();
    let q = "MATCH (p:person) RETURN p";
    let full = stdout(&run(&["cypher", p, q]));
    assert!(!full.is_empty());
    let tripped = stdout(&run(&["cypher", p, q, "--max-steps", "1"]));
    let (rows, last) = tripped
        .trim_end_matches('\n')
        .rsplit_once('\n')
        .map_or(("", tripped.trim_end()), |(rows, last)| (rows, last));
    assert!(last.starts_with("# partial:"), "{tripped}");
    assert!(
        full.starts_with(rows),
        "{rows:?} is not a prefix of {full:?}"
    );
}

#[test]
fn a_short_step_budget_cuts_scale_triangles() {
    // The whole window costs fewer steps than one ticker batch, so the
    // budget only bites if each part charges its last steps.
    let dir = std::env::temp_dir().join(format!("kgq-cli-tri-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let seg = dir.join("tri.seg");
    let s = seg.to_str().unwrap();
    stdout(&run(&[
        "scale", "gen", s, "--nodes", "5000", "--m", "4", "--labels", "2", "--seed", "9",
    ]));
    let triangles = |steps: &str| {
        stdout(&run(&[
            "scale",
            "triangles",
            s,
            "l0",
            "l0",
            "l0",
            "--from",
            "0",
            "--span",
            "20",
            "--max-steps",
            steps,
        ]))
    };
    let full = triangles("100000");
    assert!(!full.contains("# partial:"), "{full}");
    let cut = triangles("10");
    assert!(cut.ends_with("# partial: step budget exhausted\n"), "{cut}");
    // Past the count line, the cut keeps a prefix of the full run's rows.
    let rows = |out: &str| out.lines().skip(1).map(str::to_owned).collect::<Vec<_>>();
    let (cut_rows, full_rows) = (rows(&cut), rows(&full));
    let kept = &cut_rows[..cut_rows.len() - 1];
    assert_eq!(kept, &full_rows[..kept.len()]);
    std::fs::remove_dir_all(&dir).ok();
}
