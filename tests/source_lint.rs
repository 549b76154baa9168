//! In-repo source lints, run as tier-1 tests and in CI.
//!
//! Ten invariants over `crates/*/src`, and one over the committed
//! benchmark files, enforced with std-only file
//! walking (no extra dependencies):
//!
//! 1. **unwrap/expect ratchet** — non-test library code must not grow
//!    new `.unwrap()` / `.expect("…")` sites. Pre-existing sites are
//!    grandfathered in a per-file baseline that may only shrink; files
//!    not listed are held at zero.
//! 2. **fault-site registry** — every fault-injection site name used by
//!    `fault_point!` / `fault::hit` / `fault::starved` / `io_fault!`
//!    appears exactly once in `docs/FAULT_SITES.md`, and the registry
//!    lists no phantom sites.
//! 3. **doc coverage** — every `pub fn` in `kgq-core`'s `analyze` and
//!    `govern` modules carries a doc comment.
//! 4. **durable-path strictness** — `kgq-store` shipping code may never
//!    unwrap or expect anything: every `std::io` result on the write
//!    path must be propagated, because a swallowed I/O error there is
//!    silent data loss. Unlike the general ratchet, no baseline entry
//!    can ever admit one.
//! 5. **unsafe audit ratchet** — `unsafe` is confined to the mmap'd
//!    segment reader, with a per-file exact count: new sites anywhere
//!    else fail, and removing one in `mmap.rs` requires ratcheting the
//!    baseline down so it cannot silently return.
//! 6. **lock-order monotonicity** — every lock acquisition in the
//!    server crate carries a rank, and a static walk of the acquisition
//!    sites proves ranks never decrease while earlier guards are live,
//!    so the documented order is deadlock-free by construction.
//! 7. **analyzer coverage** — every query entrypoint (the request
//!    pipeline the CLI and the server share, and the engine evaluators)
//!    routes through a static analyzer before executing; dropping the
//!    consult fails tier-1.
//! 8. **one body per algorithm** — an algorithm's inner step occurs in
//!    one function of its file only.
//!    A crate-wide variant pins an algorithm to one function of one
//!    file (the 64-lane sweep lives in `bitkernel.rs` alone).
//! 9. **one fan-out** — the ordered parallel scans run through
//!    `kgq_core::parallel::partitioned`; no other file splits its own
//!    chunks or calls rayon, except the order-free sums exempt by name.
//! 10. **forbidden calls** — a crate's shipping code makes none of the
//!     calls listed against it (the server copies no durable store out;
//!     the Cypher matcher neither compiles nor sweeps an RPQ product).
//! 11. **full-run benchmark files** — every committed `BENCH_*.json`
//!     says `"quick": false`.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// Per-file allowance of `.unwrap()` / `.expect("` sites in non-test
/// code. The ratchet only turns one way: counts here may go down (and
/// the entry must then be updated) but never up, and unlisted files are
/// allowed zero.
const UNWRAP_BASELINE: &[(&str, usize)] = &[
    ("crates/analytics/src/community.rs", 2),
    ("crates/analytics/src/components.rs", 1),
    ("crates/analytics/src/kcore.rs", 1),
    ("crates/analytics/src/weighted.rs", 1),
    ("crates/bench/src/bin/exp_bcr.rs", 8),
    ("crates/bench/src/bin/exp_bgp.rs", 1),
    ("crates/bench/src/bin/exp_count.rs", 2),
    ("crates/bench/src/bin/exp_embed.rs", 1),
    ("crates/bench/src/bin/exp_enum.rs", 2),
    ("crates/bench/src/bin/exp_fig2.rs", 4),
    ("crates/bench/src/bin/exp_fpras.rs", 2),
    ("crates/bench/src/bin/exp_gen.rs", 3),
    ("crates/bench/src/bin/exp_govern.rs", 11),
    ("crates/bench/src/bin/exp_joins.rs", 4),
    ("crates/bench/src/bin/exp_kernel.rs", 2),
    ("crates/bench/src/bin/exp_logic.rs", 3),
    ("crates/bench/src/bin/exp_parallel.rs", 1),
    ("crates/bench/src/bin/exp_rdf.rs", 2),
    ("crates/bench/src/bin/exp_wl_gnn.rs", 5),
    ("crates/bench/src/lib.rs", 1),
    ("crates/biblio/src/analysis.rs", 2),
    ("crates/core/src/approx.rs", 1),
    ("crates/core/src/enumerate.rs", 5),
    ("crates/core/src/gen.rs", 2),
    ("crates/core/src/govern.rs", 5),
    ("crates/core/src/path.rs", 1),
    ("crates/embed/src/model.rs", 2),
    ("crates/gnn/src/train.rs", 1),
    ("crates/graph/src/figures.rs", 17),
    ("crates/graph/src/generate.rs", 31),
    ("crates/graph/src/io.rs", 1),
    ("crates/graph/src/subgraph.rs", 8),
    ("crates/graph/src/sym.rs", 1),
    ("crates/logic/src/eval.rs", 2),
    ("crates/rdf/src/bgp.rs", 1),
    ("crates/rdf/src/ntriples.rs", 1),
];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable directory") {
        let p = entry.expect("directory entry").path();
        if p.is_dir() {
            walk(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Every `.rs` file under `crates/*/src`, sorted for stable output.
fn crate_sources() -> Vec<PathBuf> {
    let mut out = Vec::new();
    for entry in fs::read_dir(repo_root().join("crates")).expect("crates/ directory") {
        let src = entry.expect("directory entry").path().join("src");
        if src.is_dir() {
            walk(&src, &mut out);
        }
    }
    out.sort();
    out
}

fn rel(path: &Path) -> String {
    path.strip_prefix(repo_root())
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// The file's lines with `#[cfg(test)] mod …` blocks removed (matched by
/// brace counting), so the lints apply to shipping code only.
fn non_test_lines(src: &str) -> Vec<&str> {
    let lines: Vec<&str> = src.lines().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        if lines[i].trim() == "#[cfg(test)]" {
            // The attribute may be followed by further attributes before
            // the `mod` line; only a mod block is skipped wholesale.
            let mut j = i + 1;
            while j < lines.len()
                && j <= i + 3
                && !lines[j].trim_start().starts_with("mod ")
                && !lines[j].trim_start().starts_with("pub mod ")
            {
                j += 1;
            }
            let is_mod = j < lines.len()
                && (lines[j].trim_start().starts_with("mod ")
                    || lines[j].trim_start().starts_with("pub mod "));
            if is_mod {
                let mut depth = 0i64;
                let mut started = false;
                let mut k = j;
                while k < lines.len() {
                    for ch in lines[k].chars() {
                        match ch {
                            '{' => {
                                depth += 1;
                                started = true;
                            }
                            '}' => depth -= 1,
                            _ => {}
                        }
                    }
                    if started && depth == 0 {
                        break;
                    }
                    k += 1;
                }
                i = k + 1;
                continue;
            }
        }
        out.push(lines[i]);
        i += 1;
    }
    out
}

/// `.unwrap()` / `.expect("` sites on a line, ignoring `//` comments.
/// Matching `.expect(` with the opening quote keeps parser methods named
/// `expect` (token expectation) out of the count.
fn unwrap_sites(line: &str) -> usize {
    let code = line.split("//").next().unwrap_or("");
    code.matches(".unwrap()").count() + code.matches(".expect(\"").count()
}

#[test]
fn unwrap_expect_ratchet_only_turns_down() {
    let baseline: BTreeMap<&str, usize> = UNWRAP_BASELINE.iter().copied().collect();
    let mut problems = Vec::new();
    let mut seen = BTreeSet::new();
    for path in crate_sources() {
        let file = rel(&path);
        let src = fs::read_to_string(&path).expect("readable source file");
        let count: usize = non_test_lines(&src).iter().map(|l| unwrap_sites(l)).sum();
        seen.insert(file.clone());
        let allowed = baseline.get(file.as_str()).copied().unwrap_or(0);
        if count > allowed {
            problems.push(format!(
                "{file}: {count} unwrap/expect sites in non-test code (baseline allows \
                 {allowed}); handle the error instead of panicking"
            ));
        } else if count < allowed {
            problems.push(format!(
                "{file}: only {count} unwrap/expect sites remain but the baseline allows \
                 {allowed}; ratchet UNWRAP_BASELINE down so they cannot come back"
            ));
        }
    }
    for file in baseline.keys() {
        if !seen.contains(*file) {
            problems.push(format!(
                "{file}: listed in UNWRAP_BASELINE but no such source file exists; \
                 remove the stale entry"
            ));
        }
    }
    assert!(problems.is_empty(), "\n{}", problems.join("\n"));
}

/// The durable write path refuses the grandfather clause: a panic on an
/// I/O error in `kgq-store` would turn a recoverable torn write into
/// data loss, so its shipping code is held at zero unwrap/expect sites
/// unconditionally — adding a `crates/store/…` UNWRAP_BASELINE entry
/// does not help, this test ignores the baseline entirely.
#[test]
fn store_never_unwraps_io_results() {
    let mut problems = Vec::new();
    for path in crate_sources() {
        let file = rel(&path);
        if !file.starts_with("crates/store/src") {
            continue;
        }
        let src = fs::read_to_string(&path).expect("readable source file");
        let count: usize = non_test_lines(&src).iter().map(|l| unwrap_sites(l)).sum();
        if count > 0 {
            problems.push(format!(
                "{file}: {count} unwrap/expect site(s) in durable-store shipping code; \
                 propagate the io::Result instead (a panic here loses committed data)"
            ));
        }
    }
    assert!(problems.is_empty(), "\n{}", problems.join("\n"));
}

/// Fault-site names invoked in source: `fault_point!("…")`,
/// `fault::hit("…")`, `fault::starved("…")`, `io_fault!("…")`.
fn fault_names_in(src: &str) -> Vec<String> {
    let mut names = Vec::new();
    for pat in [
        "fault_point!(\"",
        "fault::hit(\"",
        "fault::starved(\"",
        "io_fault!(\"",
    ] {
        let mut rest = src;
        while let Some(i) = rest.find(pat) {
            let tail = &rest[i + pat.len()..];
            if let Some(j) = tail.find('"') {
                names.push(tail[..j].to_string());
            }
            rest = &rest[i + pat.len()..];
        }
    }
    names
}

#[test]
fn fault_site_registry_is_complete_and_exact() {
    // Collect the distinct site names used anywhere in library sources.
    let mut used = BTreeSet::new();
    for path in crate_sources() {
        let src = fs::read_to_string(&path).expect("readable source file");
        for name in fault_names_in(&src) {
            used.insert(name);
        }
    }
    assert!(
        !used.is_empty(),
        "no fault-injection sites found; the scan patterns are stale"
    );

    let registry_path = repo_root().join("docs/FAULT_SITES.md");
    let registry = fs::read_to_string(&registry_path).expect("docs/FAULT_SITES.md exists");
    // Registry names are the backticked `module::site` tokens.
    let mut listed: BTreeMap<String, usize> = BTreeMap::new();
    let mut rest = registry.as_str();
    while let Some(i) = rest.find('`') {
        let tail = &rest[i + 1..];
        let Some(j) = tail.find('`') else { break };
        let token = &tail[..j];
        if token.contains("::")
            && token
                .chars()
                .all(|c| c.is_ascii_lowercase() || c == ':' || c == '_')
        {
            *listed.entry(token.to_string()).or_insert(0) += 1;
        }
        rest = &tail[j + 1..];
    }

    let mut problems = Vec::new();
    for name in &used {
        match listed.get(name).copied().unwrap_or(0) {
            1 => {}
            0 => problems.push(format!(
                "fault site `{name}` is used in source but missing from docs/FAULT_SITES.md"
            )),
            n => problems.push(format!(
                "fault site `{name}` appears {n} times in docs/FAULT_SITES.md; exactly once required"
            )),
        }
    }
    for name in listed.keys() {
        if !used.contains(name) {
            problems.push(format!(
                "docs/FAULT_SITES.md lists `{name}` but no source site uses it"
            ));
        }
    }
    assert!(problems.is_empty(), "\n{}", problems.join("\n"));
}

/// `pub fn`s of `lines` (as produced by [`non_test_lines`]) that carry
/// no `///` doc comment, looking back across attribute lines.
fn undocumented_pub_fns(lines: &[&str]) -> Vec<String> {
    let mut missing = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let t = line.trim_start();
        let is_fn = t.starts_with("pub fn ")
            || t.starts_with("pub const fn ")
            || t.starts_with("pub unsafe fn ");
        if !is_fn {
            continue;
        }
        let mut j = i;
        let mut documented = false;
        while j > 0 {
            let prev = lines[j - 1].trim_start();
            // Look through attributes (including multi-line tails).
            if prev.starts_with("#[") || prev.starts_with("#![") || prev.ends_with(")]") {
                j -= 1;
                continue;
            }
            documented = prev.starts_with("///") || prev.starts_with("//!");
            break;
        }
        if !documented {
            let name = t
                .split("fn ")
                .nth(1)
                .and_then(|s| s.split(['(', '<']).next())
                .unwrap_or(t);
            missing.push(name.to_string());
        }
    }
    missing
}

#[test]
fn analyze_and_govern_pub_fns_are_documented() {
    let mut problems = Vec::new();
    for file in ["crates/core/src/analyze.rs", "crates/core/src/govern.rs"] {
        let src = fs::read_to_string(repo_root().join(file)).expect("readable source file");
        for name in undocumented_pub_fns(&non_test_lines(&src)) {
            problems.push(format!("{file}: pub fn `{name}` has no doc comment"));
        }
    }
    assert!(problems.is_empty(), "\n{}", problems.join("\n"));
}

/// Per-file allowance of `unsafe` sites (`unsafe {`, `unsafe fn`,
/// `unsafe impl`, `unsafe extern`) in non-test code. `unsafe` lives
/// only in the mmap'd segment reader, each site carrying a safety
/// comment; the count is exact in both directions so a removed site
/// cannot silently come back, and unlisted files are held at zero.
const UNSAFE_BASELINE: &[(&str, usize)] = &[("crates/store/src/mmap.rs", 6)];

/// Keyword-form `unsafe` sites on a line, ignoring `//` comments. The
/// four forms cover every way the keyword enters shipping code; prose
/// uses of the word (diagnostic codes like `unsafe-rule`) don't match.
fn unsafe_sites(line: &str) -> usize {
    let code = line.split("//").next().unwrap_or("");
    ["unsafe {", "unsafe fn", "unsafe impl", "unsafe extern"]
        .iter()
        .map(|p| code.matches(p).count())
        .sum()
}

#[test]
fn unsafe_audit_ratchet_is_exact() {
    let baseline: BTreeMap<&str, usize> = UNSAFE_BASELINE.iter().copied().collect();
    let mut problems = Vec::new();
    let mut seen = BTreeSet::new();
    for path in crate_sources() {
        let file = rel(&path);
        let src = fs::read_to_string(&path).expect("readable source file");
        let count: usize = non_test_lines(&src).iter().map(|l| unsafe_sites(l)).sum();
        seen.insert(file.clone());
        let allowed = baseline.get(file.as_str()).copied().unwrap_or(0);
        if count > allowed {
            problems.push(format!(
                "{file}: {count} unsafe site(s) in non-test code (audit baseline allows \
                 {allowed}); keep unsafe confined to the audited mmap reader, or extend \
                 UNSAFE_BASELINE after review with a safety comment on every site"
            ));
        } else if count < allowed {
            problems.push(format!(
                "{file}: only {count} unsafe site(s) remain but the audit baseline expects \
                 {allowed}; ratchet UNSAFE_BASELINE down so removed sites cannot return"
            ));
        }
    }
    for file in baseline.keys() {
        if !seen.contains(*file) {
            problems.push(format!(
                "{file}: listed in UNSAFE_BASELINE but no such source file exists; \
                 remove the stale entry"
            ));
        }
    }
    assert!(problems.is_empty(), "\n{}", problems.join("\n"));
}

/// The server crate's lock-rank table: `(normalized pattern, rank,
/// name)`. Patterns match against comment-stripped, whitespace-free
/// non-test source text, so multi-line acquisitions normalize to one
/// token. A thread may only acquire a lock whose rank is **≥** every
/// rank it already holds. Equal ranks almost never nest; the one
/// sanctioned case is the planner-sketch mutex, which shares the store
/// rank and is only ever taken while the store guard is already held
/// (the store lock is never acquired under it, so the pair stays
/// acyclic):
///
/// durable(0) < graph(1) < schema(2) < store(3) = sketches(3) <
/// sched(4) < conns(5) < reader_handles(6) < writer(7) <
/// shutdown_requested(8)
///
/// The durable mutex guards only the store's log half (the served
/// triples are the store lock's): a mutation commits under it, then
/// takes graph and store to apply the batch, and `FLUSH` takes durable,
/// then the store read lock to compact from the served store.
const LOCK_RANKS: &[(&str, u32, &str)] = &[
    ("|m|m.lock()", 0, "durable"),
    ("self.durable_lock()", 0, "durable"),
    ("self.graph.read()", 1, "graph"),
    ("self.graph.write()", 1, "graph"),
    ("self.graph_read()", 1, "graph"),
    ("self.graph_write()", 1, "graph"),
    ("self.schema.lock()", 2, "schema"),
    ("self.schema_summary(", 2, "schema"),
    ("self.store.read()", 3, "store"),
    ("self.store.write()", 3, "store"),
    ("self.store_read()", 3, "store"),
    ("self.store_write()", 3, "store"),
    ("self.sketches.lock()", 3, "sketches"),
    ("self.store_sketch(", 3, "sketches"),
    ("self.inner.lock()", 4, "sched"),
    ("self.lock()", 4, "sched"),
    (".conns.lock()", 5, "conns"),
    (".reader_handles.lock()", 6, "reader_handles"),
    (".writer.lock()", 7, "writer"),
    (".shutdown_requested.lock()", 8, "shutdown_requested"),
];

/// Static lock-order violations in one file's source text.
///
/// The model: strip comments and all whitespace from non-test lines,
/// walk the result character by character tracking brace depth, and
/// keep a stack of live guards `(depth, rank, name)`. A guard is
/// considered live until the brace depth drops below its acquisition
/// depth (a conservative over-approximation of Rust guard lifetimes —
/// temporaries dropped at statement end stay "live" to the block's
/// close, which only makes the lint stricter). Acquiring a rank lower
/// than the top of the stack is a violation. Separately, every bare
/// zero-arg `.lock()` / `.read()` / `.write()` must fall inside some
/// ranked pattern match, so an unranked acquisition cannot dodge the
/// walk.
fn lock_order_violations(file: &str, src: &str) -> Vec<String> {
    let mut text = String::new();
    for line in non_test_lines(src) {
        let code = line.split("//").next().unwrap_or("");
        text.extend(code.chars().filter(|c| !c.is_whitespace()));
    }

    // All ranked-pattern match spans, sorted by start position.
    let mut matches: Vec<(usize, usize, u32, &str)> = Vec::new();
    for (pat, rank, name) in LOCK_RANKS {
        let mut from = 0;
        while let Some(i) = text[from..].find(pat) {
            let start = from + i;
            matches.push((start, start + pat.len(), *rank, name));
            from = start + 1;
        }
    }
    matches.sort();

    let mut problems = Vec::new();

    // Coverage: no bare acquisition outside a ranked span.
    for bare in [".lock()", ".read()", ".write()"] {
        let mut from = 0;
        while let Some(i) = text[from..].find(bare) {
            let pos = from + i;
            if !matches.iter().any(|&(s, e, _, _)| s <= pos && pos < e) {
                let ctx = pos.saturating_sub(24);
                problems.push(format!(
                    "{file}: unranked lock acquisition `…{}`; add it to LOCK_RANKS",
                    &text[ctx..(pos + bare.len()).min(text.len())]
                ));
            }
            from = pos + 1;
        }
    }

    // Monotone walk with a live-guard stack.
    let mut stack: Vec<(i64, u32, &str)> = Vec::new();
    let mut depth = 0i64;
    let mut mi = 0;
    for (i, b) in text.bytes().enumerate() {
        while mi < matches.len() && matches[mi].0 == i {
            let (_, _, rank, name) = matches[mi];
            if let Some(&(_, top_rank, top_name)) = stack.last() {
                if rank < top_rank {
                    problems.push(format!(
                        "{file}: lock `{name}` (rank {rank}) acquired while `{top_name}` \
                         (rank {top_rank}) may be held; acquisitions must follow the \
                         LOCK_RANKS order to stay deadlock-free"
                    ));
                }
            }
            stack.push((depth, rank, name));
            mi += 1;
        }
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                while stack.last().is_some_and(|&(d, _, _)| d > depth) {
                    stack.pop();
                }
            }
            _ => {}
        }
    }
    problems
}

#[test]
fn lock_order_walker_detects_inversions() {
    // Inverted: writer (7) held across a conns (5) acquisition.
    let bad = "fn broken(&self) {\n    let w = self.writer.lock().unwrap();\n    \
               let c = self.conns.lock().unwrap();\n}\n";
    let found = lock_order_violations("synthetic.rs", bad);
    assert!(
        found
            .iter()
            .any(|p| p.contains("rank 5") && p.contains("rank 7")),
        "walker missed a rank inversion: {found:?}"
    );
    // The same pair in a sound order, in disjoint scopes.
    let good = "fn fine(&self) {\n    { let c = self.conns.lock().unwrap(); }\n    \
                { let w = self.writer.lock().unwrap(); }\n}\n";
    assert!(lock_order_violations("synthetic.rs", good).is_empty());
    // An acquisition no rank pattern covers is flagged, not ignored.
    let unranked = "fn sneaky(&self) { let g = self.mystery.lock().unwrap(); }\n";
    let found = lock_order_violations("synthetic.rs", unranked);
    assert!(
        found.iter().any(|p| p.contains("unranked")),
        "walker missed an unranked acquisition: {found:?}"
    );
}

#[test]
fn serve_lock_acquisitions_follow_the_rank_order() {
    let mut problems = Vec::new();
    let mut ranked_sites = 0usize;
    for path in crate_sources() {
        let file = rel(&path);
        if !file.starts_with("crates/serve/src") {
            continue;
        }
        let src = fs::read_to_string(&path).expect("readable source file");
        let mut text = String::new();
        for line in non_test_lines(&src) {
            let code = line.split("//").next().unwrap_or("");
            text.extend(code.chars().filter(|c| !c.is_whitespace()));
        }
        ranked_sites += LOCK_RANKS
            .iter()
            .map(|(pat, _, _)| text.matches(pat).count())
            .sum::<usize>();
        problems.extend(lock_order_violations(&file, &src));
    }
    assert!(
        ranked_sites >= 10,
        "only {ranked_sites} ranked lock sites found in crates/serve/src; \
         the LOCK_RANKS patterns are stale"
    );
    assert!(problems.is_empty(), "\n{}", problems.join("\n"));
}

/// The analyzer-coverage registry: `(file, fn name, tokens)` — every
/// listed function body must contain **all** of its tokens. The list
/// pins each query entrypoint to the static-analysis consult it is
/// required to make before (or instead of) executing:
///
/// - the request pipeline (`kgq-serve::pipeline`), the one body per
///   verb that both the CLI and the server executor call;
/// - the engine evaluators (`kgq-rdf`, `kgq-cypher`, `kgq-logic`) the
///   pipeline and library callers reach, and their ungoverned shims;
/// - the LFTJ front, which independently re-verifies planner output, and
///   both LFTJ executors (rows and count), which must go through it.
const ANALYZER_COVERAGE: &[(&str, &str, &[&str])] = &[
    ("crates/serve/src/pipeline.rs", "rpq", &["analyze_expr("]),
    (
        "crates/serve/src/pipeline.rs",
        "cypher",
        &["analyze_query(", "execute_governed("],
    ),
    (
        "crates/serve/src/pipeline.rs",
        "sparql",
        &["select_governed_with("],
    ),
    (
        "crates/serve/src/pipeline.rs",
        "analyze",
        &[
            "analyze_expr(",
            "analyze_query(",
            "explain_parsed(",
            "analyze_program(",
        ],
    ),
    (
        "crates/cypher/src/exec.rs",
        "execute_governed",
        &["analyze_query("],
    ),
    (
        "crates/rdf/src/sparql.rs",
        "select",
        &["select_governed_with("],
    ),
    (
        "crates/rdf/src/sparql.rs",
        "select_governed_with",
        &["analyze_bgp("],
    ),
    (
        "crates/rdf/src/sparql.rs",
        "explain_parsed",
        &["analyze_bgp("],
    ),
    ("crates/rdf/src/query.rs", "rpq_pairs", &["analyze_expr("]),
    ("crates/rdf/src/query.rs", "rpq_starts", &["analyze_expr("]),
    ("crates/rdf/src/lftj.rs", "front", &["verify_plan("]),
    ("crates/rdf/src/lftj.rs", "run", &["front("]),
    (
        "crates/rdf/src/lftj.rs",
        "count_planned_capped",
        &["front("],
    ),
    (
        "crates/logic/src/rules.rs",
        "fixpoint",
        &["analyze_program("],
    ),
    (
        "crates/logic/src/rules.rs",
        "fixpoint_governed",
        &["analyze_program("],
    ),
];

/// The body of `fn NAME` in `lines` (first definition, matched by brace
/// counting from the signature line), or `None` if no such fn exists.
fn fn_body(lines: &[&str], name: &str) -> Option<String> {
    let sig_paren = format!("fn {name}(");
    let sig_generic = format!("fn {name}<");
    let start = lines
        .iter()
        .position(|l| l.contains(&sig_paren) || l.contains(&sig_generic))?;
    let mut depth = 0i64;
    let mut started = false;
    let mut body = String::new();
    for line in &lines[start..] {
        body.push_str(line);
        body.push('\n');
        for ch in line.chars() {
            match ch {
                '{' => {
                    depth += 1;
                    started = true;
                }
                '}' => depth -= 1,
                _ => {}
            }
        }
        if started && depth <= 0 {
            break;
        }
    }
    Some(body)
}

#[test]
fn every_query_entrypoint_consults_an_analyzer() {
    let mut problems = Vec::new();
    for (file, func, tokens) in ANALYZER_COVERAGE {
        let src = fs::read_to_string(repo_root().join(file)).expect("readable source file");
        let lines = non_test_lines(&src);
        let Some(body) = fn_body(&lines, func) else {
            problems.push(format!(
                "{file}: fn `{func}` not found; update ANALYZER_COVERAGE to track \
                 where this entrypoint moved"
            ));
            continue;
        };
        for token in *tokens {
            if !body.contains(token) {
                problems.push(format!(
                    "{file}: fn `{func}` no longer routes through `{token}`; every query \
                     entrypoint must consult its static analyzer before executing"
                ));
            }
        }
    }
    assert!(problems.is_empty(), "\n{}", problems.join("\n"));
}

/// One body per algorithm: `(file, fn name, token)` — the token marks the
/// algorithm's inner step and may occur in no other function of its
/// file, so a second copy of the loop cannot grow back beside the first.
const SINGLE_BODY: &[(&str, &str, &str)] = &[
    // The leapfrog intersection: the only cursor seek.
    ("crates/rdf/src/lftj.rs", "leapfrog", ".seek("),
    // The `Count` DP: the only relaxation of a product transition.
    ("crates/core/src/count.rs", "dp", "checked_add(c)"),
    // SPARQL rows stay symbols: the only place they become strings.
    ("crates/rdf/src/sparql.rs", "terms", "term_str("),
];

#[test]
fn each_algorithm_has_one_body() {
    let mut problems = Vec::new();
    for (file, func, token) in SINGLE_BODY {
        let src = fs::read_to_string(repo_root().join(file)).expect("readable source file");
        let lines = non_test_lines(&src);
        let Some(body) = fn_body(&lines, func) else {
            problems.push(format!("{file}: fn `{func}` not found; update SINGLE_BODY"));
            continue;
        };
        let in_body = body.matches(token).count();
        let in_file: usize = lines.iter().map(|l| l.matches(token).count()).sum();
        if in_body == 0 || in_body != in_file {
            problems.push(format!(
                "{file}: `{token}` occurs {in_file} time(s), {in_body} of them in fn `{func}`; \
                 the algorithm must have one body"
            ));
        }
    }
    assert!(problems.is_empty(), "\n{}", problems.join("\n"));
}

/// One home per algorithm across the crates: `(tokens, file, fn name)`
/// — a line holding every token may occur in that one function only,
/// and nowhere else under `crates/*/src`.
const ONE_HOME: &[(&[&str], &str, &str)] = &[
    // The 64-lane sweep: the only lane mask OR-ed into a visited word.
    (
        &["visited[", "] |="],
        "crates/core/src/bitkernel.rs",
        "feed",
    ),
];

#[test]
fn each_algorithm_has_one_home() {
    let mut problems = Vec::new();
    for (tokens, home, func) in ONE_HOME {
        let hit = |l: &str| {
            let code = l.split("//").next().unwrap_or("");
            tokens.iter().all(|t| code.contains(t))
        };
        for path in crate_sources() {
            let file = rel(&path);
            let src = fs::read_to_string(&path).expect("readable source file");
            let lines = non_test_lines(&src);
            let found = lines.iter().filter(|l| hit(l)).count();
            let allowed = match fn_body(&lines, func) {
                Some(body) if file == *home => body.lines().filter(|l| hit(l)).count(),
                _ => 0,
            };
            if found != allowed || (file == *home && found == 0) {
                problems.push(format!(
                    "{file}: {found} line(s) hold {tokens:?}, {allowed} of them in fn `{func}` \
                     of {home}; the algorithm has one home"
                ));
            }
        }
    }
    assert!(problems.is_empty(), "\n{}", problems.join("\n"));
}

/// The ordered scans that run on `parallel::partitioned`: each must
/// call it.
const PARTITIONED_SCANS: &[&str] = &[
    "crates/core/src/bitkernel.rs",
    "crates/core/src/scale.rs",
    "crates/rdf/src/lftj.rs",
];

/// Files that may call rayon: `parallel.rs` itself, and the order-free sums
/// (a path count and a median of estimates), whose merge is a `sum` or a
/// sort and so needs no prefix rule.
const FAN_OUT_ALLOWED: &[&str] = &[
    "crates/core/src/parallel.rs",
    "crates/core/src/count.rs",
    "crates/core/src/approx.rs",
];

#[test]
fn partitioned_is_the_only_fan_out() {
    let mut problems = Vec::new();
    for path in crate_sources() {
        let file = rel(&path);
        let src = fs::read_to_string(&path).expect("readable source file");
        let code: Vec<&str> = non_test_lines(&src)
            .into_iter()
            .map(|l| l.split("//").next().unwrap_or(""))
            .collect();
        let has = |token: &str| code.iter().any(|l| l.contains(token));
        if !FAN_OUT_ALLOWED.contains(&file.as_str()) && (has("par_iter") || has("rayon::")) {
            problems.push(format!(
                "{file}: fans out on its own; run the scan through parallel::partitioned"
            ));
        }
        if file != "crates/core/src/parallel.rs" && has("fn chunk_bounds") {
            problems.push(format!(
                "{file}: splits its own chunks; parallel::partitioned owns the split"
            ));
        }
        if PARTITIONED_SCANS.contains(&file.as_str()) && !has("partitioned(") {
            problems.push(format!("{file}: no longer calls parallel::partitioned"));
        }
    }
    assert!(problems.is_empty(), "\n{}", problems.join("\n"));
}

/// Calls a crate's shipping code may not make: `(source dir, token,
/// why)`. `kgq serve --store` serves the durable store's one live
/// triple store, so the server never copies it out. Cypher `MATCH` is a
/// conjunctive pattern run by its own backtracking matcher; compiling
/// or sweeping an RPQ product beside it would be a second engine for
/// the same answer.
const FORBIDDEN_CALLS: &[(&str, &str, &str)] = &[
    (
        "crates/serve/src",
        "scan_all(",
        "the server serves the durable store itself; a string scan of it builds a second copy",
    ),
    (
        "crates/serve/src",
        "materialize(",
        "the server serves the durable store itself; a materialized fold is a second copy",
    ),
    (
        "crates/cypher/src",
        "get_or_compile",
        "the Cypher matcher compiles no path expression",
    ),
    (
        "crates/cypher/src",
        "matching_starts",
        "the Cypher matcher sweeps no RPQ product",
    ),
];

#[test]
fn forbidden_calls_stay_out() {
    let mut problems = Vec::new();
    for path in crate_sources() {
        let file = rel(&path);
        let src = fs::read_to_string(&path).expect("readable source file");
        for (dir, token, why) in FORBIDDEN_CALLS {
            if !file.starts_with(dir) {
                continue;
            }
            for line in non_test_lines(&src) {
                let code = line.split("//").next().unwrap_or("");
                if code.contains(token) {
                    problems.push(format!("{file}: calls `{token}`; {why}: {}", line.trim()));
                }
            }
        }
    }
    assert!(problems.is_empty(), "\n{}", problems.join("\n"));
}

/// Every committed `BENCH_*.json` at the repository root is a full run:
/// a `--quick` run trims sizes and repetitions, so its numbers back no
/// claim.
#[test]
fn committed_bench_files_are_full_runs() {
    let mut problems = Vec::new();
    let mut files = 0usize;
    for entry in fs::read_dir(repo_root()).expect("repository root") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
        let Some(name) = name.filter(|n| n.starts_with("BENCH_") && n.ends_with(".json")) else {
            continue;
        };
        files += 1;
        let text = fs::read_to_string(&path).expect("readable benchmark file");
        let quick: Vec<&str> = text
            .lines()
            .filter(|l| l.trim_start().starts_with("\"quick\":"))
            .collect();
        if quick.len() != 1 || quick[0].trim().trim_end_matches(',') != "\"quick\": false" {
            problems.push(format!(
                "{name}: expected one `\"quick\": false` line, found {quick:?}; \
                 regenerate it with a full run"
            ));
        }
    }
    assert!(
        files >= 4,
        "only {files} BENCH_*.json files at the repository root"
    );
    assert!(problems.is_empty(), "\n{}", problems.join("\n"));
}
