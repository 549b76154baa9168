//! Static analysis of basic graph patterns, in the spirit of
//! `kgq-core::analyze`'s RPQ checks: findings are typed
//! [`Diagnostic`]s with the same severity ladder, and a provably-empty
//! verdict short-circuits evaluation before the planner runs.
//!
//! Checks:
//!
//! * `empty-pattern` (deny) — a pattern's constant positions match no
//!   triple of this store, so the whole conjunction is empty. This is
//!   decided by the same exact prefix counts the planner uses.
//! * `unknown-predicate` (deny) — a constant predicate does not occur in
//!   the store vocabulary at all: the schema-level cause of emptiness,
//!   reported separately so typos are recognizable as typos.
//! * `unbound-projection` (deny) — a projected variable occurs in no
//!   pattern, so the query is unsafe (SPARQL's variable-safety rule).
//! * `unused-variable` (warn) — a variable occurs in exactly one pattern
//!   position and is not projected: it constrains nothing and usually
//!   indicates a typo.
//! * `cartesian-product` (warn) — the patterns fall into two or more
//!   variable-disjoint components, so the answer is a cross product.
//! * `unbounded-scan` (warn) — a pattern with no constant position joins
//!   against every triple of the store.
//! * `duplicate-pattern` (note) — a pattern repeats another one exactly
//!   or up to a renaming of its local variables; BGPs are conjunctions,
//!   so the duplicate is redundant.
//!
//! Besides the diagnostics, every report carries a [`BgpVerdict`]: the
//! join-structure verdict (α-acyclic by GYO reduction or cyclic) and an
//! AGM-bound exponent estimate (an integral edge cover, refined to n/2
//! on pure-cycle components), mirroring the complexity ladders of
//! *Complexity of Evaluating GQL Queries*.

use crate::bgp::{Bgp, TermPattern, TriplePattern, VarName};
use crate::store::TripleStore;
use kgq_core::analyze::{Diagnostic, Severity};

/// Structural complexity verdict for one BGP: join shape and the
/// worst-case output-size exponent of the AGM bound.
#[derive(Clone, Debug, PartialEq)]
pub struct BgpVerdict {
    /// Number of distinct variables joined.
    pub variables: usize,
    /// True when the variable hypergraph is α-acyclic (GYO-reducible);
    /// acyclic joins admit linear-time (Yannakakis-style) evaluation.
    pub acyclic: bool,
    /// Estimated AGM exponent ρ: answers are bounded by |store|^ρ.
    /// Computed as a minimum integral edge cover of the variable
    /// hypergraph, refined to n/2 on components that are a single cycle
    /// (so a triangle reports the tight 1.5).
    pub agm_exponent: f64,
    /// Sketch-estimated answer count, when a cost-model pass supplied
    /// one (the `--explain` path plans with [`crate::sketch`] statistics
    /// and records its final cumulative prefix estimate here). `None`
    /// when analysis ran without sketches.
    pub est_answers: Option<f64>,
}

impl Default for BgpVerdict {
    fn default() -> Self {
        BgpVerdict {
            variables: 0,
            acyclic: true,
            agm_exponent: 0.0,
            est_answers: None,
        }
    }
}

impl BgpVerdict {
    /// Renders the verdict one `key: value` per line (the `--explain`
    /// and `kgq analyze` surface).
    pub fn render(&self) -> String {
        let exp = if (self.agm_exponent - self.agm_exponent.round()).abs() < 1e-9 {
            format!("{}", self.agm_exponent.round() as u64)
        } else {
            format!("{:.1}", self.agm_exponent)
        };
        let mut out = format!(
            "join variables: {}\nstructure: {}\nagm exponent: {} (worst-case answers <= |store|^{})\n",
            self.variables,
            if self.acyclic {
                "acyclic (GYO-reducible)"
            } else {
                "cyclic"
            },
            exp,
            exp
        );
        if let Some(est) = self.est_answers {
            out.push_str(&format!(
                "estimated answers: ~{est:.0} (cardinality sketch)\n"
            ));
        }
        out
    }
}

/// The static verdict for one BGP against one store.
#[derive(Clone, Debug, Default)]
pub struct BgpReport {
    /// Findings, most severe first.
    pub diagnostics: Vec<Diagnostic>,
    /// True when some pattern provably matches nothing, so evaluation
    /// can return the empty answer without planning.
    pub provably_empty: bool,
    /// Join-structure and AGM-bound complexity verdict.
    pub verdict: BgpVerdict,
}

impl BgpReport {
    /// True when any finding is [`Severity::Deny`].
    pub fn denied(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Deny)
    }

    /// Renders the findings one per line (the `--explain` surface);
    /// `(none)` when the BGP is clean.
    pub fn render(&self) -> String {
        if self.diagnostics.is_empty() {
            return "(none)\n".to_owned();
        }
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!("{d}\n"));
        }
        out
    }
}

fn term_text(st: &TripleStore, t: &TermPattern) -> String {
    match t {
        TermPattern::Const(s) => st.term_str(*s).to_owned(),
        TermPattern::Var(v) => format!("?{v}"),
    }
}

/// A triple pattern as `(s p o)`, constants spelled out, variables as
/// `?name`: the text of plan reports and diagnostics.
pub(crate) fn pattern_text(st: &TripleStore, p: &TriplePattern) -> String {
    format!(
        "({} {} {})",
        term_text(st, &p.s),
        term_text(st, &p.p),
        term_text(st, &p.o)
    )
}

/// True when the variable hypergraph is α-acyclic, decided by GYO ear
/// removal: repeatedly delete vertices private to one edge and edges
/// contained in another edge; acyclic iff everything vanishes.
fn gyo_acyclic(edges: &[Vec<usize>]) -> bool {
    let mut edges: Vec<Vec<usize>> = edges.iter().filter(|e| !e.is_empty()).cloned().collect();
    loop {
        let mut changed = false;
        // Vertices occurring in exactly one edge are ears: remove them.
        let mut occ: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
        for e in &edges {
            for &v in e {
                *occ.entry(v).or_insert(0) += 1;
            }
        }
        for e in &mut edges {
            let before = e.len();
            e.retain(|v| occ[v] > 1);
            changed |= e.len() != before;
        }
        // Edges contained in another edge (including duplicates, kept
        // once via index order) are absorbed: remove them.
        let snapshot = edges.clone();
        let mut keep = vec![true; snapshot.len()];
        for i in 0..snapshot.len() {
            if snapshot[i].is_empty() {
                keep[i] = false;
                changed = true;
                continue;
            }
            for (j, other) in snapshot.iter().enumerate() {
                if i == j || !keep[j] {
                    continue;
                }
                let subset = snapshot[i].iter().all(|v| other.contains(v));
                let proper = snapshot[i].len() < other.len();
                if subset && (proper || j < i) {
                    keep[i] = false;
                    changed = true;
                    break;
                }
            }
        }
        edges = snapshot
            .into_iter()
            .zip(keep)
            .filter_map(|(e, k)| k.then_some(e))
            .collect();
        if edges.is_empty() {
            return true;
        }
        if !changed {
            return false;
        }
    }
}

/// Minimum integral edge cover of `vars` vertices by `edges`, exact via
/// subset DP for up to 16 vertices, greedy beyond. Every vertex is
/// guaranteed to occur in some edge (variables come from patterns).
fn integral_cover(nvars: usize, edges: &[Vec<usize>]) -> usize {
    if nvars == 0 {
        return 0;
    }
    let masks: Vec<u32> = edges
        .iter()
        .filter(|e| !e.is_empty())
        .map(|e| e.iter().fold(0u32, |m, &v| m | (1 << v)))
        .collect();
    let full: u32 = if nvars >= 32 {
        u32::MAX
    } else {
        (1u32 << nvars) - 1
    };
    if nvars <= 16 {
        let mut dp = vec![usize::MAX; (full as usize) + 1];
        dp[0] = 0;
        for mask in 0..=full {
            let cost = dp[mask as usize];
            if cost == usize::MAX {
                continue;
            }
            for &em in &masks {
                let next = (mask | em) as usize;
                if dp[next] > cost + 1 {
                    dp[next] = cost + 1;
                }
            }
        }
        dp[full as usize]
    } else {
        // Greedy set cover: good enough as an estimate for very wide BGPs.
        let mut covered: u32 = 0;
        let mut picks = 0;
        while covered != full {
            let best = masks
                .iter()
                .max_by_key(|&&m| (m & !covered).count_ones())
                .copied()
                .unwrap_or(0);
            if best & !covered == 0 {
                break; // defensive: cannot make progress
            }
            covered |= best;
            picks += 1;
        }
        picks
    }
}

/// AGM exponent estimate: sum over connected components of the variable
/// hypergraph; a component that is exactly one cycle of binary edges
/// contributes n/2 (the tight fractional cover), anything else its
/// minimum integral edge cover.
fn agm_exponent(nvars: usize, edges: &[Vec<usize>]) -> f64 {
    if nvars == 0 {
        return 0.0;
    }
    // Connected components over variables (union-find).
    let mut comp: Vec<usize> = (0..nvars).collect();
    fn root(comp: &mut [usize], mut i: usize) -> usize {
        while comp[i] != i {
            comp[i] = comp[comp[i]];
            i = comp[i];
        }
        i
    }
    for e in edges {
        for w in e.windows(2) {
            let (a, b) = (root(&mut comp, w[0]), root(&mut comp, w[1]));
            comp[a] = b;
        }
    }
    let mut total = 0.0;
    let comp_roots: Vec<usize> = (0..nvars).map(|v| root(&mut comp, v)).collect();
    let mut distinct = comp_roots.clone();
    distinct.sort_unstable();
    distinct.dedup();
    for r in distinct {
        let vars: Vec<usize> = (0..nvars).filter(|&v| comp_roots[v] == r).collect();
        let local: Vec<Vec<usize>> = edges
            .iter()
            .filter(|e| !e.is_empty() && comp_roots[e[0]] == r)
            .map(|e| {
                e.iter()
                    .filter_map(|v| vars.iter().position(|x| x == v))
                    .collect()
            })
            .collect();
        // Single-cycle detection: all edges binary and distinct, every
        // vertex of degree exactly 2, as many edges as vertices.
        let mut deg = vec![0usize; vars.len()];
        let mut binary = true;
        let mut distinct_edges: Vec<Vec<usize>> = Vec::new();
        for e in &local {
            let mut s = e.clone();
            s.sort_unstable();
            s.dedup();
            if s.len() != 2 {
                binary = false;
            }
            if !distinct_edges.contains(&s) {
                distinct_edges.push(s.clone());
                for &v in &s {
                    deg[v] += 1;
                }
            }
        }
        let cycle = binary
            && vars.len() >= 3
            && distinct_edges.len() == vars.len()
            && deg.iter().all(|&d| d == 2);
        if cycle {
            total += vars.len() as f64 / 2.0;
        } else {
            total += integral_cover(vars.len(), &local) as f64;
        }
    }
    // A join has at least linear output potential whenever variables exist.
    total.max(1.0)
}

/// Runs the static checks. `projected` lists the variables the caller
/// will keep (e.g. the SELECT clause); `None` means all variables are
/// observed, which disables the unused-variable lint and restricts the
/// duplicate lint to byte-equal patterns (renaming a duplicate away
/// would change the visible bindings).
pub fn analyze_bgp(st: &TripleStore, bgp: &Bgp, projected: Option<&[VarName]>) -> BgpReport {
    let mut report = BgpReport::default();

    // Emptiness of each pattern's constant prefix — exact, via the same
    // binary-searched counts the planner uses. A constant predicate
    // missing from the vocabulary entirely gets the schema-level deny.
    for pat in &bgp.patterns {
        let bound = |t: &TermPattern| match t {
            TermPattern::Const(c) => Some(*c),
            TermPattern::Var(_) => None,
        };
        if let TermPattern::Const(p) = &pat.p {
            if st.count(None, Some(*p), None) == 0 {
                report.provably_empty = true;
                report.diagnostics.push(Diagnostic {
                    severity: Severity::Deny,
                    code: "unknown-predicate",
                    message: format!(
                        "predicate {} occurs in no triple of this store's vocabulary; pattern {} is empty",
                        st.term_str(*p),
                        pattern_text(st, pat)
                    ),
                    span: None,
                });
            }
        }
        if st.count(bound(&pat.s), bound(&pat.p), bound(&pat.o)) == 0 {
            report.provably_empty = true;
            report.diagnostics.push(Diagnostic {
                severity: Severity::Deny,
                code: "empty-pattern",
                message: format!(
                    "pattern {} matches no triple of this store; the conjunction is empty",
                    pattern_text(st, pat)
                ),
                span: None,
            });
        }
    }

    // Variable occurrence counts across all pattern positions.
    let mut occurrences: Vec<(VarName, usize)> = Vec::new();
    for pat in &bgp.patterns {
        for term in [&pat.s, &pat.p, &pat.o] {
            if let TermPattern::Var(name) = term {
                match occurrences.iter_mut().find(|(v, _)| v == name) {
                    Some((_, n)) => *n += 1,
                    None => occurrences.push((name.clone(), 1)),
                }
            }
        }
    }
    if let Some(projected) = projected {
        for (name, n) in &occurrences {
            if *n == 1 && !projected.contains(name) {
                report.diagnostics.push(Diagnostic {
                    severity: Severity::Warn,
                    code: "unused-variable",
                    message: format!(
                        "variable ?{name} occurs once and is not projected; it constrains nothing"
                    ),
                    span: None,
                });
            }
        }
        // Variable safety: every projected variable must occur somewhere.
        for name in projected {
            if !occurrences.iter().any(|(v, _)| v == name) {
                report.diagnostics.push(Diagnostic {
                    severity: Severity::Deny,
                    code: "unbound-projection",
                    message: format!(
                        "projected variable ?{name} occurs in no pattern; the query is unsafe"
                    ),
                    span: None,
                });
            }
        }
    }

    // Connectivity: union-find over variables shared between patterns.
    // Patterns without variables are singleton components only if other
    // patterns exist; constants never connect.
    let with_vars: Vec<Vec<&VarName>> = bgp
        .patterns
        .iter()
        .map(|pat| {
            [&pat.s, &pat.p, &pat.o]
                .into_iter()
                .filter_map(|t| match t {
                    TermPattern::Var(v) => Some(v),
                    TermPattern::Const(_) => None,
                })
                .collect()
        })
        .collect();
    let n = bgp.patterns.len();
    let mut comp: Vec<usize> = (0..n).collect();
    fn root(comp: &mut [usize], mut i: usize) -> usize {
        while comp[i] != i {
            comp[i] = comp[comp[i]];
            i = comp[i];
        }
        i
    }
    for i in 0..n {
        for j in (i + 1)..n {
            if with_vars[i].iter().any(|v| with_vars[j].contains(v)) {
                let (a, b) = (root(&mut comp, i), root(&mut comp, j));
                comp[a] = b;
            }
        }
    }
    let mut roots: Vec<usize> = (0..n)
        .filter(|&i| !with_vars[i].is_empty())
        .map(|i| root(&mut comp, i))
        .collect();
    roots.sort_unstable();
    roots.dedup();
    if roots.len() > 1 {
        report.diagnostics.push(Diagnostic {
            severity: Severity::Warn,
            code: "cartesian-product",
            message: format!(
                "patterns form {} variable-disjoint groups; the answer is their cross product",
                roots.len()
            ),
            span: None,
        });
    }

    // Unbounded scans: a pattern with no constant position joins against
    // every triple of the store. Only meaningful inside a join — a lone
    // all-variable pattern is a legitimate dump.
    if n > 1 {
        for (i, pat) in bgp.patterns.iter().enumerate() {
            let all_vars = [&pat.s, &pat.p, &pat.o]
                .into_iter()
                .all(|t| matches!(t, TermPattern::Var(_)));
            if all_vars && !with_vars[i].is_empty() {
                report.diagnostics.push(Diagnostic {
                    severity: Severity::Warn,
                    code: "unbounded-scan",
                    message: format!(
                        "pattern {} has no constant position; every triple of the store joins here",
                        pattern_text(st, pat)
                    ),
                    span: None,
                });
            }
        }
    }

    // Duplicate patterns: byte-equal always, and — when a projection
    // tells us which variables are observable — equal up to a renaming
    // of variables local to the duplicate.
    for i in 0..n {
        for j in (i + 1)..n {
            let exact = bgp.patterns[i] == bgp.patterns[j];
            let renamed = !exact
                && renaming_duplicate(&bgp.patterns[i], &bgp.patterns[j], |v| {
                    // Frozen: observable elsewhere. With no projection
                    // every variable is observable.
                    match projected {
                        None => true,
                        Some(proj) => {
                            proj.contains(v)
                                || bgp
                                    .patterns
                                    .iter()
                                    .enumerate()
                                    .any(|(k, p)| k != j && pattern_mentions(p, v))
                        }
                    }
                });
            if exact || renamed {
                report.diagnostics.push(Diagnostic {
                    severity: Severity::Note,
                    code: "duplicate-pattern",
                    message: if exact {
                        format!(
                            "pattern {} is listed twice; the duplicate is redundant",
                            pattern_text(st, &bgp.patterns[i])
                        )
                    } else {
                        format!(
                            "pattern {} equals pattern {} up to renaming of its local variables; the duplicate is redundant",
                            pattern_text(st, &bgp.patterns[j]),
                            pattern_text(st, &bgp.patterns[i])
                        )
                    },
                    span: None,
                });
            }
        }
    }

    // Structural verdict: hypergraph of variables, one edge per pattern.
    let mut vars: Vec<&VarName> = Vec::new();
    for vs in &with_vars {
        for v in vs {
            if !vars.contains(v) {
                vars.push(v);
            }
        }
    }
    let edges: Vec<Vec<usize>> = with_vars
        .iter()
        .map(|vs| {
            let mut ids: Vec<usize> = vs
                .iter()
                .filter_map(|v| vars.iter().position(|x| x == v))
                .collect();
            ids.sort_unstable();
            ids.dedup();
            ids
        })
        .collect();
    report.verdict = BgpVerdict {
        variables: vars.len(),
        acyclic: gyo_acyclic(&edges),
        agm_exponent: agm_exponent(vars.len(), &edges),
        est_answers: None,
    };

    report
        .diagnostics
        .sort_by_key(|d| std::cmp::Reverse(d.severity));
    report
}

fn pattern_mentions(p: &TriplePattern, v: &VarName) -> bool {
    [&p.s, &p.p, &p.o]
        .into_iter()
        .any(|t| matches!(t, TermPattern::Var(name) if name == v))
}

/// True when `b` maps onto `a` by a bijective renaming of its variables
/// that is the identity on every variable `frozen` says is observable.
fn renaming_duplicate(
    a: &TriplePattern,
    b: &TriplePattern,
    frozen: impl Fn(&VarName) -> bool,
) -> bool {
    let mut theta: Vec<(&VarName, &VarName)> = Vec::new();
    for (ta, tb) in [(&a.s, &b.s), (&a.p, &b.p), (&a.o, &b.o)] {
        match (ta, tb) {
            (TermPattern::Const(x), TermPattern::Const(y)) => {
                if x != y {
                    return false;
                }
            }
            (TermPattern::Var(va), TermPattern::Var(vb)) => {
                if frozen(vb) {
                    if va != vb {
                        return false;
                    }
                    continue;
                }
                match theta.iter().find(|(from, _)| *from == vb) {
                    Some((_, to)) => {
                        if *to != va {
                            return false;
                        }
                    }
                    None => {
                        // Injectivity: no other source maps to va.
                        if theta.iter().any(|(_, to)| *to == va) {
                            return false;
                        }
                        theta.push((vb, va));
                    }
                }
            }
            _ => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TripleStore {
        let mut st = TripleStore::new();
        st.insert_strs("alice", "knows", "bob");
        st.insert_strs("bob", "knows", "carol");
        st.insert_strs("alice", "type", "Person");
        st
    }

    #[test]
    fn unsatisfiable_constant_is_denied() {
        let mut st = sample();
        let mut q = Bgp::new();
        q.add(&mut st, "?x", "likes", "?y");
        let rep = analyze_bgp(&st, &q, None);
        assert!(rep.provably_empty);
        assert!(rep.denied());
        assert!(rep.render().contains("empty-pattern"));
        // `likes` is not in the vocabulary at all: the schema-level deny
        // names the predicate.
        assert!(rep.render().contains("unknown-predicate"));
        assert!(rep.render().contains("likes"));
    }

    #[test]
    fn known_predicate_empty_prefix_is_not_unknown() {
        let mut st = sample();
        let mut q = Bgp::new();
        // `carol knows ?y` is empty, but `knows` is in the vocabulary.
        q.add(&mut st, "carol", "knows", "?y");
        let rep = analyze_bgp(&st, &q, None);
        assert!(rep.provably_empty);
        assert!(rep.render().contains("empty-pattern"));
        assert!(!rep.render().contains("unknown-predicate"));
    }

    #[test]
    fn unused_variable_warns_only_when_unprojected() {
        let mut st = sample();
        let mut q = Bgp::new();
        q.add(&mut st, "?x", "knows", "?y");
        let projected = vec!["x".to_owned()];
        let rep = analyze_bgp(&st, &q, Some(&projected));
        assert!(rep
            .diagnostics
            .iter()
            .any(|d| d.code == "unused-variable" && d.message.contains("?y")));
        // Projecting ?y silences the warning.
        let both = vec!["x".to_owned(), "y".to_owned()];
        let rep2 = analyze_bgp(&st, &q, Some(&both));
        assert!(rep2.diagnostics.iter().all(|d| d.code != "unused-variable"));
        // Shared variables are never "unused".
        let mut q2 = Bgp::new();
        q2.add(&mut st, "?x", "knows", "?y");
        q2.add(&mut st, "?y", "type", "Person");
        let rep3 = analyze_bgp(&st, &q2, Some(&projected));
        assert!(rep3.diagnostics.iter().all(|d| d.code != "unused-variable"));
    }

    #[test]
    fn unbound_projection_is_denied() {
        let mut st = sample();
        let mut q = Bgp::new();
        q.add(&mut st, "?x", "knows", "?y");
        let projected = vec!["x".to_owned(), "ghost".to_owned()];
        let rep = analyze_bgp(&st, &q, Some(&projected));
        assert!(rep.denied());
        assert!(rep
            .diagnostics
            .iter()
            .any(|d| d.code == "unbound-projection" && d.message.contains("?ghost")));
        assert!(!rep.provably_empty);
    }

    #[test]
    fn disjoint_groups_warn_as_cartesian() {
        let mut st = sample();
        let mut q = Bgp::new();
        q.add(&mut st, "?x", "knows", "?y");
        q.add(&mut st, "?u", "type", "?t");
        let rep = analyze_bgp(&st, &q, None);
        assert!(rep
            .diagnostics
            .iter()
            .any(|d| d.code == "cartesian-product"));
        assert!(!rep.provably_empty);
    }

    #[test]
    fn all_variable_pattern_warns_in_joins_only() {
        let mut st = sample();
        let mut lone = Bgp::new();
        lone.add(&mut st, "?s", "?p", "?o");
        let rep = analyze_bgp(&st, &lone, None);
        assert!(rep.diagnostics.iter().all(|d| d.code != "unbounded-scan"));

        let mut joined = Bgp::new();
        joined.add(&mut st, "?s", "?p", "?o");
        joined.add(&mut st, "?s", "type", "Person");
        let rep2 = analyze_bgp(&st, &joined, None);
        assert!(rep2.diagnostics.iter().any(|d| d.code == "unbounded-scan"));
    }

    #[test]
    fn duplicates_are_noted_and_clean_queries_are_clean() {
        let mut st = sample();
        let mut q = Bgp::new();
        q.add(&mut st, "?x", "knows", "?y");
        q.add(&mut st, "?x", "knows", "?y");
        let rep = analyze_bgp(&st, &q, None);
        assert!(rep
            .diagnostics
            .iter()
            .any(|d| d.code == "duplicate-pattern"));

        let mut clean = Bgp::new();
        clean.add(&mut st, "?x", "knows", "?y");
        let rep2 = analyze_bgp(&st, &clean, None);
        assert!(rep2.diagnostics.is_empty());
        assert_eq!(rep2.render(), "(none)\n");
    }

    #[test]
    fn renamed_duplicate_is_flagged_when_local() {
        let mut st = sample();
        // ?a/?b are local (unprojected, mentioned nowhere else): the
        // second pattern is the first one renamed.
        let mut q = Bgp::new();
        q.add(&mut st, "?x", "knows", "?y");
        q.add(&mut st, "?a", "knows", "?b");
        let projected = vec!["x".to_owned(), "y".to_owned()];
        let rep = analyze_bgp(&st, &q, Some(&projected));
        assert!(rep
            .diagnostics
            .iter()
            .any(|d| d.code == "duplicate-pattern" && d.message.contains("renaming")));
        // With no projection every variable is observable — renaming a
        // pattern away would change the bindings, so it is not flagged.
        let rep_none = analyze_bgp(&st, &q, None);
        assert!(rep_none
            .diagnostics
            .iter()
            .all(|d| d.code != "duplicate-pattern"));
        // Mutual knows is NOT a duplicate: ?x/?y occur in both patterns,
        // so they are frozen and (?y knows ?x) differs semantically.
        let mut mutual = Bgp::new();
        mutual.add(&mut st, "?x", "knows", "?y");
        mutual.add(&mut st, "?y", "knows", "?x");
        let rep2 = analyze_bgp(&st, &mutual, Some(&projected));
        assert!(rep2
            .diagnostics
            .iter()
            .all(|d| d.code != "duplicate-pattern"));
    }

    #[test]
    fn verdict_reports_acyclicity_and_agm_exponent() {
        let mut st = sample();
        // Path join: acyclic, integral cover 2.
        let mut path = Bgp::new();
        path.add(&mut st, "?x", "knows", "?y");
        path.add(&mut st, "?y", "knows", "?z");
        let rep = analyze_bgp(&st, &path, None);
        assert!(rep.verdict.acyclic);
        assert_eq!(rep.verdict.variables, 3);
        assert_eq!(rep.verdict.agm_exponent, 2.0);

        // Triangle: cyclic, tight AGM exponent 1.5.
        let mut tri = Bgp::new();
        tri.add(&mut st, "?a", "knows", "?b");
        tri.add(&mut st, "?b", "knows", "?c");
        tri.add(&mut st, "?c", "knows", "?a");
        let rep2 = analyze_bgp(&st, &tri, None);
        assert!(!rep2.verdict.acyclic);
        assert_eq!(rep2.verdict.agm_exponent, 1.5);
        assert!(rep2.verdict.render().contains("cyclic"));
        assert!(rep2.verdict.render().contains("1.5"));

        // Single pattern: acyclic, exponent 1.
        let mut one = Bgp::new();
        one.add(&mut st, "?x", "knows", "?y");
        let rep3 = analyze_bgp(&st, &one, None);
        assert!(rep3.verdict.acyclic);
        assert_eq!(rep3.verdict.agm_exponent, 1.0);
    }
}
