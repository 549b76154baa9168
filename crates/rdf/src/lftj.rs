//! Leapfrog triejoin: a worst-case optimal join engine for BGPs.
//!
//! The backtracking matcher in [`crate::bgp`] evaluates one pattern at a
//! time, so a cyclic join like the triangle `(?a,k,?b)(?b,k,?c)(?c,k,?a)`
//! enumerates Θ(n²) intermediate pairs even when the answer is tiny. The
//! worst-case optimal alternative (Veldhuizen's leapfrog triejoin, the
//! engine design MillenniumDB builds on) evaluates **variable at a time**:
//! a global variable elimination order `v₁ < v₂ < …` is fixed, every
//! pattern exposes its matching triples as a *trie* keyed in that order
//! (possible for any order because [`crate::store::TripleStore`] keeps
//! all six sorted orderings), and level `i` intersects the `vᵢ`-columns
//! of every pattern containing `vᵢ` by leapfrogging: repeatedly seeking
//! each iterator to the maximum current key until all agree. Each seek is
//! a galloping search on a sorted array, so the total work is bounded by
//! the AGM fractional-cover bound on the output size — `O(n^{3/2})` for
//! the triangle instead of `Θ(n²)`.
//!
//! * [`plan`] picks the variable order greedily from **exact** prefix
//!   cardinalities (two `partition_point`s per estimate) and detects
//!   provably-empty queries before execution; [`plan_sketched`] orders by
//!   store statistics instead, with the same access paths. [`Plan::render`]
//!   is the `--explain` surface.
//! * Every execution — rows or count, governed or not — runs one front
//!   (plan verification, the empty and all-constant cases, the filtered
//!   tables) and one `leapfrog` intersection. Rows run on
//!   [`kgq_core::parallel::partitioned`], the scan under every parallel
//!   engine: the first join variable's matched domain is split into
//!   contiguous chunks, one part per chunk with private cursors, and parts
//!   are concatenated in domain order, so the output is byte-identical for
//!   any thread count.
//! * Under a [`Governor`], every seek and next ticks it through a batched
//!   [`Ticker`], rows are charged to a [`MemMeter`] and admitted to the
//!   result budget at the merge, and exhaustion returns an exact-prefix
//!   [`Governed`] `Partial` cut at the first interrupted part, exactly
//!   like the kernel scans in `kgq-core`.

use crate::analyze::pattern_text;
use crate::bgp::{Bgp, Binding, TermPattern, TriplePattern, VarName};
use crate::sketch::{chain_hash, StoreSketch, XorConstraint, ROOT_HASH};
use crate::store::{IndexOrder, TripleStore};
use kgq_core::govern::{EvalError, Governed, Governor, Interrupt, MemMeter, Ticker};
use kgq_core::parallel::{effective_threads, partitioned, ungoverned};
use kgq_graph::Sym;
use std::ops::Range;

/// How one triple pattern participates in the join.
#[derive(Clone, Debug)]
pub struct PatternPlan {
    /// The sorted ordering whose key columns put this pattern's constants
    /// first and its variables in elimination order; `None` when the
    /// pattern repeats a variable and is materialized instead.
    pub order: Option<IndexOrder>,
    /// Constant values in the ordering's leading columns.
    consts: Vec<Sym>,
    /// Global variable levels this pattern joins on, ascending; trie
    /// depth `d` binds the variable at `levels[d]`.
    pub levels: Vec<usize>,
    /// Exact number of triples matching the constant positions — the
    /// planner's cost estimate (an upper bound for filtered patterns).
    pub cardinality: usize,
    /// True when a variable occurs twice in the pattern: the trie is a
    /// materialized, filtered projection rather than an index range.
    pub filtered: bool,
}

/// A query plan: variable elimination order plus per-pattern access paths.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The variable elimination order; answer rows use this column order.
    pub vars: Vec<VarName>,
    /// One entry per BGP pattern, in input order.
    pub patterns: Vec<PatternPlan>,
    /// Per-variable exact prefix count at the moment the greedy planner
    /// chose it: the smallest cardinality over the patterns containing
    /// the variable. Parallel to `vars`.
    pub var_cards: Vec<usize>,
    /// `Some(reason)` when the BGP is provably empty before execution
    /// (a constant prefix matches nothing).
    pub empty: Option<String>,
}

impl Plan {
    /// Human-readable plan report — the `--explain` surface: chosen
    /// variable order, per-pattern index ordering and exact cardinality,
    /// and the provably-empty short-circuit when it applies.
    pub fn render(&self, st: &TripleStore, bgp: &Bgp) -> String {
        let mut out = String::from("plan: leapfrog triejoin\n");
        if self.vars.is_empty() {
            out.push_str("  variable order: (none)\n");
        } else {
            // Each variable carries the exact prefix count that drove its
            // greedy selection — the planner's own cost evidence.
            let vars: Vec<String> = self
                .vars
                .iter()
                .enumerate()
                .map(|(i, v)| match self.var_cards.get(i) {
                    Some(c) => format!("?{v} (card {c})"),
                    None => format!("?{v}"),
                })
                .collect();
            out.push_str(&format!("  variable order: {}\n", vars.join(" < ")));
        }
        for (pat, pp) in bgp.patterns.iter().zip(&self.patterns) {
            let access = match pp.order {
                Some(o) => format!("index {}", o.name()),
                None => "materialized".to_owned(),
            };
            out.push_str(&format!(
                "  {:<40} {:<14} card {}\n",
                pattern_text(st, pat),
                access,
                pp.cardinality
            ));
        }
        if let Some(reason) = &self.empty {
            out.push_str(&format!("  provably empty: {reason}\n"));
        }
        out
    }
}

/// Per-pattern shape extracted once: which positions are constants and
/// which variable id each variable position binds.
struct PatternInfo {
    /// `(triple position, value)` for constant positions.
    const_pos: Vec<(usize, Sym)>,
    /// `(triple position, variable id)` for variable positions.
    var_pos: Vec<(usize, usize)>,
    /// Distinct variable ids, in appearance order.
    var_ids: Vec<usize>,
    /// True when some variable id occurs in two or more positions.
    repeated: bool,
}

/// Extracts the variable universe (first-appearance order) and per-
/// pattern shapes shared by both planners.
fn shapes(bgp: &Bgp) -> (Vec<VarName>, Vec<PatternInfo>) {
    let mut vars: Vec<VarName> = Vec::new();
    let mut infos: Vec<PatternInfo> = Vec::new();
    for pat in &bgp.patterns {
        let mut info = PatternInfo {
            const_pos: Vec::new(),
            var_pos: Vec::new(),
            var_ids: Vec::new(),
            repeated: false,
        };
        for (pos, term) in [&pat.s, &pat.p, &pat.o].into_iter().enumerate() {
            match term {
                TermPattern::Const(c) => info.const_pos.push((pos, *c)),
                TermPattern::Var(name) => {
                    let id = match vars.iter().position(|v| v == name) {
                        Some(i) => i,
                        None => {
                            vars.push(name.clone());
                            vars.len() - 1
                        }
                    };
                    if info.var_ids.contains(&id) {
                        info.repeated = true;
                    } else {
                        info.var_ids.push(id);
                    }
                    info.var_pos.push((pos, id));
                }
            }
        }
        infos.push(info);
    }
    (vars, infos)
}

/// Exact cardinality of each pattern's constant positions (for a
/// repeated-variable pattern this is an upper bound, still sound for
/// both ordering and the emptiness short-circuit), plus the provably-
/// empty reason when some pattern matches nothing.
fn exact_cards(st: &TripleStore, bgp: &Bgp, infos: &[PatternInfo]) -> (Vec<usize>, Option<String>) {
    let mut empty = None;
    let mut cards = Vec::with_capacity(infos.len());
    for (info, pat) in infos.iter().zip(&bgp.patterns) {
        let at = |p: usize| {
            info.const_pos
                .iter()
                .find(|(q, _)| *q == p)
                .map(|(_, v)| *v)
        };
        let card = st.count(at(0), at(1), at(2));
        if card == 0 && empty.is_none() {
            empty = Some(format!(
                "pattern {} matches no triple",
                pattern_text(st, pat)
            ));
        }
        cards.push(card);
    }
    (cards, empty)
}

/// Chooses the global variable elimination order and per-pattern access
/// paths from exact prefix cardinalities.
pub fn plan(st: &TripleStore, bgp: &Bgp) -> Plan {
    let (vars, infos) = shapes(bgp);
    let (cards, empty) = exact_cards(st, bgp, &infos);

    // Greedy elimination order: prefer variables connected to the prefix
    // chosen so far (avoids cartesian interleaving), then the smallest
    // min-cardinality over containing patterns, then higher pattern
    // coverage, then first appearance.
    let nvars = vars.len();
    let mut order: Vec<usize> = Vec::with_capacity(nvars);
    let mut var_cards: Vec<usize> = Vec::with_capacity(nvars);
    let mut placed = vec![false; nvars];
    while order.len() < nvars {
        let mut best: Option<(usize, usize, usize, usize)> = None;
        let mut best_var = 0usize;
        for v in 0..nvars {
            if placed[v] {
                continue;
            }
            let mut connected = false;
            let mut min_card = usize::MAX;
            let mut coverage = 0usize;
            for (info, &card) in infos.iter().zip(&cards) {
                if !info.var_ids.contains(&v) {
                    continue;
                }
                coverage += 1;
                min_card = min_card.min(card);
                if info.var_ids.iter().any(|u| placed[*u]) || !info.const_pos.is_empty() {
                    connected = true;
                }
            }
            let score = (usize::from(!connected), min_card, usize::MAX - coverage, v);
            if best.is_none_or(|b| score < b) {
                best = Some(score);
                best_var = v;
            }
        }
        placed[best_var] = true;
        order.push(best_var);
        // Record the winning variable's smallest containing-pattern count
        // — the exact cardinality evidence the choice was based on.
        var_cards.push(best.map(|(_, card, _, _)| card).unwrap_or(0));
    }
    assemble(vars, &infos, &cards, order, var_cards, empty)
}

/// Builds the per-pattern access paths for a chosen elimination order —
/// the shared back half of both planners. The access-path rules (consts
/// first, variables ascending by level, repeated-variable patterns
/// materialized) are what [`verify_plan`] re-checks, so any order
/// produced here yields a verifiable plan.
fn assemble(
    vars: Vec<VarName>,
    infos: &[PatternInfo],
    cards: &[usize],
    order: Vec<usize>,
    var_cards: Vec<usize>,
    empty: Option<String>,
) -> Plan {
    let level_of = |id: usize| -> usize { order.iter().position(|&v| v == id).unwrap_or(0) };

    // Per-pattern access path.
    let mut patterns = Vec::with_capacity(infos.len());
    for (info, &card) in infos.iter().zip(cards.iter()) {
        let mut levels: Vec<usize> = info.var_ids.iter().map(|&id| level_of(id)).collect();
        levels.sort_unstable();
        if info.repeated {
            patterns.push(PatternPlan {
                order: None,
                consts: Vec::new(),
                levels,
                cardinality: card,
                filtered: true,
            });
            continue;
        }
        // Key columns: constants first (any internal order — they are all
        // fully bound), then variable positions by elimination level.
        let mut perm: Vec<usize> = info.const_pos.iter().map(|(p, _)| *p).collect();
        let consts: Vec<Sym> = info.const_pos.iter().map(|(_, v)| *v).collect();
        let mut var_cols: Vec<(usize, usize)> = info
            .var_pos
            .iter()
            .map(|&(pos, id)| (level_of(id), pos))
            .collect();
        var_cols.sort_unstable();
        perm.extend(var_cols.iter().map(|&(_, pos)| pos));
        let mut perm3 = [0usize; 3];
        perm3.copy_from_slice(&perm);
        patterns.push(PatternPlan {
            order: Some(IndexOrder::from_perm(perm3)),
            consts,
            levels,
            cardinality: card,
            filtered: false,
        });
    }

    Plan {
        vars: order.into_iter().map(|id| vars[id].clone()).collect(),
        patterns,
        var_cards,
        empty,
    }
}

/// One elimination level's cost-model evidence from the sketch planner:
/// the estimated extensions per already-bound prefix, the cumulative
/// prefix-count estimate after this level, and which statistic supplied
/// the figure.
#[derive(Clone, Debug)]
pub struct LevelEstimate {
    /// The variable chosen at this level.
    pub var: VarName,
    /// Estimated extensions per bound prefix.
    pub ext: f64,
    /// Estimated prefixes after binding this variable (product of `ext`
    /// down the order so far).
    pub prefixes: f64,
    /// Which statistic the estimate came from.
    pub basis: String,
}

/// A sketch-planned [`Plan`] plus the per-level estimates that justified
/// the order — surfaced by `--explain`.
#[derive(Clone, Debug)]
pub struct SketchPlan {
    /// The executable plan (same invariants as the greedy planner's;
    /// passes [`verify_plan`]).
    pub plan: Plan,
    /// Per-level cost-model evidence, parallel to `plan.vars`.
    pub estimates: Vec<LevelEstimate>,
}

impl SketchPlan {
    /// Renders the per-level estimates for `--explain`.
    pub fn render_estimates(&self) -> String {
        let mut out = String::new();
        if self.estimates.is_empty() {
            return out;
        }
        out.push_str("  sketch estimates:\n");
        for (i, e) in self.estimates.iter().enumerate() {
            out.push_str(&format!(
                "    level {i}: ?{} ext ~{:.1}, prefixes ~{:.1} [{}]\n",
                e.var, e.ext, e.prefixes, e.basis
            ));
        }
        out
    }

    /// The final cumulative prefix estimate — an answer-count estimate.
    pub fn est_answers(&self) -> Option<f64> {
        self.estimates.last().map(|e| e.prefixes)
    }
}

/// Estimated extensions for candidate variable `v` through one pattern,
/// given the set of already-placed variables: the two-level cost model's
/// per-pattern term. Returns the estimate, the statistic it used, and —
/// when the pattern binds `v` with nothing else bound — the ordering
/// whose leading-column bitmap can refine the estimate by intersection.
fn sketch_ext(
    sk: &StoreSketch,
    info: &PatternInfo,
    placed: &[bool],
    v: usize,
) -> (f64, &'static str, Option<IndexOrder>) {
    let vpos = info
        .var_pos
        .iter()
        .find(|&&(_, id)| id == v)
        .map(|&(p, _)| p)
        .unwrap_or(0);
    // Bound key columns ahead of v: constants first (their values feed
    // the heavy-hitter lookup), then already-placed variable positions.
    let mut bound: Vec<(usize, Option<Sym>)> =
        info.const_pos.iter().map(|&(p, c)| (p, Some(c))).collect();
    for &(p, id) in &info.var_pos {
        if id != v && placed[id] && !bound.iter().any(|&(q, _)| q == p) {
            bound.push((p, None));
        }
    }
    bound.truncate(2);
    match bound.len() {
        0 => {
            let o = match vpos {
                0 => IndexOrder::Spo,
                1 => IndexOrder::Pso,
                _ => IndexOrder::Osp,
            };
            (sk.ext_estimate(o, 0, None), "distinct", Some(o))
        }
        1 => {
            let (b, c) = bound[0];
            let rest = 3 - b - vpos;
            let o = IndexOrder::from_perm([b, vpos, rest]);
            let basis = if c.is_some() { "heavy@1" } else { "avg@1" };
            (sk.ext_estimate(o, 1, c), basis, None)
        }
        _ => {
            let (b0, c0) = bound[0];
            let (b1, _) = bound[1];
            let o = IndexOrder::from_perm([b0, b1, vpos]);
            (sk.ext_estimate(o, 2, c0), "fanout@2", None)
        }
    }
}

/// Sketch-driven planner: same pattern shapes, exact cardinalities and
/// access-path assembly as [`plan`], but the elimination order is chosen
/// by a two-level cost model — per-candidate estimated extensions from
/// the [`StoreSketch`] (distinct counts, per-value heavy-hitter degrees,
/// leading-column bitmap intersections), still preferring connected
/// variables and capped by the exact min-cardinality. The sketches only
/// influence *order*; recorded cardinalities stay exact, so the result
/// passes [`verify_plan`] by construction.
pub fn plan_sketched(st: &TripleStore, sk: &StoreSketch, bgp: &Bgp) -> SketchPlan {
    let (vars, infos) = shapes(bgp);
    let (cards, empty) = exact_cards(st, bgp, &infos);

    let nvars = vars.len();
    let mut order: Vec<usize> = Vec::with_capacity(nvars);
    let mut var_cards: Vec<usize> = Vec::with_capacity(nvars);
    let mut estimates: Vec<LevelEstimate> = Vec::with_capacity(nvars);
    let mut placed = vec![false; nvars];
    let mut prefixes = 1.0f64;
    while order.len() < nvars {
        // (¬connected, ⌈log₂ ext⌉, coverage, exact min-card,
        // appearance) — the greedy score's lexicographic shape with the
        // sketch estimate inserted as a powers-of-two band. Bands, not
        // raw estimates: sketch evidence is order-of-magnitude evidence
        // (distinct counts conflate candidate-set size with downstream
        // intersection work), so only a genuine magnitude gap overrides
        // greedy's coverage/appearance tie-breaks. Where every band
        // ties, the order degenerates to exactly the greedy oracle's —
        // the sketch planner is a strict refinement, which is what keeps
        // it from ever regressing materially against greedy.
        let mut best: Option<(usize, i64, usize, usize, usize)> = None;
        let mut best_basis = "";
        let mut best_ext = 0.0f64;
        for v in 0..nvars {
            if placed[v] {
                continue;
            }
            let mut connected = false;
            let mut min_card = usize::MAX;
            let mut coverage = 0usize;
            let mut ext = f64::INFINITY;
            let mut basis = "";
            let mut leads: Vec<IndexOrder> = Vec::new();
            for (info, &card) in infos.iter().zip(cards.iter()) {
                if !info.var_ids.contains(&v) {
                    continue;
                }
                coverage += 1;
                min_card = min_card.min(card);
                if info.var_ids.iter().any(|u| placed[*u]) || !info.const_pos.is_empty() {
                    connected = true;
                }
                let (e, b, lead) = sketch_ext(sk, info, &placed, v);
                if let Some(o) = lead {
                    leads.push(o);
                }
                if e < ext {
                    ext = e;
                    basis = b;
                }
            }
            // Two unconstrained patterns meeting on v: the candidate set
            // is (at most) the intersection of their leading columns.
            if leads.len() >= 2 {
                let mut inter = f64::INFINITY;
                for i in 0..leads.len() {
                    for j in i + 1..leads.len() {
                        let a = &sk.ordering(leads[i]).col0;
                        let b = &sk.ordering(leads[j]).col0;
                        inter = inter.min(a.intersect_estimate(b));
                    }
                }
                if inter < ext {
                    ext = inter.max(1.0);
                    basis = "bitmap-cap";
                }
            }
            // The exact pattern cardinality is a hard upper bound on
            // extensions; never let an estimate exceed it.
            if (min_card as f64) < ext {
                ext = min_card as f64;
                basis = "card-cap";
            }
            let band = ext.max(1.0).log2().ceil() as i64;
            let score = (
                usize::from(!connected),
                band,
                usize::MAX - coverage,
                min_card,
                v,
            );
            if best.is_none_or(|b| score < b) {
                best = Some(score);
                best_basis = basis;
                best_ext = ext;
            }
        }
        let (ext, (_, _, _, min_card, v)) = (best_ext, best.unwrap_or((0, 0, 0, 0, 0)));
        placed[v] = true;
        order.push(v);
        var_cards.push(min_card);
        prefixes = (prefixes * ext.max(if min_card == 0 { 0.0 } else { 1.0 })).min(1e18);
        estimates.push(LevelEstimate {
            var: vars[v].clone(),
            ext,
            prefixes,
            basis: best_basis.to_owned(),
        });
    }

    SketchPlan {
        plan: assemble(vars, &infos, &cards, order, var_cards, empty),
        estimates,
    }
}

/// Independent soundness check of a [`Plan`] against the BGP and store it
/// claims to serve, re-deriving the elimination order's validity from
/// scratch: the variable order must be a permutation of the BGP's
/// variables, every indexed pattern's key columns must put its constants
/// first and its variables in ascending elimination order (the legal
/// prefix condition leapfrogging relies on), filtered flags must match
/// repeated-variable shapes, and recorded cardinalities must equal the
/// store's exact counts. Every execution calls this before joining, so
/// a planner bug surfaces as a structured [`EvalError::PlanUnsound`]
/// instead of wrong answers.
pub fn verify_plan(st: &TripleStore, bgp: &Bgp, plan: &Plan) -> Result<(), String> {
    if plan.patterns.len() != bgp.patterns.len() {
        return Err(format!(
            "plan covers {} patterns but the BGP has {}",
            plan.patterns.len(),
            bgp.patterns.len()
        ));
    }
    // The elimination order must list each BGP variable exactly once.
    let mut bgp_vars: Vec<&VarName> = Vec::new();
    for pat in &bgp.patterns {
        for t in [&pat.s, &pat.p, &pat.o] {
            if let TermPattern::Var(v) = t {
                if !bgp_vars.contains(&v) {
                    bgp_vars.push(v);
                }
            }
        }
    }
    for (i, v) in plan.vars.iter().enumerate() {
        if plan.vars[..i].contains(v) {
            return Err(format!(
                "variable ?{v} appears twice in the elimination order"
            ));
        }
    }
    if plan.vars.len() != bgp_vars.len() || bgp_vars.iter().any(|v| !plan.vars.contains(v)) {
        return Err(format!(
            "elimination order [{}] is not a permutation of the BGP's variables",
            plan.vars.join(", ")
        ));
    }
    if !plan.var_cards.is_empty() && plan.var_cards.len() != plan.vars.len() {
        return Err(format!(
            "{} per-variable cardinalities recorded for {} variables",
            plan.var_cards.len(),
            plan.vars.len()
        ));
    }
    let level_of = |name: &VarName| plan.vars.iter().position(|v| v == name);

    let mut saw_zero_card = false;
    for (idx, (pat, pp)) in bgp.patterns.iter().zip(&plan.patterns).enumerate() {
        // Re-derive the pattern's shape.
        let terms = [&pat.s, &pat.p, &pat.o];
        let mut const_pos: Vec<(usize, Sym)> = Vec::new();
        let mut var_levels: Vec<(usize, usize)> = Vec::new(); // (position, level)
        let mut levels: Vec<usize> = Vec::new();
        let mut repeated = false;
        for (pos, t) in terms.into_iter().enumerate() {
            match t {
                TermPattern::Const(c) => const_pos.push((pos, *c)),
                TermPattern::Var(name) => {
                    let Some(l) = level_of(name) else {
                        return Err(format!(
                            "pattern {idx}: variable ?{name} is missing from the elimination order"
                        ));
                    };
                    if levels.contains(&l) {
                        repeated = true;
                    } else {
                        levels.push(l);
                    }
                    var_levels.push((pos, l));
                }
            }
        }
        levels.sort_unstable();
        if pp.levels != levels {
            return Err(format!(
                "pattern {idx}: plan joins on levels {:?}, pattern binds {:?}",
                pp.levels, levels
            ));
        }
        if pp.filtered != repeated {
            return Err(format!(
                "pattern {idx}: filtered={} but the pattern {} a repeated variable",
                pp.filtered,
                if repeated { "has" } else { "does not have" }
            ));
        }
        match pp.order {
            None => {
                if !repeated {
                    return Err(format!(
                        "pattern {idx}: no repeated variable, yet the plan materializes it"
                    ));
                }
            }
            Some(order) => {
                if repeated {
                    return Err(format!(
                        "pattern {idx}: repeated variable must be materialized, not indexed"
                    ));
                }
                let perm = order.perm();
                if pp.consts.len() != const_pos.len() {
                    return Err(format!(
                        "pattern {idx}: {} constants recorded, pattern has {}",
                        pp.consts.len(),
                        const_pos.len()
                    ));
                }
                // Leading key columns: the constants, value-matched.
                for (k, &col) in perm.iter().enumerate().take(const_pos.len()) {
                    let Some(&(_, val)) = const_pos.iter().find(|&&(p, _)| p == col) else {
                        return Err(format!(
                            "pattern {idx}: key column {k} of index {} is not a constant position",
                            order.name()
                        ));
                    };
                    if pp.consts[k] != val {
                        return Err(format!(
                            "pattern {idx}: constant {k} mismatches the pattern's value",
                        ));
                    }
                }
                // Remaining key columns: variable positions in strictly
                // ascending elimination level — the legal prefix order.
                let mut prev: Option<usize> = None;
                for &pos in perm.iter().skip(const_pos.len()) {
                    let Some(&(_, l)) = var_levels.iter().find(|&&(p, _)| p == pos) else {
                        return Err(format!(
                            "pattern {idx}: key column at position {pos} is not a variable position"
                        ));
                    };
                    if prev.is_some_and(|pl| l <= pl) {
                        return Err(format!(
                            "pattern {idx}: index {} binds variables out of elimination order",
                            order.name()
                        ));
                    }
                    prev = Some(l);
                }
            }
        }
        // Cardinality: must equal the store's exact count.
        let at = |p: usize| match terms[p] {
            TermPattern::Const(c) => Some(*c),
            TermPattern::Var(_) => None,
        };
        let card = st.count(at(0), at(1), at(2));
        if pp.cardinality != card {
            return Err(format!(
                "pattern {idx}: recorded cardinality {} but the store counts {}",
                pp.cardinality, card
            ));
        }
        saw_zero_card |= card == 0;
    }
    if plan.empty.is_some() && !saw_zero_card {
        return Err("plan claims emptiness but every pattern has matches".to_owned());
    }
    Ok(())
}

/// One pattern's trie surface: sorted rows, the column of its first
/// variable level, and the base row range matching its constants.
#[derive(Clone)]
struct TrieSpec<'a> {
    rows: &'a [[Sym; 3]],
    first_col: usize,
    base: Range<usize>,
    levels: Vec<usize>,
}

/// A trie cursor: per-open-depth candidate ranges over the sorted rows.
/// `seek`/`next` gallop (exponential probe + binary search) within the
/// current depth's range, so a full leapfrog intersection does work
/// proportional to the smallest column, not the largest.
struct Cursor<'a> {
    rows: &'a [[Sym; 3]],
    first_col: usize,
    lo: Vec<usize>,
    hi: Vec<usize>,
    pos: Vec<usize>,
}

/// First index in `[from, hi)` whose `col` value fails `pred`, where
/// `pred` holds on a (possibly empty) prefix of the range.
#[inline]
fn gallop(
    rows: &[[Sym; 3]],
    col: usize,
    from: usize,
    hi: usize,
    pred: impl Fn(Sym) -> bool,
) -> usize {
    if from >= hi || !pred(rows[from][col]) {
        return from;
    }
    let mut bound = 1usize;
    while from + bound < hi && pred(rows[from + bound][col]) {
        bound <<= 1;
    }
    let wlo = from + bound / 2;
    let whi = (from + bound).min(hi);
    wlo + rows[wlo..whi].partition_point(|r| pred(r[col]))
}

impl<'a> Cursor<'a> {
    fn new(spec: &TrieSpec<'a>) -> Cursor<'a> {
        Cursor {
            rows: spec.rows,
            first_col: spec.first_col,
            lo: vec![spec.base.start],
            hi: vec![spec.base.end],
            pos: vec![spec.base.start],
        }
    }

    #[inline]
    fn depth(&self) -> usize {
        self.pos.len() - 1
    }

    #[inline]
    fn col(&self) -> usize {
        self.first_col + self.depth()
    }

    #[inline]
    fn at_end(&self) -> bool {
        let d = self.depth();
        self.pos[d] >= self.hi[d]
    }

    /// Current key at the open depth. Only valid when not [`Cursor::at_end`].
    #[inline]
    fn key(&self) -> Sym {
        self.rows[self.pos[self.depth()]][self.col()]
    }

    /// Positions at the first key `>= v` within the current depth's range.
    #[inline]
    fn seek(&mut self, v: Sym) {
        let d = self.depth();
        let col = self.col();
        self.pos[d] = gallop(self.rows, col, self.pos[d], self.hi[d], |x| x < v);
    }

    /// Advances past the current key.
    #[inline]
    fn next(&mut self) {
        let v = self.key();
        let d = self.depth();
        let col = self.col();
        self.pos[d] = gallop(self.rows, col, self.pos[d], self.hi[d], |x| x <= v);
    }

    /// Descends into key `v`, a level-0 candidate this cursor is known
    /// to hold at or after its position.
    fn open_at(&mut self, v: Sym) {
        let d = self.depth();
        self.pos[d] = gallop(self.rows, self.col(), self.pos[d], self.hi[d], |x| x < v);
        debug_assert!(!self.at_end() && self.key() == v);
        self.open();
    }

    /// Descends into the current key's run of rows.
    fn open(&mut self) {
        let d = self.depth();
        let col = self.col();
        let p = self.pos[d];
        let v = self.rows[p][col];
        let end = gallop(self.rows, col, p, self.hi[d], |x| x <= v);
        self.lo.push(p);
        self.hi.push(end);
        self.pos.push(p);
    }

    /// Pops back to the parent depth.
    fn up(&mut self) {
        self.lo.pop();
        self.hi.pop();
        self.pos.pop();
    }

    /// Rewinds the open depth to the start of its range — the leapfrog
    /// init step. A cursor whose range was opened under an *earlier*
    /// binding of the parent levels has been advanced forward; each
    /// re-entry of a join level must restart its iteration.
    #[inline]
    fn reset(&mut self) {
        let d = self.depth();
        self.pos[d] = self.lo[d];
    }
}

/// The compiled join: trie surfaces plus, per level, which patterns
/// participate in that level's intersection.
struct Engine<'a> {
    specs: Vec<TrieSpec<'a>>,
    level_parts: Vec<Vec<usize>>,
    nvars: usize,
}

/// Materializes the filtered trie of a repeated-variable pattern: scan
/// the constants' range, keep rows where every occurrence of a variable
/// agrees, project to the pattern's levels (padded with `Sym(0)`).
fn materialize_filtered(
    st: &TripleStore,
    pat: &TriplePattern,
    levels: &[usize],
    var_level: impl Fn(&str) -> usize,
) -> Vec<[Sym; 3]> {
    let bound = |t: &TermPattern| match t {
        TermPattern::Const(c) => Some(*c),
        TermPattern::Var(_) => None,
    };
    let terms = [&pat.s, &pat.p, &pat.o];
    let mut rows = Vec::new();
    'outer: for t in st.scan(bound(&pat.s), bound(&pat.p), bound(&pat.o)) {
        let mut key = [Sym(0); 3];
        for (d, &lvl) in levels.iter().enumerate() {
            let mut val: Option<Sym> = None;
            for (pos, term) in terms.into_iter().enumerate() {
                if let TermPattern::Var(name) = term {
                    if var_level(name) == lvl {
                        let x = t.position(pos);
                        match val {
                            None => val = Some(x),
                            Some(y) if y != x => continue 'outer,
                            Some(_) => {}
                        }
                    }
                }
            }
            key[d] = val.unwrap_or(Sym(0));
        }
        rows.push(key);
    }
    rows.sort_unstable();
    rows.dedup();
    rows
}

impl<'a> Engine<'a> {
    fn build(st: &'a TripleStore, plan: &Plan, tables: &'a [Vec<[Sym; 3]>]) -> Engine<'a> {
        let mut specs = Vec::with_capacity(plan.patterns.len());
        let mut table_i = 0usize;
        for pp in &plan.patterns {
            let spec = match pp.order {
                Some(order) => TrieSpec {
                    rows: st.order(order),
                    first_col: pp.consts.len(),
                    base: st.prefix_range(order, &pp.consts),
                    levels: pp.levels.clone(),
                },
                None => {
                    let rows = &tables[table_i];
                    table_i += 1;
                    TrieSpec {
                        rows,
                        first_col: 0,
                        base: 0..rows.len(),
                        levels: pp.levels.clone(),
                    }
                }
            };
            specs.push(spec);
        }
        let mut level_parts = vec![Vec::new(); plan.vars.len()];
        for (pi, spec) in specs.iter().enumerate() {
            for &lvl in &spec.levels {
                level_parts[lvl].push(pi);
            }
        }
        Engine {
            specs,
            level_parts,
            nvars: plan.vars.len(),
        }
    }

    /// Fresh cursors, one per pattern, at the roots of their tries.
    fn cursors(&self) -> Vec<Cursor<'a>> {
        self.specs.iter().map(Cursor::new).collect()
    }
}

/// Filtered (repeated-variable) pattern tables, materialized once and
/// shared by every worker. Their memory charge is released on drop, so a
/// governor reused across runs (the approximate counter's search, a
/// fixpoint's rounds) carries only the tables that are still alive.
struct Tables<'g> {
    rows: Vec<Vec<[Sym; 3]>>,
    gov: Option<&'g Governor>,
    charged: u64,
}

impl Drop for Tables<'_> {
    fn drop(&mut self) {
        if let Some(gov) = self.gov {
            gov.release_memory(self.charged);
        }
    }
}

/// How [`front`] settled a plan before any join work.
enum Front<'g> {
    /// A constant prefix matches nothing: no answers.
    Empty,
    /// All-constant patterns, all present (the planner short-circuits
    /// misses): exactly one empty binding, like the empty BGP.
    Unit,
    /// Charging a filtered table tripped the governor.
    Tripped(Interrupt),
    /// Join over these filtered tables.
    Join(Tables<'g>),
}

/// The front every execution shares. It re-derives the plan's validity
/// independently of the planner (O(patterns × vars), negligible next to
/// the join), so a planner bug surfaces as [`EvalError::PlanUnsound`]
/// instead of wrong answers. It then settles the empty and all-constant
/// cases and materializes the filtered tables under the memory budget.
fn front<'g>(
    st: &TripleStore,
    bgp: &Bgp,
    plan: &Plan,
    gov: Option<&'g Governor>,
) -> Result<Front<'g>, EvalError> {
    verify_plan(st, bgp, plan).map_err(EvalError::PlanUnsound)?;
    if plan.empty.is_some() {
        return Ok(Front::Empty);
    }
    if plan.vars.is_empty() {
        return Ok(Front::Unit);
    }
    let var_level = |name: &str| plan.vars.iter().position(|v| v == name).unwrap_or(0);
    let mut tables = Tables {
        rows: Vec::new(),
        gov,
        charged: 0,
    };
    for (pp, pat) in plan.patterns.iter().zip(&bgp.patterns) {
        if pp.filtered {
            let rows = materialize_filtered(st, pat, &pp.levels, var_level);
            if let Some(gov) = gov {
                // A failed charge is still counted, so it is released too.
                let bytes = (rows.len() * 24 + 24) as u64;
                tables.charged += bytes;
                if let Err(why) = gov.charge_memory(bytes) {
                    return Ok(Front::Tripped(why));
                }
            }
            tables.rows.push(rows);
        }
    }
    Ok(Front::Join(tables))
}

/// The leapfrog intersection: seeks every cursor in `parts` to the
/// largest current key until all agree, ticking once per seek. Returns
/// the agreed key, or `None` once some cursor runs out. Inlined into
/// each caller, so every loop over it compiles as if written out in place.
#[inline(always)]
fn leapfrog(
    cursors: &mut [Cursor],
    parts: &[usize],
    ticker: &mut Ticker,
) -> Result<Option<Sym>, Interrupt> {
    loop {
        let mut max = Sym(0);
        for &pi in parts {
            if cursors[pi].at_end() {
                return Ok(None);
            }
            max = max.max(cursors[pi].key());
        }
        let mut all_eq = true;
        for &pi in parts {
            if cursors[pi].key() < max {
                ticker.tick()?;
                cursors[pi].seek(max);
                if cursors[pi].at_end() {
                    return Ok(None);
                }
                if cursors[pi].key() != max {
                    all_eq = false;
                }
            }
        }
        if all_eq {
            return Ok(Some(max));
        }
    }
}

/// Moves the intersection past the key [`leapfrog`] agreed on, ticking
/// once.
#[inline(always)]
fn step(cursors: &mut [Cursor], parts: &[usize], ticker: &mut Ticker) -> Result<(), Interrupt> {
    ticker.tick()?;
    cursors[parts[0]].next();
    Ok(())
}

/// Leapfrogs the first join variable's domain: every value on which all
/// level-0 patterns agree, in ascending order. This is the unit of
/// parallel partitioning.
fn level0_candidates(engine: &Engine, ticker: &mut Ticker) -> Result<Vec<Sym>, Interrupt> {
    let mut cursors = engine.cursors();
    let parts = &engine.level_parts[0];
    let mut vals = Vec::new();
    while let Some(v) = leapfrog(&mut cursors, parts, ticker)? {
        vals.push(v);
        step(&mut cursors, parts, ticker)?;
    }
    Ok(vals)
}

/// Recursive leapfrog join from `level` down, with all shallower levels
/// already bound and their cursors opened.
fn join_level(
    engine: &Engine,
    cursors: &mut [Cursor],
    level: usize,
    binding: &mut [Sym],
    ticker: &mut Ticker,
    meter: &mut MemMeter,
    out: &mut Vec<Vec<Sym>>,
) -> Result<(), Interrupt> {
    if level == engine.nvars {
        meter.charge((binding.len() * 4 + 24) as u64)?;
        out.push(binding.to_vec());
        return Ok(());
    }
    let parts = &engine.level_parts[level];
    for &pi in parts {
        cursors[pi].reset();
    }
    while let Some(v) = leapfrog(cursors, parts, ticker)? {
        binding[level] = v;
        for &pi in parts {
            cursors[pi].open();
        }
        let r = join_level(engine, cursors, level + 1, binding, ticker, meter, out);
        for &pi in parts {
            cursors[pi].up();
        }
        r?;
        step(cursors, parts, ticker)?;
    }
    Ok(())
}

/// The answer table: variables in elimination order (the row column
/// order) and one row per binding, in the engine's canonical order —
/// lexicographic in the elimination order, identical at any thread count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Solution {
    /// Column names, in elimination order.
    pub vars: Vec<VarName>,
    /// Bound values, one row per answer.
    pub rows: Vec<Vec<Sym>>,
}

impl Solution {
    /// Converts rows to the [`crate::bgp`] binding representation.
    pub fn bindings(&self) -> Vec<Binding> {
        self.rows
            .iter()
            .map(|row| self.vars.iter().cloned().zip(row.iter().copied()).collect())
            .collect()
    }
}

/// Plan-driven execution over `chunks` contiguous partitions of the first
/// variable's domain, governed when `gov` is given.
fn run(
    st: &TripleStore,
    bgp: &Bgp,
    plan: &Plan,
    chunks: usize,
    gov: Option<&Governor>,
) -> Result<Governed<Solution>, EvalError> {
    let solution = |rows| Solution {
        vars: plan.vars.clone(),
        rows,
    };
    let tables = match front(st, bgp, plan, gov)? {
        Front::Empty => return Ok(Governed::complete(solution(Vec::new()))),
        Front::Unit => {
            return Ok(match gov.map(|gov| gov.charge_results(1)) {
                Some(Err(why)) => Governed::partial(solution(Vec::new()), why),
                _ => Governed::complete(solution(vec![Vec::new()])),
            })
        }
        Front::Tripped(why) => return Ok(Governed::partial(solution(Vec::new()), why)),
        Front::Join(tables) => tables,
    };
    let engine = Engine::build(st, plan, &tables.rows);

    // The first join variable's matched domain, then contiguous chunks.
    let mut ticker = Ticker::maybe(gov);
    let candidates = match level0_candidates(&engine, &mut ticker) {
        Ok(c) => c,
        Err(why) => return Ok(Governed::partial(solution(Vec::new()), why)),
    };
    if let Err(why) = ticker.flush() {
        return Ok(Governed::partial(solution(Vec::new()), why));
    }
    // One part per contiguous chunk of that domain, with private cursors;
    // rows a part has computed are admitted to the result budget at the
    // merge, so a later part's step, deadline or cancel trip keeps them.
    let rows = partitioned(candidates.len(), chunks, gov, true, |range, out| {
        #[cfg(feature = "fault-injection")]
        if gov.is_some() {
            kgq_core::govern::fault::hit("lftj::join");
        }
        let mut cursors = engine.cursors();
        let mut ticker = Ticker::maybe(gov);
        let mut meter = MemMeter::maybe(gov);
        let mut binding = vec![Sym(0); engine.nvars];
        let parts = &engine.level_parts[0];
        for &v in &candidates[range] {
            ticker.tick()?;
            for &pi in parts {
                cursors[pi].open_at(v);
            }
            binding[0] = v;
            join_level(
                &engine,
                &mut cursors,
                1,
                &mut binding,
                &mut ticker,
                &mut meter,
                out,
            )?;
            for &pi in parts {
                cursors[pi].up();
            }
        }
        ticker.flush()?;
        meter.flush()
    })?;
    Ok(rows.map(solution))
}

/// Evaluates a BGP with the leapfrog triejoin, parallelized over
/// `KGQ_THREADS` workers (byte-identical output at any thread count).
pub fn solve(st: &TripleStore, bgp: &Bgp) -> Solution {
    solve_planned(st, bgp, &plan(st, bgp), effective_threads())
}

/// Executes a previously computed [`Plan`] (e.g. after rendering it for
/// `--explain`) over `chunks` partitions.
pub fn solve_planned(st: &TripleStore, bgp: &Bgp, plan: &Plan, chunks: usize) -> Solution {
    // Ungoverned runs cannot be interrupted, so an error is a worker's
    // panic or a plan that failed soundness verification — and executing
    // that plan anyway would mean wrong answers.
    ungoverned(run(st, bgp, plan, chunks.max(1), None))
}

/// Governed evaluation: every seek/next ticks the governor at batch
/// granularity, workers are panic-isolated, and exhaustion returns an
/// exact-prefix [`Governed`] `Partial` with the typed interrupt reason.
/// An unlimited governor is byte-identical to [`solve`].
pub fn solve_governed(
    st: &TripleStore,
    bgp: &Bgp,
    gov: &Governor,
) -> Result<Governed<Solution>, EvalError> {
    run(st, bgp, &plan(st, bgp), effective_threads(), Some(gov))
}

/// Governed execution of a caller-supplied plan (e.g. a sketch-driven
/// one) — same verification gate, partitioning and partial semantics as
/// [`solve_governed`].
pub fn solve_planned_governed(
    st: &TripleStore,
    bgp: &Bgp,
    plan: &Plan,
    gov: &Governor,
) -> Result<Governed<Solution>, EvalError> {
    run(st, bgp, plan, effective_threads(), Some(gov))
}

/// Per-elimination-level XOR constraints for the counting recursion; an
/// answer is counted only if, at every level, its prefix hash satisfies
/// that level's constraints. Empty vectors everywhere means exact
/// counting.
#[derive(Clone, Debug, Default)]
pub struct LevelConstraints {
    /// Constraints applied to the prefix hash at each level.
    pub per_level: Vec<Vec<XorConstraint>>,
}

impl LevelConstraints {
    /// No constraints: the counter is exact.
    pub fn none(nlevels: usize) -> LevelConstraints {
        LevelConstraints {
            per_level: vec![Vec::new(); nlevels],
        }
    }

    /// Total number of constraints across all levels.
    pub fn total(&self) -> u32 {
        self.per_level.iter().map(|l| l.len() as u32).sum()
    }

    fn at(&self, level: usize) -> &[XorConstraint] {
        self.per_level.get(level).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// Why the counting recursion stopped early.
enum CountStop {
    /// The count reached the caller's cap.
    Cap,
    /// The governor tripped.
    Interrupt(Interrupt),
}

impl From<Interrupt> for CountStop {
    fn from(why: Interrupt) -> CountStop {
        CountStop::Interrupt(why)
    }
}

/// Counting twin of [`join_level`]: same leapfrog intersection, but no
/// rows are materialized — matched bindings only bump a counter. Prefix
/// hashes are chained down the recursion so XOR constraints prune whole
/// subtrees at the level they bind. At the deepest level, a
/// single-participant unconstrained intersection is counted as a range
/// length: the remaining candidates of the one cursor are provably
/// distinct (triples are unique, and materialized tables are deduped),
/// so `hi - pos` is the exact extension count without iterating.
#[allow(clippy::too_many_arguments)]
fn count_level(
    engine: &Engine,
    cursors: &mut [Cursor],
    level: usize,
    hash: u64,
    cons: &LevelConstraints,
    cap: u64,
    count: &mut u64,
    ticker: &mut Ticker,
) -> Result<(), CountStop> {
    let parts = &engine.level_parts[level];
    let last = level + 1 == engine.nvars;
    let lcons = cons.at(level);
    for &pi in parts {
        cursors[pi].reset();
    }
    if last && parts.len() == 1 && lcons.is_empty() {
        let pi = parts[0];
        let d = cursors[pi].depth();
        let n = (cursors[pi].hi[d] - cursors[pi].pos[d]) as u64;
        let mut left = n;
        while left > 0 {
            let step = left.min(u64::from(u32::MAX));
            ticker.tick_n(step as u32)?;
            left -= step;
        }
        *count += n;
        if *count >= cap {
            return Err(CountStop::Cap);
        }
        return Ok(());
    }
    while let Some(v) = leapfrog(cursors, parts, ticker)? {
        let h = chain_hash(hash, level, v);
        if lcons.iter().all(|c| c.passes(h)) {
            if last {
                *count += 1;
                if *count >= cap {
                    return Err(CountStop::Cap);
                }
            } else {
                for &pi in parts {
                    cursors[pi].open();
                }
                let r = count_level(engine, cursors, level + 1, h, cons, cap, count, ticker);
                for &pi in parts {
                    cursors[pi].up();
                }
                r?;
            }
        }
        step(cursors, parts, ticker)?;
    }
    Ok(())
}

/// Counts the answers of a planned BGP without materializing them,
/// subject to per-level XOR constraints and an early-exit cap (at least
/// 1). Returns the count (clamped at `cap`) plus the interrupt that
/// stopped it, if any — a tripped run's count is a lower bound on the
/// constrained total. The count is a single scalar, so it is trivially
/// identical at any partition count; the recursion runs single-threaded
/// on one ticker, which is not flushed between level 0 and the rest.
pub(crate) fn count_planned_capped(
    st: &TripleStore,
    bgp: &Bgp,
    plan: &Plan,
    cons: &LevelConstraints,
    cap: u64,
    gov: Option<&Governor>,
) -> Result<(u64, Option<Interrupt>), EvalError> {
    let tables = match front(st, bgp, plan, gov)? {
        Front::Empty => return Ok((0, None)),
        Front::Unit => return Ok((1, None)),
        Front::Tripped(why) => return Ok((0, Some(why))),
        Front::Join(tables) => tables,
    };
    let engine = Engine::build(st, plan, &tables.rows);

    let mut ticker = Ticker::maybe(gov);
    let candidates = match level0_candidates(&engine, &mut ticker) {
        Ok(c) => c,
        Err(why) => return Ok((0, Some(why))),
    };
    let mut cursors = engine.cursors();
    let parts = &engine.level_parts[0];
    let mut count = 0u64;
    let mut tripped: Option<Interrupt> = None;
    for &v in &candidates {
        if let Err(why) = ticker.tick() {
            tripped = Some(why);
            break;
        }
        let h0 = chain_hash(ROOT_HASH, 0, v);
        if !cons.at(0).iter().all(|c| c.passes(h0)) {
            continue;
        }
        if engine.nvars == 1 {
            count += 1;
            if count >= cap {
                break;
            }
            continue;
        }
        for &pi in parts {
            cursors[pi].open_at(v);
        }
        let r = count_level(
            &engine,
            &mut cursors,
            1,
            h0,
            cons,
            cap,
            &mut count,
            &mut ticker,
        );
        for &pi in parts {
            cursors[pi].up();
        }
        match r {
            Ok(()) => {}
            Err(CountStop::Cap) => break,
            Err(CountStop::Interrupt(why)) => {
                tripped = Some(why);
                break;
            }
        }
    }
    if tripped.is_none() {
        if let Err(why) = ticker.flush() {
            tripped = Some(why);
        }
    }
    Ok((count.min(cap), tripped))
}

/// Governed exact count over a caller-supplied plan: `Complete` with the
/// exact count, or `Partial` with the lower bound reached when the
/// budget tripped.
pub fn count_planned_governed(
    st: &TripleStore,
    bgp: &Bgp,
    plan: &Plan,
    gov: &Governor,
) -> Result<Governed<u64>, EvalError> {
    let none = LevelConstraints::none(plan.vars.len());
    let (n, tripped) = count_planned_capped(st, bgp, plan, &none, u64::MAX, Some(gov))?;
    Ok(match tripped {
        None => Governed::complete(n),
        Some(why) => Governed::partial(n, why),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgq_core::govern::Budget;

    fn sample() -> TripleStore {
        let mut st = TripleStore::new();
        st.insert_strs("alice", "knows", "bob");
        st.insert_strs("bob", "knows", "carol");
        st.insert_strs("carol", "knows", "alice");
        st.insert_strs("alice", "type", "Person");
        st.insert_strs("bob", "type", "Person");
        st.insert_strs("carol", "type", "Robot");
        st
    }

    fn sorted_bindings(mut v: Vec<Vec<(String, u32)>>) -> Vec<Vec<(String, u32)>> {
        for b in &mut v {
            b.sort();
        }
        v.sort();
        v
    }

    fn canon(bindings: Vec<Binding>) -> Vec<Vec<(String, u32)>> {
        sorted_bindings(
            bindings
                .into_iter()
                .map(|b| b.into_iter().map(|(k, v)| (k, v.0)).collect())
                .collect(),
        )
    }

    /// The candidate ranges [`partitioned`] hands the leapfrog scan's
    /// parts, in merge order.
    fn part_ranges(len: usize, chunks: usize) -> Vec<Range<usize>> {
        ungoverned(partitioned(len, chunks, None, false, |r, out| {
            out.push(r);
            Ok(())
        }))
    }

    #[test]
    fn chunk_bounds_is_exact_near_usize_max() {
        // Partitions tile the whole range with no overflow, no gaps and
        // no overlap, even when `i * len` exceeds usize::MAX.
        for (len, chunks) in [
            (usize::MAX, 8),
            (usize::MAX - 1, 3),
            (usize::MAX / 2 + 7, 16),
            (1_000_000, 7),
        ] {
            let parts = part_ranges(len, chunks);
            assert_eq!(parts.len(), chunks, "len={len} chunks={chunks}");
            assert_eq!(parts[0].start, 0);
            assert_eq!(parts[chunks - 1].end, len);
            for i in 1..chunks {
                let (prev, cur) = (&parts[i - 1], &parts[i]);
                assert_eq!(prev.end, cur.start, "len={len} chunks={chunks} i={i}");
                assert!(cur.start < cur.end);
            }
        }
    }

    #[test]
    fn chunk_bounds_with_more_chunks_than_items() {
        // chunks > len: every item lands in exactly one non-empty
        // partition and total coverage is still exact.
        let (len, chunks) = (3, 10);
        let parts = part_ranges(len, chunks);
        assert_eq!(parts.len(), len);
        let mut covered = 0;
        for r in &parts {
            assert_eq!(r.start, covered);
            assert!(r.start < r.end && r.end <= len);
            covered = r.end;
        }
        assert_eq!(covered, len);
        // Degenerate but legal: zero items run no part at all.
        assert!(part_ranges(0, 4).is_empty());
    }

    #[test]
    fn triangle_matches_baseline() {
        let mut st = sample();
        let mut q = Bgp::new();
        q.add(&mut st, "?a", "knows", "?b");
        q.add(&mut st, "?b", "knows", "?c");
        q.add(&mut st, "?c", "knows", "?a");
        let fast = solve(&st, &q);
        assert_eq!(fast.rows.len(), 3);
        assert_eq!(canon(fast.bindings()), canon(q.solve_baseline(&st)));
    }

    #[test]
    fn join_with_constants_matches_baseline() {
        let mut st = sample();
        let mut q = Bgp::new();
        q.add(&mut st, "?x", "knows", "?y");
        q.add(&mut st, "?y", "type", "Person");
        let fast = solve(&st, &q);
        assert_eq!(canon(fast.bindings()), canon(q.solve_baseline(&st)));
    }

    #[test]
    fn repeated_variable_pattern() {
        let mut st = sample();
        st.insert_strs("n", "knows", "n");
        let mut q = Bgp::new();
        q.add(&mut st, "?x", "knows", "?x");
        let fast = solve(&st, &q);
        assert_eq!(fast.rows.len(), 1);
        assert_eq!(st.term_str(fast.rows[0][0]), "n");
    }

    #[test]
    fn empty_bgp_yields_one_empty_binding() {
        let st = sample();
        let q = Bgp::new();
        let sol = solve(&st, &q);
        assert_eq!(sol.rows, vec![Vec::new()]);
    }

    #[test]
    fn constant_only_patterns() {
        let mut st = sample();
        let mut q = Bgp::new();
        q.add(&mut st, "alice", "knows", "bob");
        assert_eq!(solve(&st, &q).rows.len(), 1);
        let mut q2 = Bgp::new();
        q2.add(&mut st, "alice", "knows", "carol");
        let plan2 = plan(&st, &q2);
        assert!(plan2.empty.is_some());
        assert!(solve(&st, &q2).rows.is_empty());
    }

    #[test]
    fn partition_counts_agree() {
        let mut st = sample();
        let mut q = Bgp::new();
        q.add(&mut st, "?a", "knows", "?b");
        q.add(&mut st, "?b", "type", "?t");
        let one = solve_planned(&st, &q, &plan(&st, &q), 1);
        for chunks in [2, 3, 4, 16] {
            assert_eq!(one, solve_planned(&st, &q, &plan(&st, &q), chunks));
        }
    }

    #[test]
    fn unlimited_governor_is_identical() {
        let mut st = sample();
        let mut q = Bgp::new();
        q.add(&mut st, "?a", "knows", "?b");
        q.add(&mut st, "?b", "knows", "?c");
        let plain = solve(&st, &q);
        let gov = Governor::unlimited();
        let governed = solve_governed(&st, &q, &gov).expect("governed eval");
        assert!(governed.completion.is_complete());
        assert_eq!(governed.value, plain);
    }

    #[test]
    fn result_budget_yields_exact_prefix() {
        let mut st = sample();
        let mut q = Bgp::new();
        q.add(&mut st, "?a", "knows", "?b");
        let full = solve(&st, &q);
        let gov = Governor::new(&Budget::unlimited().with_max_results(2));
        let partial = solve_governed(&st, &q, &gov).expect("governed eval");
        assert_eq!(
            partial.completion,
            kgq_core::govern::Completion::Partial(Interrupt::ResultBudget)
        );
        assert_eq!(partial.value.rows, full.rows[..2].to_vec());
    }

    #[test]
    fn cancel_token_interrupts() {
        let mut st = sample();
        let mut q = Bgp::new();
        q.add(&mut st, "?a", "knows", "?b");
        let gov = Governor::unlimited();
        gov.cancel_token().cancel();
        let out = solve_governed(&st, &q, &gov).expect("governed eval");
        assert_eq!(
            out.completion,
            kgq_core::govern::Completion::Partial(Interrupt::Cancelled)
        );
    }

    #[test]
    fn explain_renders_order_and_cardinalities() {
        let mut st = sample();
        let mut q = Bgp::new();
        q.add(&mut st, "?x", "knows", "?y");
        q.add(&mut st, "?y", "type", "Person");
        let p = plan(&st, &q);
        let text = p.render(&st, &q);
        assert!(text.contains("variable order:"), "{text}");
        assert!(text.contains("card"), "{text}");
        assert!(text.contains("?y"), "{text}");
        // The elimination order carries each variable's exact prefix
        // count from the greedy selection.
        assert!(text.contains("?y (card 2)"), "{text}");
        assert_eq!(p.var_cards.len(), p.vars.len());
    }

    #[test]
    fn planner_output_passes_verification() {
        let mut st = sample();
        st.insert_strs("n", "knows", "n");
        let queries: Vec<Bgp> = {
            let mut qs = Vec::new();
            let mut tri = Bgp::new();
            tri.add(&mut st, "?a", "knows", "?b");
            tri.add(&mut st, "?b", "knows", "?c");
            tri.add(&mut st, "?c", "knows", "?a");
            qs.push(tri);
            let mut rep = Bgp::new();
            rep.add(&mut st, "?x", "knows", "?x");
            qs.push(rep);
            let mut consts = Bgp::new();
            consts.add(&mut st, "alice", "knows", "bob");
            qs.push(consts);
            let mut missing = Bgp::new();
            missing.add(&mut st, "?x", "likes", "?y");
            qs.push(missing);
            qs.push(Bgp::new());
            qs
        };
        for q in &queries {
            let p = plan(&st, q);
            assert_eq!(verify_plan(&st, q, &p), Ok(()));
        }
    }

    #[test]
    fn tampered_plans_are_rejected() {
        let mut st = sample();
        let mut q = Bgp::new();
        q.add(&mut st, "?x", "knows", "?y");
        q.add(&mut st, "?y", "type", "?t");
        let good = plan(&st, &q);

        // Swapping the elimination order invalidates every index choice.
        let mut swapped = good.clone();
        swapped.vars.swap(0, 1);
        assert!(verify_plan(&st, &q, &swapped).is_err());

        // A wrong cardinality is a stale or fabricated estimate.
        let mut stale = good.clone();
        stale.patterns[0].cardinality += 1;
        assert!(verify_plan(&st, &q, &stale).is_err());

        // Claiming emptiness over a satisfiable BGP would drop answers.
        let mut lying = good.clone();
        lying.empty = Some("fabricated".to_owned());
        assert!(verify_plan(&st, &q, &lying).is_err());

        // Flipping a filtered flag breaks the access path contract.
        let mut flipped = good.clone();
        flipped.patterns[0].filtered = true;
        flipped.patterns[0].order = None;
        assert!(verify_plan(&st, &q, &flipped).is_err());

        // The execution gate surfaces the same failure as a panic rather
        // than silently returning wrong rows.
        let res = std::panic::catch_unwind(|| solve_planned(&st, &q, &swapped, 1));
        assert!(res.is_err());
    }

    #[test]
    fn disconnected_patterns_form_cross_product() {
        let mut st = sample();
        let mut q = Bgp::new();
        q.add(&mut st, "?x", "knows", "?y");
        q.add(&mut st, "?u", "type", "?t");
        let fast = solve(&st, &q);
        assert_eq!(fast.rows.len(), 9);
        assert_eq!(canon(fast.bindings()), canon(q.solve_baseline(&st)));
    }

    /// ~500 triples over 40 nodes and predicates `p`/`q` from a fixed
    /// xorshift stream, plus `p` self-loops on every seventh node and the
    /// constant triple `n0 p n1`.
    fn seeded() -> TripleStore {
        let mut st = TripleStore::new();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..480 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let p = if (x >> 16).is_multiple_of(3) {
                "q"
            } else {
                "p"
            };
            st.insert_strs(&format!("n{}", x % 40), p, &format!("n{}", (x >> 8) % 40));
        }
        for i in (0..40).step_by(7) {
            st.insert_strs(&format!("n{i}"), "p", &format!("n{i}"));
        }
        st.insert_strs("n0", "p", "n1");
        st
    }

    /// Step-budget partials of the row path (one partition) and of the
    /// count path are pinned byte for byte: both must cut at exactly the
    /// same seek/next tick, whatever shape the join body takes.
    #[test]
    fn governed_prefixes_are_pinned() {
        let mut st = seeded();
        type Pattern = (&'static str, &'static str, &'static str);
        let shapes: [(&str, &[Pattern]); 6] = [
            (
                "triangle",
                &[("?a", "p", "?b"), ("?b", "p", "?c"), ("?c", "p", "?a")],
            ),
            (
                "path3",
                &[("?a", "p", "?b"), ("?b", "q", "?c"), ("?c", "p", "?d")],
            ),
            (
                "star",
                &[("n1", "p", "?x"), ("n1", "q", "?y"), ("?z", "p", "n1")],
            ),
            ("selfjoin", &[("?x", "p", "?x"), ("?x", "q", "?y")]),
            ("consts", &[("n0", "p", "n1")]),
            ("empty", &[("?x", "r", "?y")]),
        ];
        let mut got = String::new();
        for (name, pats) in shapes {
            let mut q = Bgp::new();
            for (s, p, o) in pats {
                q.add(&mut st, s, p, o);
            }
            let p = plan(&st, &q);
            for steps in [
                Some(1),
                Some(2),
                Some(1023),
                Some(1024),
                Some(1025),
                Some(5000),
                None,
            ] {
                let budget = match steps {
                    Some(n) => Budget::unlimited().with_max_steps(n),
                    None => Budget::unlimited(),
                };
                let (g1, g2) = (Governor::new(&budget), Governor::new(&budget));
                let rows = run(&st, &q, &p, 1, Some(&g1)).expect("sound plan");
                let n = count_planned_governed(&st, &q, &p, &g2).expect("sound plan");
                got.push_str(&format!(
                    "{name} {steps:?}: rows {} {:?} {}, count {} {:?} {}\n",
                    rows.value.rows.len(),
                    rows.completion,
                    g1.steps_used(),
                    n.value,
                    n.completion,
                    g2.steps_used()
                ));
            }
        }
        let want = [
            "triangle Some(1): rows 0 Partial(StepBudget) 79, count 137 Partial(StepBudget) 1024",
            "triangle Some(2): rows 0 Partial(StepBudget) 79, count 137 Partial(StepBudget) 1024",
            "triangle Some(1023): rows 149 Partial(StepBudget) 1103, count 137 Partial(StepBudget) 1024",
            "triangle Some(1024): rows 149 Partial(StepBudget) 1103, count 269 Partial(StepBudget) 2048",
            "triangle Some(1025): rows 149 Partial(StepBudget) 1103, count 269 Partial(StepBudget) 2048",
            "triangle Some(5000): rows 408 Complete 3194, count 408 Complete 3194",
            "triangle None: rows 408 Complete 3194, count 408 Complete 3194",
            "path3 Some(1): rows 0 Partial(StepBudget) 78, count 792 Partial(StepBudget) 1035",
            "path3 Some(2): rows 0 Partial(StepBudget) 78, count 792 Partial(StepBudget) 1035",
            "path3 Some(1023): rows 863 Partial(StepBudget) 1102, count 792 Partial(StepBudget) 1035",
            "path3 Some(1024): rows 863 Partial(StepBudget) 1102, count 792 Partial(StepBudget) 1035",
            "path3 Some(1025): rows 863 Partial(StepBudget) 1102, count 792 Partial(StepBudget) 1035",
            "path3 Some(5000): rows 4406 Partial(StepBudget) 5198, count 4354 Partial(StepBudget) 5146",
            "path3 None: rows 8126 Complete 9601, count 8126 Complete 9601",
            "star Some(1): rows 0 Partial(StepBudget) 3, count 108 Partial(StepBudget) 132",
            "star Some(2): rows 0 Partial(StepBudget) 3, count 108 Partial(StepBudget) 132",
            "star Some(1023): rows 108 Complete 132, count 108 Complete 132",
            "star Some(1024): rows 108 Complete 132, count 108 Complete 132",
            "star Some(1025): rows 108 Complete 132, count 108 Complete 132",
            "star Some(5000): rows 108 Complete 132, count 108 Complete 132",
            "star None: rows 108 Complete 132, count 108 Complete 132",
            "selfjoin Some(1): rows 0 Partial(StepBudget) 18, count 32 Partial(StepBudget) 58",
            "selfjoin Some(2): rows 0 Partial(StepBudget) 18, count 32 Partial(StepBudget) 58",
            "selfjoin Some(1023): rows 32 Complete 58, count 32 Complete 58",
            "selfjoin Some(1024): rows 32 Complete 58, count 32 Complete 58",
            "selfjoin Some(1025): rows 32 Complete 58, count 32 Complete 58",
            "selfjoin Some(5000): rows 32 Complete 58, count 32 Complete 58",
            "selfjoin None: rows 32 Complete 58, count 32 Complete 58",
            "consts Some(1): rows 1 Complete 0, count 1 Complete 0",
            "consts Some(2): rows 1 Complete 0, count 1 Complete 0",
            "consts Some(1023): rows 1 Complete 0, count 1 Complete 0",
            "consts Some(1024): rows 1 Complete 0, count 1 Complete 0",
            "consts Some(1025): rows 1 Complete 0, count 1 Complete 0",
            "consts Some(5000): rows 1 Complete 0, count 1 Complete 0",
            "consts None: rows 1 Complete 0, count 1 Complete 0",
            "empty Some(1): rows 0 Complete 0, count 0 Complete 0",
            "empty Some(2): rows 0 Complete 0, count 0 Complete 0",
            "empty Some(1023): rows 0 Complete 0, count 0 Complete 0",
            "empty Some(1024): rows 0 Complete 0, count 0 Complete 0",
            "empty Some(1025): rows 0 Complete 0, count 0 Complete 0",
            "empty Some(5000): rows 0 Complete 0, count 0 Complete 0",
            "empty None: rows 0 Complete 0, count 0 Complete 0",
        ];
        assert_eq!(got.lines().collect::<Vec<_>>(), want);
    }

    /// A filtered table's memory charge ends with the run that built it:
    /// the approximate counter's search reuses one governor across many
    /// counts, and a leaked charge would trip a budget of two tables.
    #[test]
    fn filtered_table_charge_is_released() {
        let mut st = TripleStore::new();
        for i in 0..300 {
            st.insert_strs(&format!("n{i}"), "self", &format!("n{i}"));
        }
        let mut q = Bgp::new();
        q.add(&mut st, "?x", "self", "?x");
        let table = 300 * 24 + 24;
        let gov = Governor::new(&Budget::unlimited().with_max_memory(2 * table));
        let sk = StoreSketch::build(&st);
        let params = crate::sketch::BgpCountParams::default();
        let got = crate::sketch::approx_count_bgp_governed(&st, &sk, &q, params, &gov)
            .expect("sound plan");
        assert_eq!(got.completion, kgq_core::govern::Completion::Complete);
        assert_eq!(got.value, 300);
    }

    #[test]
    fn variable_predicate_matches_baseline() {
        let mut st = sample();
        let mut q = Bgp::new();
        q.add(&mut st, "alice", "?p", "?o");
        let fast = solve(&st, &q);
        assert_eq!(canon(fast.bindings()), canon(q.solve_baseline(&st)));
    }
}
