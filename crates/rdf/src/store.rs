//! The triple store.
//!
//! An RDF graph is "a set of triples `(s, p, o)` such that
//! `s, p, o ∈ Const`" (paper, §3). Terms are interned strings; the store
//! keeps **all six** clustered orderings of the triple positions —
//! SPO, POS, OSP, SOP, PSO, OPS — as sorted arrays, so that
//!
//! * any single triple pattern is answered by a binary-searched range
//!   scan on an ordering whose prefix covers the bound positions (no
//!   post-filtering for any bound combination), and
//! * every triple pattern exposes a *trie iterator* for **any** variable
//!   order, which is exactly what the leapfrog-triejoin engine
//!   ([`crate::lftj`]) needs to pick a global variable elimination order
//!   freely.
//!
//! Sorted arrays beat B-trees here: lookups are two `partition_point`
//! calls, range scans are contiguous slices, and prefix cardinalities
//! (the planner's cost estimates) are exact subtractions of two binary
//! searches. Point inserts splice into all six orderings (O(n) memmove
//! each — fine for incremental use); anything that touches more than a
//! handful of triples goes through the bulk pair
//! [`TripleStore::extend`] / [`TripleStore::remove_all`], which sort the
//! batch once per ordering and weave it into (or cut it out of) the
//! existing run with one block-move pass — O(b log b + b log n + n).

use kgq_graph::{Interner, Sym};
use std::ops::Range;

/// A triple `(subject, predicate, object)` of interned terms.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Triple {
    /// Subject.
    pub s: Sym,
    /// Predicate.
    pub p: Sym,
    /// Object.
    pub o: Sym,
}

impl Triple {
    /// Position accessor: 0 = subject, 1 = predicate, 2 = object.
    #[inline]
    pub fn position(&self, i: usize) -> Sym {
        match i {
            0 => self.s,
            1 => self.p,
            _ => self.o,
        }
    }
}

/// One of the six clustered orderings of the triple positions.
///
/// The name spells the key column order: [`IndexOrder::Pos`] keys rows
/// as `(predicate, object, subject)`. Between them the six orderings
/// cover every bound-prefix combination and every variable order a trie
/// iterator can ask for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IndexOrder {
    /// subject, predicate, object.
    Spo,
    /// predicate, object, subject.
    Pos,
    /// object, subject, predicate.
    Osp,
    /// subject, object, predicate.
    Sop,
    /// predicate, subject, object.
    Pso,
    /// object, predicate, subject.
    Ops,
}

impl IndexOrder {
    /// All six orderings, [`IndexOrder::Spo`] first.
    pub const ALL: [IndexOrder; 6] = [
        IndexOrder::Spo,
        IndexOrder::Pos,
        IndexOrder::Osp,
        IndexOrder::Sop,
        IndexOrder::Pso,
        IndexOrder::Ops,
    ];

    /// `perm()[i]` is the triple position (0 = s, 1 = p, 2 = o) stored
    /// in key column `i`.
    #[inline]
    pub fn perm(self) -> [usize; 3] {
        match self {
            IndexOrder::Spo => [0, 1, 2],
            IndexOrder::Pos => [1, 2, 0],
            IndexOrder::Osp => [2, 0, 1],
            IndexOrder::Sop => [0, 2, 1],
            IndexOrder::Pso => [1, 0, 2],
            IndexOrder::Ops => [2, 1, 0],
        }
    }

    /// The ordering whose key columns are exactly `perm` (a permutation
    /// of `[0, 1, 2]` naming triple positions).
    pub fn from_perm(perm: [usize; 3]) -> IndexOrder {
        match perm {
            [0, 1, 2] => IndexOrder::Spo,
            [1, 2, 0] => IndexOrder::Pos,
            [2, 0, 1] => IndexOrder::Osp,
            [0, 2, 1] => IndexOrder::Sop,
            [1, 0, 2] => IndexOrder::Pso,
            _ => IndexOrder::Ops,
        }
    }

    /// Display name (`"spo"`, `"pos"`, …).
    pub fn name(self) -> &'static str {
        match self {
            IndexOrder::Spo => "spo",
            IndexOrder::Pos => "pos",
            IndexOrder::Osp => "osp",
            IndexOrder::Sop => "sop",
            IndexOrder::Pso => "pso",
            IndexOrder::Ops => "ops",
        }
    }

    /// Index of this ordering in [`IndexOrder::ALL`].
    #[inline]
    fn slot(self) -> usize {
        match self {
            IndexOrder::Spo => 0,
            IndexOrder::Pos => 1,
            IndexOrder::Osp => 2,
            IndexOrder::Sop => 3,
            IndexOrder::Pso => 4,
            IndexOrder::Ops => 5,
        }
    }

    /// Permutes a triple into this ordering's key layout.
    #[inline]
    pub fn key(self, t: Triple) -> [Sym; 3] {
        let p = self.perm();
        [t.position(p[0]), t.position(p[1]), t.position(p[2])]
    }

    /// Recovers the triple from one of this ordering's keys.
    #[inline]
    pub fn triple(self, key: [Sym; 3]) -> Triple {
        let p = self.perm();
        let mut pos = [Sym(0); 3];
        pos[p[0]] = key[0];
        pos[p[1]] = key[1];
        pos[p[2]] = key[2];
        Triple {
            s: pos[0],
            p: pos[1],
            o: pos[2],
        }
    }
}

/// An RDF graph with all six sorted orderings as indexes.
#[derive(Clone, Debug, Default)]
pub struct TripleStore {
    terms: Interner,
    /// `orders[i]` holds every triple permuted into
    /// `IndexOrder::ALL[i]`'s key layout, sorted ascending, deduped.
    /// All six hold the same triple set.
    orders: [Vec<[Sym; 3]>; 6],
}

impl TripleStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        TripleStore {
            terms: Interner::new(),
            ..TripleStore::default()
        }
    }

    /// Interns a term.
    pub fn term(&mut self, s: &str) -> Sym {
        self.terms.intern(s)
    }

    /// Looks up a term without interning.
    pub fn get_term(&self, s: &str) -> Option<Sym> {
        self.terms.get(s)
    }

    /// Looks up a triple by its term strings without interning: `None`
    /// if any of the three was never interned (such a triple cannot be
    /// stored). The result may still be absent — ask
    /// [`contains`](TripleStore::contains).
    pub fn get_triple(&self, s: &str, p: &str, o: &str) -> Option<Triple> {
        Some(Triple {
            s: self.terms.get(s)?,
            p: self.terms.get(p)?,
            o: self.terms.get(o)?,
        })
    }

    /// Resolves a term to its string.
    pub fn term_str(&self, s: Sym) -> &str {
        self.terms.resolve(s)
    }

    /// The term universe.
    pub fn terms(&self) -> &Interner {
        &self.terms
    }

    /// The sorted key rows of one ordering. Rows are `[Sym; 3]` in the
    /// ordering's column layout; the slice is sorted ascending with no
    /// duplicates. This is the raw surface the trie iterators walk.
    #[inline]
    pub fn order(&self, o: IndexOrder) -> &[[Sym; 3]] {
        &self.orders[o.slot()]
    }

    /// Inserts a triple of already-interned terms. Returns `false` if it
    /// was already present (RDF graphs are sets). Presence is decided by
    /// one binary search; a fresh triple is spliced into all six
    /// orderings so they never disagree.
    pub fn insert(&mut self, t: Triple) -> bool {
        let spo_key = IndexOrder::Spo.key(t);
        if self.orders[0].binary_search(&spo_key).is_ok() {
            return false;
        }
        for (slot, ord) in IndexOrder::ALL.iter().enumerate() {
            let key = ord.key(t);
            if let Err(i) = self.orders[slot].binary_search(&key) {
                self.orders[slot].insert(i, key);
            }
        }
        true
    }

    /// Convenience: intern three strings and insert.
    pub fn insert_strs(&mut self, s: &str, p: &str, o: &str) -> bool {
        let t = Triple {
            s: self.term(s),
            p: self.term(p),
            o: self.term(o),
        };
        self.insert(t)
    }

    /// Bulk insert: sorts the batch once per ordering (O(b log b)) and
    /// merges it into the existing sorted run with one backward pass
    /// (O(b log n) membership probes + O(n + b) block moves) — the base
    /// is never re-sorted, so a big store absorbs a small batch without
    /// paying O((n + b) log (n + b)). An empty ordering simply adopts
    /// the sorted, deduped batch. Returns how many triples were
    /// actually new.
    pub fn extend(&mut self, triples: impl IntoIterator<Item = Triple>) -> usize {
        let before = self.orders[0].len();
        let batch: Vec<Triple> = triples.into_iter().collect();
        if batch.is_empty() {
            return 0;
        }
        let mut keys: Vec<[Sym; 3]> = Vec::with_capacity(batch.len());
        for (slot, ord) in IndexOrder::ALL.iter().enumerate() {
            sorted_keys(*ord, &batch, &mut keys);
            if self.orders[slot].is_empty() {
                std::mem::swap(&mut self.orders[slot], &mut keys);
            } else {
                merge_into_sorted(&mut self.orders[slot], &keys);
            }
        }
        self.orders[0].len() - before
    }

    /// Bulk [`insert_strs`](TripleStore::insert_strs): interns every
    /// triple's terms in slice order (subject, predicate, object —
    /// exactly the `Sym` numbering a loop of `insert_strs` mints, terms
    /// of duplicate triples included) and merges the batch with one
    /// [`extend`](TripleStore::extend). Returns how many triples were
    /// actually new.
    pub fn extend_strs<S: AsRef<str>>(&mut self, triples: &[(S, S, S)]) -> usize {
        let batch: Vec<Triple> = triples
            .iter()
            .map(|(s, p, o)| Triple {
                s: self.terms.intern(s.as_ref()),
                p: self.terms.intern(p.as_ref()),
                o: self.terms.intern(o.as_ref()),
            })
            .collect();
        self.extend(batch)
    }

    /// Bulk [`remove`](TripleStore::remove): sorts the batch once per
    /// ordering, finds the doomed rows with galloping probes from a
    /// monotone cursor (O(b log n)) and closes all the gaps in one
    /// forward block-move pass, so a batch costs at most what a single
    /// point removal's memmove does. Returns how many triples were
    /// actually present (a triple named twice counts once, as it would
    /// for a loop of `remove`).
    pub fn remove_all(&mut self, triples: impl IntoIterator<Item = Triple>) -> usize {
        let batch: Vec<Triple> = triples.into_iter().collect();
        let mut removed = 0;
        let mut keys: Vec<[Sym; 3]> = Vec::with_capacity(batch.len());
        for (slot, ord) in IndexOrder::ALL.iter().enumerate() {
            sorted_keys(*ord, &batch, &mut keys);
            removed = remove_from_sorted(&mut self.orders[slot], &keys);
        }
        removed
    }

    /// Removes a triple. Returns `true` if it was present. Removal binary
    /// searches each ordering, so the six stay consistent.
    pub fn remove(&mut self, t: Triple) -> bool {
        let spo_key = IndexOrder::Spo.key(t);
        if self.orders[0].binary_search(&spo_key).is_err() {
            return false;
        }
        for (slot, ord) in IndexOrder::ALL.iter().enumerate() {
            let key = ord.key(t);
            if let Ok(i) = self.orders[slot].binary_search(&key) {
                self.orders[slot].remove(i);
            }
        }
        true
    }

    /// Membership test — one binary search on the SPO ordering.
    pub fn contains(&self, t: Triple) -> bool {
        self.orders[0]
            .binary_search(&IndexOrder::Spo.key(t))
            .is_ok()
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.orders[0].len()
    }

    /// True if the graph has no triples.
    pub fn is_empty(&self) -> bool {
        self.orders[0].is_empty()
    }

    /// The contiguous row range of `order` whose keys start with
    /// `prefix` (at most 3 values). Two `partition_point`s.
    pub fn prefix_range(&self, order: IndexOrder, prefix: &[Sym]) -> Range<usize> {
        let rows = self.order(order);
        let k = prefix.len().min(3);
        let lo = rows.partition_point(|row| row[..k] < prefix[..k]);
        let hi = rows.partition_point(|row| row[..k] <= prefix[..k]);
        lo..hi
    }

    /// Exact number of triples whose `order`-key starts with `prefix` —
    /// the planner's cardinality estimate, exact for any bound prefix.
    pub fn prefix_count(&self, order: IndexOrder, prefix: &[Sym]) -> usize {
        self.prefix_range(order, prefix).len()
    }

    /// The ordering whose key prefix covers exactly the bound positions
    /// of a `(s?, p?, o?)` pattern, and the bound prefix values in that
    /// ordering's column order.
    fn covering(s: Option<Sym>, p: Option<Sym>, o: Option<Sym>) -> (IndexOrder, Vec<Sym>) {
        match (s, p, o) {
            (Some(s), Some(p), Some(o)) => (IndexOrder::Spo, vec![s, p, o]),
            (Some(s), Some(p), None) => (IndexOrder::Spo, vec![s, p]),
            (Some(s), None, Some(o)) => (IndexOrder::Sop, vec![s, o]),
            (None, Some(p), Some(o)) => (IndexOrder::Pos, vec![p, o]),
            (Some(s), None, None) => (IndexOrder::Spo, vec![s]),
            (None, Some(p), None) => (IndexOrder::Pos, vec![p]),
            (None, None, Some(o)) => (IndexOrder::Osp, vec![o]),
            (None, None, None) => (IndexOrder::Spo, Vec::new()),
        }
    }

    /// All triples matching a pattern with optionally bound positions.
    /// With six orderings every bound combination is a pure range scan
    /// on a covering prefix — no post-filtering anywhere:
    ///
    /// | bound            | index | bound   | index |
    /// |------------------|-------|---------|-------|
    /// | s, s+p, s+p+o    | SPO   | p, p+o  | POS   |
    /// | s+o              | SOP   | o       | OSP   |
    /// | none             | SPO   |         |       |
    pub fn scan(
        &self,
        s: Option<Sym>,
        p: Option<Sym>,
        o: Option<Sym>,
    ) -> impl Iterator<Item = Triple> + '_ {
        let (order, prefix) = Self::covering(s, p, o);
        let range = self.prefix_range(order, &prefix);
        self.order(order)[range]
            .iter()
            .map(move |&key| order.triple(key))
    }

    /// Count of matches for a pattern — pure binary search, no scan.
    pub fn count(&self, s: Option<Sym>, p: Option<Sym>, o: Option<Sym>) -> usize {
        let (order, prefix) = Self::covering(s, p, o);
        self.prefix_count(order, &prefix)
    }

    /// Iterates over all triples in SPO order.
    pub fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        self.orders[0].iter().map(|&[s, p, o]| Triple { s, p, o })
    }
}

/// Fills `keys` with `batch` permuted into `ord`'s key layout, sorted
/// ascending and deduped.
fn sorted_keys(ord: IndexOrder, batch: &[Triple], keys: &mut Vec<[Sym; 3]>) {
    keys.clear();
    keys.extend(batch.iter().map(|&t| ord.key(t)));
    keys.sort_unstable();
    keys.dedup();
}

/// Merges sorted, deduped `new` keys into the sorted, deduped `rows`,
/// dropping keys already present. Membership and insertion points are
/// decided by galloping `partition_point` probes from a monotone cursor
/// (O(b log n)); the surviving keys are then woven in back to front
/// over one `resize`d allocation, each run of old rows between two
/// insertion points moving exactly once as a block.
fn merge_into_sorted(rows: &mut Vec<[Sym; 3]>, new: &[[Sym; 3]]) {
    // (insertion index into the old `rows`, key), ascending in both.
    let mut fresh: Vec<(usize, [Sym; 3])> = Vec::with_capacity(new.len());
    let mut cursor = 0usize;
    for &k in new {
        cursor += rows[cursor..].partition_point(|r| *r < k);
        if cursor >= rows.len() || rows[cursor] != k {
            fresh.push((cursor, k));
        }
    }
    let Some(&(_, filler)) = fresh.first() else {
        return;
    };
    let mut end = rows.len();
    rows.resize(end + fresh.len(), filler);
    // The j-th fresh key lands at `at + j`; the old rows `at..end`
    // behind it shift right by `j + 1`.
    for (j, &(at, k)) in fresh.iter().enumerate().rev() {
        rows.copy_within(at..end, at + j + 1);
        rows[at + j] = k;
        end = at;
    }
}

/// Removes the sorted, deduped `dead` keys from the sorted, deduped
/// `rows`; keys not present are ignored. Returns how many rows went.
/// Same probe scheme as [`merge_into_sorted`]; the gaps are closed
/// front to back, each surviving run moving exactly once as a block.
fn remove_from_sorted(rows: &mut Vec<[Sym; 3]>, dead: &[[Sym; 3]]) -> usize {
    let mut hits: Vec<usize> = Vec::with_capacity(dead.len());
    let mut cursor = 0usize;
    for &k in dead {
        cursor += rows[cursor..].partition_point(|r| *r < k);
        if cursor < rows.len() && rows[cursor] == k {
            hits.push(cursor);
        }
    }
    let Some(&first) = hits.first() else {
        return 0;
    };
    let mut write = first;
    for (i, &hit) in hits.iter().enumerate() {
        let next = hits.get(i + 1).copied().unwrap_or(rows.len());
        rows.copy_within(hit + 1..next, write);
        write += next - (hit + 1);
    }
    rows.truncate(write);
    hits.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TripleStore {
        let mut st = TripleStore::new();
        st.insert_strs("alice", "knows", "bob");
        st.insert_strs("alice", "knows", "carol");
        st.insert_strs("bob", "knows", "carol");
        st.insert_strs("alice", "type", "Person");
        st.insert_strs("bob", "type", "Person");
        st.insert_strs("b7", "type", "Bus");
        st
    }

    #[test]
    fn set_semantics() {
        let mut st = sample();
        assert_eq!(st.len(), 6);
        assert!(!st.insert_strs("alice", "knows", "bob"));
        assert_eq!(st.len(), 6);
        let t = Triple {
            s: st.term("alice"),
            p: st.term("knows"),
            o: st.term("bob"),
        };
        assert!(st.contains(t));
        assert!(st.remove(t));
        assert!(!st.contains(t));
        assert_eq!(st.len(), 5);
        assert!(!st.remove(t));
    }

    #[test]
    fn scans_by_every_bound_combination() {
        let st = sample();
        let alice = st.get_term("alice").unwrap();
        let knows = st.get_term("knows").unwrap();
        let carol = st.get_term("carol").unwrap();
        let person = st.get_term("Person").unwrap();
        let ty = st.get_term("type").unwrap();

        assert_eq!(st.count(Some(alice), None, None), 3);
        assert_eq!(st.count(Some(alice), Some(knows), None), 2);
        assert_eq!(st.count(Some(alice), Some(knows), Some(carol)), 1);
        assert_eq!(st.count(None, Some(knows), None), 3);
        assert_eq!(st.count(None, Some(ty), Some(person)), 2);
        assert_eq!(st.count(None, None, Some(carol)), 2);
        assert_eq!(st.count(Some(alice), None, Some(carol)), 1);
        assert_eq!(st.count(None, None, None), 6);
    }

    #[test]
    fn scan_results_match_filter_semantics() {
        let st = sample();
        let knows = st.get_term("knows").unwrap();
        let expected: Vec<Triple> = st.iter().filter(|t| t.p == knows).collect();
        let mut got: Vec<Triple> = st.scan(None, Some(knows), None).collect();
        got.sort();
        let mut expected = expected;
        expected.sort();
        assert_eq!(got, expected);
    }

    #[test]
    fn empty_pattern_on_empty_store() {
        let st = TripleStore::new();
        assert!(st.is_empty());
        assert_eq!(st.count(None, None, None), 0);
    }

    #[test]
    fn universal_interpretation_of_terms() {
        // Interning the same string twice yields the same term — the
        // paper's "universal interpretation" of constants.
        let mut st = TripleStore::new();
        let a1 = st.term("http://ex.org/alice");
        let a2 = st.term("http://ex.org/alice");
        assert_eq!(a1, a2);
    }

    #[test]
    fn six_orderings_stay_consistent() {
        let mut st = sample();
        let t = Triple {
            s: st.term("carol"),
            p: st.term("knows"),
            o: st.term("alice"),
        };
        st.insert(t);
        st.remove(Triple {
            s: st.get_term("alice").unwrap(),
            p: st.get_term("type").unwrap(),
            o: st.get_term("Person").unwrap(),
        });
        let spo: Vec<Triple> = st.iter().collect();
        for ord in IndexOrder::ALL {
            let mut via: Vec<Triple> = st.order(ord).iter().map(|&k| ord.triple(k)).collect();
            via.sort();
            let mut want = spo.clone();
            want.sort();
            assert_eq!(via, want, "ordering {} diverged", ord.name());
            assert!(st.order(ord).windows(2).all(|w| w[0] < w[1]), "unsorted");
        }
    }

    #[test]
    fn bulk_extend_matches_point_inserts() {
        let mut a = TripleStore::new();
        let mut b = TripleStore::new();
        let triples = [
            ("x", "p", "y"),
            ("y", "p", "z"),
            ("x", "p", "y"), // duplicate inside the batch
            ("z", "q", "x"),
        ];
        for (s, p, o) in triples {
            a.insert_strs(s, p, o);
        }
        let batch: Vec<Triple> = triples
            .iter()
            .map(|(s, p, o)| Triple {
                s: b.term(s),
                p: b.term(p),
                o: b.term(o),
            })
            .collect();
        let added = b.extend(batch);
        assert_eq!(added, 3);
        assert_eq!(a.len(), b.len());
        let left: Vec<Triple> = a.iter().collect();
        let right: Vec<Triple> = b.iter().collect();
        assert_eq!(left, right);
    }

    #[test]
    fn prefix_counts_are_exact() {
        let st = sample();
        let knows = st.get_term("knows").unwrap();
        let alice = st.get_term("alice").unwrap();
        assert_eq!(st.prefix_count(IndexOrder::Pos, &[knows]), 3);
        assert_eq!(st.prefix_count(IndexOrder::Spo, &[alice, knows]), 2);
        assert_eq!(st.prefix_count(IndexOrder::Spo, &[]), 6);
        let ghost = Sym(u32::MAX);
        assert_eq!(st.prefix_count(IndexOrder::Pos, &[ghost]), 0);
    }

    #[test]
    fn index_order_round_trips() {
        let t = Triple {
            s: Sym(3),
            p: Sym(5),
            o: Sym(7),
        };
        for ord in IndexOrder::ALL {
            assert_eq!(ord.triple(ord.key(t)), t);
            assert_eq!(IndexOrder::from_perm(ord.perm()), ord);
        }
    }
}
