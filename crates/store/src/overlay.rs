//! The in-memory delta overlay.
//!
//! Committed mutations that have not yet been compacted live here, in
//! two small sorted sets keyed by term strings:
//!
//! * `added` — triples present in the overlay but not the base,
//! * `tombstoned` — base triples that have been deleted.
//!
//! Reads see `(base ∪ added) ∖ tombstoned`. Two invariants keep that
//! algebra trivial, and [`DeltaOverlay::apply`] maintains both:
//!
//! * `added ∩ base = ∅` — inserting a triple the base already holds is
//!   a no-op (unless it was tombstoned, in which case the tombstone is
//!   simply withdrawn);
//! * `tombstoned ⊆ base` — deleting an overlay-added triple removes it
//!   from `added` rather than minting a tombstone.
//!
//! Because `apply` consults the *current* merged state, replaying a WAL
//! is idempotent: applying the same committed batch twice converges to
//! the same overlay, which is what makes recovery after a crash in the
//! middle of compaction safe.

use kgq_graph::Sym;
use kgq_rdf::{Triple, TripleStore};
use std::collections::BTreeSet;

/// A triple as term strings, the overlay's key type. (The base store
/// interns terms; the overlay stays string-keyed so it can hold terms
/// the base has never seen without mutating the base's interner.)
pub type StrTriple = (String, String, String);

/// Added/tombstoned sets layered over an immutable base [`TripleStore`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeltaOverlay {
    added: BTreeSet<StrTriple>,
    tombstoned: BTreeSet<StrTriple>,
}

impl DeltaOverlay {
    /// An empty overlay: reads pass straight through to the base.
    pub fn new() -> Self {
        Self::default()
    }

    /// Triples added relative to the base, in sorted order.
    pub fn added(&self) -> impl Iterator<Item = &StrTriple> {
        self.added.iter()
    }

    /// Base triples deleted by the overlay, in sorted order.
    pub fn tombstoned(&self) -> impl Iterator<Item = &StrTriple> {
        self.tombstoned.iter()
    }

    /// Number of added triples.
    pub fn added_len(&self) -> usize {
        self.added.len()
    }

    /// Number of tombstones.
    pub fn tombstoned_len(&self) -> usize {
        self.tombstoned.len()
    }

    /// True when the overlay changes nothing (compaction is a no-op).
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.tombstoned.is_empty()
    }

    /// Does the merged view `(base ∪ added) ∖ tombstoned` contain the
    /// triple?
    pub fn contains(&self, base: &TripleStore, s: &str, p: &str, o: &str) -> bool {
        let key = (s.to_owned(), p.to_owned(), o.to_owned());
        if self.added.contains(&key) {
            return true;
        }
        if self.tombstoned.contains(&key) {
            return false;
        }
        base_contains(base, s, p, o)
    }

    /// Merged cardinality: `|base| + |added| - |tombstoned|` (exact,
    /// thanks to the two invariants).
    pub fn merged_len(&self, base: &TripleStore) -> usize {
        base.len() + self.added.len() - self.tombstoned.len()
    }

    /// Applies an insert to the merged view. Returns true if the view
    /// changed.
    pub fn insert(&mut self, base: &TripleStore, s: &str, p: &str, o: &str) -> bool {
        let key = (s.to_owned(), p.to_owned(), o.to_owned());
        if self.tombstoned.remove(&key) {
            return true; // was deleted from base; un-delete
        }
        if base_contains(base, s, p, o) {
            return false; // already present in base, invariant: keep out of `added`
        }
        self.added.insert(key)
    }

    /// Applies a delete to the merged view. Returns true if the view
    /// changed.
    pub fn delete(&mut self, base: &TripleStore, s: &str, p: &str, o: &str) -> bool {
        let key = (s.to_owned(), p.to_owned(), o.to_owned());
        if self.added.remove(&key) {
            return true; // overlay-only triple: no tombstone needed
        }
        if base_contains(base, s, p, o) {
            return self.tombstoned.insert(key);
        }
        false // absent everywhere
    }

    /// Folds the overlay into a fresh [`TripleStore`] holding exactly
    /// the merged view, leaving the overlay untouched (compaction only
    /// clears it after the segment is durably on disk).
    ///
    /// One bulk pass: the tombstones are resolved to base `Sym` keys
    /// once and walked alongside the base's SPO run with a monotone
    /// cursor, each surviving base term is re-interned the first time
    /// it is met (a `Sym → Sym` table, no string built per triple), the
    /// added triples follow in their sorted order, and the fresh store
    /// is built by a single [`TripleStore::extend`]. The interning
    /// order — surviving base triples in SPO order, then `added` — is
    /// what fixes the merged store's `Sym` numbering and with it the
    /// byte layout of the next segment.
    pub fn materialize(&self, base: &TripleStore) -> TripleStore {
        let mut dead: Vec<Triple> = self
            .tombstoned
            .iter()
            .filter_map(|(s, p, o)| base.get_triple(s, p, o))
            .collect();
        dead.sort_unstable();
        let mut merged = TripleStore::new();
        let mut remap: Vec<Option<Sym>> = vec![None; base.terms().len()];
        let mut carry = |merged: &mut TripleStore, old: Sym| -> Sym {
            *remap[old.index()].get_or_insert_with(|| merged.term(base.term_str(old)))
        };
        let mut batch: Vec<Triple> = Vec::with_capacity(self.merged_len(base));
        let mut cursor = 0usize;
        for t in base.iter() {
            while cursor < dead.len() && dead[cursor] < t {
                cursor += 1;
            }
            if cursor < dead.len() && dead[cursor] == t {
                continue;
            }
            batch.push(Triple {
                s: carry(&mut merged, t.s),
                p: carry(&mut merged, t.p),
                o: carry(&mut merged, t.o),
            });
        }
        for (s, p, o) in &self.added {
            batch.push(Triple {
                s: merged.term(s),
                p: merged.term(p),
                o: merged.term(o),
            });
        }
        merged.extend(batch);
        merged
    }

    /// Clears both sets (after compaction folded them into the base).
    pub fn clear(&mut self) {
        self.added.clear();
        self.tombstoned.clear();
    }

    /// Debug-checks the two invariants against `base`; returns a
    /// human-readable violation if one is found. Used by
    /// `kgq store verify` and the proptest suites.
    pub fn check_invariants(&self, base: &TripleStore) -> Result<(), String> {
        for (s, p, o) in &self.added {
            if base_contains(base, s, p, o) {
                return Err(format!("added triple ({s} {p} {o}) already in base"));
            }
        }
        for (s, p, o) in &self.tombstoned {
            if !base_contains(base, s, p, o) {
                return Err(format!("tombstone ({s} {p} {o}) has no base triple"));
            }
        }
        Ok(())
    }
}

fn base_contains(base: &TripleStore, s: &str, p: &str, o: &str) -> bool {
    base.get_triple(s, p, o).is_some_and(|t| base.contains(t))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> TripleStore {
        let mut b = TripleStore::new();
        b.insert_strs("a", "knows", "b");
        b.insert_strs("b", "knows", "c");
        b
    }

    #[test]
    fn insert_delete_algebra() {
        let base = base();
        let mut ov = DeltaOverlay::new();
        // Insert of a base triple is a no-op.
        assert!(!ov.insert(&base, "a", "knows", "b"));
        assert!(ov.is_empty());
        // Fresh insert lands in `added`.
        assert!(ov.insert(&base, "c", "knows", "d"));
        assert!(ov.contains(&base, "c", "knows", "d"));
        assert_eq!(ov.merged_len(&base), 3);
        // Delete of an overlay triple removes it without a tombstone.
        assert!(ov.delete(&base, "c", "knows", "d"));
        assert!(ov.is_empty());
        // Delete of a base triple mints a tombstone.
        assert!(ov.delete(&base, "a", "knows", "b"));
        assert!(!ov.contains(&base, "a", "knows", "b"));
        assert_eq!(ov.merged_len(&base), 1);
        // Re-insert withdraws the tombstone instead of touching `added`.
        assert!(ov.insert(&base, "a", "knows", "b"));
        assert!(ov.is_empty());
        assert!(ov.contains(&base, "a", "knows", "b"));
        // Delete of an absent triple changes nothing.
        assert!(!ov.delete(&base, "x", "y", "z"));
        ov.check_invariants(&base).unwrap();
    }

    #[test]
    fn materialize_matches_merged_view() {
        let base = base();
        let mut ov = DeltaOverlay::new();
        ov.insert(&base, "c", "knows", "d");
        ov.delete(&base, "b", "knows", "c");
        let merged = ov.materialize(&base);
        assert_eq!(merged.len(), 2);
        let mut got: Vec<(String, String, String)> = merged
            .iter()
            .map(|t| {
                (
                    merged.term_str(t.s).to_owned(),
                    merged.term_str(t.p).to_owned(),
                    merged.term_str(t.o).to_owned(),
                )
            })
            .collect();
        got.sort();
        assert_eq!(
            got,
            vec![
                ("a".to_owned(), "knows".to_owned(), "b".to_owned()),
                ("c".to_owned(), "knows".to_owned(), "d".to_owned()),
            ]
        );
    }

    #[test]
    fn replay_is_idempotent() {
        let base = base();
        let mut ov = DeltaOverlay::new();
        let ops: Vec<(&str, &str, &str, bool)> = vec![
            ("c", "knows", "d", true),
            ("a", "knows", "b", false),
            ("c", "knows", "d", false),
            ("e", "likes", "f", true),
        ];
        let run = |ov: &mut DeltaOverlay| {
            for (s, p, o, ins) in &ops {
                if *ins {
                    ov.insert(&base, s, p, o);
                } else {
                    ov.delete(&base, s, p, o);
                }
            }
        };
        run(&mut ov);
        let once = ov.clone();
        run(&mut ov);
        assert_eq!(ov, once, "double replay must converge");
        ov.check_invariants(&base).unwrap();
    }
}
