//! [`DurableStore`]: the crash-recoverable store directory.
//!
//! On disk a store is a directory holding two files:
//!
//! * `base.seg` — the immutable compacted segment (absent = empty base);
//! * `wal.log` — the write-ahead log of batches committed since.
//!
//! In memory it is one live [`TripleStore`] holding the committed view,
//! beside its [`DurableLog`]: the WAL, the generation and the committed
//! edge records. The lifecycle is stage →
//! [`commit`](DurableStore::commit) (WAL append + fsync, *then*
//! [`apply`] the batch to the store, *then* advance the generation) →
//! [`compact`](DurableStore::compact) (encode the live store into a
//! fresh segment written atomically, truncate the log). A server splits
//! the two halves with [`into_parts`](DurableStore::into_parts): it
//! keeps the log under its own mutex and serves the store.
//!
//! ## Recovery invariant
//!
//! Opening a store directory after a crash at *any* point yields
//! exactly the state of some committed prefix of its history:
//!
//! * a batch whose commit marker never became durable is discarded;
//! * a torn WAL tail is truncated, never replayed, never a panic;
//! * a crash between segment rename and WAL truncation is healed by
//!   the generation monotonicity check — replay refuses batches whose
//!   stamp does not exceed the segment's, which is precisely the set
//!   compaction already folded in.

use crate::segment::{self, Segment};
use crate::wal::{EdgeRec, Replay, StoreOp, TailState, Wal};
use kgq_rdf::{Triple, TripleStore};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::path::{Path, PathBuf};

const SEGMENT_FILE: &str = "base.seg";
const WAL_FILE: &str = "wal.log";

/// A triple as term strings.
pub type StrTriple = (String, String, String);

/// Applies committed ops to `store` and returns `(inserted, deleted)`:
/// how many triples became present and how many were removed. The last
/// op on a triple wins, exactly as if the ops ran one at a time, so one
/// call takes a single batch or every batch a WAL replays: the ops fold
/// into one net insert set and one net delete set, and each set is
/// applied with one bulk [`TripleStore::remove_all`] /
/// [`TripleStore::extend_strs`] (both already treat a repeated triple
/// as one). Inserted terms are interned in the order they first appear.
/// Edge records are the log's business and are skipped here.
pub fn apply<'a>(
    store: &mut TripleStore,
    ops: impl IntoIterator<Item = &'a StoreOp>,
) -> (usize, usize) {
    let mut named: Vec<((&str, &str, &str), bool)> = ops
        .into_iter()
        .filter_map(|op| match op {
            StoreOp::Insert { s, p, o } => Some(((s.as_str(), p.as_str(), o.as_str()), true)),
            StoreOp::Delete { s, p, o } => Some(((s.as_str(), p.as_str(), o.as_str()), false)),
            StoreOp::EdgeAdd(_) => None,
        })
        .collect();
    if named.windows(2).any(|w| w[0].1 != w[1].1) {
        // Inserts and deletes mixed: keep each triple once, at its first
        // position, with its last op.
        let last: HashMap<_, _> = named.iter().copied().collect();
        let mut seen = HashSet::new();
        named.retain(|(key, _)| seen.insert(*key));
        for (key, insert) in &mut named {
            *insert = last[key];
        }
    }
    let (inserts, deletes): (Vec<_>, Vec<_>) = named.into_iter().partition(|(_, insert)| *insert);
    // A term the store never interned names no triple.
    let doomed: Vec<Triple> = deletes
        .iter()
        .filter_map(|((s, p, o), _)| store.get_triple(s, p, o))
        .collect();
    let deleted = store.remove_all(doomed);
    let inserts: Vec<(&str, &str, &str)> = inserts.into_iter().map(|(key, _)| key).collect();
    (store.extend_strs(&inserts), deleted)
}

/// The log half of a durable store: its directory, WAL, generation and
/// committed edge records — everything but the triples, which live in
/// the caller's [`TripleStore`].
pub struct DurableLog {
    dir: PathBuf,
    wal: Wal,
    edges: Vec<EdgeRec>,
    edge_ids: BTreeSet<String>,
    generation: u64,
}

impl DurableLog {
    /// Makes `ops` durable: appends them to the WAL with the next
    /// generation stamp and fsyncs, and only then records their edges
    /// and advances the generation. The caller applies the triples
    /// (see [`apply`]) once this returns `Ok`. On error nothing was
    /// committed and the log is unchanged. Returns the new generation;
    /// an empty batch commits nothing and returns the current one.
    pub fn commit(&mut self, ops: &[StoreOp]) -> std::io::Result<u64> {
        if ops.is_empty() {
            return Ok(self.generation);
        }
        let next = self.generation + 1;
        self.wal.append_batch(ops, next)?;
        self.record(ops, next);
        Ok(next)
    }

    /// Records a committed batch's edges (an id seen before is skipped)
    /// and takes its generation.
    fn record(&mut self, ops: &[StoreOp], generation: u64) {
        for op in ops {
            if let StoreOp::EdgeAdd(e) = op {
                if self.edge_ids.insert(e.id.clone()) {
                    self.edges.push(e.clone());
                }
            }
        }
        self.generation = generation;
    }

    /// Compacts: encodes `store` (the committed view this log's batches
    /// built) and the edge records into a fresh segment written
    /// atomically, then truncates the WAL. A crash anywhere in between
    /// recovers to the same committed state (see the module docs). A
    /// state too large for the segment's `u32` lengths is
    /// `InvalidInput`, with nothing written and the log unchanged.
    pub fn compact(&mut self, store: &TripleStore) -> std::io::Result<()> {
        // Derived data: a packed image reflects an older base, so
        // compaction drops it; the scale pipeline regenerates it.
        let image = segment::encode_parts(
            self.generation,
            store.iter().map(|t| {
                (
                    store.term_str(t.s),
                    store.term_str(t.p),
                    store.term_str(t.o),
                )
            }),
            &self.edges,
            None,
        )?;
        segment::write_image_atomic(&self.dir.join(SEGMENT_FILE), &image)?;
        // The segment is durable; the log's batches are now redundant.
        self.wal.reset()
    }

    /// Generation of the last committed batch (0 for a fresh store).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Bytes of committed WAL (including the header).
    pub fn wal_len(&self) -> u64 {
        self.wal.committed_len()
    }

    /// All committed edge records, in commit order.
    pub fn all_edges(&self) -> impl Iterator<Item = &EdgeRec> {
        self.edges.iter()
    }

    /// Number of committed edge records.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }
}

/// A durable triple + edge store rooted at a directory.
pub struct DurableStore {
    log: DurableLog,
    store: TripleStore,
    pending: Vec<StoreOp>,
}

impl std::fmt::Debug for DurableStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableStore")
            .field("dir", &self.log.dir)
            .field("generation", &self.log.generation)
            .field("triples", &self.store.len())
            .field("edges", &self.log.edges.len())
            .field("pending", &self.pending.len())
            .finish()
    }
}

impl DurableStore {
    /// Opens the store at `dir`, creating it (and the directory) if
    /// absent, and recovers: loads the segment, replays the WAL's
    /// committed prefix, truncates any torn tail. Returns the store
    /// and the WAL [`Replay`] forensics.
    pub fn open(dir: &Path) -> std::io::Result<(DurableStore, Replay)> {
        std::fs::create_dir_all(dir)?;
        let seg_path = dir.join(SEGMENT_FILE);
        let seg = if seg_path.exists() {
            // Map rather than read: the CRC is verified once against
            // the mapping and recovery decodes straight out of it.
            crate::mmap::SegmentMap::open(&seg_path)?.to_segment()?
        } else {
            Segment::default()
        };
        let (wal, replay) = Wal::open(&dir.join(WAL_FILE), seg.generation)?;
        // Terms are interned in file order; the six orderings are then
        // built by one bulk sort apiece, not a splice per triple.
        let mut store = TripleStore::new();
        store.extend_strs(&seg.triples);
        let mut log = DurableLog {
            dir: dir.to_path_buf(),
            wal,
            edge_ids: seg.edges.iter().map(|e| e.id.clone()).collect(),
            edges: seg.edges,
            generation: seg.generation,
        };
        for (generation, ops) in &replay.batches {
            log.record(ops, *generation);
        }
        // All replayed batches fold into one bulk apply.
        apply(&mut store, replay.batches.iter().flat_map(|(_, ops)| ops));
        let store = DurableStore {
            log,
            store,
            pending: Vec::new(),
        };
        Ok((store, replay))
    }

    /// Splits the store into its log half and its live triples, so a
    /// server can hold the log under its own lock and serve the store.
    /// Staged, uncommitted ops are discarded.
    pub fn into_parts(self) -> (DurableLog, TripleStore) {
        (self.log, self.store)
    }

    /// Stages a triple insert into the pending batch (not yet durable).
    pub fn stage_insert(&mut self, s: &str, p: &str, o: &str) {
        self.pending.push(StoreOp::Insert {
            s: s.to_owned(),
            p: p.to_owned(),
            o: o.to_owned(),
        });
    }

    /// Stages a triple delete into the pending batch (not yet durable).
    pub fn stage_delete(&mut self, s: &str, p: &str, o: &str) {
        self.pending.push(StoreOp::Delete {
            s: s.to_owned(),
            p: p.to_owned(),
            o: o.to_owned(),
        });
    }

    /// Stages an edge add into the pending batch (not yet durable).
    pub fn stage_edge(&mut self, e: EdgeRec) {
        self.pending.push(StoreOp::EdgeAdd(e));
    }

    /// Number of staged, uncommitted operations.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Commits the pending batch through [`DurableLog::commit`] and
    /// then applies it to the store. On error the batch is discarded
    /// (it was never acknowledged) and the in-memory state is
    /// unchanged. Returns the new generation; an empty batch commits
    /// nothing and returns the current one.
    pub fn commit(&mut self) -> std::io::Result<u64> {
        let ops = std::mem::take(&mut self.pending);
        let generation = self.log.commit(&ops)?;
        apply(&mut self.store, &ops);
        Ok(generation)
    }

    /// Generation of the last committed batch (0 for a fresh store).
    pub fn generation(&self) -> u64 {
        self.log.generation()
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        self.log.dir()
    }

    /// Bytes of committed WAL (including the header).
    pub fn wal_len(&self) -> u64 {
        self.log.wal_len()
    }

    /// The committed triples (staged ops are invisible).
    pub fn store(&self) -> &TripleStore {
        &self.store
    }

    /// Committed triple count.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when the store holds no committed triples.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Does the committed view contain the triple?
    pub fn contains(&self, s: &str, p: &str, o: &str) -> bool {
        self.store
            .get_triple(s, p, o)
            .is_some_and(|t| self.store.contains(t))
    }

    /// Committed pattern count by term strings. `None` = wildcard.
    pub fn count(&self, s: Option<&str>, p: Option<&str>, o: Option<&str>) -> usize {
        let sym = |t: Option<&str>| t.map(|t| self.store.get_term(t));
        match (sym(s), sym(p), sym(o)) {
            // A bound term the store never interned matches nothing.
            (Some(None), _, _) | (_, Some(None), _) | (_, _, Some(None)) => 0,
            (s, p, o) => self.store.count(s.flatten(), p.flatten(), o.flatten()),
        }
    }

    /// All committed triples, sorted, as strings.
    pub fn scan_all(&self) -> Vec<StrTriple> {
        let st = &self.store;
        let mut out: Vec<StrTriple> = st
            .iter()
            .map(|t| {
                (
                    st.term_str(t.s).to_owned(),
                    st.term_str(t.p).to_owned(),
                    st.term_str(t.o).to_owned(),
                )
            })
            .collect();
        out.sort();
        out
    }

    /// All committed edge records, in commit order.
    pub fn all_edges(&self) -> impl Iterator<Item = &EdgeRec> {
        self.log.all_edges()
    }

    /// Number of committed edge records — [`all_edges`](Self::all_edges)
    /// counted in O(1).
    pub fn edge_count(&self) -> usize {
        self.log.edge_count()
    }

    /// Compacts the live store into a fresh segment and truncates the
    /// WAL (see [`DurableLog::compact`]). Staged ops stay staged.
    pub fn compact(&mut self) -> std::io::Result<()> {
        self.log.compact(&self.store)
    }

    /// Read-only integrity check of the store at `dir`: decodes the
    /// segment, scans the WAL, and reports what recovery would do —
    /// without truncating or mutating anything.
    pub fn verify(dir: &Path) -> std::io::Result<VerifyReport> {
        let seg_path = dir.join(SEGMENT_FILE);
        let seg = if seg_path.exists() {
            segment::read(&seg_path)?
        } else {
            Segment::default()
        };
        let wal_path = dir.join(WAL_FILE);
        let replay = if wal_path.exists() {
            let image = crate::wal::read_file_faulted(&wal_path)?;
            if image.len() < crate::wal::WAL_MAGIC.len()
                || &image[..crate::wal::WAL_MAGIC.len()] != crate::wal::WAL_MAGIC
            {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("{}: not a kgq WAL (bad magic)", wal_path.display()),
                ));
            }
            crate::wal::scan(&image, seg.generation)
        } else {
            crate::wal::scan(crate::wal::WAL_MAGIC, seg.generation)
        };
        Ok(VerifyReport {
            segment_generation: seg.generation,
            segment_triples: seg.triples.len(),
            segment_edges: seg.edges.len(),
            wal_batches: replay.batches.len(),
            wal_generation: replay.generation,
            wal_total_len: replay.total_len,
            wal_committed_len: replay.committed_len,
            uncommitted_ops: replay.uncommitted_ops,
            tail: replay.tail,
        })
    }
}

/// What `kgq store verify` reports: segment shape, WAL health, and the
/// committed boundary recovery would truncate to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyReport {
    /// Generation stamped into the segment.
    pub segment_generation: u64,
    /// Triples in the segment.
    pub segment_triples: usize,
    /// Edge records in the segment.
    pub segment_edges: usize,
    /// Committed batches recoverable from the WAL.
    pub wal_batches: usize,
    /// Generation after replaying those batches.
    pub wal_generation: u64,
    /// Total bytes in the WAL file.
    pub wal_total_len: u64,
    /// Bytes up to the last intact commit marker.
    pub wal_committed_len: u64,
    /// Valid op records past the last commit marker (discarded).
    pub uncommitted_ops: usize,
    /// Why the WAL scan stopped.
    pub tail: TailState,
}

impl VerifyReport {
    /// True when the store is fully clean: no torn tail, no
    /// uncommitted residue.
    pub fn is_clean(&self) -> bool {
        self.tail == TailState::Clean && self.uncommitted_ops == 0
    }

    /// Multi-line human-readable rendering for the CLI.
    pub fn render(&self) -> String {
        format!(
            "segment: generation {} ({} triples, {} edges)\n\
             wal: {} committed batch(es), generation {}, {}/{} bytes committed\n\
             tail: {}{}\n\
             verdict: {}",
            self.segment_generation,
            self.segment_triples,
            self.segment_edges,
            self.wal_batches,
            self.wal_generation,
            self.wal_committed_len,
            self.wal_total_len,
            self.tail.describe(),
            if self.uncommitted_ops > 0 {
                format!(
                    " ({} uncommitted op(s) will be discarded)",
                    self.uncommitted_ops
                )
            } else {
                String::new()
            },
            if self.is_clean() {
                "clean"
            } else {
                "recoverable (open will truncate to the committed prefix)"
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kgq-durable-{}-{}", tag, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A record recovery would call corrupt is refused before it is
    /// written, so it can never take later acknowledged batches down
    /// with it.
    #[test]
    fn oversized_records_are_refused_before_the_append() {
        let dir = tmp_dir("oversized");
        {
            let (mut store, _) = DurableStore::open(&dir).unwrap();
            store.stage_insert("a", "knows", "b");
            assert_eq!(store.commit().unwrap(), 1);
            let before = store.wal_len();
            let huge = "x".repeat(crate::wal::MAX_RECORD + 1);
            store.stage_insert("a", &huge, "b");
            let err = store.commit().unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
            assert_eq!(store.wal_len(), before);
            assert_eq!(std::fs::metadata(dir.join(WAL_FILE)).unwrap().len(), before);
            store.stage_insert("b", "knows", "c");
            assert_eq!(store.commit().unwrap(), 2);
        }
        let (store, replay) = DurableStore::open(&dir).unwrap();
        assert_eq!(replay.tail, crate::wal::TailState::Clean);
        assert_eq!(store.generation(), 2);
        assert!(store.contains("a", "knows", "b"));
        assert!(store.contains("b", "knows", "c"));
        assert_eq!(store.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn commit_reopen_round_trips() {
        let dir = tmp_dir("roundtrip");
        {
            let (mut store, _) = DurableStore::open(&dir).unwrap();
            store.stage_insert("a", "knows", "b");
            store.stage_insert("b", "knows", "c");
            assert_eq!(store.commit().unwrap(), 1);
            store.stage_delete("a", "knows", "b");
            store.stage_edge(EdgeRec {
                id: "e1".into(),
                src: "x".into(),
                src_label: "person".into(),
                label: "rides".into(),
                dst: "y".into(),
                dst_label: "bus".into(),
            });
            assert_eq!(store.commit().unwrap(), 2);
            assert_eq!(store.len(), 1);
        }
        let (store, replay) = DurableStore::open(&dir).unwrap();
        assert_eq!(replay.batches.len(), 2);
        assert_eq!(store.generation(), 2);
        assert_eq!(store.len(), 1);
        assert!(store.contains("b", "knows", "c"));
        assert!(!store.contains("a", "knows", "b"));
        assert_eq!(store.all_edges().count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_folds_and_truncates() {
        let dir = tmp_dir("compact");
        {
            let (mut store, _) = DurableStore::open(&dir).unwrap();
            for i in 0..10 {
                store.stage_insert(&format!("n{i}"), "knows", &format!("n{}", i + 1));
            }
            store.commit().unwrap();
            store.stage_delete("n0", "knows", "n1");
            store.commit().unwrap();
            let wal_before = store.wal_len();
            store.compact().unwrap();
            assert!(store.wal_len() < wal_before);
            assert_eq!(store.len(), 9);
            assert_eq!(store.generation(), 2);
        }
        // Reopen: state comes from the segment alone.
        let (store, replay) = DurableStore::open(&dir).unwrap();
        assert!(replay.batches.is_empty());
        assert_eq!(store.generation(), 2);
        assert_eq!(store.len(), 9);
        assert!(!store.contains("n0", "knows", "n1"));
        // Committing after compaction continues the generation line.
        let (mut store, _) = DurableStore::open(&dir).unwrap();
        store.stage_insert("z", "knows", "w");
        assert_eq!(store.commit().unwrap(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_wal_after_compaction_is_ignored() {
        // Simulate a crash between segment rename and WAL truncation:
        // the WAL still holds batches the segment already folded in.
        let dir = tmp_dir("stalewal");
        let (mut store, _) = DurableStore::open(&dir).unwrap();
        store.stage_insert("a", "knows", "b");
        store.commit().unwrap();
        let wal_bytes = std::fs::read(dir.join(WAL_FILE)).unwrap();
        store.compact().unwrap();
        drop(store);
        std::fs::write(dir.join(WAL_FILE), &wal_bytes).unwrap(); // resurrect stale log
        let (store, replay) = DurableStore::open(&dir).unwrap();
        assert!(replay.batches.is_empty(), "stale batches must be refused");
        assert_eq!(store.generation(), 1);
        assert_eq!(store.len(), 1);
        assert!(store.contains("a", "knows", "b"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Counts and scans see the segment and the logged batches as one
    /// committed view.
    #[test]
    fn counts_consult_the_overlay() {
        let dir = tmp_dir("counts");
        let (mut store, _) = DurableStore::open(&dir).unwrap();
        store.stage_insert("a", "knows", "b");
        store.stage_insert("a", "knows", "c");
        store.stage_insert("b", "likes", "c");
        store.commit().unwrap();
        store.compact().unwrap(); // into the segment
        store.stage_insert("a", "knows", "d"); // logged insert
        store.stage_delete("a", "knows", "b"); // logged delete
        store.commit().unwrap();
        assert_eq!(store.count(Some("a"), Some("knows"), None), 2);
        assert_eq!(store.count(None, None, None), 3);
        assert_eq!(store.count(Some("zzz"), None, None), 0);
        assert_eq!(
            store.scan_all(),
            vec![
                ("a".into(), "knows".into(), "c".into()),
                ("a".into(), "knows".into(), "d".into()),
                ("b".into(), "likes".into(), "c".into()),
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn apply_lets_the_last_op_on_a_triple_win() {
        let op = |insert: bool, s: &str| {
            let (s, p, o) = (s.to_owned(), "knows".to_owned(), "z".to_owned());
            if insert {
                StoreOp::Insert { s, p, o }
            } else {
                StoreOp::Delete { s, p, o }
            }
        };
        let mut st = TripleStore::new();
        st.insert_strs("kept", "knows", "z");
        st.insert_strs("gone", "knows", "z");
        let ops = [
            op(true, "a"),
            op(false, "a"), // inserted, then deleted: absent
            op(false, "b"),
            op(true, "b"), // deleted, then inserted: present
            op(false, "gone"),
            op(true, "gone"),
            op(false, "gone"), // the last op wins
            op(false, "never"),
            op(true, "kept"), // already present: not counted
        ];
        assert_eq!(apply(&mut st, &ops), (1, 1));
        let mut one_by_one = TripleStore::new();
        one_by_one.insert_strs("kept", "knows", "z");
        one_by_one.insert_strs("gone", "knows", "z");
        for op in &ops {
            apply(&mut one_by_one, [op]);
        }
        let strings = |st: &TripleStore| -> Vec<String> {
            let mut v: Vec<String> = st.iter().map(|t| st.term_str(t.s).to_owned()).collect();
            v.sort();
            v
        };
        assert_eq!(strings(&st), ["b", "kept"]);
        assert_eq!(strings(&st), strings(&one_by_one));
        // The fold never interned the triple that ended absent.
        assert_eq!(st.get_term("a"), None);
    }

    #[test]
    fn verify_reports_torn_tail() {
        let dir = tmp_dir("verify");
        let (mut store, _) = DurableStore::open(&dir).unwrap();
        store.stage_insert("a", "knows", "b");
        store.commit().unwrap();
        drop(store);
        let clean = DurableStore::verify(&dir).unwrap();
        assert!(clean.is_clean());
        assert_eq!(clean.wal_batches, 1);
        // Tear the tail.
        let mut bytes = std::fs::read(dir.join(WAL_FILE)).unwrap();
        bytes.extend_from_slice(&[0x07, 0x00]);
        std::fs::write(dir.join(WAL_FILE), &bytes).unwrap();
        let torn = DurableStore::verify(&dir).unwrap();
        assert!(!torn.is_clean());
        assert_eq!(torn.tail, TailState::TornLength);
        assert_eq!(torn.wal_batches, 1, "committed prefix still recoverable");
        assert!(torn.render().contains("recoverable"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
