//! Crash-torture suite for the durable write path.
//!
//! Two layers of violence:
//!
//! 1. **Truncation sweep** (always compiled): the WAL of a multi-batch
//!    history is cut at *every* byte offset and reopened; recovery must
//!    yield exactly the state of the longest committed prefix that fits
//!    in the cut — never a panic, never a partial batch.
//! 2. **Injected-fault campaigns** (`--features fault-injection`): the
//!    writer is killed mid-append at every byte offset via the
//!    `wal::append` crash site, fsync failures and short reads are
//!    fired from seeded plans at `wal::fsync` / `wal::read`, and
//!    compaction is crashed at `segment::write` — each time asserting
//!    the same invariant: recovered state equals a committed prefix.

use kgq_store::wal::{encode_batch, EdgeRec, StoreOp, WAL_MAGIC};
use kgq_store::DurableStore;
use std::path::{Path, PathBuf};

/// Guards the process-global fault plan. The truncation sweeps open
/// stores through the `wal::read` site too, so with fault injection
/// compiled in they hold it as well: otherwise a sweep running beside a
/// campaign would fire, or use up, that campaign's one-shot arm.
#[cfg(feature = "fault-injection")]
static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Takes [`LOCK`] and clears the plan, so the holder starts disarmed.
#[cfg(feature = "fault-injection")]
fn quiet_plan() -> std::sync::MutexGuard<'static, ()> {
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    kgq_core::govern::fault::clear();
    guard
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kgq-torture-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The three-batch history every sweep uses: inserts, a delete that
/// tombstones batch 1, and an edge, so replay exercises every op kind.
fn history() -> Vec<Vec<StoreOp>> {
    let t = |s: &str, p: &str, o: &str| StoreOp::Insert {
        s: s.into(),
        p: p.into(),
        o: o.into(),
    };
    let d = |s: &str, p: &str, o: &str| StoreOp::Delete {
        s: s.into(),
        p: p.into(),
        o: o.into(),
    };
    vec![
        vec![t("a", "knows", "b"), t("b", "knows", "c")],
        vec![
            d("a", "knows", "b"),
            t("c", "knows", "d"),
            StoreOp::EdgeAdd(EdgeRec {
                id: "e1".into(),
                src: "x".into(),
                src_label: "person".into(),
                label: "rides".into(),
                dst: "y".into(),
                dst_label: "bus".into(),
            }),
        ],
        vec![t("d", "likes", "e")],
    ]
}

fn stage(store: &mut DurableStore, ops: &[StoreOp]) {
    for op in ops {
        match op {
            StoreOp::Insert { s, p, o } => store.stage_insert(s, p, o),
            StoreOp::Delete { s, p, o } => store.stage_delete(s, p, o),
            StoreOp::EdgeAdd(e) => store.stage_edge(e.clone()),
        }
    }
}

/// Observable committed state: generation, sorted triples, edge ids.
type State = (u64, Vec<(String, String, String)>, Vec<String>);

fn state(store: &DurableStore) -> State {
    (
        store.generation(),
        store.scan_all(),
        store.all_edges().map(|e| e.id.clone()).collect(),
    )
}

/// Builds the history in `dir`, returning the expected state after each
/// committed prefix (index k = first k batches) and the WAL byte
/// boundaries of each batch.
fn build_history(dir: &Path) -> (Vec<State>, Vec<usize>) {
    let (mut store, _) = DurableStore::open(dir).unwrap();
    let mut states = vec![state(&store)];
    let mut boundaries = vec![WAL_MAGIC.len()];
    for (i, batch) in history().iter().enumerate() {
        stage(&mut store, batch);
        store.commit().unwrap();
        states.push(state(&store));
        boundaries.push(boundaries[i] + encode_batch(batch, (i + 1) as u64).len());
    }
    assert_eq!(store.wal_len() as usize, *boundaries.last().unwrap());
    (states, boundaries)
}

/// Number of whole batches that fit in a `cut`-byte WAL prefix.
fn committed_within(boundaries: &[usize], cut: usize) -> usize {
    boundaries.iter().skip(1).filter(|&&b| b <= cut).count()
}

#[test]
fn truncation_sweep_every_byte_offset() {
    #[cfg(feature = "fault-injection")]
    let _plan = quiet_plan();
    let src = tmp_dir("trunc-src");
    let (states, boundaries) = build_history(&src);
    let wal = std::fs::read(src.join("wal.log")).unwrap();
    let dst = tmp_dir("trunc-dst");
    for cut in WAL_MAGIC.len()..=wal.len() {
        std::fs::write(dst.join("wal.log"), &wal[..cut]).unwrap();
        let (store, replay) = DurableStore::open(&dst).unwrap();
        let k = committed_within(&boundaries, cut);
        assert_eq!(
            state(&store),
            states[k],
            "cut at {cut}: recovered state is not the committed prefix"
        );
        assert_eq!(replay.batches.len(), k);
        assert_eq!(replay.committed_len as usize, boundaries[k]);
        // Recovery truncated the torn bytes: a second open is clean.
        drop(store);
        let (store2, replay2) = DurableStore::open(&dst).unwrap();
        assert_eq!(state(&store2), states[k], "cut at {cut}: reopen diverged");
        assert_eq!(replay2.total_len as usize, boundaries[k]);
    }
    let _ = std::fs::remove_dir_all(&src);
    let _ = std::fs::remove_dir_all(&dst);
}

#[test]
fn truncation_sweep_with_compacted_base() {
    #[cfg(feature = "fault-injection")]
    let _plan = quiet_plan();
    // Same sweep, but batch 1 is already folded into a segment — the
    // cut only tears batches 2..: recovery must keep the base intact.
    let src = tmp_dir("trunc-seg-src");
    let (mut store, _) = DurableStore::open(&src).unwrap();
    let batches = history();
    stage(&mut store, &batches[0]);
    store.commit().unwrap();
    store.compact().unwrap();
    let mut states = vec![state(&store)];
    let mut boundaries = vec![WAL_MAGIC.len()];
    for (i, batch) in batches[1..].iter().enumerate() {
        stage(&mut store, batch);
        store.commit().unwrap();
        states.push(state(&store));
        boundaries.push(boundaries[i] + encode_batch(batch, (i + 2) as u64).len());
    }
    drop(store);
    let wal = std::fs::read(src.join("wal.log")).unwrap();
    let seg = std::fs::read(src.join("base.seg")).unwrap();
    let dst = tmp_dir("trunc-seg-dst");
    std::fs::write(dst.join("base.seg"), &seg).unwrap();
    for cut in WAL_MAGIC.len()..=wal.len() {
        std::fs::write(dst.join("wal.log"), &wal[..cut]).unwrap();
        let (store, _) = DurableStore::open(&dst).unwrap();
        let k = committed_within(&boundaries, cut);
        assert_eq!(state(&store), states[k], "cut at {cut} with segment base");
    }
    let _ = std::fs::remove_dir_all(&src);
    let _ = std::fs::remove_dir_all(&dst);
}

#[cfg(feature = "fault-injection")]
mod injected {
    use super::*;
    use kgq_core::govern::fault::{self, Action};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{MutexGuard, Once};

    /// Serializes tests on the process-global fault plan and silences
    /// the panic hook for injected crashes (they are the test's point;
    /// their backtraces are noise).
    fn serial() -> MutexGuard<'static, ()> {
        static HOOK: Once = Once::new();
        HOOK.call_once(|| {
            let default = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let injected = info
                    .payload()
                    .downcast_ref::<String>()
                    .map(|s| s.contains("injected"))
                    .or_else(|| {
                        info.payload()
                            .downcast_ref::<&str>()
                            .map(|s| s.contains("injected"))
                    })
                    .unwrap_or(false);
                if !injected {
                    default(info);
                }
            }));
        });
        quiet_plan()
    }

    /// splitmix64, duplicated here so campaign parameters are derived
    /// deterministically from a seed without touching the armed plan.
    fn splitmix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Kills the writer at every byte offset of a batch append and
    /// asserts recovery equals a committed prefix: the torn batch is
    /// discarded unless every one of its bytes reached the file.
    #[test]
    fn crash_sweep_every_append_offset() {
        let _guard = serial();
        let batches = history();
        let batch2 = encode_batch(&batches[1], 2);
        for n in 0..=batch2.len() {
            fault::clear();
            let dir = tmp_dir(&format!("crash-{n}"));
            let (mut store, _) = DurableStore::open(&dir).unwrap();
            stage(&mut store, &batches[0]);
            store.commit().unwrap();
            let before = state(&store);
            let after = {
                // What full durability of batch 2 would look like.
                let probe = tmp_dir(&format!("crash-probe-{n}"));
                let (mut p, _) = DurableStore::open(&probe).unwrap();
                stage(&mut p, &batches[0]);
                p.commit().unwrap();
                stage(&mut p, &batches[1]);
                p.commit().unwrap();
                let s = state(&p);
                let _ = std::fs::remove_dir_all(&probe);
                s
            };
            fault::arm("wal::append", Action::CrashAfter(n as u64), 0);
            stage(&mut store, &batches[1]);
            let outcome = catch_unwind(AssertUnwindSafe(|| store.commit()));
            assert!(outcome.is_err(), "offset {n}: injected crash did not fire");
            drop(store);
            fault::clear();
            let (recovered, replay) = DurableStore::open(&dir).unwrap();
            let got = state(&recovered);
            if n < batch2.len() {
                assert_eq!(got, before, "offset {n}: torn batch leaked into state");
                assert_eq!(replay.batches.len(), 1);
            } else {
                assert_eq!(got, after, "offset {n}: fully-written batch lost");
                assert_eq!(replay.batches.len(), 2);
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Seeded fsync-failure campaign: a failing commit must report the
    /// error, leave the in-memory view unchanged, keep the log usable
    /// for later commits, and never surface after reopen.
    #[test]
    fn fsync_failure_campaign() {
        let _guard = serial();
        let batches = history();
        for seed in 0..24u64 {
            fault::clear();
            let dir = tmp_dir(&format!("fsync-{seed}"));
            let (mut store, _) = DurableStore::open(&dir).unwrap();
            // The armed plan fires on a seed-derived commit index.
            fault::arm_seeded(
                seed,
                &["wal::fsync"],
                Action::FsyncFail,
                batches.len() as u64,
            );
            let mut committed = 0u64;
            let mut failed = 0;
            for batch in &batches {
                let before = state(&store);
                stage(&mut store, batch);
                match store.commit() {
                    Ok(generation) => {
                        committed = generation;
                        assert_eq!(store.generation(), generation);
                    }
                    Err(_) => {
                        failed += 1;
                        assert_eq!(
                            state(&store),
                            before,
                            "seed {seed}: failed commit mutated the view"
                        );
                    }
                }
            }
            assert_eq!(failed, 1, "seed {seed}: exactly one fsync should fail");
            let in_memory = state(&store);
            drop(store);
            fault::clear();
            let (recovered, replay) = DurableStore::open(&dir).unwrap();
            assert_eq!(state(&recovered), in_memory, "seed {seed}: reopen diverged");
            assert_eq!(replay.generation, committed);
            assert_eq!(replay.tail, kgq_store::TailState::Clean);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Seeded short-read campaign: opening a store whose WAL read is
    /// clipped at an arbitrary byte must recover a committed prefix —
    /// cleanly, with no panic and no partial batch.
    #[test]
    fn short_read_campaign() {
        let _guard = serial();
        let src = tmp_dir("short-src");
        let (states, boundaries) = build_history(&src);
        let total = *boundaries.last().unwrap();
        let wal = std::fs::read(src.join("wal.log")).unwrap();
        let dst = tmp_dir("short-dst");
        for seed in 0..48u64 {
            fault::clear();
            let n = (splitmix64(seed) as usize) % (total + 1);
            std::fs::write(dst.join("wal.log"), &wal).unwrap();
            fault::arm("wal::read", Action::ShortRead(n as u64), 0);
            let (store, replay) = DurableStore::open(&dst).unwrap();
            let k = committed_within(&boundaries, n.max(WAL_MAGIC.len()));
            assert_eq!(
                state(&store),
                states[k],
                "seed {seed} (clip {n}): not a committed prefix"
            );
            assert_eq!(replay.batches.len(), k);
            let _ = std::fs::remove_file(dst.join("wal.log"));
        }
        let _ = std::fs::remove_dir_all(&src);
        let _ = std::fs::remove_dir_all(&dst);
    }

    /// Compaction killed or failed at the segment site must leave the
    /// store exactly as committed: the old segment survives (rename
    /// never happened) and the WAL still replays everything.
    #[test]
    fn compaction_crash_keeps_committed_state() {
        let _guard = serial();
        let batches = history();
        // A few representative offsets into the segment image plus the
        // two error actions; every case must preserve the full state.
        let cases: Vec<Action> = vec![
            Action::CrashAfter(0),
            Action::CrashAfter(1),
            Action::CrashAfter(9),
            Action::CrashAfter(64),
            Action::TornWrite(13),
            Action::FsyncFail,
        ];
        for (i, action) in cases.into_iter().enumerate() {
            fault::clear();
            let dir = tmp_dir(&format!("compact-{i}"));
            let (mut store, _) = DurableStore::open(&dir).unwrap();
            for batch in &batches {
                stage(&mut store, batch);
                store.commit().unwrap();
            }
            let committed = state(&store);
            fault::arm("segment::write", action, 0);
            match action {
                Action::CrashAfter(_) => {
                    let outcome = catch_unwind(AssertUnwindSafe(|| store.compact()));
                    assert!(outcome.is_err(), "case {i}: crash did not fire");
                }
                _ => {
                    let err = store.compact();
                    assert!(err.is_err(), "case {i}: fault did not surface");
                    // The store stays fully usable after the failure.
                    assert_eq!(state(&store), committed);
                }
            }
            drop(store);
            fault::clear();
            let (recovered, _) = DurableStore::open(&dir).unwrap();
            assert_eq!(state(&recovered), committed, "case {i}: state lost");
            assert!(
                !dir.join("base.seg").exists(),
                "case {i}: torn segment must never be renamed into place"
            );
            // And a retried compaction (no fault) succeeds.
            let (mut retry, _) = DurableStore::open(&dir).unwrap();
            retry.compact().unwrap();
            assert_eq!(state(&retry), committed);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// A shortened mapping at `segment::mmap` must be caught by the
    /// open-time CRC — a torn view is never served, and a clean reopen
    /// sees the full committed state.
    #[test]
    fn short_mapping_fails_crc_at_open() {
        let _guard = serial();
        fault::clear();
        let dir = tmp_dir("mmap-short");
        let (mut store, _) = DurableStore::open(&dir).unwrap();
        for batch in &history() {
            stage(&mut store, batch);
            store.commit().unwrap();
        }
        store.compact().unwrap();
        let committed = state(&store);
        drop(store);
        let seg_path = dir.join("base.seg");
        let full = std::fs::metadata(&seg_path).unwrap().len();
        for cut in [0u64, 7, 12, full / 2, full - 1] {
            fault::arm("segment::mmap", Action::ShortRead(cut), 0);
            assert!(
                kgq_store::SegmentMap::open(&seg_path).is_err(),
                "cut at {cut} of {full} served a torn mapping"
            );
            fault::arm("segment::mmap", Action::ShortRead(cut), 0);
            assert!(
                DurableStore::open(&dir).is_err(),
                "recovery at cut {cut} accepted a torn segment"
            );
            fault::clear();
        }
        let (recovered, _) = DurableStore::open(&dir).unwrap();
        assert_eq!(state(&recovered), committed);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
