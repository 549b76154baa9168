//! The checksummed, length-prefixed write-ahead log.
//!
//! ## On-disk format
//!
//! ```text
//! file    := magic record*
//! magic   := "KGQWAL01"                      (8 bytes)
//! record  := len:u32le payload crc:u32le     (crc over payload only)
//! payload := 0x01 s p o                      triple insert
//!          | 0x02 s p o                      triple delete
//!          | 0x03 id src src_label label dst dst_label   edge add
//!          | 0x0F generation:u64le           commit marker
//! s/p/o/… := strlen:u32le utf8-bytes
//! ```
//!
//! A *batch* is a run of op records terminated by one commit marker;
//! the file is fsynced once per batch, after the marker. Commit markers
//! carry a strictly increasing generation stamp, so the recovered
//! store's generation is exactly the stamp of the last durable batch.
//!
//! ## Recovery contract
//!
//! [`Wal::open`] replays the longest valid prefix: scanning stops — as
//! a **clean stop, never a panic** — at the first bad CRC, short read,
//! impossible length, non-UTF-8 term, or generation regression. Ops
//! after the last intact commit marker are discarded (they were never
//! acknowledged), and the file is truncated back to that committed
//! boundary so later appends cannot land after torn garbage.
//!
//! A failed append or fsync rolls the file back to the committed
//! boundary too; if even that rollback fails the log is *poisoned* and
//! every later append reports an error instead of risking silent
//! corruption.

use crate::crc::crc32;
use crate::io_fault;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Leading magic of every WAL file (8 bytes, version-stamped).
pub const WAL_MAGIC: &[u8; 8] = b"KGQWAL01";

/// Defensive cap on a single record's payload, so a corrupt length
/// cannot make recovery allocate unbounded memory.
pub const MAX_RECORD: usize = 16 * 1024 * 1024;

/// An I/O fault decoded from the fault-injection plan (see
/// [`crate::io_fault!`]). Exists unconditionally so call sites type-check
/// with the feature off.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoFault {
    /// Persist only the first `n` bytes of the write, then fail.
    Torn(usize),
    /// Deliver only the first `n` bytes of the read.
    Short(usize),
    /// Report fsync failure.
    Fsync,
    /// Persist the first `n` bytes, then panic (simulated power loss).
    Crash(usize),
}

/// One logged mutation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreOp {
    /// Insert the triple `(s, p, o)` (set semantics).
    Insert {
        /// Subject term.
        s: String,
        /// Predicate term.
        p: String,
        /// Object term.
        o: String,
    },
    /// Delete the triple `(s, p, o)` if present.
    Delete {
        /// Subject term.
        s: String,
        /// Predicate term.
        p: String,
        /// Object term.
        o: String,
    },
    /// Add a property-graph edge (nodes are created on demand).
    EdgeAdd(EdgeRec),
}

/// A durable property-graph edge record. `id` is unique per edge so
/// replay after a partial compaction stays idempotent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgeRec {
    /// Edge identifier (unique within the store's history).
    pub id: String,
    /// Source node identifier.
    pub src: String,
    /// Label given to the source node if it must be created.
    pub src_label: String,
    /// Edge label.
    pub label: String,
    /// Destination node identifier.
    pub dst: String,
    /// Label given to the destination node if it must be created.
    pub dst_label: String,
}

const TAG_INSERT: u8 = 0x01;
const TAG_DELETE: u8 = 0x02;
const TAG_EDGE: u8 = 0x03;
const TAG_COMMIT: u8 = 0x0F;

fn push_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

/// Encodes one record (length prefix + payload + CRC) into `out`. A
/// payload above [`MAX_RECORD`] is `InvalidInput`: recovery would read
/// its length as corrupt and truncate the log there, dropping every
/// later batch with it. The cap also keeps every term length, which
/// [`push_str`] writes as `u32`, from wrapping.
fn encode_record(out: &mut Vec<u8>, payload: &[u8]) -> std::io::Result<()> {
    if payload.len() > MAX_RECORD {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "WAL record of {} bytes exceeds the {MAX_RECORD}-byte cap",
                payload.len()
            ),
        ));
    }
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    Ok(())
}

/// Encodes an op record's payload.
fn encode_op(op: &StoreOp) -> Vec<u8> {
    let mut p = Vec::new();
    match op {
        StoreOp::Insert { s, p: pr, o } => {
            p.push(TAG_INSERT);
            push_str(&mut p, s);
            push_str(&mut p, pr);
            push_str(&mut p, o);
        }
        StoreOp::Delete { s, p: pr, o } => {
            p.push(TAG_DELETE);
            push_str(&mut p, s);
            push_str(&mut p, pr);
            push_str(&mut p, o);
        }
        StoreOp::EdgeAdd(e) => {
            p.push(TAG_EDGE);
            for part in [&e.id, &e.src, &e.src_label, &e.label, &e.dst, &e.dst_label] {
                push_str(&mut p, part);
            }
        }
    }
    p
}

fn encode_commit(generation: u64) -> Vec<u8> {
    let mut p = Vec::with_capacity(9);
    p.push(TAG_COMMIT);
    p.extend_from_slice(&generation.to_le_bytes());
    p
}

/// The wire bytes of one committed batch: op records + commit marker.
/// Exposed for the crash-torture harness, which needs to know batch
/// boundaries to compute expected recovery prefixes. A batch with a
/// record above [`MAX_RECORD`] encodes to nothing;
/// [`Wal::append_batch`] refuses it as `InvalidInput` instead.
pub fn encode_batch(ops: &[StoreOp], generation: u64) -> Vec<u8> {
    try_encode_batch(ops, generation).unwrap_or_default()
}

fn try_encode_batch(ops: &[StoreOp], generation: u64) -> std::io::Result<Vec<u8>> {
    let mut buf = Vec::new();
    for op in ops {
        encode_record(&mut buf, &encode_op(op))?;
    }
    encode_record(&mut buf, &encode_commit(generation))?;
    Ok(buf)
}

/// One record decoded during a scan.
enum Decoded {
    Op(StoreOp),
    Commit(u64),
}

/// Why a scan stopped before the end of the file. All of these are the
/// *expected* shapes a crash leaves behind — recovery treats every one
/// as a clean stop at the previous record boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TailState {
    /// The scan consumed the whole file; the tail is clean.
    Clean,
    /// Fewer bytes than a length prefix / CRC remained (torn tail).
    TornLength,
    /// The length prefix points past the end of the file (torn payload)
    /// or beyond [`MAX_RECORD`] (corrupt length).
    TornPayload,
    /// The payload's CRC does not match (bit rot or a torn interior).
    BadCrc,
    /// The payload decoded to garbage (unknown tag, non-UTF-8 term,
    /// generation regression) despite a matching CRC.
    BadPayload,
}

impl TailState {
    /// Human-readable description for `kgq store verify`.
    pub fn describe(&self) -> &'static str {
        match self {
            TailState::Clean => "clean",
            TailState::TornLength => "torn tail (partial length/crc frame)",
            TailState::TornPayload => "torn tail (payload extends past end of file)",
            TailState::BadCrc => "checksum mismatch",
            TailState::BadPayload => "undecodable payload",
        }
    }
}

/// Result of scanning a WAL image: the committed batches of its longest
/// valid prefix, plus forensics about where and why the scan stopped.
#[derive(Debug)]
pub struct Replay {
    /// Committed batches in log order, each with its generation stamp.
    pub batches: Vec<(u64, Vec<StoreOp>)>,
    /// Generation of the last committed batch (`base` when none).
    pub generation: u64,
    /// Byte offset of the end of the last intact commit marker — the
    /// boundary the file is truncated back to before appending.
    pub committed_len: u64,
    /// Bytes scanned as valid records (committed or not).
    pub valid_len: u64,
    /// Total bytes in the scanned image.
    pub total_len: u64,
    /// Valid op records after the last commit marker (an unacknowledged
    /// batch the crash cut short; discarded on recovery).
    pub uncommitted_ops: usize,
    /// How the scan ended.
    pub tail: TailState,
}

/// Scans a WAL image (everything after the magic has been verified),
/// returning the committed prefix. `base_generation` seeds the
/// monotonicity check — commit stamps must strictly increase from it.
pub fn scan(image: &[u8], base_generation: u64) -> Replay {
    let mut replay = Replay {
        batches: Vec::new(),
        generation: base_generation,
        committed_len: WAL_MAGIC.len() as u64,
        valid_len: WAL_MAGIC.len() as u64,
        total_len: image.len() as u64,
        uncommitted_ops: 0,
        tail: TailState::Clean,
    };
    let mut at = WAL_MAGIC.len();
    let mut pending: Vec<StoreOp> = Vec::new();
    let mut last_gen = base_generation;
    loop {
        if at == image.len() {
            break; // clean end at a record boundary
        }
        if image.len() - at < 4 {
            replay.tail = TailState::TornLength;
            break;
        }
        let len =
            u32::from_le_bytes([image[at], image[at + 1], image[at + 2], image[at + 3]]) as usize;
        if len > MAX_RECORD || image.len() - at - 4 < len {
            replay.tail = TailState::TornPayload;
            break;
        }
        if image.len() - at - 4 - len < 4 {
            replay.tail = TailState::TornLength;
            break;
        }
        let payload = &image[at + 4..at + 4 + len];
        let crc_at = at + 4 + len;
        let stored = u32::from_le_bytes([
            image[crc_at],
            image[crc_at + 1],
            image[crc_at + 2],
            image[crc_at + 3],
        ]);
        if crc32(payload) != stored {
            replay.tail = TailState::BadCrc;
            break;
        }
        let Some(decoded) = decode_payload(payload) else {
            replay.tail = TailState::BadPayload;
            break;
        };
        at = crc_at + 4;
        replay.valid_len = at as u64;
        match decoded {
            Decoded::Op(op) => pending.push(op),
            Decoded::Commit(generation) => {
                if generation <= last_gen {
                    // A stamp that does not advance means the tail was
                    // recycled from an older life of the file: stop.
                    replay.valid_len = replay.committed_len;
                    replay.tail = TailState::BadPayload;
                    break;
                }
                last_gen = generation;
                replay.generation = generation;
                replay
                    .batches
                    .push((generation, std::mem::take(&mut pending)));
                replay.committed_len = at as u64;
            }
        }
    }
    replay.uncommitted_ops = pending.len();
    replay
}

fn decode_payload(payload: &[u8]) -> Option<Decoded> {
    let (&tag, mut rest) = payload.split_first()?;
    let next_str = |rest: &mut &[u8]| -> Option<String> {
        if rest.len() < 4 {
            return None;
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        if rest.len() - 4 < len {
            return None;
        }
        let s = std::str::from_utf8(&rest[4..4 + len]).ok()?.to_owned();
        *rest = &rest[4 + len..];
        Some(s)
    };
    let decoded = match tag {
        TAG_INSERT | TAG_DELETE => {
            let s = next_str(&mut rest)?;
            let p = next_str(&mut rest)?;
            let o = next_str(&mut rest)?;
            if tag == TAG_INSERT {
                Decoded::Op(StoreOp::Insert { s, p, o })
            } else {
                Decoded::Op(StoreOp::Delete { s, p, o })
            }
        }
        TAG_EDGE => {
            let id = next_str(&mut rest)?;
            let src = next_str(&mut rest)?;
            let src_label = next_str(&mut rest)?;
            let label = next_str(&mut rest)?;
            let dst = next_str(&mut rest)?;
            let dst_label = next_str(&mut rest)?;
            Decoded::Op(StoreOp::EdgeAdd(EdgeRec {
                id,
                src,
                src_label,
                label,
                dst,
                dst_label,
            }))
        }
        TAG_COMMIT => {
            if rest.len() != 8 {
                return None;
            }
            let mut g = [0u8; 8];
            g.copy_from_slice(rest);
            rest = &rest[8..];
            Decoded::Commit(u64::from_le_bytes(g))
        }
        _ => return None,
    };
    if !rest.is_empty() {
        return None; // trailing garbage inside a checksummed payload
    }
    Some(decoded)
}

/// The open write-ahead log of one durable store.
pub struct Wal {
    path: PathBuf,
    file: File,
    committed_len: u64,
    poisoned: bool,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("path", &self.path)
            .field("committed_len", &self.committed_len)
            .field("poisoned", &self.poisoned)
            .finish()
    }
}

fn data_err(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// Reads a file honoring an armed `wal::read` short-read fault.
pub(crate) fn read_file_faulted(path: &Path) -> std::io::Result<Vec<u8>> {
    let mut buf = Vec::new();
    File::open(path)?.read_to_end(&mut buf)?;
    if let Some(IoFault::Short(n)) = io_fault!("wal::read") {
        buf.truncate(n);
    }
    Ok(buf)
}

impl Wal {
    /// Opens (or creates) the log at `path`, replays its committed
    /// prefix against `base_generation`, truncates torn/uncommitted
    /// bytes, and returns the log positioned for appending plus the
    /// replay. A missing file becomes a fresh, empty log; a file whose
    /// *magic* is wrong is a hard error (that is not a torn tail — it
    /// is not a WAL).
    pub fn open(path: &Path, base_generation: u64) -> std::io::Result<(Wal, Replay)> {
        let exists = path.exists();
        if !exists {
            let mut file = OpenOptions::new()
                .create(true)
                .truncate(true)
                .read(true)
                .write(true)
                .open(path)?;
            file.write_all(WAL_MAGIC)?;
            file.sync_all()?;
            let wal = Wal {
                path: path.to_path_buf(),
                file,
                committed_len: WAL_MAGIC.len() as u64,
                poisoned: false,
            };
            let replay = Replay {
                batches: Vec::new(),
                generation: base_generation,
                committed_len: WAL_MAGIC.len() as u64,
                valid_len: WAL_MAGIC.len() as u64,
                total_len: WAL_MAGIC.len() as u64,
                uncommitted_ops: 0,
                tail: TailState::Clean,
            };
            return Ok((wal, replay));
        }
        let image = read_file_faulted(path)?;
        if image.len() < WAL_MAGIC.len() {
            // Shorter than the magic: only possible if creation itself
            // was torn. Rewrite the header and treat as empty.
            let mut file = OpenOptions::new().read(true).write(true).open(path)?;
            file.set_len(0)?;
            file.write_all(WAL_MAGIC)?;
            file.sync_all()?;
            let wal = Wal {
                path: path.to_path_buf(),
                file,
                committed_len: WAL_MAGIC.len() as u64,
                poisoned: false,
            };
            let replay = Replay {
                batches: Vec::new(),
                generation: base_generation,
                committed_len: WAL_MAGIC.len() as u64,
                valid_len: WAL_MAGIC.len() as u64,
                total_len: image.len() as u64,
                uncommitted_ops: 0,
                tail: TailState::TornLength,
            };
            return Ok((wal, replay));
        }
        if &image[..WAL_MAGIC.len()] != WAL_MAGIC {
            return Err(data_err(format!(
                "{}: not a kgq WAL (bad magic)",
                path.display()
            )));
        }
        let replay = scan(&image, base_generation);
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        // Drop torn bytes and unacknowledged ops so appends always land
        // at a committed boundary.
        if replay.committed_len < image.len() as u64 {
            file.set_len(replay.committed_len)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::End(0))?;
        Ok((
            Wal {
                path: path.to_path_buf(),
                file,
                committed_len: replay.committed_len,
                poisoned: false,
            },
            replay,
        ))
    }

    /// Bytes of committed log (including the magic header).
    pub fn committed_len(&self) -> u64 {
        self.committed_len
    }

    /// Appends one batch (op records + commit marker stamped with
    /// `generation`) and fsyncs. On *any* failure the file is rolled
    /// back to the committed boundary — the batch is not durable and
    /// must not be acknowledged. A record above [`MAX_RECORD`] is
    /// `InvalidInput` before anything is written. Injected faults:
    /// `wal::append` (torn write / crash-after-N-bytes), `wal::fsync`
    /// (fsync failure).
    pub fn append_batch(&mut self, ops: &[StoreOp], generation: u64) -> std::io::Result<()> {
        if self.poisoned {
            return Err(data_err(format!(
                "{}: log poisoned by an earlier failed rollback; reopen the store",
                self.path.display()
            )));
        }
        let buf = try_encode_batch(ops, generation)?;
        let write_result = self.write_batch_bytes(&buf);
        match write_result {
            Ok(()) => {
                self.committed_len += buf.len() as u64;
                Ok(())
            }
            Err(e) => {
                // Roll back to the committed boundary so the next append
                // cannot land after torn bytes.
                let rollback = self
                    .file
                    .set_len(self.committed_len)
                    .and_then(|()| self.file.seek(SeekFrom::End(0)).map(|_| ()))
                    .and_then(|()| self.file.sync_all());
                if rollback.is_err() {
                    self.poisoned = true;
                }
                Err(e)
            }
        }
    }

    fn write_batch_bytes(&mut self, buf: &[u8]) -> std::io::Result<()> {
        match io_fault!("wal::append") {
            Some(IoFault::Torn(n)) => {
                let n = n.min(buf.len());
                self.file.write_all(&buf[..n])?;
                let _ = self.file.sync_all();
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "injected torn write at wal::append",
                ));
            }
            Some(IoFault::Crash(n)) => {
                let n = n.min(buf.len());
                let _ = self.file.write_all(&buf[..n]);
                let _ = self.file.sync_all();
                panic!("injected crash at wal::append after {n} bytes");
            }
            _ => {}
        }
        self.file.write_all(buf)?;
        if let Some(IoFault::Fsync) = io_fault!("wal::fsync") {
            return Err(std::io::Error::other(
                "injected fsync failure at wal::fsync",
            ));
        }
        self.file.sync_all()
    }

    /// Truncates the log to an empty (header-only) file after a
    /// successful compaction folded its batches into the segment.
    pub fn reset(&mut self) -> std::io::Result<()> {
        self.file.set_len(WAL_MAGIC.len() as u64)?;
        self.file.seek(SeekFrom::End(0))?;
        self.file.sync_all()?;
        self.committed_len = WAL_MAGIC.len() as u64;
        self.poisoned = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops() -> Vec<StoreOp> {
        vec![
            StoreOp::Insert {
                s: "a".into(),
                p: "knows".into(),
                o: "b".into(),
            },
            StoreOp::Delete {
                s: "a".into(),
                p: "knows".into(),
                o: "b".into(),
            },
            StoreOp::EdgeAdd(EdgeRec {
                id: "e1".into(),
                src: "x".into(),
                src_label: "person".into(),
                label: "rides".into(),
                dst: "y".into(),
                dst_label: "bus".into(),
            }),
        ]
    }

    #[test]
    fn batch_round_trips_through_scan() {
        let mut image = WAL_MAGIC.to_vec();
        image.extend_from_slice(&encode_batch(&ops(), 1));
        image.extend_from_slice(&encode_batch(&ops()[..1], 2));
        let replay = scan(&image, 0);
        assert_eq!(replay.tail, TailState::Clean);
        assert_eq!(replay.generation, 2);
        assert_eq!(replay.batches.len(), 2);
        assert_eq!(replay.batches[0].1, ops());
        assert_eq!(replay.batches[1].1, &ops()[..1]);
        assert_eq!(replay.committed_len, image.len() as u64);
        assert_eq!(replay.uncommitted_ops, 0);
    }

    #[test]
    fn every_truncation_recovers_a_committed_prefix() {
        let mut image = WAL_MAGIC.to_vec();
        let b1 = encode_batch(&ops(), 1);
        let b2 = encode_batch(&ops()[..2], 2);
        image.extend_from_slice(&b1);
        image.extend_from_slice(&b2);
        let full_1 = WAL_MAGIC.len() + b1.len();
        for cut in WAL_MAGIC.len()..=image.len() {
            let replay = scan(&image[..cut], 0);
            let want_batches = if cut >= full_1 + b2.len() {
                2
            } else if cut >= full_1 {
                1
            } else {
                0
            };
            assert_eq!(
                replay.batches.len(),
                want_batches,
                "cut at {cut} recovered a non-committed prefix"
            );
            assert_eq!(replay.generation, want_batches as u64);
        }
    }

    #[test]
    fn every_bit_flip_is_caught() {
        let mut image = WAL_MAGIC.to_vec();
        image.extend_from_slice(&encode_batch(&ops(), 1));
        for byte in WAL_MAGIC.len()..image.len() {
            for bit in 0..8 {
                let mut corrupt = image.clone();
                corrupt[byte] ^= 1 << bit;
                let replay = scan(&corrupt, 0);
                // Either the record is rejected (0 batches) or the flip
                // produced a *structurally different but valid* frame —
                // the CRC makes that astronomically unlikely, and the
                // scan must never panic either way.
                assert!(replay.batches.len() <= 1);
            }
        }
    }

    #[test]
    fn generation_regression_stops_the_scan() {
        let mut image = WAL_MAGIC.to_vec();
        image.extend_from_slice(&encode_batch(&ops()[..1], 5));
        image.extend_from_slice(&encode_batch(&ops()[..1], 3)); // stale tail
        let replay = scan(&image, 0);
        assert_eq!(replay.batches.len(), 1);
        assert_eq!(replay.generation, 5);
        assert_eq!(replay.tail, TailState::BadPayload);
    }

    #[test]
    fn open_append_reopen_round_trips() {
        let dir = std::env::temp_dir().join(format!("kgq-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal-roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let (mut wal, replay) = Wal::open(&path, 0).unwrap();
            assert!(replay.batches.is_empty());
            wal.append_batch(&ops(), 1).unwrap();
            wal.append_batch(&ops()[..1], 2).unwrap();
        }
        let (mut wal, replay) = Wal::open(&path, 0).unwrap();
        assert_eq!(replay.batches.len(), 2);
        assert_eq!(replay.generation, 2);
        wal.reset().unwrap();
        let (_, replay) = Wal::open(&path, 0).unwrap();
        assert!(replay.batches.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_file_is_truncated_on_open() {
        let dir = std::env::temp_dir().join(format!("kgq-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal-torn");
        let _ = std::fs::remove_file(&path);
        {
            let (mut wal, _) = Wal::open(&path, 0).unwrap();
            wal.append_batch(&ops(), 1).unwrap();
        }
        // Tear the tail: half a batch beyond the committed boundary.
        let garbage = encode_batch(&ops()[..1], 2);
        let mut bytes = std::fs::read(&path).unwrap();
        let committed = bytes.len();
        bytes.extend_from_slice(&garbage[..garbage.len() / 2]);
        std::fs::write(&path, &bytes).unwrap();
        let (wal, replay) = Wal::open(&path, 0).unwrap();
        assert_eq!(replay.batches.len(), 1);
        assert_eq!(wal.committed_len(), committed as u64);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            committed as u64,
            "torn bytes must be dropped so appends land at the boundary"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bad_magic_is_a_hard_error() {
        let dir = std::env::temp_dir().join(format!("kgq-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal-badmagic");
        std::fs::write(&path, b"NOTAWAL!rest").unwrap();
        assert!(Wal::open(&path, 0).is_err());
        let _ = std::fs::remove_file(&path);
    }
}
