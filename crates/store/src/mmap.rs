//! Memory-mapped immutable segment reader.
//!
//! [`SegmentMap`] opens a segment file, maps it read-only (falling back
//! to a heap read where `mmap` is unavailable or fails) and reads its
//! magic, header and chunk table — nothing else, so opening costs the
//! same for a kilobyte and for a gigabyte. Each 64 KiB chunk of the
//! payload is CRC-checked the first time a reader touches it and
//! remembered in one atomic bit, so no byte is decoded unverified and
//! none is checked twice. The packed
//! adjacency section is served zero-copy as a lazily verified
//! `kgq_graph::packed::PackedView` ([`SegmentMap::packed_view`]): a
//! 10⁸-edge graph is queried without materializing its adjacency on
//! the heap, and a query pages in and checks only the chunks it reads.
//! A `KGQSEG01` file has one chunk, verified at open.
//!
//! The mapping is private and read-only; the file is immutable by the
//! store's atomic-replacement contract (tmp + fsync + rename), so the
//! pages can never change under us, however long after open a chunk is
//! first read. Compaction *replaces* the segment file rather than
//! rewriting it, which on POSIX leaves an existing mapping pointing at
//! the old inode — a reader holding a `SegmentMap` across a compaction
//! keeps a consistent (older) snapshot, exactly like the
//! generation-stamped caches.
//!
//! The `mmap`/`munmap` calls are declared by hand (`extern "C"`): the
//! build carries no libc-binding crate, and on every supported unix
//! the two symbols live in the C library the binary already links.

use crate::io_fault;
use crate::segment::{self, Layout, Sections, Segment};
use crate::wal::IoFault;
use kgq_graph::packed::{BlobGuard, PackedView};
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

fn data_err(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// The bytes behind a [`SegmentMap`]: a real mapping or a heap copy.
enum MapInner {
    /// A `PROT_READ`/`MAP_PRIVATE` mapping of the whole file.
    #[cfg(unix)]
    Mapped {
        ptr: *mut core::ffi::c_void,
        len: usize,
    },
    /// Fallback: the whole file read into memory.
    Heap(Vec<u8>),
}

#[cfg(unix)]
mod sys {
    //! Hand-declared slice of the C library's mmap interface. Values
    //! are the Linux generic ABI constants (identical on x86-64,
    //! aarch64 and riscv64, and on the BSDs for these three).
    use core::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    unsafe extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

impl MapInner {
    fn bytes(&self) -> &[u8] {
        match self {
            #[cfg(unix)]
            // Safety: the pointer came from a successful `mmap` of
            // exactly `len` readable bytes and lives until `munmap` in
            // `Drop`; the mapping is private, so no other process can
            // mutate the pages we see.
            MapInner::Mapped { ptr, len } => unsafe {
                std::slice::from_raw_parts(*ptr as *const u8, *len)
            },
            MapInner::Heap(v) => v,
        }
    }
}

impl Drop for MapInner {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let MapInner::Mapped { ptr, len } = self {
            // Safety: `ptr`/`len` are the exact values returned by
            // `mmap`; the slice borrows handed out by `bytes` cannot
            // outlive the owning `SegmentMap`.
            unsafe {
                sys::munmap(*ptr, *len);
            }
        }
    }
}

// Safety: the mapping is read-only for its whole lifetime; `&[u8]`
// views of it are as shareable as any immutable buffer.
unsafe impl Send for MapInner {}
unsafe impl Sync for MapInner {}

#[cfg(unix)]
fn map_file(path: &Path) -> std::io::Result<Option<MapInner>> {
    use std::os::unix::io::AsRawFd;
    let f = std::fs::File::open(path)?;
    let len = f.metadata()?.len();
    if len == 0 || len > usize::MAX as u64 {
        // mmap rejects zero-length maps; let the caller heap-read and
        // fail validation with a proper decode error.
        return Ok(None);
    }
    let len = len as usize;
    // Safety: a fresh anonymous-address, read-only, private mapping of
    // a file descriptor we own; failure is reported as MAP_FAILED.
    let ptr = unsafe {
        sys::mmap(
            std::ptr::null_mut(),
            len,
            sys::PROT_READ,
            sys::MAP_PRIVATE,
            f.as_raw_fd(),
            0,
        )
    };
    if ptr as isize == -1 {
        return Ok(None);
    }
    Ok(Some(MapInner::Mapped { ptr, len }))
}

#[cfg(not(unix))]
fn map_file(_path: &Path) -> std::io::Result<Option<MapInner>> {
    Ok(None)
}

/// A memory-mapped segment file whose header has been validated and
/// whose payload chunks are verified on first touch.
///
/// Every accessor that hands out or decodes payload bytes verifies the
/// chunks under them first. The first failure is kept: [`check`]
/// reports it for as long as the map lives. Dropping the map unmaps the
/// pages.
///
/// [`check`]: SegmentMap::check
pub struct SegmentMap {
    inner: MapInner,
    layout: Layout,
    sections: Sections,
    /// Bit `k` is set once chunk `k` has passed its CRC. A set bit
    /// (stored with `Release`, read with `Acquire`) only says the
    /// immutable bytes under it are good, so two threads racing to
    /// verify one chunk both compute the same answer.
    verified: Vec<AtomicU64>,
    /// The first integrity failure any read met.
    failure: OnceLock<String>,
    /// Whether the bytes come from a real mapping (false = heap read).
    mapped: bool,
}

impl SegmentMap {
    /// Opens the segment at `path`: maps it (heap read as a fallback),
    /// and reads magic, header and chunk table. A `KGQSEG02` header
    /// must pass its own CRC and the file must have exactly the length
    /// it declares; the payload is not read. A `KGQSEG01` file, which
    /// has no section table, is verified whole and walked. Injected
    /// fault site `segment::mmap` can shorten the visible bytes — the
    /// length check then fails, proving a torn view can never be served.
    pub fn open(path: &Path) -> std::io::Result<SegmentMap> {
        let (inner, mapped) = match map_file(path)? {
            Some(m) => (m, true),
            None => (MapInner::Heap(std::fs::read(path)?), false),
        };
        let mut visible = inner.bytes().len();
        if let Some(IoFault::Short(n)) = io_fault!("segment::mmap") {
            visible = visible.min(n);
        }
        let (layout, sections) = Layout::read(&inner.bytes()[..visible])?;
        let mut map = SegmentMap {
            verified: (0..layout.n_chunks().div_ceil(64))
                .map(|_| AtomicU64::new(0))
                .collect(),
            inner,
            layout,
            sections: Sections::default(),
            failure: OnceLock::new(),
            mapped,
        };
        map.sections = match sections {
            Some(sections) => sections,
            None => {
                let payload = map.layout.payload.clone();
                map.verify(payload.clone())?;
                segment::walk_sections(&map.inner.bytes()[payload])?
            }
        };
        Ok(map)
    }

    /// Generation stamp of the segment.
    pub fn generation(&self) -> u64 {
        self.sections.generation
    }

    /// Number of string triples in the base section.
    pub fn triple_count(&self) -> usize {
        self.sections.n_triples as usize
    }

    /// Number of edge records in the base section.
    pub fn edge_count(&self) -> usize {
        self.sections.n_edges as usize
    }

    /// Total file size in bytes.
    pub fn file_len(&self) -> usize {
        self.inner.bytes().len()
    }

    /// Whether the bytes are a real `mmap` (false = heap fallback).
    pub fn is_mapped(&self) -> bool {
        self.mapped
    }

    /// CRC-checks every chunk overlapping file bytes `range` that has
    /// not passed yet, and marks it passed. Bytes outside the payload
    /// (magic, header, table) were checked at open. A mismatch is an
    /// `InvalidData` error, also kept for [`SegmentMap::check`].
    fn verify(&self, range: Range<usize>) -> std::io::Result<()> {
        for k in self.layout.chunks_in(range) {
            let (word, bit) = (&self.verified[k / 64], 1u64 << (k % 64));
            if word.load(Ordering::Acquire) & bit != 0 {
                continue;
            }
            if let Err(e) = self.layout.check_chunk(self.inner.bytes(), k) {
                self.fail(e.to_string());
                return Err(e);
            }
            word.fetch_or(bit, Ordering::Release);
        }
        Ok(())
    }

    /// The first integrity failure a read through this map met, as an
    /// `InvalidData` error; `Ok` while every byte read so far verified.
    pub fn check(&self) -> std::io::Result<()> {
        match self.failure.get() {
            Some(why) => Err(data_err(why.clone())),
            None => Ok(()),
        }
    }

    fn fail(&self, why: String) {
        let _ = self.failure.set(why);
    }

    /// File range of the packed section, if the segment has one.
    fn packed_range(&self) -> Option<Range<usize>> {
        let at = self.layout.payload.start;
        self.sections
            .packed
            .as_ref()
            .map(|r| at + r.start..at + r.end)
    }

    /// The packed adjacency image, borrowed straight from the mapping
    /// after every chunk under it has been verified. `None` if the
    /// segment has no packed section, or if its bytes fail their CRC
    /// ([`SegmentMap::check`] then says so). Queries that read a few
    /// runs should use [`SegmentMap::packed_view`] instead.
    pub fn packed_bytes(&self) -> Option<&[u8]> {
        let range = self.packed_range()?;
        self.verify(range.clone()).ok()?;
        Some(&self.inner.bytes()[range])
    }

    /// The packed adjacency image as a lazily verified view (`None` if
    /// the segment has no packed section): its header and label table
    /// are verified now, and every run lookup verifies the index entries
    /// and node data it decodes. A lookup that meets a bad chunk or an
    /// out-of-bounds node offset finds nothing and records the failure,
    /// so a caller must consult [`SegmentMap::check`] before it trusts
    /// the answer.
    pub fn packed_view(&self) -> std::io::Result<Option<PackedView<'_>>> {
        let Some(range) = self.packed_range() else {
            return Ok(None);
        };
        let view = PackedView::lazy(&self.inner.bytes()[range], self);
        self.check()?;
        view.map(Some).map_err(|e| data_err(e.to_string()))
    }

    /// Fully decodes the string sections into an owned [`Segment`]
    /// (the packed image is copied too), verifying every chunk first.
    /// Used by recovery, which needs owned triples to build the
    /// in-memory base store.
    pub fn to_segment(&self) -> std::io::Result<Segment> {
        let payload = self.layout.payload.clone();
        self.verify(payload.clone())?;
        segment::decode_payload(&self.inner.bytes()[payload], Some(&self.sections))
    }
}

/// A lazily verified [`PackedView`] asks the map to verify each slice
/// of the packed section before decoding it.
impl BlobGuard for SegmentMap {
    fn admit(&self, bytes: &[u8]) -> bool {
        // The view only ever passes sub-slices of the mapping, so the
        // address difference is the slice's file offset.
        if bytes.is_empty() {
            return true;
        }
        let base = self.inner.bytes().as_ptr() as usize;
        let at = (bytes.as_ptr() as usize).wrapping_sub(base);
        if at.saturating_add(bytes.len()) > self.file_len() {
            self.fail("packed view read outside the segment".into());
            return false;
        }
        self.verify(at..at + bytes.len()).is_ok()
    }

    fn reject(&self, why: &str) {
        self.fail(format!("packed section: {why}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::EdgeRec;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("kgq-mmap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample(packed: Option<Vec<u8>>) -> Segment {
        Segment {
            generation: 42,
            triples: vec![("s".into(), "p".into(), "o".into())],
            edges: vec![EdgeRec {
                id: "e1".into(),
                src: "x".into(),
                src_label: "person".into(),
                label: "rides".into(),
                dst: "y".into(),
                dst_label: "bus".into(),
            }],
            packed,
        }
    }

    #[test]
    fn maps_and_exposes_sections() {
        let path = tmp("seg-basic");
        let blob: Vec<u8> = (0..200u16).map(|i| (i % 251) as u8).collect();
        let seg = sample(Some(blob.clone()));
        segment::write_atomic(&path, &seg).unwrap();
        let map = SegmentMap::open(&path).unwrap();
        assert_eq!(map.generation(), 42);
        assert_eq!(map.triple_count(), 1);
        assert_eq!(map.edge_count(), 1);
        assert_eq!(map.packed_bytes(), Some(blob.as_slice()));
        assert_eq!(map.to_segment().unwrap(), seg);
        assert!(cfg!(not(unix)) || map.is_mapped());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn legacy_segments_have_no_packed_bytes() {
        let path = tmp("seg-legacy");
        let seg = sample(None);
        segment::write_atomic(&path, &seg).unwrap();
        let map = SegmentMap::open(&path).unwrap();
        assert_eq!(map.packed_bytes(), None);
        assert_eq!(map.to_segment().unwrap(), seg);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncation_and_header_damage_fail_at_open() {
        let path = tmp("seg-corrupt");
        let image = segment::encode(&sample(Some(vec![7u8; 64])));
        for cut in [0, 7, 40, image.len() / 2, image.len() - 9, image.len() - 1] {
            std::fs::write(&path, &image[..cut]).unwrap();
            assert!(SegmentMap::open(&path).is_err(), "cut at {cut}");
        }
        // Header fields, the chunk table and the header CRC itself.
        for at in [10, 30, 64, 68, 72] {
            let mut bad = image.clone();
            bad[at] ^= 0x10;
            std::fs::write(&path, &bad).unwrap();
            assert!(SegmentMap::open(&path).is_err(), "flip at {at}");
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Blob-relative ranges node `v`'s runs are read from: its two out
    /// index entries, its out data, its two in index entries, its in
    /// data.
    fn node_ranges(blob: &[u8], v: usize) -> [Range<usize>; 4] {
        let u64_at = |o: usize| u64::from_le_bytes(blob[o..o + 8].try_into().unwrap()) as usize;
        let u32_at = |o: usize| u32::from_le_bytes(blob[o..o + 4].try_into().unwrap()) as usize;
        let dir = |index: usize, data: usize| {
            let at = index + 4 * v;
            let (start, end) = (u32_at(at), u32_at(at + 4));
            [at..at + 8, data + start..data + end]
        };
        let [oi, od] = dir(u64_at(36), u64_at(44));
        let [ii, id] = dir(u64_at(52), u64_at(60));
        [oi, od, ii, id]
    }

    /// A two-label packed BA blob of `n` nodes, ~1 MB at `n` = 20 000:
    /// enough for many chunks.
    fn ba_blob(n: u32, seed: u64) -> Vec<u8> {
        use kgq_graph::packed::{PackOptions, PackedLabelIndex};
        let quads = kgq_graph::generate::ba_edge_stream(n, 8, 2, seed)
            .into_iter()
            .enumerate()
            .map(|(i, (s, l, d))| (s, l, d, i as u32))
            .collect();
        let labels = ["l0".to_string(), "l1".to_string()];
        let opts = PackOptions {
            edge_ids: false,
            inverse: true,
        };
        PackedLabelIndex::from_quads(n, &labels, quads, opts)
            .unwrap()
            .into_bytes()
    }

    /// Every out and in run of every node, decoded.
    fn all_runs(view: PackedView<'_>) -> Vec<Vec<u32>> {
        let mut runs = Vec::new();
        for v in 0..view.node_count() as u32 {
            for l in 0..view.label_count() as u32 {
                let (mut out, mut inc) = (Vec::new(), Vec::new());
                view.decode_out_into(v, l, &mut out);
                view.decode_in_into(v, l, &mut inc);
                runs.extend([out, inc]);
            }
        }
        runs
    }

    /// Chunks are verified long after open, so the pages under an old
    /// map must stay the old file's when the path is replaced: rename
    /// leaves the mapping on the old inode.
    #[test]
    fn a_replaced_file_leaves_an_open_map_on_its_old_bytes() {
        let path = tmp("seg-replaced");
        let blob = ba_blob(20_000, 5);
        let seg = sample(Some(blob.clone()));
        segment::write_atomic(&path, &seg).unwrap();
        let old = SegmentMap::open(&path).unwrap();
        let view = old.packed_view().unwrap().unwrap();
        view.out_run(3, 0);
        let touched = old
            .verified
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones())
            .sum::<u32>();
        assert!(
            touched <= 3,
            "most chunks still unverified ({touched} of {})",
            old.layout.n_chunks()
        );
        let mut next = sample(Some(ba_blob(30_000, 6)));
        next.generation = 43;
        segment::write_atomic(&path, &next).unwrap();
        assert_eq!(SegmentMap::open(&path).unwrap().generation(), 43);
        let expected = all_runs(PackedView::parse(&blob).unwrap());
        assert_eq!(all_runs(view), expected);
        old.check().unwrap();
        assert_eq!(old.packed_bytes(), Some(blob.as_slice()));
        assert_eq!(old.to_segment().unwrap(), seg);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_flip_fails_the_first_read_that_touches_it() {
        let n = 20_000u32;
        let blob = ba_blob(n, 5);
        let path = tmp("seg-flips");
        let clean = segment::encode(&sample(Some(blob.clone())));
        std::fs::write(&path, &clean).unwrap();
        let (p, payload) = {
            let map = SegmentMap::open(&path).unwrap();
            (
                map.packed_range().unwrap().start,
                map.layout.payload.clone(),
            )
        };
        assert!(payload.len() > 8 * segment::CHUNK, "blob spans many chunks");
        // Late enough that its index entries lie past chunk 0, which the
        // header and the label table share.
        let v = n as usize - 50;
        // A late BA node has no in-edges; an early one has many.
        let w = 100;
        let [out_index, out_data, ..] = node_ranges(&blob, v);
        let in_data = node_ranges(&blob, w)[3].clone();
        assert!(!out_data.is_empty() && !in_data.is_empty());
        let mid = |r: &Range<usize>| p + (r.start + r.end) / 2;
        let label_tab = u64::from_le_bytes(blob[28..36].try_into().unwrap()) as usize;
        // (section, flipped byte, node whose read touches it)
        let cases = [
            ("packed header", p + 20, v),
            ("string table", payload.start + 18, v),
            ("label table", p + label_tab + 5, v),
            ("out index", p + out_index.start + 5, v),
            ("out data", mid(&out_data), v),
            ("in data", mid(&in_data), w),
        ];
        // Reads node `v`'s runs through a fresh lazy view; `Err` if the
        // view could not even be opened.
        let read_node = |map: &SegmentMap, v: u32| -> Result<(), ()> {
            let view = map.packed_view().map_err(|_| ())?.unwrap();
            for l in 0..2 {
                view.out_run(v, l);
                view.in_run(v, l);
            }
            Ok(())
        };
        for (name, at, node) in cases {
            let mut image = clean.clone();
            image[at] ^= 0x20;
            std::fs::write(&path, &image).unwrap();
            let map = SegmentMap::open(&path).unwrap();
            assert!(map.check().is_ok(), "{name}: nothing read yet");
            let bad = map.layout.chunks_in(at..at + 1);
            // A node read entirely from other chunks still answers.
            let far = (0..n as usize)
                .rev()
                .find(|&u| {
                    node_ranges(&blob, u).iter().all(|r| {
                        !map.layout
                            .chunks_in(p + r.start..p + r.end)
                            .contains(&bad.start)
                    })
                })
                .expect("a node clear of the flipped chunk");
            match name {
                "string table" => {
                    assert!(map.to_segment().is_err(), "{name}");
                }
                "packed header" | "label table" => {
                    assert!(read_node(&map, far as u32).is_err(), "{name}");
                }
                _ => {
                    read_node(&map, far as u32).unwrap();
                    assert!(map.check().is_ok(), "{name}: untouched chunk failed");
                    read_node(&map, node as u32).unwrap();
                }
            }
            assert!(map.check().is_err(), "{name}: the touching read passed");
            let fresh = SegmentMap::open(&path).unwrap();
            assert_eq!(fresh.packed_bytes(), None, "{name}");
            assert!(fresh.check().is_err(), "{name}");
            assert!(
                SegmentMap::open(&path).unwrap().to_segment().is_err(),
                "{name}"
            );
        }
        let _ = std::fs::remove_file(&path);
    }
}
