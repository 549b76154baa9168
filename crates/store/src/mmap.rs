//! Memory-mapped immutable segment reader.
//!
//! [`SegmentMap`] opens a `KGQSEG01` file, maps it read-only (falling
//! back to a heap read where `mmap` is unavailable or fails), verifies
//! the whole-file CRC **once**, and then serves borrowed slices out of
//! the mapping — in particular the optional bit-packed adjacency
//! section, which the scale query path consumes zero-copy through
//! `kgq_graph::packed::PackedView::parse`. A 10⁸-edge graph is queried
//! without ever materializing its adjacency on the heap: the kernel
//! pages the few blocks each sweep touches.
//!
//! The mapping is private and read-only; the file is immutable by the
//! store's atomic-replacement contract (tmp + fsync + rename), so the
//! pages can never change under us. Compaction *replaces* the segment
//! file rather than rewriting it, which on POSIX leaves an existing
//! mapping pointing at the old inode — a reader holding a `SegmentMap`
//! across a compaction keeps a consistent (older) snapshot, exactly
//! like the generation-stamped caches.
//!
//! The `mmap`/`munmap` calls are declared by hand (`extern "C"`): the
//! build carries no libc-binding crate, and on every supported unix
//! the two symbols live in the C library the binary already links.

use crate::io_fault;
use crate::segment::{self, Segment, SEG_MAGIC};
use crate::wal::IoFault;
use std::path::Path;

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

/// A validated, memory-mapped segment file.
///
/// Construction verifies magic and whole-file CRC once and locates the
/// section boundaries; afterwards every accessor is a bounds-checked
/// slice into the mapping. Dropping the map unmaps the pages.
pub struct SegmentMap {
    inner: MapInner,
    generation: u64,
    n_triples: u32,
    n_edges: u32,
    /// Byte range of the packed adjacency image within the file.
    packed: Option<std::ops::Range<usize>>,
    /// Whether the bytes come from a real mapping (false = heap read).
    mapped: bool,
}

/// Advances `*off` past one `strlen:u32le + bytes` string.
fn skip_str(bytes: &[u8], off: &mut usize) -> std::io::Result<()> {
    let len = read_u32(bytes, off)? as usize;
    if bytes.len() - *off < len {
        return Err(data_err("segment payload truncated".into()));
    }
    *off += len;
    Ok(())
}

fn read_u32(bytes: &[u8], off: &mut usize) -> std::io::Result<u32> {
    if bytes.len() - *off < 4 {
        return Err(data_err("segment payload truncated".into()));
    }
    let v = u32::from_le_bytes([
        bytes[*off],
        bytes[*off + 1],
        bytes[*off + 2],
        bytes[*off + 3],
    ]);
    *off += 4;
    Ok(v)
}

impl SegmentMap {
    /// Opens and validates the segment at `path`: maps it (heap read
    /// as a fallback), checks magic, verifies the CRC over the whole
    /// payload once, and records where each section lives. Injected
    /// fault site `segment::mmap` can shorten the visible bytes — the
    /// CRC then fails, proving a torn view can never be served.
    pub fn open(path: &Path) -> std::io::Result<SegmentMap> {
        let (inner, mapped) = match map_file(path)? {
            Some(m) => (m, true),
            None => (MapInner::Heap(std::fs::read(path)?), false),
        };
        let mut visible = inner.bytes().len();
        if let Some(IoFault::Short(n)) = io_fault!("segment::mmap") {
            visible = visible.min(n);
        }
        let bytes = &inner.bytes()[..visible];
        let payload = segment::verified_payload(bytes)?;
        // Walk the variable-length sections to find the packed image.
        // This touches the same pages the CRC just warmed.
        let mut off = 0usize;
        if payload.len() < 8 {
            return Err(data_err("segment payload truncated".into()));
        }
        let generation = u64::from_le_bytes([
            payload[0], payload[1], payload[2], payload[3], payload[4], payload[5], payload[6],
            payload[7],
        ]);
        off += 8;
        let n_triples = read_u32(payload, &mut off)?;
        let n_edges = read_u32(payload, &mut off)?;
        for _ in 0..n_triples as u64 * 3 {
            skip_str(payload, &mut off)?;
        }
        for _ in 0..n_edges as u64 * 6 {
            skip_str(payload, &mut off)?;
        }
        let packed = if off == payload.len() {
            None
        } else {
            let len = read_u32(payload, &mut off)? as usize;
            if payload.len() - off != len {
                return Err(data_err("segment has trailing bytes".into()));
            }
            let start = SEG_MAGIC.len() + off;
            Some(start..start + len)
        };
        Ok(SegmentMap {
            inner,
            generation,
            n_triples,
            n_edges,
            packed,
            mapped,
        })
    }

    /// Generation stamp of the segment.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of string triples in the base section.
    pub fn triple_count(&self) -> usize {
        self.n_triples as usize
    }

    /// Number of edge records in the base section.
    pub fn edge_count(&self) -> usize {
        self.n_edges as usize
    }

    /// Total file size in bytes.
    pub fn file_len(&self) -> usize {
        self.inner.bytes().len()
    }

    /// Whether the bytes are a real `mmap` (false = heap fallback).
    pub fn is_mapped(&self) -> bool {
        self.mapped
    }

    /// The packed adjacency image, borrowed straight from the mapping
    /// (`None` if the segment has no packed section). Feed this to
    /// `kgq_graph::packed::PackedView::parse` for zero-copy queries.
    pub fn packed_bytes(&self) -> Option<&[u8]> {
        self.packed.clone().map(|r| &self.inner.bytes()[r])
    }

    /// Fully decodes the string sections into an owned [`Segment`]
    /// (the packed image is copied too). Used by recovery, which needs
    /// owned triples to build the in-memory base store. The checksum is
    /// not swept again: [`SegmentMap::open`] verified these very bytes.
    pub fn to_segment(&self) -> std::io::Result<Segment> {
        let bytes = self.inner.bytes();
        segment::decode_payload(&bytes[SEG_MAGIC.len()..bytes.len() - 4])
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
    fn corruption_is_rejected_at_open() {
        let path = tmp("seg-corrupt");
        let seg = sample(Some(vec![7u8; 64]));
        let mut image = segment::encode(&seg);
        let mid = image.len() / 2;
        image[mid] ^= 0x10;
        std::fs::write(&path, &image).unwrap();
        assert!(SegmentMap::open(&path).is_err());
        // Truncations die at open too, never at access time.
        std::fs::write(&path, &image[..image.len() - 9]).unwrap();
        assert!(SegmentMap::open(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }
}
