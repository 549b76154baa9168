//! Immutable base segments.
//!
//! A segment is the compacted, read-only image of the store at some
//! generation: every triple and every edge record, string-encoded, and
//! optionally a bit-packed adjacency image. Segments are written
//! atomically — tmp file, fsync, rename over the live name, directory
//! fsync — so a crash during compaction leaves either the old segment
//! or the new one, never a hybrid. That is why, unlike the WAL's
//! tolerated torn tail, a segment that fails a checksum is a *hard
//! error*: it cannot be the residue of a crash, only real corruption.
//!
//! ```text
//! file     := "KGQSEG02" header chunk_crc:u32le{n_chunks} header_crc:u32le payload
//! header   := generation:u64le n_triples:u32le n_edges:u32le payload_len:u64le
//!             strings_off:u64le strings_len:u64le packed_off:u64le packed_len:u64le
//!             n_chunks:u32le
//! payload  := generation:u64le n_triples:u32le n_edges:u32le
//!             (s p o){n_triples} (id src src_label label dst dst_label){n_edges}
//!             [ packed_len:u32le packed-bytes ]              (optional)
//! s/p/…    := strlen:u32le utf8-bytes
//! ```
//!
//! `header_crc` covers the header and the chunk table. The payload is
//! cut into [`CHUNK`]-byte chunks (the last may be shorter) and
//! `chunk_crc[k]` is the CRC of chunk `k`, so a reader can check the
//! bytes it is about to use without sweeping the whole file: opening
//! reads magic, header and table only ([`crate::mmap::SegmentMap`]),
//! and each chunk is verified the first time it is touched. Section
//! offsets are relative to the payload; `packed_off` 0 means no packed
//! section (a real one starts after the 16 count bytes).
//!
//! The optional *packed section* carries a bit-packed adjacency image
//! (`kgq_graph::packed`, magic `KGQPIDX1`) so a scale graph can live
//! in one immutable, checksummed file and be queried straight out of
//! an mmap without decoding. The chunks are plain byte ranges of the
//! payload; this module knows nothing of the packed layout.
//!
//! The first format, `KGQSEG01 := "KGQSEG01" payload crc:u32le`, is
//! still read: its trailing CRC is a one-chunk table over the whole
//! payload, verified before anything else is read, and its sections
//! are found by walking the strings. Writers produce `KGQSEG02` only.

use crate::crc::crc32;
use crate::io_fault;
use crate::wal::{EdgeRec, IoFault};
use std::io::Write;
use std::ops::Range;
use std::path::Path;

/// Leading magic of every segment file this build writes.
pub const SEG_MAGIC: &[u8; 8] = b"KGQSEG02";

/// Leading magic of the first segment format, still read.
const SEG_MAGIC_V1: &[u8; 8] = b"KGQSEG01";

/// Payload bytes per checksummed chunk of a `KGQSEG02` file.
pub const CHUNK: usize = 64 * 1024;

/// Magic plus the fixed header fields, before the chunk table.
const HEADER_LEN: usize = 8 + 8 + 4 + 4 + 8 + 4 * 8 + 4;

/// Bytes before the strings in every payload: generation and counts.
const COUNTS_LEN: usize = 16;

/// A decoded segment: the immutable base state at `generation`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Segment {
    /// Generation the segment was compacted at.
    pub generation: u64,
    /// All base triples as term strings.
    pub triples: Vec<(String, String, String)>,
    /// All base edge records (unique ids).
    pub edges: Vec<EdgeRec>,
    /// Optional bit-packed adjacency image (`KGQPIDX1` bytes). Derived
    /// data: compaction drops it, the scale pipeline regenerates it.
    pub packed: Option<Vec<u8>>,
}

/// `n` as the little-endian `u32` the format stores for every length
/// and count, or `InvalidInput`: a wrapped length would pass the CRC
/// and then fail to decode.
fn len_u32(n: usize, what: &str) -> std::io::Result<[u8; 4]> {
    u32::try_from(n).map(u32::to_le_bytes).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("segment {what} of {n} does not fit the format's u32"),
        )
    })
}

fn push_str(buf: &mut Vec<u8>, s: &str) -> std::io::Result<()> {
    buf.extend_from_slice(&len_u32(s.len(), "term length")?);
    buf.extend_from_slice(s.as_bytes());
    Ok(())
}

/// Encodes the segment to its full `KGQSEG02` file image. A segment
/// whose lengths or counts do not fit `u32` encodes to the empty image,
/// which [`decode`] rejects; [`write_atomic`] reports it as
/// `InvalidInput` instead.
pub fn encode(seg: &Segment) -> Vec<u8> {
    try_encode(seg)
        .map(|image| [image.head, image.payload].concat())
        .unwrap_or_default()
}

/// A segment file image in the two parts it is built in: the head
/// (magic, header, chunk table, header CRC) and the payload. They are
/// written back to back and never joined, so writing a segment holds
/// its payload in memory once.
pub(crate) struct Image {
    head: Vec<u8>,
    payload: Vec<u8>,
}

impl Image {
    /// Writes the first `n` bytes of the image to `f`.
    fn write_prefix(&self, f: &mut std::fs::File, n: usize) -> std::io::Result<()> {
        let in_head = n.min(self.head.len());
        f.write_all(&self.head[..in_head])?;
        f.write_all(&self.payload[..(n - in_head).min(self.payload.len())])
    }
}

fn try_encode(seg: &Segment) -> std::io::Result<Image> {
    encode_parts(
        seg.generation,
        seg.triples
            .iter()
            .map(|(s, p, o)| (s.as_str(), p.as_str(), o.as_str())),
        &seg.edges,
        seg.packed.as_deref(),
    )
}

/// [`encode`] over borrowed parts, so compaction can stream the merged
/// store's terms and the live edge records into the image without
/// first cloning them into an owned [`Segment`]. The payload is built
/// first, since its length sets the chunk count and so the head's
/// size. A length or count that does not fit `u32` is `InvalidInput`.
pub(crate) fn encode_parts<'a>(
    generation: u64,
    triples: impl IntoIterator<Item = (&'a str, &'a str, &'a str)>,
    edges: impl IntoIterator<Item = &'a EdgeRec>,
    packed: Option<&[u8]>,
) -> std::io::Result<Image> {
    let mut payload = generation.to_le_bytes().to_vec();
    payload.extend_from_slice(&[0u8; 8]);
    let (mut n_triples, mut n_edges) = (0usize, 0usize);
    for (s, p, o) in triples {
        push_str(&mut payload, s)?;
        push_str(&mut payload, p)?;
        push_str(&mut payload, o)?;
        n_triples += 1;
    }
    for e in edges {
        for part in [&e.id, &e.src, &e.src_label, &e.label, &e.dst, &e.dst_label] {
            push_str(&mut payload, part)?;
        }
        n_edges += 1;
    }
    payload[8..12].copy_from_slice(&len_u32(n_triples, "triple count")?);
    payload[12..16].copy_from_slice(&len_u32(n_edges, "edge count")?);
    let strings_len = payload.len() - COUNTS_LEN;
    let (packed_off, packed_len) = match packed {
        Some(packed) => {
            payload.extend_from_slice(&len_u32(packed.len(), "packed section length")?);
            let off = payload.len();
            payload.extend_from_slice(packed);
            (off, packed.len())
        }
        None => (0, 0),
    };
    let n_chunks = payload.len().div_ceil(CHUNK);
    let mut head = Vec::with_capacity(HEADER_LEN + 4 * n_chunks + 4);
    head.extend_from_slice(SEG_MAGIC);
    head.extend_from_slice(&payload[..COUNTS_LEN]);
    for field in [
        payload.len(),
        COUNTS_LEN,
        strings_len,
        packed_off,
        packed_len,
    ] {
        head.extend_from_slice(&(field as u64).to_le_bytes());
    }
    head.extend_from_slice(&len_u32(n_chunks, "chunk count")?);
    for chunk in payload.chunks(CHUNK) {
        head.extend_from_slice(&crc32(chunk).to_le_bytes());
    }
    let header_crc = crc32(&head[SEG_MAGIC.len()..]);
    head.extend_from_slice(&header_crc.to_le_bytes());
    Ok(Image { head, payload })
}

fn data_err(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

fn take<'a>(rest: &mut &'a [u8], n: usize) -> std::io::Result<&'a [u8]> {
    if rest.len() < n {
        return Err(data_err("segment payload truncated".into()));
    }
    let (head, tail) = rest.split_at(n);
    *rest = tail;
    Ok(head)
}

fn take_u32(rest: &mut &[u8]) -> std::io::Result<u32> {
    let b = take(rest, 4)?;
    Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

fn take_u64(rest: &mut &[u8]) -> std::io::Result<u64> {
    let b = take(rest, 8)?;
    Ok(u64::from_le_bytes([
        b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
    ]))
}

fn take_str(rest: &mut &[u8]) -> std::io::Result<String> {
    let len = take_u32(rest)? as usize;
    let bytes = take(rest, len)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| data_err("segment term is not UTF-8".into()))
}

/// What a segment's section table says.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Sections {
    pub(crate) generation: u64,
    pub(crate) n_triples: u32,
    pub(crate) n_edges: u32,
    /// Payload range of the packed image, if the segment has one.
    pub(crate) packed: Option<Range<usize>>,
}

/// Where a segment file keeps its parts, read from its magic, header
/// and chunk table without touching the payload.
pub(crate) struct Layout {
    /// File range of the payload.
    pub(crate) payload: Range<usize>,
    /// log2 of the chunk size: [`CHUNK`] for `KGQSEG02`; for `KGQSEG01`
    /// the payload length rounded up to a power of two, so its one chunk
    /// is the whole payload and chunk arithmetic stays a shift.
    chunk_shift: u32,
    /// The CRC of each chunk, in order.
    chunk_crcs: Vec<u32>,
}

impl Layout {
    /// Reads the layout and the section table of a segment file image.
    /// A `KGQSEG02` header must pass its CRC, and the file must be
    /// exactly as long as the header says, so truncation fails here and
    /// not at a later read. A `KGQSEG01` image has no section table
    /// (`None`): [`walk_sections`] finds its sections once it is
    /// verified.
    pub(crate) fn read(image: &[u8]) -> std::io::Result<(Layout, Option<Sections>)> {
        let magic = image.get(..SEG_MAGIC.len());
        if magic == Some(SEG_MAGIC_V1) && image.len() >= SEG_MAGIC_V1.len() + 4 {
            let payload = SEG_MAGIC_V1.len()..image.len() - 4;
            let mut crc = &image[payload.end..];
            let layout = Layout {
                chunk_shift: payload.len().next_power_of_two().trailing_zeros(),
                chunk_crcs: vec![take_u32(&mut crc)?],
                payload,
            };
            return Ok((layout, None));
        }
        if magic != Some(SEG_MAGIC) {
            return Err(data_err("not a kgq segment (bad magic)".into()));
        }
        let truncated = || data_err("segment header truncated".into());
        let mut h = image
            .get(SEG_MAGIC.len()..HEADER_LEN)
            .ok_or_else(truncated)?;
        let generation = take_u64(&mut h)?;
        let n_triples = take_u32(&mut h)?;
        let n_edges = take_u32(&mut h)?;
        let payload_len = take_u64(&mut h)?;
        let strings_off = take_u64(&mut h)?;
        let strings_len = take_u64(&mut h)?;
        let packed_off = take_u64(&mut h)?;
        let packed_len = take_u64(&mut h)?;
        let n_chunks = take_u32(&mut h)? as usize;
        let table_end = HEADER_LEN + 4 * n_chunks;
        let mut table = image.get(HEADER_LEN..table_end + 4).ok_or_else(truncated)?;
        let chunk_crcs = (0..n_chunks)
            .map(|_| take_u32(&mut table))
            .collect::<std::io::Result<Vec<u32>>>()?;
        if crc32(&image[SEG_MAGIC.len()..table_end]) != take_u32(&mut table)? {
            return Err(data_err("segment header checksum mismatch".into()));
        }
        let payload = table_end + 4..image.len();
        if payload_len != payload.len() as u64 {
            return Err(data_err(format!(
                "segment is {} bytes but its header says {}",
                image.len(),
                (payload.start as u64).saturating_add(payload_len)
            )));
        }
        let strings_end = strings_off.saturating_add(strings_len);
        let consistent = n_chunks == payload.len().div_ceil(CHUNK)
            && strings_off == COUNTS_LEN as u64
            && if packed_off == 0 {
                packed_len == 0 && strings_end == payload.len() as u64
            } else {
                packed_off == strings_end.saturating_add(4)
                    && packed_off.saturating_add(packed_len) == payload.len() as u64
            };
        if !consistent {
            return Err(data_err("segment section table is inconsistent".into()));
        }
        let sections = Sections {
            generation,
            n_triples,
            n_edges,
            packed: (packed_off != 0)
                .then(|| packed_off as usize..(packed_off + packed_len) as usize),
        };
        let layout = Layout {
            payload,
            chunk_shift: CHUNK.trailing_zeros(),
            chunk_crcs,
        };
        Ok((layout, Some(sections)))
    }

    /// Number of checksummed chunks.
    pub(crate) fn n_chunks(&self) -> usize {
        self.chunk_crcs.len()
    }

    /// Indices of the chunks that overlap file bytes `range`; bytes
    /// outside the payload belong to no chunk.
    pub(crate) fn chunks_in(&self, range: Range<usize>) -> Range<usize> {
        let lo = range.start.max(self.payload.start);
        let hi = range.end.min(self.payload.end);
        if lo >= hi {
            return 0..0;
        }
        let first = (lo - self.payload.start) >> self.chunk_shift;
        first..((hi - 1 - self.payload.start) >> self.chunk_shift) + 1
    }

    /// Checks chunk `k` of `image` against its CRC.
    pub(crate) fn check_chunk(&self, image: &[u8], k: usize) -> std::io::Result<()> {
        let start = self.payload.start + (k << self.chunk_shift);
        let end = start
            .saturating_add(1 << self.chunk_shift)
            .min(self.payload.end);
        if crc32(&image[start..end]) != self.chunk_crcs[k] {
            return Err(data_err(format!("segment checksum mismatch in chunk {k}")));
        }
        Ok(())
    }
}

/// Finds the sections of a verified payload by walking its strings:
/// how a `KGQSEG01` file, which has no section table, is located.
pub(crate) fn walk_sections(payload: &[u8]) -> std::io::Result<Sections> {
    let mut rest = payload;
    let generation = take_u64(&mut rest)?;
    let n_triples = take_u32(&mut rest)?;
    let n_edges = take_u32(&mut rest)?;
    for _ in 0..(n_triples as u64 * 3 + n_edges as u64 * 6) {
        let len = take_u32(&mut rest)? as usize;
        take(&mut rest, len)?;
    }
    let packed = if rest.is_empty() {
        None
    } else {
        let len = take_u32(&mut rest)? as usize;
        if rest.len() != len {
            return Err(data_err("segment has trailing bytes".into()));
        }
        Some(payload.len() - len..payload.len())
    };
    Ok(Sections {
        generation,
        n_triples,
        n_edges,
        packed,
    })
}

/// Decodes a segment file image, verifying every chunk first. Any
/// structural defect — bad magic, bad CRC, truncated strings, trailing
/// bytes, a header that disagrees with its payload — is an error,
/// because atomic replacement means a valid store never exposes a torn
/// segment.
pub fn decode(image: &[u8]) -> std::io::Result<Segment> {
    let (layout, sections) = Layout::read(image)?;
    for k in 0..layout.n_chunks() {
        layout.check_chunk(image, k)?;
    }
    decode_payload(&image[layout.payload], sections.as_ref())
}

/// Decodes a payload whose chunks have all been verified, after
/// checking that it agrees with the section table the header gave.
pub(crate) fn decode_payload(
    payload: &[u8],
    sections: Option<&Sections>,
) -> std::io::Result<Segment> {
    if let Some(sections) = sections {
        if walk_sections(payload)? != *sections {
            return Err(data_err("segment header disagrees with its payload".into()));
        }
    }
    let mut rest = payload;
    let generation = take_u64(&mut rest)?;
    let n_triples = take_u32(&mut rest)? as usize;
    let n_edges = take_u32(&mut rest)? as usize;
    let mut triples = Vec::with_capacity(n_triples.min(1 << 20));
    for _ in 0..n_triples {
        triples.push((
            take_str(&mut rest)?,
            take_str(&mut rest)?,
            take_str(&mut rest)?,
        ));
    }
    let mut edges = Vec::with_capacity(n_edges.min(1 << 20));
    for _ in 0..n_edges {
        edges.push(EdgeRec {
            id: take_str(&mut rest)?,
            src: take_str(&mut rest)?,
            src_label: take_str(&mut rest)?,
            label: take_str(&mut rest)?,
            dst: take_str(&mut rest)?,
            dst_label: take_str(&mut rest)?,
        });
    }
    let packed = if rest.is_empty() {
        None
    } else {
        let len = take_u32(&mut rest)? as usize;
        let bytes = take(&mut rest, len)?;
        if !rest.is_empty() {
            return Err(data_err("segment has trailing bytes".into()));
        }
        Some(bytes.to_vec())
    };
    Ok(Segment {
        generation,
        triples,
        edges,
        packed,
    })
}

/// Writes the segment atomically to `path`: encode to `path.tmp`,
/// fsync the file, rename over `path`, fsync the parent directory.
/// Injected fault site `segment::write` can tear the tmp-file write or
/// crash after N bytes — both leave `path` untouched. A length or
/// count that does not fit `u32` is `InvalidInput` before any file is
/// touched.
pub fn write_atomic(path: &Path, seg: &Segment) -> std::io::Result<()> {
    write_image_atomic(path, &try_encode(seg)?)
}

/// [`write_atomic`] for an already encoded file image.
pub(crate) fn write_image_atomic(path: &Path, image: &Image) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        match io_fault!("segment::write") {
            Some(IoFault::Torn(n)) => {
                image.write_prefix(&mut f, n)?;
                let _ = f.sync_all();
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "injected torn write at segment::write",
                ));
            }
            Some(IoFault::Crash(n)) => {
                let _ = image.write_prefix(&mut f, n);
                let _ = f.sync_all();
                panic!("injected crash at segment::write after {n} bytes");
            }
            Some(IoFault::Fsync) => {
                image.write_prefix(&mut f, usize::MAX)?;
                return Err(std::io::Error::other(
                    "injected fsync failure at segment::write",
                ));
            }
            _ => {}
        }
        image.write_prefix(&mut f, usize::MAX)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    // Persist the rename itself. `parent()` yields "" for a bare
    // relative filename, which does not open — that means the cwd.
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    std::fs::File::open(dir)?.sync_all()?;
    Ok(())
}

/// Reads and decodes the segment at `path`.
pub fn read(path: &Path) -> std::io::Result<Segment> {
    let image = std::fs::read(path)?;
    decode(&image)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Segment {
        Segment {
            generation: 7,
            triples: vec![
                ("a".into(), "knows".into(), "b".into()),
                ("b".into(), "knows".into(), "c".into()),
            ],
            edges: vec![EdgeRec {
                id: "e1".into(),
                src: "x".into(),
                src_label: "person".into(),
                label: "rides".into(),
                dst: "y".into(),
                dst_label: "bus".into(),
            }],
            packed: None,
        }
    }

    #[test]
    fn packed_section_round_trips_and_legacy_images_decode() {
        let mut seg = sample();
        seg.packed = Some(vec![0xAB; 37]);
        assert_eq!(decode(&encode(&seg)).unwrap(), seg);
        // An empty packed section survives too.
        seg.packed = Some(Vec::new());
        assert_eq!(decode(&encode(&seg)).unwrap(), seg);
        // A legacy image (no section) decodes with `packed: None`.
        let legacy = encode(&sample());
        assert_eq!(decode(&legacy).unwrap().packed, None);
    }

    /// A `KGQSEG01` image of `sample()` written by earlier builds, kept
    /// as a read fixture: it must keep verifying and decoding, through
    /// [`decode`] and through the mmap reader alike.
    const SAMPLE_IMAGE_V1_HEX: &str = concat!(
        "4b4751534547303107000000000000000200000001000000010000006105000000",
        "6b6e6f777301000000620100000062050000006b6e6f7773010000006302000000",
        "6531010000007806000000706572736f6e05000000726964657301000000790300",
        "000062757327b8b67b",
    );

    /// `encode(&sample())` pinned byte for byte, CRCs included. Its one
    /// chunk is the v1 payload, so its chunk CRC is the v1 trailer.
    const SAMPLE_IMAGE_HEX: &str = concat!(
        "4b4751534547303207000000000000000200000001000000600000000000000010",
        "000000000000005000000000000000000000000000000000000000000000000100",
        "000027b8b67bb9bae8580700000000000000020000000100000001000000610500",
        "00006b6e6f777301000000620100000062050000006b6e6f777301000000630200",
        "00006531010000007806000000706572736f6e0500000072696465730100000079",
        "03000000627573",
    );

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn sample_image_is_byte_identical_to_earlier_builds() {
        let image = encode(&sample());
        let hex: String = image.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, SAMPLE_IMAGE_HEX);
        assert_eq!(decode(&image).unwrap(), sample());
        let v1 = unhex(SAMPLE_IMAGE_V1_HEX);
        assert_eq!(decode(&v1).unwrap(), sample());
        let dir = std::env::temp_dir().join(format!("kgq-seg-v1-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v1.seg");
        std::fs::write(&path, &v1).unwrap();
        let map = crate::mmap::SegmentMap::open(&path).unwrap();
        assert_eq!(map.generation(), 7);
        assert_eq!(map.to_segment().unwrap(), sample());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lengths_past_u32_are_refused() {
        let err = len_u32(u32::MAX as usize + 1, "packed section length").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert_eq!(len_u32(u32::MAX as usize, "x").unwrap(), [0xFF; 4]);
        assert_eq!(len_u32(5, "x").unwrap(), 5u32.to_le_bytes());
    }

    #[test]
    fn encode_decode_round_trips() {
        let seg = sample();
        assert_eq!(decode(&encode(&seg)).unwrap(), seg);
        let empty = Segment::default();
        assert_eq!(decode(&encode(&empty)).unwrap(), empty);
    }

    #[test]
    fn any_bit_flip_is_rejected() {
        let image = encode(&sample());
        for byte in SEG_MAGIC.len()..image.len() {
            let mut corrupt = image.clone();
            corrupt[byte] ^= 0x40;
            assert!(
                decode(&corrupt).is_err(),
                "flip at byte {byte} went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let image = encode(&sample());
        for cut in 0..image.len() {
            assert!(decode(&image[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn each_chunk_carries_its_own_crc() {
        let mut seg = sample();
        seg.packed = Some((0..3 * CHUNK as u32).map(|i| (i % 251) as u8).collect());
        let image = encode(&seg);
        let (layout, _) = Layout::read(&image).unwrap();
        assert_eq!(layout.n_chunks(), layout.payload.len().div_ceil(CHUNK));
        assert_eq!(layout.n_chunks(), 4);
        assert_eq!(decode(&image).unwrap(), seg);
        let mut corrupt = image.clone();
        corrupt[layout.payload.start + 2 * CHUNK + 5] ^= 1;
        let err = decode(&corrupt).unwrap_err();
        assert!(err.to_string().contains("chunk 2"), "{err}");
        // A section table that points elsewhere than the payload is
        // refused even with every CRC recomputed.
        let mut moved = image.clone();
        moved[40..48].copy_from_slice(&17u64.to_le_bytes());
        let table_end = 68 + 4 * layout.n_chunks();
        let crc = crc32(&moved[8..table_end]);
        moved[table_end..table_end + 4].copy_from_slice(&crc.to_le_bytes());
        assert!(decode(&moved).is_err());
    }

    #[test]
    fn atomic_write_round_trips() {
        let dir = std::env::temp_dir().join(format!("kgq-seg-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("segment");
        let seg = sample();
        write_atomic(&path, &seg).unwrap();
        assert_eq!(read(&path).unwrap(), seg);
        let _ = std::fs::remove_file(&path);
    }
}
