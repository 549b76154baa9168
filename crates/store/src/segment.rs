//! Immutable base segments.
//!
//! A segment is the compacted, read-only image of the store at some
//! generation: every triple and every edge record, string-encoded,
//! with a single CRC over the whole payload. Segments are written
//! atomically — tmp file, fsync, rename over the live name, directory
//! fsync — so a crash during compaction leaves either the old segment
//! or the new one, never a hybrid. That is why, unlike the WAL's
//! tolerated torn tail, a segment that fails its checksum is a *hard
//! error*: it cannot be the residue of a crash, only real corruption.
//!
//! ```text
//! file    := "KGQSEG01" payload crc:u32le      (crc over payload)
//! payload := generation:u64le n_triples:u32le n_edges:u32le
//!            (s p o){n_triples} (id src src_label label dst dst_label){n_edges}
//!            [ packed_len:u32le packed-bytes ]              (optional)
//! s/p/…   := strlen:u32le utf8-bytes
//! ```
//!
//! The optional trailing *packed section* carries a bit-packed
//! adjacency image (`kgq_graph::packed`, magic `KGQPIDX1`) so a scale
//! graph can live in one immutable, CRC-guarded file and be queried
//! straight out of an mmap ([`crate::mmap::SegmentMap`]) without
//! decoding. Segments written before this section existed simply end
//! after the edge records and decode as `packed: None`; any *other*
//! trailing bytes remain a hard error.

use crate::crc::crc32;
use crate::io_fault;
use crate::wal::{EdgeRec, IoFault};
use std::io::Write;
use std::path::Path;

/// Leading magic of every segment file.
pub const SEG_MAGIC: &[u8; 8] = b"KGQSEG01";

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

/// Encodes the segment to its full file image (magic + payload + CRC).
/// A segment whose lengths or counts do not fit `u32` encodes to the
/// empty image, which [`decode`] rejects; [`write_atomic`] reports it
/// as `InvalidInput` instead.
pub fn encode(seg: &Segment) -> Vec<u8> {
    try_encode(seg).unwrap_or_default()
}

fn try_encode(seg: &Segment) -> std::io::Result<Vec<u8>> {
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
/// first cloning them into an owned [`Segment`]. The counts in the
/// header are patched in once the iterators are drained. A length or
/// count that does not fit `u32` is `InvalidInput`.
pub(crate) fn encode_parts<'a>(
    generation: u64,
    triples: impl IntoIterator<Item = (&'a str, &'a str, &'a str)>,
    edges: impl IntoIterator<Item = &'a EdgeRec>,
    packed: Option<&[u8]>,
) -> std::io::Result<Vec<u8>> {
    let mut image = SEG_MAGIC.to_vec();
    image.extend_from_slice(&generation.to_le_bytes());
    let counts_at = image.len();
    image.extend_from_slice(&[0u8; 8]);
    let (mut n_triples, mut n_edges) = (0usize, 0usize);
    for (s, p, o) in triples {
        push_str(&mut image, s)?;
        push_str(&mut image, p)?;
        push_str(&mut image, o)?;
        n_triples += 1;
    }
    for e in edges {
        for part in [&e.id, &e.src, &e.src_label, &e.label, &e.dst, &e.dst_label] {
            push_str(&mut image, part)?;
        }
        n_edges += 1;
    }
    image[counts_at..counts_at + 4].copy_from_slice(&len_u32(n_triples, "triple count")?);
    image[counts_at + 4..counts_at + 8].copy_from_slice(&len_u32(n_edges, "edge count")?);
    if let Some(packed) = packed {
        image.extend_from_slice(&len_u32(packed.len(), "packed section length")?);
        image.extend_from_slice(packed);
    }
    let crc = crc32(&image[SEG_MAGIC.len()..]);
    image.extend_from_slice(&crc.to_le_bytes());
    Ok(image)
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

fn take_str(rest: &mut &[u8]) -> std::io::Result<String> {
    let len = take_u32(rest)? as usize;
    let bytes = take(rest, len)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| data_err("segment term is not UTF-8".into()))
}

/// Checks magic and the whole-payload CRC of a segment file image and
/// returns the payload between them — the one place a segment's
/// checksum is swept, whether the bytes were read or mapped.
pub(crate) fn verified_payload(image: &[u8]) -> std::io::Result<&[u8]> {
    if image.len() < SEG_MAGIC.len() + 4 || &image[..SEG_MAGIC.len()] != SEG_MAGIC {
        return Err(data_err("not a kgq segment (bad magic)".into()));
    }
    let (payload, crc) = image[SEG_MAGIC.len()..].split_at(image.len() - SEG_MAGIC.len() - 4);
    let stored = u32::from_le_bytes([crc[0], crc[1], crc[2], crc[3]]);
    if crc32(payload) != stored {
        return Err(data_err("segment checksum mismatch".into()));
    }
    Ok(payload)
}

/// Decodes a segment file image. Any structural defect — bad magic,
/// bad CRC, truncated strings, trailing bytes — is an error, because
/// atomic replacement means a valid store never exposes a torn segment.
pub fn decode(image: &[u8]) -> std::io::Result<Segment> {
    decode_payload(verified_payload(image)?)
}

/// Decodes a payload [`verified_payload`] already vouched for.
pub(crate) fn decode_payload(payload: &[u8]) -> std::io::Result<Segment> {
    let mut rest = payload;
    let generation = {
        let b = take(&mut rest, 8)?;
        u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
    };
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
pub(crate) fn write_image_atomic(path: &Path, image: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        match io_fault!("segment::write") {
            Some(IoFault::Torn(n)) => {
                let n = n.min(image.len());
                f.write_all(&image[..n])?;
                let _ = f.sync_all();
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "injected torn write at segment::write",
                ));
            }
            Some(IoFault::Crash(n)) => {
                let n = n.min(image.len());
                let _ = f.write_all(&image[..n]);
                let _ = f.sync_all();
                panic!("injected crash at segment::write after {n} bytes");
            }
            Some(IoFault::Fsync) => {
                f.write_all(image)?;
                return Err(std::io::Error::other(
                    "injected fsync failure at segment::write",
                ));
            }
            _ => {}
        }
        f.write_all(image)?;
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

    /// `encode(&sample())` pinned byte for byte, CRC included: images
    /// written by earlier builds must keep verifying and decoding,
    /// whatever `crc32`'s implementation.
    const SAMPLE_IMAGE_HEX: &str = concat!(
        "4b4751534547303107000000000000000200000001000000010000006105000000",
        "6b6e6f777301000000620100000062050000006b6e6f7773010000006302000000",
        "6531010000007806000000706572736f6e05000000726964657301000000790300",
        "000062757327b8b67b",
    );

    #[test]
    fn sample_image_is_byte_identical_to_earlier_builds() {
        let image = encode(&sample());
        let hex: String = image.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, SAMPLE_IMAGE_HEX);
        assert_eq!(decode(&image).unwrap(), sample());
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
