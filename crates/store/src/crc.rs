//! CRC-32 (IEEE 802.3, the zlib/gzip polynomial), slicing-by-16.
//!
//! Every WAL record and every segment file carries a CRC over its
//! payload so recovery can distinguish "valid record" from "torn or
//! corrupt bytes" without trusting lengths alone. The reflected
//! polynomial `0xEDB88320` is the one every other storage engine uses,
//! which makes the on-disk format checkable with standard tools
//! (`python -c 'import zlib; print(zlib.crc32(...))'`).
//!
//! The sweep folds 16 input bytes per step through 16 lookup tables
//! (one per byte position) instead of one table lookup per byte. It is
//! the same polynomial, initial value and final complement, so it
//! returns exactly the values of the byte-at-a-time loop, and every
//! image written by an earlier build still verifies. The rate matters
//! where whole payloads are checked — recovery's
//! [`crate::SegmentMap::to_segment`], a `KGQSEG01` open, a full packed
//! scan — and it bounds the first-touch price of each 64 KiB segment
//! chunk a query reads. On a 2-core x86-64 VM the sliced loop runs at
//! about 1.7 GB/s, the byte-at-a-time loop at about 350 MB/s.

/// `TABLES[0]` is the classic 256-entry table for the reflected
/// polynomial; `TABLES[k][b]` is the CRC register after byte `b` is
/// followed by `k` zero bytes. Built at compile time.
static TABLES: [[u32; 256]; 16] = build_tables();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 of `bytes` (initial value `!0`, final complement — the
/// standard zlib convention).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let (blocks, tail) = bytes.as_chunks::<16>();
    let mut crc = !0u32;
    for b in blocks {
        // The register folds into the first four bytes; byte `j` of the
        // block still has `15 - j` bytes to pass, hence `t[15 - j]`.
        let x = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(x & 0xFF) as usize]
            ^ t[14][((x >> 8) & 0xFF) as usize]
            ^ t[13][((x >> 16) & 0xFF) as usize]
            ^ t[12][(x >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in tail {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time reference loop; `crc32` must agree with it on
    /// every input.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    /// 1 MiB from a 64-bit LCG (Knuth's MMIX constants), each state
    /// written little-endian.
    fn seeded_mib() -> Vec<u8> {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        (0..1 << 17)
            .flat_map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                state.to_le_bytes()
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"kgq"), crc32(b"kgq"));
    }

    #[test]
    fn detects_single_bit_flips() {
        let base = b"the quick brown fox jumps over the lazy dog".to_vec();
        let reference = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(
                    crc32(&flipped),
                    reference,
                    "flip at {byte}:{bit} undetected"
                );
            }
        }
    }

    #[test]
    fn slicing_matches_bytewise_at_every_length_and_offset() {
        let buf = seeded_mib();
        for start in 0..16 {
            for len in 0..=300 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start} len {len}");
            }
        }
        assert_eq!(crc32(&buf), crc32_bytewise(&buf));
    }

    #[test]
    fn seeded_mib_matches_zlib() {
        // Computed independently with Python's zlib over the same bytes:
        //   s = 0x2545F4914F6CDD1D; b = bytearray()
        //   for _ in range(1 << 17):
        //       s = (s * 6364136223846793005 + 1442695040888963407) % 2**64
        //       b += s.to_bytes(8, "little")
        //   hex(zlib.crc32(bytes(b)))  # -> 0x91af26ec
        assert_eq!(crc32(&seeded_mib()), 0x91AF_26EC);
    }
}
