//! CRC-32 (IEEE 802.3, polynomial `0xEDB88320`) — the per-record and
//! per-snapshot integrity check of the on-disk formats.
//!
//! Table-driven ("slicing-by-8"), with the tables built at compile time;
//! no external crate needed. The reflected IEEE variant is the one
//! `zlib`, Ethernet and most storage formats use, so fixtures written
//! here can be checked with standard tooling.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Eight chained tables: `TABLES[k][b]` advances a CRC by one byte `b`
/// followed by `k` zero bytes, which lets the hot loop fold 8 input
/// bytes per iteration (snapshot payloads are megabytes, so the plain
/// byte-at-a-time loop was showing up in the snapshot stall).
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
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

static TABLES: [[u32; 256]; 8] = build_tables();

/// CRC-32 of `bytes` (IEEE, reflected, init and final XOR `0xFFFFFFFF`).
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// The CRC-32 of `a ++ bytes` given `crc == crc32(a)`, as zlib's
/// `crc32(crc, buf, len)`: a payload checked piece by piece as it passes.
pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    let mut crc = !crc;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ crc;
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][chunk[4] as usize]
            ^ TABLES[2][chunk[5] as usize]
            ^ TABLES[1][chunk[6] as usize]
            ^ TABLES[0][chunk[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn updating_over_any_split_equals_the_whole() {
        let bytes: Vec<u8> = (0..100u32).map(|i| (i * 37 + 11) as u8).collect();
        for split in 0..=bytes.len() {
            let (a, b) = bytes.split_at(split);
            assert_eq!(crc32_update(crc32(a), b), crc32(&bytes), "split at {split}");
        }
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let base = crc32(b"ltam-store record");
        let mut corrupted = b"ltam-store record".to_vec();
        for i in 0..corrupted.len() {
            for bit in 0..8 {
                corrupted[i] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), base, "flip at byte {i} bit {bit}");
                corrupted[i] ^= 1 << bit;
            }
        }
    }
}
