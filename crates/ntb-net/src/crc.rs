//! CRC-32 (IEEE 802.3) payload checksums.
//!
//! The NTB window is ordinary PCIe posted-write territory: the paper's
//! hardware protects TLPs with LCRC hop by hop, but a switchless ring
//! forwards payloads through intermediate hosts' memory, where a software
//! end-to-end check is the only integrity story. On a link with an armed
//! fault plan every slot record carries a CRC over the record and its
//! payload ([`crate::slots`]), written before the doorbell; every
//! receiving hop recomputes and compares before staging or delivering. A
//! mismatch drops the frame (releasing its slot so the link keeps
//! moving) and relies on the sender's retransmission to recover.
//!
//! Table-driven, one table built at first use; the polynomial is the
//! reflected IEEE one (0xEDB88320) so results match zlib/`cksum -o 3`.

/// The reflected IEEE 802.3 polynomial.
const POLY: u32 = 0xEDB8_8320;

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static TABLE: [u32; 256] = build_table();

/// CRC-32 of `data` (IEEE, reflected, init/final-xor `0xFFFF_FFFF`).
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc = (crc >> 8) ^ TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let mut buf = vec![0xA5u8; 4096];
        let clean = crc32(&buf);
        buf[1234] ^= 0x10;
        assert_ne!(crc32(&buf), clean);
    }

    #[test]
    fn crc_is_pure() {
        let buf = vec![7u8; 100];
        assert_eq!(crc32(&buf), crc32(&buf));
    }
}
