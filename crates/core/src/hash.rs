//! FNV-1a, the workspace's one non-cryptographic hash: spec and artifact
//! content hashes (`fnv1a:<16 hex>`), the wire-frame checksum and the
//! sharded engine's event digest all build on it.

/// The 64-bit FNV offset basis (the hash of the empty input).
pub const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The 64-bit FNV prime.
pub const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a, 64-bit, over `bytes`.
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV64_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV64_PRIME)
    })
}

/// FNV-1a, 32-bit, over `bytes`. Any single-bit flip in the input
/// changes the hash: each step xors the byte into the state and
/// multiplies by an odd prime (a bijection), so differing states never
/// re-converge.
#[inline]
pub fn fnv1a32(bytes: &[u8]) -> u32 {
    bytes.iter().fold(0x811c_9dc5, |h: u32, &b| {
        (h ^ u32::from(b)).wrapping_mul(0x0100_0193)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), FNV64_OFFSET);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a32(b""), 0x811c_9dc5);
        assert_eq!(fnv1a32(b"a"), 0xe40c_292c);
        assert_eq!(fnv1a32(b"foobar"), 0xbf9c_f968);
    }
}
