//! Inter-lane memory coalescing.
//!
//! Fermi-class GPUs merge the 32 lane addresses of a warp memory instruction
//! into the minimal set of 128-byte segment transactions. A fully coalesced
//! access (consecutive 4-byte words) produces 1 transaction; a worst-case
//! scattered access produces 32. The transaction count is what the LSU and
//! the caches see, so coalescing quality directly sets a kernel's memory
//! intensity — one of the workload-modelling axes in DESIGN.md §6.

use crate::line_of;
#[cfg(test)]
use crate::LINE_BYTES;

/// Coalesce the active lanes' byte addresses into unique line addresses.
///
/// `addrs[i]` is lane `i`'s byte address; lane `i` participates iff bit `i`
/// of `mask` is set. Returns the deduplicated line addresses in first-touch
/// order. `out` is a caller-provided scratch vector (cleared here) so the
/// per-issue hot path performs no allocation once warmed up.
#[allow(clippy::needless_range_loop)] // lane indexes the mask AND the array
pub fn coalesce_lines(addrs: &[u64; 32], mask: u32, out: &mut Vec<u64>) {
    out.clear();
    for lane in 0..32 {
        if mask & (1 << lane) == 0 {
            continue;
        }
        let line = line_of(addrs[lane]);
        // Linear scan: transaction counts are ≤32 and usually 1-2, so this
        // beats hashing.
        if !out.contains(&line) {
            out.push(line);
        }
    }
}

/// Helper used by workload docs/tests: lane addresses for a perfectly
/// coalesced access starting at `base`.
pub fn unit_stride(base: u64) -> [u64; 32] {
    std::array::from_fn(|i| base + i as u64 * 4)
}

/// Lane addresses with a fixed byte `stride` between lanes.
pub fn strided(base: u64, stride: u64) -> [u64; 32] {
    std::array::from_fn(|i| base + i as u64 * stride)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of 128-byte transactions a (mask, addrs) pair generates.
    fn transaction_count(addrs: &[u64; 32], mask: u32) -> usize {
        let mut v = Vec::with_capacity(4);
        coalesce_lines(addrs, mask, &mut v);
        v.len()
    }

    #[test]
    fn unit_stride_aligned_is_one_transaction() {
        let addrs = unit_stride(0);
        assert_eq!(transaction_count(&addrs, u32::MAX), 1);
    }

    #[test]
    fn unit_stride_misaligned_is_two_transactions() {
        // Straddles a 128B boundary.
        let addrs = unit_stride(64);
        assert_eq!(transaction_count(&addrs, u32::MAX), 2);
    }

    #[test]
    fn stride_128_is_fully_scattered() {
        let addrs = strided(0, LINE_BYTES);
        assert_eq!(transaction_count(&addrs, u32::MAX), 32);
    }

    #[test]
    fn stride_8_is_two_transactions() {
        // 32 lanes * 8B = 256B = 2 lines.
        let addrs = strided(0, 8);
        assert_eq!(transaction_count(&addrs, u32::MAX), 2);
    }

    #[test]
    fn inactive_lanes_are_ignored() {
        let addrs = strided(0, LINE_BYTES);
        assert_eq!(transaction_count(&addrs, 0b1), 1);
        assert_eq!(transaction_count(&addrs, 0b101), 2);
        assert_eq!(transaction_count(&addrs, 0), 0);
    }

    #[test]
    fn duplicate_addresses_merge() {
        let addrs = [0u64; 32];
        assert_eq!(transaction_count(&addrs, u32::MAX), 1);
    }

    #[test]
    fn first_touch_order_is_preserved() {
        let mut addrs = [0u64; 32];
        addrs[0] = 3 * LINE_BYTES;
        addrs[1] = LINE_BYTES;
        addrs[2] = 3 * LINE_BYTES;
        let mut out = Vec::new();
        coalesce_lines(&addrs, 0b111, &mut out);
        assert_eq!(out, vec![3, 1]);
    }
}
