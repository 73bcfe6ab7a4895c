//! Per-thread-block shared memory: functional word storage plus the Fermi
//! 32-bank conflict model that determines how many cycles a shared-memory
//! access occupies the load/store unit.

use pro_core::codec::{CodecError, Reader, Writer};
use pro_isa::WARP_SIZE;

/// Number of shared-memory banks (Fermi: 32, 4-byte wide).
pub const NUM_BANKS: usize = 32;

/// Shared memory for one resident thread block.
#[derive(Debug, Clone)]
pub struct SharedMem {
    words: Vec<u32>,
}

impl SharedMem {
    /// Allocate `bytes` of shared storage (zeroed, like GPGPU-Sim).
    pub(crate) fn new(bytes: u32) -> Self {
        SharedMem {
            words: vec![0; (bytes as usize).div_ceil(4)],
        }
    }

    /// Read the word at byte address `addr` (must be in bounds & aligned).
    #[inline]
    pub(crate) fn read(&self, addr: u32) -> u32 {
        debug_assert!(addr.is_multiple_of(4), "unaligned shared read at {addr:#x}");
        self.words[(addr / 4) as usize]
    }

    /// Write the word at byte address `addr`.
    #[inline]
    pub(crate) fn write(&mut self, addr: u32, value: u32) {
        debug_assert!(addr.is_multiple_of(4), "unaligned shared write at {addr:#x}");
        self.words[(addr / 4) as usize] = value;
    }

    /// The words, for a checkpoint. The program fixes their number, so it
    /// is not written.
    pub(crate) fn save_words(&self, w: &mut Writer) {
        w.put_u32_slice(&self.words);
    }

    /// Read what [`SharedMem::save_words`] wrote into memory of the same size.
    pub(crate) fn load_words(&mut self, r: &mut Reader<'_>) -> Result<(), CodecError> {
        for word in &mut self.words {
            *word = r.get_u32()?;
        }
        Ok(())
    }
}

/// Cycles a shared load/store occupies the LSU given the active lanes'
/// byte addresses: the maximum, over banks, of *distinct word addresses*
/// mapped to that bank (identical addresses broadcast for free). Active
/// lanes in distinct banks — unit strides, the common case — take one
/// cycle, which is what [`conflict_cycles_general`] counts for them; any
/// other row goes to the general count.
#[inline]
pub(crate) fn conflict_cycles(addrs: &[u32; WARP_SIZE], mask: u32) -> u32 {
    let mut banks = 0u32;
    let mut m = mask;
    while m != 0 {
        let lane = m.trailing_zeros() as usize;
        m &= m - 1;
        let bit = 1u32 << (addrs[lane] / 4 % NUM_BANKS as u32);
        if banks & bit != 0 {
            return conflict_cycles_general(addrs, mask);
        }
        banks |= bit;
    }
    1
}

/// [`conflict_cycles`] for any row: per bank, the words that differ from
/// the last one the bank saw, counted over the active lanes in lane order.
/// (Exact dedup would track sets; tracking the last distinct word per bank
/// covers broadcast and strided patterns, which is what our kernels
/// generate.)
fn conflict_cycles_general(addrs: &[u32; WARP_SIZE], mask: u32) -> u32 {
    // A word address is below 2^30, so `u32::MAX` marks a bank that has
    // seen none; no bank counts past the 32 lanes.
    let mut seen = [u32::MAX; NUM_BANKS];
    let mut per_bank = [0u8; NUM_BANKS];
    let mut worst = 1;
    let mut m = mask;
    while m != 0 {
        let lane = m.trailing_zeros() as usize;
        m &= m - 1;
        let word = addrs[lane] / 4;
        let bank = word as usize % NUM_BANKS;
        if seen[bank] != word {
            seen[bank] = word;
            per_bank[bank] += 1;
            worst = worst.max(per_bank[bank]);
        }
    }
    u32::from(worst)
}

/// Serialization cycles for a shared-memory *atomic*: lanes addressing the
/// same word serialize fully (read-modify-write), so the cost is the
/// maximum, over words, of the number of active lanes touching that word,
/// combined with ordinary bank conflicts.
#[allow(clippy::needless_range_loop)] // lane indexes the mask AND the array
pub(crate) fn atomic_cycles(addrs: &[u32; WARP_SIZE], mask: u32) -> u32 {
    // Count duplicate addresses per bank *including* duplicates — RMW can't
    // broadcast.
    let mut per_bank: [u32; NUM_BANKS] = [0; NUM_BANKS];
    let mut worst = 0;
    for lane in 0..WARP_SIZE {
        if mask & (1 << lane) == 0 {
            continue;
        }
        let word = addrs[lane] / 4;
        let bank = (word as usize) % NUM_BANKS;
        per_bank[bank] += 1;
        worst = worst.max(per_bank[bank]);
    }
    worst.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_addrs(stride: u32) -> [u32; WARP_SIZE] {
        std::array::from_fn(|i| i as u32 * stride)
    }

    #[test]
    fn storage_roundtrip_and_zeroing() {
        let mut s = SharedMem::new(64);
        assert_eq!(s.read(0), 0);
        s.write(8, 123);
        assert_eq!(s.read(8), 123);
        assert_eq!(s.words.len() * 4, 64);
    }

    #[test]
    fn unit_stride_is_conflict_free() {
        assert_eq!(conflict_cycles(&seq_addrs(4), u32::MAX), 1);
    }

    #[test]
    fn stride_two_words_is_two_way_conflict() {
        assert_eq!(conflict_cycles(&seq_addrs(8), u32::MAX), 2);
    }

    #[test]
    fn stride_32_words_serializes_fully() {
        assert_eq!(conflict_cycles(&seq_addrs(128), u32::MAX), 32);
    }

    #[test]
    fn broadcast_same_address_is_free() {
        let addrs = [0u32; WARP_SIZE];
        assert_eq!(conflict_cycles(&addrs, u32::MAX), 1);
    }

    #[test]
    fn inactive_lanes_do_not_conflict() {
        assert_eq!(conflict_cycles(&seq_addrs(128), 0b1), 1);
        assert_eq!(conflict_cycles(&seq_addrs(128), 0), 1, "min occupancy 1");
    }

    /// The count as it was first written: a pass over all 32 lanes with
    /// per-bank counts and the last word seen per bank.
    #[allow(clippy::needless_range_loop)] // lane indexes the mask AND the array
    fn conflict_cycles_reference(addrs: &[u32; WARP_SIZE], mask: u32) -> u32 {
        let mut per_bank: [u32; NUM_BANKS] = [0; NUM_BANKS];
        let mut seen: [Option<u32>; NUM_BANKS] = [None; NUM_BANKS];
        let mut worst = 0;
        for lane in 0..WARP_SIZE {
            if mask & (1 << lane) == 0 {
                continue;
            }
            let word = addrs[lane] / 4;
            let bank = (word as usize) % NUM_BANKS;
            if seen[bank] == Some(word) {
                continue;
            }
            seen[bank] = Some(word);
            per_bank[bank] += 1;
            worst = worst.max(per_bank[bank]);
        }
        worst.max(1)
    }

    /// Over random rows — strided, offset, with repeated and colliding
    /// words — and random active masks, the distinct-banks fast path and
    /// the general count each answer exactly what the reference does.
    #[test]
    fn the_fast_path_is_the_general_count() {
        use pro_core::prop::{check, from_fn, Config};
        use pro_core::prop_assert_eq;
        let row = from_fn(|g| {
            let stride = 4 * g.gen_range(0..40u32);
            let base = 4 * g.gen_range(0..1024u32);
            let addrs: [u32; WARP_SIZE] = std::array::from_fn(|lane| match g.gen_range(0..8u32) {
                0 => 4 * g.gen_range(0..64u32),
                1 => base,
                _ => base + lane as u32 * stride,
            });
            let mask = match g.gen_range(0..4u32) {
                0 => u32::MAX,
                1 => g.next_u64() as u32 & g.next_u64() as u32,
                _ => g.next_u64() as u32,
            };
            (addrs, mask)
        });
        check(Config::with_cases(2_000), row, |(addrs, mask)| {
            let want = conflict_cycles_reference(addrs, *mask);
            prop_assert_eq!(conflict_cycles_general(addrs, *mask), want, "general");
            prop_assert_eq!(conflict_cycles(addrs, *mask), want, "fast path");
            Ok(())
        });
    }

    #[test]
    fn atomic_same_address_serializes() {
        let addrs = [16u32; WARP_SIZE];
        assert_eq!(atomic_cycles(&addrs, u32::MAX), 32);
        assert_eq!(atomic_cycles(&addrs, 0b1111), 4);
    }

    #[test]
    fn atomic_distinct_addresses_parallel() {
        assert_eq!(atomic_cycles(&seq_addrs(4), u32::MAX), 1);
    }
}
