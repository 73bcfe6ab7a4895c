//! Functional backing store for device global memory, plus a bump allocator
//! workloads use to lay out their buffers (the CUDA `cudaMalloc` stand-in).

use pro_core::codec::{ensure, CodecError, Reader, Writer};

/// Dirty-tracking granularity: words per page. 256 words = 1 KiB pages — a
/// kernel touching a few MB dirties a few thousand pages, so the bitmap
/// stays tiny (one bit per KiB) while a 1k-cycle delta captures little
/// beyond what was actually stored.
pub const PAGE_WORDS: usize = 256;

/// Dirty-tracking page size in bytes.
pub const PAGE_BYTES: u64 = PAGE_WORDS as u64 * 4;

/// Device global memory: a flat, word-addressed store.
///
/// Addresses are byte addresses; accesses must be 4-byte aligned (VPTX loads
/// and stores are 32-bit). Out-of-bounds accesses panic — workloads size
/// their buffers explicitly, so an OOB access is a kernel bug we want to
/// catch, not mask.
///
/// The simulator reads and writes it directly at issue: a store is visible
/// to every later access of the same cycle (the SM's other scheduler unit,
/// then higher-indexed SMs — DESIGN.md §11), and to everything afterwards.
///
/// Every store path keeps the page-granular dirty bitmap: a warp's
/// [`GlobalMem::write_row`] scatter funnels through [`GlobalMem::write`],
/// and host-side buffer initialization goes through the one other path,
/// the bulk fill [`GlobalMem::alloc_with`], which marks a new buffer's page
/// range in one pass. So the bitmap is a complete record
/// of what changed since the last [`GlobalMem::save_delta`] capture. The timing
/// path (coalescer, L2 writebacks, DRAM fills) moves no functional data and
/// therefore needs no hooks of its own.
#[derive(Debug, Clone)]
pub struct GlobalMem {
    words: Vec<u32>,
    next_alloc: u64,
    /// One bit per [`PAGE_WORDS`]-word page, set on every write since the
    /// last [`GlobalMem::mark_clean`]. Never serialized: a restore is
    /// itself a capture boundary, so it always starts clean.
    dirty: Vec<u64>,
    /// One past the highest page any write had reached by the last
    /// [`GlobalMem::mark_clean`] (or restore): a nonzero word lies below
    /// it or in a page dirtied since, so [`GlobalMem::save`] starts its
    /// trailing-zero scan there instead of at the end of the store. Sticky
    /// (never lowered) and derived: seeded from `used` on restore.
    touched_pages: usize,
}

/// Bitmap words needed for `words` data words.
fn dirty_len(words: usize) -> usize {
    words.div_ceil(PAGE_WORDS).div_ceil(64)
}

impl GlobalMem {
    /// Create a memory of `bytes` bytes (rounded up to a word).
    pub fn new(bytes: u64) -> Self {
        let words = (bytes as usize).div_ceil(4);
        GlobalMem {
            words: vec![0; words],
            next_alloc: 0,
            dirty: vec![0; dirty_len(words)],
            touched_pages: 0,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.words.len() as u64 * 4
    }

    /// Allocate `bytes` (aligned up to 256 B like `cudaMalloc`); returns the
    /// base byte address.
    pub fn alloc(&mut self, bytes: u64) -> u64 {
        let base = self.next_alloc;
        let aligned = bytes.div_ceil(256) * 256;
        self.next_alloc += aligned;
        assert!(
            self.next_alloc <= self.capacity(),
            "global memory exhausted: wanted {} bytes past {}",
            bytes,
            base
        );
        base
    }

    /// The bulk fill: allocate `n` words and set word `i` to `word(i)`, in
    /// ascending `i`, straight in the store; returns the base address. The
    /// buffer's page range is marked dirty once, so the store, the dirty
    /// map and every encoding end as `n` [`GlobalMem::write`]s leave them.
    pub fn alloc_with(&mut self, n: usize, mut word: impl FnMut(usize) -> u32) -> u64 {
        let base = self.alloc(n as u64 * 4);
        let lo = (base / 4) as usize;
        for (i, w) in self.words[lo..lo + n].iter_mut().enumerate() {
            *w = word(i);
        }
        if n > 0 {
            for page in lo / PAGE_WORDS..=(lo + n - 1) / PAGE_WORDS {
                self.dirty[page >> 6] |= 1 << (page & 63);
            }
        }
        base
    }

    /// Allocate and fill from a slice of words; returns the base address.
    pub fn alloc_init(&mut self, data: &[u32]) -> u64 {
        self.alloc_with(data.len(), |i| data[i])
    }

    /// Allocate and fill with `f32` values.
    pub fn alloc_init_f32(&mut self, data: &[f32]) -> u64 {
        self.alloc_with(data.len(), |i| data[i].to_bits())
    }

    /// Read the 32-bit word at byte address `addr`.
    #[inline]
    pub fn read(&self, addr: u64) -> u32 {
        debug_assert!(addr.is_multiple_of(4), "unaligned global read at {addr:#x}");
        self.words[(addr / 4) as usize]
    }

    /// Write the 32-bit word at byte address `addr`, marking its page dirty.
    #[inline]
    pub fn write(&mut self, addr: u64, value: u32) {
        debug_assert!(addr.is_multiple_of(4), "unaligned global write at {addr:#x}");
        let word = (addr / 4) as usize;
        self.words[word] = value;
        let page = word / PAGE_WORDS;
        self.dirty[page >> 6] |= 1 << (page & 63);
    }

    /// Number of pages written since the last [`GlobalMem::mark_clean`].
    pub(crate) fn dirty_pages(&self) -> usize {
        self.dirty.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// One past the highest page written since the last
    /// [`GlobalMem::mark_clean`] (0 when none was).
    fn dirty_page_bound(&self) -> usize {
        self.dirty
            .iter()
            .rposition(|&bits| bits != 0)
            .map_or(0, |i| i * 64 + 64 - self.dirty[i].leading_zeros() as usize)
    }

    /// Read an `f32` stored at `addr`.
    pub fn read_f32(&self, addr: u64) -> f32 {
        f32::from_bits(self.read(addr))
    }

    /// The `len` words starting at byte address `addr`, borrowed: how host
    /// code reads a buffer back without copying it.
    pub fn words(&self, addr: u64, len: usize) -> &[u32] {
        debug_assert!(addr.is_multiple_of(4), "unaligned global read at {addr:#x}");
        let lo = (addr / 4) as usize;
        &self.words[lo..lo + len]
    }

    /// Copy out `len` words starting at byte address `addr`.
    pub fn read_slice(&self, addr: u64, len: usize) -> Vec<u32> {
        self.words(addr, len).to_vec()
    }

    /// Warp-wide gather: `dst[l] = read(addrs[l])` for every lane `l` set
    /// in `mask`. Lanes outside `mask` are neither read nor written (their
    /// addresses may be garbage).
    #[inline]
    pub fn read_row(&self, addrs: &[u32; 32], mask: u32, dst: &mut [u32; 32]) {
        for lane in 0..32 {
            if mask & (1 << lane) != 0 {
                dst[lane] = self.read(addrs[lane] as u64);
            }
        }
    }

    /// Warp-wide scatter: `write(addrs[l], values[l])` for every lane `l`
    /// set in `mask`, in ascending lane order (the last lane to store to an
    /// address wins). Returns whether any word took a new value.
    #[inline]
    pub fn write_row(&mut self, addrs: &[u32; 32], values: &[u32; 32], mask: u32) -> bool {
        let mut changed = false;
        for lane in 0..32 {
            if mask & (1 << lane) != 0 {
                let addr = addrs[lane] as u64;
                changed |= self.old_word(addr) != values[lane];
                self.write(addr, values[lane]);
            }
        }
        changed
    }

    /// The word at `addr`, read only where a write may have left it
    /// nonzero: in a page dirty or under the touched bound. Elsewhere it
    /// is zero and is not read, so a store that first touches a page of
    /// the host's zeroed allocation faults it in once, as a write, and not
    /// first as a read of the zero page.
    #[inline]
    fn old_word(&self, addr: u64) -> u32 {
        let page = (addr / 4) as usize / PAGE_WORDS;
        if page < self.touched_pages || self.dirty[page >> 6] & (1 << (page & 63)) != 0 {
            self.read(addr)
        } else {
            0
        }
    }

    /// Append the full encoding of this memory: the total word count, the
    /// used prefix up to the last nonzero word, then the allocator cursor.
    /// Device memory is mostly zeros (64 MB store, a few MB touched), so
    /// the zero tail is not stored. [`GlobalMem::restore`] is its inverse.
    pub fn save(&self, w: &mut Writer) {
        w.put_u64(self.words.len() as u64);
        let bound = self.touched_pages.max(self.dirty_page_bound()) * PAGE_WORDS;
        let used = self.words[..bound.min(self.words.len())]
            .iter()
            .rposition(|&x| x != 0)
            .map_or(0, |i| i + 1);
        w.put_u64(used as u64);
        w.put_u32_slice(&self.words[..used]);
        w.put_u64(self.next_alloc);
    }
}

/// Which pages were written since the last capture boundary, so a
/// checkpoint chain can store only what changed. The contract is
/// bit-exactness over chains: `save` (or `save_delta`)
/// followed by `mark_clean` at each boundary, then [`GlobalMem::restore`]
/// of the full base and every delta in order, yields a memory observably
/// identical to the original at the final boundary. `mark_clean` is a
/// separate call (not folded into the save) so captures run behind shared
/// references and a *skipped* write — an in-memory pause snapshot — never
/// perturbs the chain.
impl GlobalMem {
    /// Append an encoding of only the pages written since the last
    /// [`GlobalMem::mark_clean`] (or construction, whichever is later):
    /// geometry + allocator cursor, then each dirty page in ascending page
    /// order as (page index, page words). The final page may be short when
    /// the word count is not page-aligned; its length is derived from
    /// `total`, so the encoding stays self-describing.
    pub fn save_delta(&self, w: &mut Writer) {
        w.put_u64(self.words.len() as u64);
        w.put_u64(self.next_alloc);
        w.put_u64(self.dirty_pages() as u64);
        for (i, &bits) in self.dirty.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let page = i * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                w.put_u64(page as u64);
                let lo = page * PAGE_WORDS;
                let hi = (lo + PAGE_WORDS).min(self.words.len());
                w.put_u32_slice(&self.words[lo..hi]);
            }
        }
    }

    /// Declare the current state captured: subsequent `save_delta` calls
    /// encode only writes made after this point.
    pub fn mark_clean(&mut self) {
        self.touched_pages = self.touched_pages.max(self.dirty_page_bound());
        self.dirty.fill(0);
    }

    /// Overwrite this store in place with the memory a [`GlobalMem::save`]
    /// encoding `full` and then each [`GlobalMem::save_delta`] encoding in
    /// `deltas`, in order, describe. Every encoding is checked in full
    /// before the first word is written — the store's own word count,
    /// `used <= total`, exact lengths, delta pages in range — so a refused
    /// restore leaves the store as it was. Only the used words are copied,
    /// and zeroing stops at the old touched bound, above which every word
    /// is zero already. The result starts clean: a restore is a capture
    /// boundary.
    pub fn restore(&mut self, full: &[u8], deltas: &[&[u8]]) -> Result<(), CodecError> {
        let total = self.words.len();
        let mut r = Reader::new(full);
        ensure(r.get_usize()? == total, "gmem geometry mismatch")?;
        let used = r.get_usize()?;
        ensure(used <= total, "gmem used > total")?;
        ensure(r.remaining() == used * 4 + 8, "gmem section length")?;
        let mut scratch = [0u32; PAGE_WORDS];
        for delta in deltas {
            walk_delta(delta, total, |words, r| r.get_u32_slice(&mut scratch[..words.len()]))?;
        }

        let bound = (self.touched_pages.max(self.dirty_page_bound()) * PAGE_WORDS).min(total);
        r.get_u32_slice(&mut self.words[..used])?;
        self.words[used..bound.max(used)].fill(0);
        self.next_alloc = r.get_u64()?;
        self.touched_pages = used.div_ceil(PAGE_WORDS);
        for delta in deltas {
            let (store, touched) = (&mut self.words, &mut self.touched_pages);
            self.next_alloc = walk_delta(delta, total, |words, r| {
                // Applied pages are not marked dirty; keep them under the bound.
                *touched = (*touched).max(words.end.div_ceil(PAGE_WORDS));
                r.get_u32_slice(&mut store[words])
            })?;
        }
        self.dirty.fill(0);
        Ok(())
    }
}

/// Walk a [`GlobalMem::save_delta`] encoding for a store of `total` words:
/// hand each page's word range to `page` with the reader at its words,
/// which `page` consumes, and return the allocator cursor. Refuses another
/// geometry, a page out of range and bytes past the last page.
fn walk_delta(
    bytes: &[u8],
    total: usize,
    mut page: impl FnMut(std::ops::Range<usize>, &mut Reader<'_>) -> Result<(), CodecError>,
) -> Result<u64, CodecError> {
    let mut r = Reader::new(bytes);
    ensure(r.get_usize()? == total, "gmem delta geometry mismatch")?;
    let next_alloc = r.get_u64()?;
    for _ in 0..r.get_usize()? {
        let index = r.get_usize()?;
        ensure(index < total.div_ceil(PAGE_WORDS), "gmem delta page out of range")?;
        let lo = index * PAGE_WORDS;
        page(lo..(lo + PAGE_WORDS).min(total), &mut r)?;
    }
    r.finish()?;
    Ok(next_alloc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_aligned_and_disjoint() {
        let mut m = GlobalMem::new(1 << 20);
        let a = m.alloc(100);
        let b = m.alloc(100);
        assert_eq!(a % 256, 0);
        assert_eq!(b % 256, 0);
        assert!(b >= a + 100);
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = GlobalMem::new(4096);
        m.write(8, 0xdeadbeef);
        assert_eq!(m.read(8), 0xdeadbeef);
        assert_eq!(m.read(12), 0);
    }

    #[test]
    fn f32_roundtrip() {
        let mut m = GlobalMem::new(4096);
        let base = m.alloc_init_f32(&[1.0, -2.5]);
        assert_eq!(m.read_f32(base), 1.0);
        assert_eq!(m.read_f32(base + 4), -2.5);
    }

    #[test]
    #[should_panic(expected = "global memory exhausted")]
    fn exhaustion_panics() {
        let mut m = GlobalMem::new(256);
        let _ = m.alloc(256);
        let _ = m.alloc(1);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_read_panics() {
        let m = GlobalMem::new(16);
        let _ = m.read(16);
    }

    #[test]
    fn alloc_init_copies_data() {
        let mut m = GlobalMem::new(4096);
        let base = m.alloc_init(&[1, 2, 3]);
        assert_eq!(m.read_slice(base, 3), vec![1, 2, 3]);
    }

    #[test]
    fn row_access_equals_lane_by_lane_access_on_both_ports() {
        // Both directions, scatter and gather. Lanes 0, 1, 5 and 31 active;
        // every other lane's address is far out of bounds and must be
        // neither read nor written.
        let mask = 0x8000_0023u32;
        let mut addrs = [u32::MAX - 3; 32];
        (addrs[0], addrs[1], addrs[5], addrs[31]) = (0, 4, 4, 64);
        let values: [u32; 32] = std::array::from_fn(|l| 100 + l as u32);

        // Lane 5 stores after lane 1 to the same word and wins.
        let mut m = GlobalMem::new(4096);
        m.write_row(&addrs, &values, mask);
        let mut by_lane = GlobalMem::new(4096);
        for lane in [0usize, 1, 5, 31] {
            by_lane.write(addrs[lane] as u64, values[lane]);
        }
        assert_eq!(m.read_slice(0, 1024), by_lane.read_slice(0, 1024));
        assert_eq!((m.read(0), m.read(4), m.read(64)), (100, 105, 131));

        let mut got = [7u32; 32];
        m.read_row(&addrs, mask, &mut got);
        let want: [u32; 32] = std::array::from_fn(|l| match l {
            0 => 100,
            1 | 5 => 105,
            31 => 131,
            _ => 7, // inactive lanes keep their value
        });
        assert_eq!(got, want);
    }

    #[test]
    fn a_row_reports_a_change_only_where_a_word_took_a_new_value() {
        // Page 0 is dirty, page 1 written and then cleaned (under the
        // touched bound), page 2 never written; one active lane per case.
        let mut m = GlobalMem::new(4 * PAGE_BYTES);
        m.write(PAGE_BYTES, 7);
        m.mark_clean();
        m.write(0, 5);
        let store = |m: &mut GlobalMem, addr: u64, value: u32| {
            let mut addrs = [0u32; 32];
            addrs[3] = addr as u32;
            m.write_row(&addrs, &[value; 32], 1 << 3)
        };
        for (addr, same, other) in [(0, 5, 6), (PAGE_BYTES, 7, 8), (2 * PAGE_BYTES, 0, 9)] {
            assert!(!store(&mut m, addr, same), "{addr:#x} rewritten with its value");
            assert!(store(&mut m, addr, other), "{addr:#x} given a new value");
            assert!(store(&mut m, addr, same), "{addr:#x} given its old value back");
        }
        // No active lane, no change.
        assert!(!m.write_row(&[0; 32], &[1; 32], 0));
    }

    #[test]
    fn stores_mark_pages_dirty_on_every_path() {
        // Word writes and row scatters (through write()) and host-side
        // alloc_init (through the bulk fill) must all set dirty bits.
        let mut m = GlobalMem::new(8 * PAGE_BYTES);
        assert_eq!(m.dirty_pages(), 0);
        m.write(0, 1); // page 0
        m.write(3 * PAGE_BYTES, 2); // page 3
        assert_eq!(m.dirty_pages(), 2);

        let mut addrs = [0u32; 32];
        (addrs[3], addrs[4]) = (5 * PAGE_BYTES as u32, 5 * PAGE_BYTES as u32 + 4);
        m.write_row(&addrs, &[3; 32], 0b1_1000); // lanes 3 and 4: page 5
        assert_eq!(m.dirty_pages(), 3);

        let _ = m.alloc(2 * PAGE_BYTES); // advance past the pages dirtied above
        let base = m.alloc_init(&[7, 8, 9]); // lands in clean page 2
        assert!(m.read(base) == 7);
        assert_eq!(m.dirty_pages(), 4);

        m.mark_clean();
        assert_eq!(m.dirty_pages(), 0);
    }

    #[test]
    fn the_bulk_fill_leaves_what_word_writes_leave() {
        // (store bytes, words before the buffer, words in it): empty, one
        // word, a buffer that starts mid-page and spans three pages, and
        // one that ends in the store's short last page.
        let cases = [
            (4 * PAGE_BYTES, 0, 0),
            (4 * PAGE_BYTES, 0, 1),
            (4 * PAGE_BYTES, PAGE_WORDS / 2, 2 * PAGE_WORDS),
            (3 * PAGE_BYTES + 256, PAGE_WORDS + 64, 2 * PAGE_WORDS - 10),
        ];
        for (bytes, before, n) in cases {
            let word = |i: usize| 0x9E37_79B9u32.wrapping_mul(i as u32 + 1);
            let (mut bulk, mut by_word) = (GlobalMem::new(bytes), GlobalMem::new(bytes));
            for m in [&mut bulk, &mut by_word] {
                let _ = m.alloc(before as u64 * 4);
                m.write(0, 5); // a page dirtied before the fill
                m.mark_clean();
            }
            let base = bulk.alloc_with(n, word);
            let by_word_base = by_word.alloc(n as u64 * 4);
            for i in 0..n {
                by_word.write(by_word_base + i as u64 * 4, word(i));
            }
            let case = format!("{before} words then {n} in {bytes} bytes");
            assert_eq!(base, by_word_base, "{case}");
            assert_eq!(bulk.words, by_word.words, "{case}");
            assert_eq!(bulk.words(base, n), by_word.read_slice(base, n), "{case}");
            assert_eq!(bulk.dirty_pages(), by_word.dirty_pages(), "{case}");
            assert_eq!(save_bytes(&bulk), save_bytes(&by_word), "{case}");
            let delta = |m: &GlobalMem| {
                let mut w = Writer::new();
                m.save_delta(&mut w);
                w.into_bytes()
            };
            assert_eq!(delta(&bulk), delta(&by_word), "{case}");
        }
    }

    #[test]
    fn delta_roundtrip_reproduces_final_state() {
        // base capture + two deltas applied in order must equal the
        // mutated memory exactly, including the allocator cursor.
        let mut src = GlobalMem::new(6 * PAGE_BYTES);
        let buf = src.alloc_init(&[1, 2, 3, 4]);
        let mut base = Writer::new();
        src.save(&mut base);
        src.mark_clean();

        src.write(buf, 99);
        src.write(4 * PAGE_BYTES + 8, 42);
        let _ = src.alloc(16);
        let mut d1 = Writer::new();
        src.save_delta(&mut d1);
        src.mark_clean();

        // Touch the final, short page (words not page-aligned would also
        // exercise the tail-clamp; here the last full page).
        src.write(5 * PAGE_BYTES + 4, 7);
        let mut d2 = Writer::new();
        src.save_delta(&mut d2);
        src.mark_clean();

        let mut dst = GlobalMem::new(6 * PAGE_BYTES);
        dst.restore(&base.into_bytes(), &[&d1.into_bytes(), &d2.into_bytes()]).unwrap();
        assert_eq!(dst.read_slice(0, 6 * PAGE_WORDS), src.read_slice(0, 6 * PAGE_WORDS));
        // Allocator cursor travelled with the delta: next alloc matches.
        assert_eq!(dst.alloc(4), src.alloc(4));
    }

    #[test]
    fn clean_delta_is_header_only() {
        let mut m = GlobalMem::new(4 * PAGE_BYTES);
        m.write(0, 1);
        m.mark_clean();
        let mut w = Writer::new();
        m.save_delta(&mut w);
        // total u64 + next_alloc u64 + page_count u64, no pages.
        assert_eq!(w.into_bytes().len(), 24);
    }

    #[test]
    fn delta_geometry_mismatch_is_an_error() {
        let mut small = GlobalMem::new(PAGE_BYTES);
        small.write(0, 1);
        let mut w = Writer::new();
        small.save_delta(&mut w);
        let mut big = GlobalMem::new(2 * PAGE_BYTES);
        let base = save_bytes(&big);
        assert_eq!(big.restore(&base, &[&w.into_bytes()]), Err(CodecError::BadValue("gmem delta geometry mismatch")));
    }

    #[test]
    fn delta_rejects_out_of_range_page() {
        let mut w = Writer::new();
        w.put_u64(PAGE_WORDS as u64); // total: exactly one page
        w.put_u64(0); // next_alloc
        w.put_u64(1); // one page record
        w.put_u64(1); // page index 1 is out of range
        for _ in 0..PAGE_WORDS {
            w.put_u32(0);
        }
        let mut m = GlobalMem::new(PAGE_BYTES);
        let base = save_bytes(&m);
        assert_eq!(m.restore(&base, &[&w.into_bytes()]), Err(CodecError::BadValue("gmem delta page out of range")));
    }

    /// `GlobalMem::save` as it was before the scan was bounded: look for the
    /// last nonzero word from the very end of the store.
    fn save_by_full_scan(m: &GlobalMem) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(m.words.len() as u64);
        let used = m.words.iter().rposition(|&x| x != 0).map_or(0, |i| i + 1);
        w.put_u64(used as u64);
        for &word in &m.words[..used] {
            w.put_u32(word);
        }
        w.put_u64(m.next_alloc);
        w.into_bytes()
    }

    fn save_bytes(m: &GlobalMem) -> Vec<u8> {
        let mut w = Writer::new();
        m.save(&mut w);
        w.into_bytes()
    }

    #[test]
    fn bounded_scan_saves_the_bytes_of_a_full_scan() {
        let mut m = GlobalMem::new(64 * PAGE_BYTES + 12); // short last page
        let used_of = |m: &GlobalMem| {
            let bytes = save_bytes(m);
            assert_eq!(bytes, save_by_full_scan(m));
            u64::from_le_bytes(bytes[8..16].try_into().unwrap())
        };
        assert_eq!(used_of(&m), 0, "untouched store");
        // Zero words stored past the last nonzero one do not count.
        m.write(40, 7);
        m.write(9 * PAGE_BYTES, 0);
        assert_eq!(used_of(&m), 11);
        // The mark survives `mark_clean`; a nonzero word stored and zeroed
        // again above it moves `used` up and back.
        m.write(5 * PAGE_BYTES + 4, 3);
        m.mark_clean();
        assert_eq!(used_of(&m), 5 * PAGE_WORDS as u64 + 2);
        m.write(20 * PAGE_BYTES, 9);
        assert_eq!(used_of(&m), 20 * PAGE_WORDS as u64 + 1);
        m.write(20 * PAGE_BYTES, 0);
        m.write(0, 0); // a low dirty page must not pull the bound down
        assert_eq!(used_of(&m), 5 * PAGE_WORDS as u64 + 2);
        m.mark_clean();
        m.write(5 * PAGE_BYTES + 4, 0);
        assert_eq!(used_of(&m), 11);
        // The very last (short) page.
        m.write(64 * PAGE_BYTES + 8, 1);
        assert_eq!(used_of(&m), 64 * PAGE_WORDS as u64 + 3);

        // A restored copy seeds the mark from `used`, and pages a delta
        // brings in (never marked dirty) stay under it.
        let base = save_bytes(&m);
        m.mark_clean();
        let mut copy = GlobalMem::new(64 * PAGE_BYTES + 12);
        copy.restore(&base, &[]).unwrap();
        assert_eq!(save_bytes(&copy), base);
        m.write(64 * PAGE_BYTES + 8, 0);
        m.write(30 * PAGE_BYTES, 5);
        let mut d = Writer::new();
        m.save_delta(&mut d);
        copy.restore(&base, &[&d.into_bytes()]).unwrap();
        assert_eq!(used_of(&copy), 30 * PAGE_WORDS as u64 + 1);
        assert_eq!(save_bytes(&copy), save_bytes(&m));
    }

    /// An 8-page store holding a two-page buffer, that buffer's `save`, and
    /// a delta that rewrites page 1 and dirties page 5.
    fn chain() -> (GlobalMem, Vec<u8>, Vec<u8>) {
        let mut m = GlobalMem::new(8 * PAGE_BYTES);
        let _ = m.alloc_with(2 * PAGE_WORDS, |i| i as u32 + 1);
        let base = save_bytes(&m);
        m.mark_clean();
        m.write(PAGE_BYTES, 77);
        m.write(5 * PAGE_BYTES + 8, 9);
        let mut d = Writer::new();
        m.save_delta(&mut d);
        (m, base, d.into_bytes())
    }

    #[test]
    fn restoring_over_a_used_store_equals_a_fresh_load() {
        let (want, base, delta) = chain();
        // The victim has written above and below everything the chain holds.
        let mut m = GlobalMem::new(8 * PAGE_BYTES);
        let _ = m.alloc_init(&[5; 3]);
        m.write(7 * PAGE_BYTES - 4, 3);
        m.mark_clean();
        m.write(6 * PAGE_BYTES, 1);
        m.restore(&base, &[&delta]).unwrap();
        assert_eq!(m.words, want.words);
        assert_eq!((m.next_alloc, m.dirty_pages()), (want.next_alloc, 0));
        assert_eq!(save_bytes(&m), save_by_full_scan(&want));
    }

    #[test]
    fn a_refused_restore_leaves_the_store_as_it_was() {
        let (_, base, delta) = chain();
        let mut victim = GlobalMem::new(8 * PAGE_BYTES);
        let _ = victim.alloc_init(&[4, 5, 6]);
        victim.write(6 * PAGE_BYTES, 1);
        let before = victim.clone();
        let patched = |bytes: &[u8], at: usize, value: u64| {
            let mut out = bytes.to_vec();
            out[at..at + 8].copy_from_slice(&value.to_le_bytes());
            out
        };
        let long = |bytes: &[u8]| [bytes, &[0]].concat();
        let page_at = 24; // total, cursor, page count, then the first page index
        let cases: Vec<(&str, Vec<u8>, Vec<u8>, CodecError)> = vec![
            ("base cut short", base[..base.len() - 1].to_vec(), delta.clone(), CodecError::BadValue("gmem section length")),
            ("base one byte long", long(&base), delta.clone(), CodecError::BadValue("gmem section length")),
            ("base of another store", patched(&base, 0, 9 * PAGE_WORDS as u64), delta.clone(), CodecError::BadValue("gmem geometry mismatch")),
            ("base used > total", patched(&base, 8, 8 * PAGE_WORDS as u64 + 1), delta.clone(), CodecError::BadValue("gmem used > total")),
            ("delta of another store", base.clone(), patched(&delta, 0, 4), CodecError::BadValue("gmem delta geometry mismatch")),
            ("delta page out of range", base.clone(), patched(&delta, page_at, 8), CodecError::BadValue("gmem delta page out of range")),
            ("delta cut short", base.clone(), delta[..delta.len() - 4].to_vec(), CodecError::Truncated),
            ("delta one byte long", base.clone(), long(&delta), CodecError::BadValue("trailing bytes in section")),
        ];
        for (what, base, delta, want) in cases {
            assert_eq!(victim.restore(&base, &[&delta]), Err(want), "{what}");
            assert_eq!(victim.words, before.words, "{what}: a word moved");
            assert_eq!((victim.next_alloc, victim.touched_pages), (before.next_alloc, before.touched_pages), "{what}");
            assert_eq!(victim.dirty, before.dirty, "{what}: the dirty map moved");
        }
    }

    #[test]
    fn load_starts_clean() {
        // A restored memory is itself a capture boundary: the dirty map
        // starts empty so the next delta only carries post-restore stores,
        // also when the store was dirty before.
        let mut m = GlobalMem::new(4 * PAGE_BYTES);
        m.write(0, 5);
        let bytes = save_bytes(&m);
        m.write(3 * PAGE_BYTES, 1);
        m.restore(&bytes, &[]).unwrap();
        assert_eq!(m.dirty_pages(), 0);
        assert_eq!(save_bytes(&m), bytes);
    }
}
