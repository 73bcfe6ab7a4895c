//! Set-associative cache with LRU replacement and miss-status holding
//! registers (MSHRs).
//!
//! Used for both the per-SM L1 (16 KB in the paper's Table I) and each L2
//! slice (768 KB / #partitions). The cache is a *tag store only* — data
//! lives in [`crate::GlobalMem`] — because timing is all the scheduler study
//! needs from it.

// The MSHR table is probed on every lookup and is never iterated, so the
// fast deterministic Fx hasher is a pure win over SipHash here.
use pro_core::codec::{CodecError, Reader, Snapshot, Writer};
use pro_core::{snapshot_struct, FxHashMap};

/// Geometry and MSHR capacity for one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub bytes: u64,
    /// Line size in bytes (128 for Fermi).
    pub line_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Number of MSHR entries (distinct outstanding miss lines).
    pub mshr_entries: u32,
    /// Max merged requests per MSHR entry.
    pub mshr_merge: u32,
}

impl CacheConfig {
    /// Fermi-style 16 KB, 4-way L1 with 32 MSHRs.
    pub fn l1_16k() -> Self {
        CacheConfig {
            bytes: 16 * 1024,
            line_bytes: crate::LINE_BYTES,
            ways: 4,
            mshr_entries: 32,
            mshr_merge: 8,
        }
    }

    /// One slice of the 768 KB Fermi L2 split over `parts` partitions.
    pub(crate) fn l2_slice(parts: u64) -> Self {
        CacheConfig {
            bytes: 768 * 1024 / parts,
            line_bytes: crate::LINE_BYTES,
            ways: 8,
            mshr_entries: 32,
            mshr_merge: 8,
        }
    }

    /// Number of sets.
    pub(crate) fn sets(&self) -> u64 {
        self.bytes / (self.line_bytes * self.ways as u64)
    }
}

/// Hit/miss and MSHR counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Misses merged into an existing MSHR entry.
    pub mshr_merges: u64,
    /// Accesses rejected because the MSHR was full (resource stall).
    pub mshr_rejections: u64,
}

impl CacheStats {
    /// Miss rate over all lookups (0 if no accesses).
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// Outcome of a timing lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Line present.
    Hit,
    /// Line absent; an MSHR entry was allocated — caller must forward the
    /// request downstream and later call [`Cache::fill`].
    MissAllocated,
    /// Line absent but already being fetched; merged into the pending MSHR.
    /// No downstream request needed; the caller's tag will be returned by
    /// [`Cache::fill`].
    MissMerged,
    /// No MSHR space (entry table full or merge list full). The access must
    /// be retried later; models the resource back-pressure that surfaces as
    /// Pipeline stalls at the issue stage.
    Rejected,
}

#[derive(Debug, Clone, Copy)]
struct Way {
    line: u64,
    valid: bool,
    last_use: u64,
}

/// Tag-store cache with MSHRs. Generic over the "tag" type callers attach to
/// merged misses (the SM uses access ids; the L2 uses transaction records).
#[derive(Debug)]
pub struct Cache<T> {
    cfg: CacheConfig,
    sets: Vec<Vec<Way>>,
    mshr: FxHashMap<u64, Vec<T>>,
    use_clock: u64,
    /// Public counters.
    pub stats: CacheStats,
}

impl<T> Cache<T> {
    /// Create an empty cache.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = (0..cfg.sets())
            .map(|_| {
                (0..cfg.ways)
                    .map(|_| Way {
                        line: 0,
                        valid: false,
                        last_use: 0,
                    })
                    .collect()
            })
            .collect();
        Cache {
            cfg,
            sets,
            mshr: FxHashMap::default(),
            use_clock: 0,
            stats: CacheStats::default(),
        }
    }

    #[inline]
    fn set_index(&self, line: u64) -> usize {
        (line % self.sets.len() as u64) as usize
    }

    /// Probe without side effects (no LRU update, no stats): is `line`
    /// resident?
    pub fn contains(&self, line: u64) -> bool {
        let si = self.set_index(line);
        self.sets[si].iter().any(|w| w.valid && w.line == line)
    }

    /// Timing lookup for a read of `line`. On a miss, `tag` is recorded in
    /// the MSHR and handed back by [`Cache::fill`].
    pub fn access(&mut self, line: u64, tag: T) -> Lookup {
        self.use_clock += 1;
        let si = self.set_index(line);
        if let Some(w) = self.sets[si]
            .iter_mut()
            .find(|w| w.valid && w.line == line)
        {
            w.last_use = self.use_clock;
            self.stats.hits += 1;
            return Lookup::Hit;
        }
        self.stats.misses += 1;
        if let Some(pending) = self.mshr.get_mut(&line) {
            if pending.len() >= self.cfg.mshr_merge as usize {
                self.stats.mshr_rejections += 1;
                // Undo the miss count: the access didn't happen.
                self.stats.misses -= 1;
                return Lookup::Rejected;
            }
            pending.push(tag);
            self.stats.mshr_merges += 1;
            return Lookup::MissMerged;
        }
        if self.mshr.len() >= self.cfg.mshr_entries as usize {
            self.stats.mshr_rejections += 1;
            self.stats.misses -= 1;
            return Lookup::Rejected;
        }
        self.mshr.insert(line, vec![tag]);
        Lookup::MissAllocated
    }

    /// A fill for `line` arrived from downstream: install the line (evicting
    /// LRU if needed) and return the tags of all merged requests waiting on
    /// it, plus the evicted line if any.
    pub fn fill(&mut self, line: u64) -> (Vec<T>, Option<u64>) {
        self.use_clock += 1;
        let tags = self.mshr.remove(&line).unwrap_or_default();
        let si = self.set_index(line);
        let set = &mut self.sets[si];
        // Already resident (e.g. a write installed it meanwhile): just touch.
        if let Some(w) = set.iter_mut().find(|w| w.valid && w.line == line) {
            w.last_use = self.use_clock;
            return (tags, None);
        }
        let clock = self.use_clock;
        // Choose victim: first invalid way, else true LRU.
        let victim = if let Some((i, _)) = set.iter().enumerate().find(|(_, w)| !w.valid) {
            i
        } else {
            set.iter()
                .enumerate()
                .min_by_key(|(_, w)| w.last_use)
                .map(|(i, _)| i)
                .expect("non-empty set")
        };
        let evicted = if set[victim].valid {
            Some(set[victim].line)
        } else {
            None
        };
        set[victim] = Way {
            line,
            valid: true,
            last_use: clock,
        };
        (tags, evicted)
    }

    /// Write-through update: if `line` is resident, refresh its LRU position
    /// (the data store is elsewhere). Returns whether it was resident.
    pub(crate) fn touch_on_write(&mut self, line: u64) -> bool {
        self.use_clock += 1;
        let si = self.set_index(line);
        if let Some(w) = self.sets[si]
            .iter_mut()
            .find(|w| w.valid && w.line == line)
        {
            w.last_use = self.use_clock;
            true
        } else {
            false
        }
    }

    /// Invalidate `line` if resident (write-evict policy for global stores
    /// hitting in L1, as on Fermi).
    pub(crate) fn invalidate(&mut self, line: u64) {
        let si = self.set_index(line);
        if let Some(w) = self.sets[si]
            .iter_mut()
            .find(|w| w.valid && w.line == line)
        {
            w.valid = false;
        }
    }

    /// Number of in-flight MSHR entries.
    pub fn mshr_pending(&self) -> usize {
        self.mshr.len()
    }

    /// True if `line` has an MSHR entry (a fetch already in flight).
    pub fn has_pending(&self, line: u64) -> bool {
        self.mshr.contains_key(&line)
    }

    /// The tag of every miss waiting on an MSHR entry.
    pub(crate) fn waiters(&self) -> impl Iterator<Item = &T> {
        self.mshr.values().flatten()
    }

    /// The line of every MSHR entry: each is being fetched.
    pub(crate) fn pending_lines(&self) -> impl Iterator<Item = u64> + '_ {
        self.mshr.keys().copied()
    }
}

snapshot_struct! {
    CacheStats {
        hits,
        misses,
        mshr_merges,
        mshr_rejections,
    }
}

snapshot_struct! {
    Way {
        line,
        valid,
        last_use,
    }
}

// By hand: the geometry is the machine's, so a cache is restored in place.
// The one the machine built reads its ways, MSHRs, LRU clock and counters
// back, and nothing on the wire sizes it.
impl<T: Snapshot> Cache<T> {
    /// Serialize the cache's contents — every way of every set in order,
    /// the MSHRs, the LRU clock and the counters — but not its geometry.
    pub fn save_state(&self, w: &mut Writer) {
        for way in self.sets.iter().flatten() {
            way.save(w);
        }
        self.mshr.save(w);
        w.put_u64(self.use_clock);
        self.stats.save(w);
    }

    /// Restore contents written by [`Cache::save_state`] into this cache,
    /// which has the writer's geometry.
    pub fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), CodecError> {
        for way in self.sets.iter_mut().flatten() {
            *way = Way::load(r)?;
        }
        self.mshr = Snapshot::load(r)?;
        self.use_clock = r.get_u64()?;
        self.stats = Snapshot::load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache<u32> {
        // 2 sets x 2 ways x 128B lines = 512B
        Cache::new(CacheConfig {
            bytes: 512,
            line_bytes: 128,
            ways: 2,
            mshr_entries: 2,
            mshr_merge: 2,
        })
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        assert_eq!(c.access(10, 1), Lookup::MissAllocated);
        let (tags, evicted) = c.fill(10);
        assert_eq!(tags, vec![1]);
        assert_eq!(evicted, None);
        assert_eq!(c.access(10, 2), Lookup::Hit);
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 1);
    }

    #[test]
    fn merged_misses_return_all_tags() {
        let mut c = tiny();
        assert_eq!(c.access(10, 1), Lookup::MissAllocated);
        assert_eq!(c.access(10, 2), Lookup::MissMerged);
        let (tags, _) = c.fill(10);
        assert_eq!(tags, vec![1, 2]);
        assert_eq!(c.stats.mshr_merges, 1);
    }

    #[test]
    fn mshr_entry_exhaustion_rejects() {
        let mut c = tiny();
        assert_eq!(c.access(1, 0), Lookup::MissAllocated);
        assert_eq!(c.access(2, 0), Lookup::MissAllocated);
        assert_eq!(c.access(3, 0), Lookup::Rejected);
        assert_eq!(c.stats.mshr_rejections, 1);
        // Rejection doesn't inflate miss counts.
        assert_eq!(c.stats.misses, 2);
    }

    #[test]
    fn mshr_merge_exhaustion_rejects() {
        let mut c = tiny();
        assert_eq!(c.access(1, 0), Lookup::MissAllocated);
        assert_eq!(c.access(1, 1), Lookup::MissMerged);
        assert_eq!(c.access(1, 2), Lookup::Rejected);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Lines 0 and 2 map to set 0 (2 sets); line 4 also set 0.
        for l in [0u64, 2] {
            assert_eq!(c.access(l, 0), Lookup::MissAllocated);
            c.fill(l);
        }
        // Touch 0 so 2 is LRU.
        assert_eq!(c.access(0, 0), Lookup::Hit);
        assert_eq!(c.access(4, 0), Lookup::MissAllocated);
        let (_, evicted) = c.fill(4);
        assert_eq!(evicted, Some(2));
        assert!(c.contains(0));
        assert!(!c.contains(2));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.access(10, 0);
        c.fill(10);
        assert!(c.contains(10));
        c.invalidate(10);
        assert!(!c.contains(10));
    }

    #[test]
    fn touch_on_write_reports_residency() {
        let mut c = tiny();
        assert!(!c.touch_on_write(10));
        c.access(10, 0);
        c.fill(10);
        assert!(c.touch_on_write(10));
    }

    #[test]
    fn fill_of_resident_line_is_idempotent() {
        let mut c = tiny();
        c.access(10, 0);
        c.fill(10);
        let (tags, evicted) = c.fill(10);
        assert!(tags.is_empty());
        assert_eq!(evicted, None);
        assert!(c.contains(10));
    }

    #[test]
    fn miss_rate_computation() {
        let mut c = tiny();
        c.access(1, 0);
        c.fill(1);
        c.access(1, 0);
        c.access(1, 0);
        // 1 miss, 2 hits
        let mr = c.stats.miss_rate();
        assert!((mr - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(CacheStats::default().miss_rate(), 0.0);
    }

    #[test]
    fn config_sets_geometry() {
        assert_eq!(CacheConfig::l1_16k().sets(), 32);
        let l2 = CacheConfig::l2_slice(6);
        assert_eq!(l2.bytes, 128 * 1024);
        assert_eq!(l2.sets(), 128);
    }
}
