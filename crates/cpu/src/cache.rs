//! Set-associative write-through caches with LRU replacement.
//!
//! Used for both the instruction and the data cache of a [`CpuCore`].
//! Lines are filled by burst reads over the interconnect; writes go
//! through to memory (no write-allocate) and update a present line in
//! place, so no writebacks ever occur and no coherence machinery is
//! needed — matching the MPARM configuration the paper measures, where
//! shared memory is simply uncacheable.
//!
//! [`CpuCore`]: crate::CpuCore

/// Geometry of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Number of sets; must be a power of two.
    pub sets: u32,
    /// Associativity; at least 1.
    pub ways: u32,
    /// Words per line; must be a power of two (typically 4) and at most
    /// 255, the longest OCP burst — one burst read refills a line.
    pub words_per_line: u32,
}

impl CacheConfig {
    /// A small direct-mapped configuration handy in tests.
    pub fn tiny() -> Self {
        Self {
            sets: 4,
            ways: 1,
            words_per_line: 4,
        }
    }

    /// The default core configuration: 1 KiB, 2-way, 16-byte lines.
    pub fn default_l1() -> Self {
        Self {
            sets: 32,
            ways: 2,
            words_per_line: 4,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u32 {
        self.sets * self.ways * self.words_per_line * 4
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u32 {
        self.words_per_line * 4
    }

    fn validate(&self) {
        assert!(
            self.sets.is_power_of_two(),
            "cache sets must be a power of two"
        );
        assert!(self.ways >= 1, "cache must have at least one way");
        assert!(
            self.words_per_line.is_power_of_two(),
            "words per line must be a power of two"
        );
        // A line is refilled by one OCP burst read, whose length field
        // is a `u8`.
        assert!(
            self.words_per_line <= u32::from(u8::MAX),
            "words_per_line must not exceed the OCP burst limit of 255"
        );
        assert!(
            self.sets
                .checked_mul(self.ways)
                .and_then(|lines| lines.checked_mul(self.words_per_line))
                .and_then(|words| words.checked_mul(4))
                .is_some(),
            "cache capacity (sets * ways * words_per_line words) overflows u32"
        );
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self::default_l1()
    }
}

/// Hit/miss counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Read accesses that hit.
    pub read_hits: u64,
    /// Read accesses that missed.
    pub read_misses: u64,
    /// Write-through updates that found the line present.
    pub write_hits: u64,
    /// Write-through updates that found no line (no-allocate).
    pub write_misses: u64,
    /// Lines installed.
    pub fills: u64,
    /// Valid lines displaced by fills.
    pub evictions: u64,
}

#[derive(Debug, Clone, Copy)]
struct Line {
    /// `addr >> tag_shift` of the line held; [`Line::INVALID`] for none.
    tag: u32,
    last_used: u64,
}

impl Line {
    /// The tag of an empty way: a tag is at most 30 bits wide.
    const INVALID: u32 = u32::MAX;

    fn valid(&self) -> bool {
        self.tag != Line::INVALID
    }
}

/// How many lines a cache memoises. The memo is direct-mapped on the
/// line number, so a loop body over up to this many consecutive lines —
/// Cacheloop's crosses one line boundary, MP matrix's inner loop spans
/// four lines — runs entirely through it.
const MEMO_SLOTS: usize = 4;

/// A line [`Cache::search`] memoised in slot `key % MEMO_SLOTS`, so that
/// [`Cache::probe`] finds its words with one compare and
/// [`Cache::touch`] stamps the memo instead of the line. The line's LRU
/// stamp is the later of its own `last_used` and the memo's, written
/// back to the line before anything reads it (an install) and whenever
/// the memo is replaced.
#[derive(Debug, Clone, Copy)]
struct Memo {
    /// `addr >> line_shift` of the line; `u32::MAX`, which no address
    /// shifts to, when the slot is empty.
    key: u32,
    /// Index of the line in `lines`.
    line: usize,
    /// Clock of the line's last hit through this memo.
    last_used: u64,
}

impl Memo {
    const EMPTY: Memo = Memo {
        key: u32::MAX,
        line: 0,
        last_used: 0,
    };
}

/// A present word [`Cache::probe`] or [`Cache::search`] found: its index
/// into the word slab, and the memo slot it was found through
/// (`MEMO_SLOTS` when it has none). Finding a word commits nothing;
/// [`Cache::touch`] does once the access is known to happen.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Probe {
    pub(crate) index: usize,
    slot: usize,
}

/// Consecutive reads of one memoised line, committed together: while the
/// reads stay on the line, [`word`](Run::word) finds each with one
/// compare against values the caller holds, and [`Cache::commit`]
/// leaves the cache as if each had been [`touch`](Cache::touch)ed. The
/// cache must see no other access between a read and its commit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Run {
    /// The line's key; `u32::MAX`, which no address shifts to, for no
    /// line or an unmemoised one, whose run ends after its first read.
    key: u32,
    line_shift: u32,
    word_mask: usize,
    /// Slab index of the line's first word.
    first: usize,
    slot: usize,
    hits: u64,
}

impl Run {
    /// A run over no line.
    pub(crate) const EMPTY: Run = Run {
        key: u32::MAX,
        line_shift: 2,
        word_mask: 0,
        first: 0,
        slot: MEMO_SLOTS,
        hits: 0,
    };

    /// The slab index of the word at `addr` if it lies on the run's line.
    #[inline]
    pub(crate) fn word(&self, addr: u32) -> Option<usize> {
        (addr >> self.line_shift == self.key)
            .then_some(self.first | ((addr >> 2) as usize & self.word_mask))
    }

    /// Counts one more read of the line.
    #[inline]
    pub(crate) fn hit(&mut self) {
        self.hits += 1;
    }
}

/// A set-associative write-through cache.
///
/// # Example
///
/// ```
/// use ntg_cpu::cache::{Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig::tiny());
/// assert_eq!(c.read(0x100), None); // cold miss
/// c.fill(c.line_addr(0x100), &[1, 2, 3, 4]);
/// assert_eq!(c.read(0x104), Some(2));
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// log2 of the line size in bytes.
    line_shift: u32,
    /// log2 of the bytes one way spans (line size × sets).
    tag_shift: u32,
    /// log2 of the words per line.
    word_shift: u32,
    /// Line metadata, `ways` consecutive entries per set.
    lines: Vec<Line>,
    /// Every line's words in one slab: line `i` owns
    /// `words[i << word_shift ..][..words_per_line]`.
    words: Vec<u32>,
    memo: [Memo; MEMO_SLOTS],
    /// Ticks once per read hit, write hit and fill, so it also counts
    /// the read hits: `stats.read_hits` is not kept, [`stats`](Self::stats)
    /// derives it.
    clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`CacheConfig`]).
    pub fn new(cfg: CacheConfig) -> Self {
        cfg.validate();
        let line = Line {
            tag: Line::INVALID,
            last_used: 0,
        };
        let lines = (cfg.sets * cfg.ways) as usize;
        let line_shift = cfg.line_bytes().trailing_zeros();
        Self {
            cfg,
            line_shift,
            tag_shift: line_shift + cfg.sets.trailing_zeros(),
            word_shift: cfg.words_per_line.trailing_zeros(),
            lines: vec![line; lines],
            words: vec![0; lines * cfg.words_per_line as usize],
            memo: [Memo::EMPTY; MEMO_SLOTS],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            read_hits: self.clock - self.stats.write_hits - self.stats.fills,
            ..self.stats
        }
    }

    /// The line-aligned base address of the line containing `addr`.
    pub fn line_addr(&self, addr: u32) -> u32 {
        addr & !(self.cfg.line_bytes() - 1)
    }

    /// Total number of words the cache stores — the size of the index
    /// space [`Probe::index`] answers in.
    pub(crate) fn total_words(&self) -> usize {
        self.words.len()
    }

    /// The lines of the set `addr` maps to, as a range into `lines`.
    #[inline]
    fn set_of(&self, addr: u32) -> std::ops::Range<usize> {
        let set = (addr >> self.line_shift) & (self.cfg.sets - 1);
        let base = (set * self.cfg.ways) as usize;
        base..base + self.cfg.ways as usize
    }

    /// The index of `addr`'s word within its line.
    #[inline]
    fn word_of(&self, addr: u32) -> usize {
        (addr >> 2) as usize & (self.cfg.words_per_line as usize - 1)
    }

    /// Finds the word at `addr` by a tag search: its index into the word
    /// slab if the line is present. No statistics, no LRU update.
    #[inline]
    fn lookup(&self, addr: u32) -> Option<usize> {
        let tag = addr >> self.tag_shift;
        let set = self.set_of(addr);
        let base = set.start;
        let way = self.lines[set].iter().position(|l| l.tag == tag)?;
        Some(((base + way) << self.word_shift) | self.word_of(addr))
    }

    /// The memo slot of the line containing `addr`, and the key it
    /// holds there if the line is memoised.
    #[inline]
    fn memo_slot(&self, addr: u32) -> (usize, u32) {
        let key = addr >> self.line_shift;
        (key as usize % MEMO_SLOTS, key)
    }

    /// Finds the word at `addr` if its line is memoised — one compare,
    /// no statistics, no LRU update.
    #[inline]
    pub(crate) fn probe(&self, addr: u32) -> Option<Probe> {
        let (slot, key) = self.memo_slot(addr);
        let memo = &self.memo[slot];
        (memo.key == key).then(|| Probe {
            index: (memo.line << self.word_shift) | self.word_of(addr),
            slot,
        })
    }

    /// Finds the word at `addr` by a tag search. With `memoise`, a line
    /// found takes over its memo slot, so that later reads of it
    /// [`probe`](Self::probe) true; this changes no statistic and no LRU
    /// order. A caller passes `memoise` only when every address of the
    /// line may be read through the cache.
    #[inline]
    pub(crate) fn search(&mut self, addr: u32, memoise: bool) -> Option<Probe> {
        let index = self.lookup(addr)?;
        if !memoise {
            return Some(Probe {
                index,
                slot: MEMO_SLOTS,
            });
        }
        let (slot, key) = self.memo_slot(addr);
        self.write_back(slot);
        let line = index >> self.word_shift;
        self.memo[slot] = Memo {
            key,
            line,
            last_used: self.lines[line].last_used,
        };
        Some(Probe { index, slot })
    }

    /// Commits a read hit on the word a probe found: counts it, stamps
    /// the memo it came through or else its line, and returns the word.
    #[inline]
    pub(crate) fn touch(&mut self, found: Probe) -> u32 {
        let mut run = self.start_run(found);
        run.hit();
        self.commit(&mut run);
        self.words[found.index]
    }

    /// Starts a run of reads on the line of the word `found`, which is
    /// not yet read.
    #[inline]
    pub(crate) fn start_run(&self, found: Probe) -> Run {
        let word_mask = self.cfg.words_per_line as usize - 1;
        Run {
            key: self.memo.get(found.slot).map_or(u32::MAX, |memo| memo.key),
            line_shift: self.line_shift,
            word_mask,
            first: found.index & !word_mask,
            slot: found.slot,
            hits: 0,
        }
    }

    /// Commits the reads `run` counted, leaving the state after one
    /// [`touch`](Self::touch) per read. The run stays on its line, and
    /// may count more reads of it until the next install or memoising
    /// [`search`](Self::search).
    #[inline]
    pub(crate) fn commit(&mut self, run: &mut Run) {
        if run.hits > 0 {
            self.clock += run.hits;
            match self.memo.get_mut(run.slot) {
                Some(memo) => memo.last_used = self.clock,
                None => self.lines[run.first >> self.word_shift].last_used = self.clock,
            }
            run.hits = 0;
        }
    }

    /// Folds memo `slot`'s stamp into its line.
    fn write_back(&mut self, slot: usize) {
        let memo = self.memo[slot];
        let line = &mut self.lines[memo.line];
        line.last_used = line.last_used.max(memo.last_used);
    }

    /// Commits a read miss.
    #[inline]
    pub(crate) fn miss(&mut self) {
        self.stats.read_misses += 1;
    }

    /// Whether the line containing `addr` is present (no statistics, no
    /// LRU update).
    pub fn contains(&self, addr: u32) -> bool {
        self.lookup(addr).is_some()
    }

    /// Reads the word at `addr`, if its line is present.
    ///
    /// Records a read hit or miss and touches the LRU state.
    pub fn read(&mut self, addr: u32) -> Option<u32> {
        match self.search(addr, false) {
            Some(found) => Some(self.touch(found)),
            None => {
                self.miss();
                None
            }
        }
    }

    /// Write-through update: stores `value` into a present line.
    ///
    /// Returns whether the line was present. Never allocates.
    pub fn write_update(&mut self, addr: u32, value: u32) -> bool {
        match self.lookup(addr) {
            Some(index) => {
                self.clock += 1;
                self.lines[index >> self.word_shift].last_used = self.clock;
                self.words[index] = value;
                self.stats.write_hits += 1;
                true
            }
            None => {
                self.stats.write_misses += 1;
                false
            }
        }
    }

    /// Installs a line fetched from memory, evicting the set's LRU way.
    ///
    /// # Panics
    ///
    /// Panics if `line_addr` is not line-aligned or `words` does not match
    /// the configured line size.
    pub fn fill(&mut self, line_addr: u32, words: &[u32]) {
        self.install(line_addr, words);
    }

    /// [`fill`](Self::fill), returning the slab index of the installed
    /// line's first word (the [`Probe::index`] space).
    pub(crate) fn install(&mut self, line_addr: u32, words: &[u32]) -> usize {
        assert_eq!(
            line_addr,
            self.line_addr(line_addr),
            "fill address must be line-aligned"
        );
        assert_eq!(
            words.len(),
            self.cfg.words_per_line as usize,
            "fill data must be exactly one line"
        );
        // The victim may be a memoised line: bring every stamp home, then
        // forget the memos.
        for slot in 0..MEMO_SLOTS {
            self.write_back(slot);
        }
        self.memo = [Memo::EMPTY; MEMO_SLOTS];
        let set = self.set_of(line_addr);
        // Prefer an invalid way; otherwise evict the least recently used.
        let victim = set
            .clone()
            .find(|&i| !self.lines[i].valid())
            .unwrap_or_else(|| {
                set.min_by_key(|&i| self.lines[i].last_used)
                    .expect("sets have at least one way")
            });
        if self.lines[victim].valid() {
            self.stats.evictions += 1;
        }
        self.clock += 1;
        self.lines[victim] = Line {
            tag: line_addr >> self.tag_shift,
            last_used: self.clock,
        };
        let first = victim << self.word_shift;
        self.words[first..first + words.len()].copy_from_slice(words);
        self.stats.fills += 1;
        first
    }

    /// Invalidates every line (does not reset statistics).
    pub fn invalidate_all(&mut self) {
        for l in &mut self.lines {
            l.tag = Line::INVALID;
        }
        self.memo = [Memo::EMPTY; MEMO_SLOTS];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_cache_misses_then_hits_after_fill() {
        let mut c = Cache::new(CacheConfig::tiny());
        assert_eq!(c.read(0x40), None);
        c.fill(0x40, &[10, 11, 12, 13]);
        assert_eq!(c.read(0x40), Some(10));
        assert_eq!(c.read(0x4C), Some(13));
        let s = c.stats();
        assert_eq!(s.read_misses, 1);
        assert_eq!(s.read_hits, 2);
        assert_eq!(s.fills, 1);
    }

    #[test]
    fn write_update_only_touches_present_lines() {
        let mut c = Cache::new(CacheConfig::tiny());
        assert!(!c.write_update(0x40, 9), "no-allocate on write miss");
        c.fill(0x40, &[0; 4]);
        assert!(c.write_update(0x44, 9));
        assert_eq!(c.read(0x44), Some(9));
        let s = c.stats();
        assert_eq!(s.write_misses, 1);
        assert_eq!(s.write_hits, 1);
    }

    #[test]
    fn direct_mapped_conflict_evicts() {
        let cfg = CacheConfig {
            sets: 4,
            ways: 1,
            words_per_line: 4,
        };
        let mut c = Cache::new(cfg);
        // 0x00 and 0x40 map to set 0 (line 16B, 4 sets → 64B stride).
        c.fill(0x00, &[1; 4]);
        c.fill(0x40, &[2; 4]);
        assert_eq!(c.read(0x00), None, "conflicting line was evicted");
        assert_eq!(c.read(0x40), Some(2));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn two_way_set_keeps_both_then_evicts_lru() {
        let cfg = CacheConfig {
            sets: 2,
            ways: 2,
            words_per_line: 4,
        };
        let mut c = Cache::new(cfg);
        // All of these map to set 0 (stride 32B).
        c.fill(0x00, &[1; 4]);
        c.fill(0x20, &[2; 4]);
        assert!(c.contains(0x00) && c.contains(0x20));
        // Touch 0x00 so 0x20 becomes LRU.
        assert_eq!(c.read(0x00), Some(1));
        c.fill(0x40, &[3; 4]);
        assert!(c.contains(0x00), "recently used line survives");
        assert!(!c.contains(0x20), "LRU line evicted");
        assert!(c.contains(0x40));
    }

    #[test]
    fn line_addr_masks_offset_bits() {
        let c = Cache::new(CacheConfig::tiny());
        assert_eq!(c.line_addr(0x4C), 0x40);
        assert_eq!(c.line_addr(0x40), 0x40);
        assert_eq!(c.line_addr(0x3F), 0x30);
    }

    #[test]
    fn invalidate_all_clears_contents() {
        let mut c = Cache::new(CacheConfig::tiny());
        c.fill(0x40, &[1; 4]);
        c.invalidate_all();
        assert!(!c.contains(0x40));
        assert_eq!(c.stats().fills, 1, "stats survive invalidation");
    }

    #[test]
    fn distinct_tags_in_same_set_do_not_alias() {
        let mut c = Cache::new(CacheConfig::tiny());
        c.fill(0x40, &[7; 4]);
        assert_eq!(c.read(0x140), None, "same set, different tag");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn invalid_geometry_rejected() {
        let _ = Cache::new(CacheConfig {
            sets: 3,
            ways: 1,
            words_per_line: 4,
        });
    }

    #[test]
    #[should_panic(expected = "words_per_line must not exceed the OCP burst limit")]
    fn line_longer_than_an_ocp_burst_rejected() {
        // 256 beats would truncate to a zero-length burst at the first
        // miss; the geometry must be refused up front.
        let _ = Cache::new(CacheConfig {
            sets: 1,
            ways: 1,
            words_per_line: 256,
        });
    }

    #[test]
    #[should_panic(expected = "sets * ways * words_per_line")]
    fn overflowing_capacity_rejected() {
        let _ = Cache::new(CacheConfig {
            sets: 1 << 24,
            ways: 3,
            words_per_line: 128,
        });
    }

    #[test]
    fn non_default_geometries_index_like_division() {
        // The shift/mask indexing against the arithmetic definition
        // (set = line number mod sets, tag = line number / sets).
        for (sets, ways, wpl) in [(1, 1, 1), (1, 4, 2), (8, 2, 8), (32, 2, 4), (2, 3, 16)] {
            let cfg = CacheConfig {
                sets,
                ways,
                words_per_line: wpl,
            };
            let mut c = Cache::new(cfg);
            let line_bytes = cfg.line_bytes();
            for n in [0u32, 1, 7, 33, 1023, 0x00FF_FFFF] {
                let base = n.wrapping_mul(line_bytes);
                let words: Vec<u32> = (0..wpl).map(|w| n ^ (w << 20)).collect();
                c.fill(base, &words);
                for w in 0..wpl {
                    assert_eq!(
                        c.read(base + w * 4),
                        Some(words[w as usize]),
                        "{cfg:?} line {n}"
                    );
                }
                // Same set, different tag: absent until filled.
                let alias = base.wrapping_add(line_bytes * sets * 5);
                assert!(!c.contains(alias), "{cfg:?} line {n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "line-aligned")]
    fn misaligned_fill_rejected() {
        let mut c = Cache::new(CacheConfig::tiny());
        c.fill(0x44, &[0; 4]);
    }

    #[test]
    fn capacity_matches_geometry() {
        assert_eq!(CacheConfig::default_l1().capacity_bytes(), 1024);
        assert_eq!(CacheConfig::tiny().line_bytes(), 16);
    }

    #[test]
    fn memoised_reads_keep_lru_and_statistics_exact() {
        // One cache read the way `CpuCore` reads (memo probe, memoising
        // search, runs committed in batches), one through `read`, on the
        // same generated accesses: every read, victim and counter agree.
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |n: u32| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % u64::from(n)) as u32
        };
        for cfg in [
            CacheConfig::tiny(),
            CacheConfig {
                sets: 2,
                ways: 1,
                words_per_line: 4,
            },
            CacheConfig::default_l1(),
            CacheConfig {
                sets: 2,
                ways: 3,
                words_per_line: 8,
            },
        ] {
            let (mut memo, mut plain) = (Cache::new(cfg), Cache::new(cfg));
            let (mut run, mut prev) = (Run::EMPTY, Run::EMPTY);
            for step in 0..20_000 {
                // Mostly nearby words, so that runs and memo hits happen.
                let addr = next(48) * 4;
                match next(8) {
                    0 => {
                        memo.commit(&mut run);
                        (run, prev) = (Run::EMPTY, Run::EMPTY);
                        let line = memo.line_addr(addr);
                        let words: Vec<u32> = (0..cfg.words_per_line).map(|_| step).collect();
                        memo.fill(line, &words);
                        plain.fill(line, &words);
                    }
                    1 => {
                        memo.commit(&mut run);
                        assert_eq!(
                            memo.write_update(addr, step),
                            plain.write_update(addr, step)
                        );
                    }
                    _ => {
                        let index = match run.word(addr) {
                            Some(index) => Some(index),
                            None => {
                                memo.commit(&mut run);
                                if let Some(index) = prev.word(addr) {
                                    std::mem::swap(&mut run, &mut prev);
                                    Some(index)
                                } else {
                                    let found = match memo.probe(addr) {
                                        Some(found) => {
                                            prev = run;
                                            Some(found)
                                        }
                                        None => {
                                            prev = Run::EMPTY;
                                            // Now and then a line that may
                                            // not be memoised.
                                            memo.search(addr, next(4) > 0)
                                        }
                                    };
                                    if let Some(found) = found {
                                        run = memo.start_run(found);
                                    }
                                    found.map(|found| found.index)
                                }
                            }
                        };
                        let word = index.map(|index| {
                            run.hit();
                            memo.words[index]
                        });
                        if word.is_none() {
                            memo.miss();
                        }
                        assert_eq!(word, plain.read(addr), "{cfg:?} step {step}");
                    }
                }
            }
            memo.commit(&mut run);
            assert_eq!(memo.stats(), plain.stats(), "{cfg:?}");
            assert!(memo.stats().evictions > 0 && memo.stats().read_hits > 0);
        }
    }
}
