//! A binary-buddy allocator over the pages of one memory block.
//!
//! This mirrors the Linux page allocator's per-zone buddy structure at the
//! granularity GreenDIMM interacts with: chunks of `2^order` pages,
//! split/coalesce on alloc/free, first-fit by order.
//!
//! Free chunks below [`MAX_ORDER`] sit in one ordered set per order. Free
//! max-order chunks, the bulk of a block's free space, sit in a bitmap
//! with one bit per chunk; its lowest set bit is the lowest free offset,
//! the chunk an ordered set would hand out first. A stretch of set bits is
//! a run of free max-order chunks, handed out in one step.

use std::collections::BTreeSet;

/// Maximum buddy order (2^10 pages = 4 MB with 4 KB pages), matching Linux's
/// `MAX_ORDER - 1`.
pub const MAX_ORDER: u8 = 10;

/// `count` chunks of `2^order` pages each, back to back from `offset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkRun {
    /// Offset of the first chunk.
    pub offset: u32,
    /// Buddy order of every chunk.
    pub order: u8,
    /// Number of chunks (at least 1).
    pub count: u32,
}

impl ChunkRun {
    /// One chunk of `order` at `offset`.
    pub fn single(offset: u32, order: u8) -> Self {
        ChunkRun {
            offset,
            order,
            count: 1,
        }
    }

    /// Pages the run covers.
    pub fn pages(&self) -> u64 {
        u64::from(self.count) << self.order
    }

    /// Offset of the `i`-th chunk.
    pub fn chunk(&self, i: u32) -> u32 {
        self.offset + (i << self.order)
    }

    /// The chunk offsets, ascending.
    pub fn offsets(self) -> impl Iterator<Item = u32> {
        (0..self.count).map(move |i| self.chunk(i))
    }

    /// The run without its first chunk; `None` when that was the only one.
    pub fn rest(self) -> Option<ChunkRun> {
        (self.count > 1).then(|| ChunkRun {
            offset: self.chunk(1),
            count: self.count - 1,
            ..self
        })
    }

    /// Appends `next` when it continues this run (same order, first chunk
    /// right after this run's last); returns whether it did.
    pub fn absorb(&mut self, next: ChunkRun) -> bool {
        let continues = next.order == self.order && next.offset == self.chunk(self.count);
        if continues {
            self.count += next.count;
        }
        continues
    }
}

/// A buddy allocator managing `total_pages` pages (offsets are block-local).
#[derive(Debug, Clone)]
#[cfg_attr(test, derive(PartialEq, Eq))]
pub struct BuddyAllocator {
    total_pages: u32,
    /// Free chunk offsets per order below `MAX_ORDER` (and, in the test
    /// reference built by [`Self::all_sets`], for `MAX_ORDER` too).
    free_lists: Vec<BTreeSet<u32>>,
    /// Free max-order chunks when `free_lists` has no set for them: bit
    /// `i % 64` of word `i / 64` is set when the chunk at offset
    /// `i << MAX_ORDER` is free.
    top_free: Vec<u64>,
    /// Set bits in `top_free`.
    top_count: u32,
    free_pages: u32,
}

impl BuddyAllocator {
    /// Creates an allocator with all pages free.
    ///
    /// # Panics
    ///
    /// Panics if `total_pages` is zero or not a multiple of the maximum
    /// chunk size (memory blocks are always max-order aligned).
    pub fn new(total_pages: u32) -> Self {
        let max_chunk = 1u32 << MAX_ORDER;
        assert!(total_pages > 0, "empty buddy region");
        assert_eq!(
            total_pages % max_chunk,
            0,
            "block size must be a multiple of the max buddy chunk"
        );
        let chunks = total_pages >> MAX_ORDER;
        let mut top_free = vec![u64::MAX; chunks.div_ceil(64) as usize];
        if let Some(last) = top_free.last_mut() {
            // Clear the bits past the last chunk.
            *last >>= (64 - chunks % 64) % 64;
        }
        BuddyAllocator {
            total_pages,
            free_lists: vec![BTreeSet::new(); MAX_ORDER as usize],
            top_free,
            top_count: chunks,
            free_pages: total_pages,
        }
    }

    /// An allocator that keeps max-order chunks in an ordered set like the
    /// smaller orders instead of the bitmap: the all-B-tree layout the
    /// bitmap replaced, kept as the tests' reference.
    #[cfg(test)]
    pub(crate) fn all_sets(total_pages: u32) -> Self {
        let mut b = Self::new(total_pages);
        let top = b.free_offsets(MAX_ORDER).into_iter().collect();
        b.free_lists.push(top);
        b.top_free.fill(0);
        b.top_count = 0;
        b
    }

    /// Pages managed.
    pub fn total_pages(&self) -> u32 {
        self.total_pages
    }

    /// Pages currently free.
    pub fn free_pages(&self) -> u32 {
        self.free_pages
    }

    /// True when every page is free.
    pub fn is_empty(&self) -> bool {
        self.free_pages == self.total_pages
    }

    /// True when no chunk of exactly `order` is free.
    fn list_empty(&self, order: u8) -> bool {
        match self.free_lists.get(order as usize) {
            Some(list) => list.is_empty(),
            None => self.top_count == 0,
        }
    }

    /// Takes the lowest free chunk of exactly `order`.
    fn pop_first(&mut self, order: u8) -> Option<u32> {
        if let Some(list) = self.free_lists.get_mut(order as usize) {
            return list.pop_first();
        }
        let (w, word) = self
            .top_free
            .iter_mut()
            .enumerate()
            .find(|(_, word)| **word != 0)?;
        let bit = word.trailing_zeros();
        *word &= *word - 1;
        self.top_count -= 1;
        Some((w as u32 * 64 + bit) << MAX_ORDER)
    }

    /// Takes the lowest free max-order chunk together with the free
    /// max-order chunks directly above it in the same bitmap word, at most
    /// `max` in all. Taking them one at a time with
    /// [`alloc`](Self::alloc)`(MAX_ORDER)` hands out the same offsets in
    /// the same order.
    fn alloc_top_run(&mut self, max: u32) -> Option<ChunkRun> {
        debug_assert!(max > 0, "empty run requested");
        if let Some(list) = self.free_lists.get_mut(MAX_ORDER as usize) {
            let offset = list.pop_first()?;
            self.free_pages -= 1 << MAX_ORDER;
            return Some(ChunkRun::single(offset, MAX_ORDER));
        }
        let (w, word) = self
            .top_free
            .iter_mut()
            .enumerate()
            .find(|(_, word)| **word != 0)?;
        let bit = word.trailing_zeros();
        // Set bits from `bit` up: the zeros of the inverted, shifted word.
        let count = (!(*word >> bit)).trailing_zeros().min(max);
        let mask = (u64::MAX >> (64 - count)) << bit;
        *word &= !mask;
        self.top_count -= count;
        self.free_pages -= count << MAX_ORDER;
        Some(ChunkRun {
            offset: (w as u32 * 64 + bit) << MAX_ORDER,
            order: MAX_ORDER,
            count,
        })
    }

    /// The bitmap word and mask of the max-order chunk at `offset`.
    fn top_bit(&mut self, offset: u32) -> Option<(&mut u64, u64)> {
        let slot = offset >> MAX_ORDER;
        let word = self.top_free.get_mut((slot / 64) as usize)?;
        Some((word, 1u64 << (slot % 64)))
    }

    /// Marks the chunk of `order` at `offset` free; false if it already was.
    fn insert(&mut self, order: u8, offset: u32) -> bool {
        if let Some(list) = self.free_lists.get_mut(order as usize) {
            return list.insert(offset);
        }
        let Some((word, mask)) = self.top_bit(offset) else {
            return false;
        };
        let added = *word & mask == 0;
        *word |= mask;
        self.top_count += u32::from(added);
        added
    }

    /// Takes the chunk of `order` at `offset` off the free lists; false if
    /// it was not free.
    fn remove(&mut self, order: u8, offset: u32) -> bool {
        if let Some(list) = self.free_lists.get_mut(order as usize) {
            return list.remove(&offset);
        }
        let Some((word, mask)) = self.top_bit(offset) else {
            return false;
        };
        let removed = *word & mask != 0;
        *word &= !mask;
        self.top_count -= u32::from(removed);
        removed
    }

    /// Offsets of the free chunks of exactly `order`, ascending.
    pub(crate) fn free_offsets(&self, order: u8) -> Vec<u32> {
        if let Some(list) = self.free_lists.get(order as usize) {
            return list.iter().copied().collect();
        }
        let mut out = Vec::with_capacity(self.top_count as usize);
        for (w, &word) in self.top_free.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                out.push((w as u32 * 64 + rest.trailing_zeros()) << MAX_ORDER);
                rest &= rest - 1;
            }
        }
        out
    }

    /// Allocates a chunk of `2^order` pages; returns its offset.
    pub fn alloc(&mut self, order: u8) -> Option<u32> {
        // Find the smallest order with a free chunk.
        let mut o = (order..=MAX_ORDER).find(|&o| !self.list_empty(o))?;
        let offset = self.pop_first(o)?;
        // Split down to the requested order, returning buddies to the lists.
        while o > order {
            o -= 1;
            self.insert(o, offset + (1u32 << o));
        }
        self.free_pages -= 1u32 << order;
        Some(offset)
    }

    /// Frees a chunk previously returned by [`alloc`](Self::alloc) with the
    /// same order, coalescing with free buddies.
    ///
    /// # Panics
    ///
    /// Panics (debug) on double-free of the same chunk.
    pub fn free(&mut self, mut offset: u32, order: u8) {
        debug_assert!(order <= MAX_ORDER);
        debug_assert_eq!(offset % (1u32 << order), 0, "misaligned free");
        debug_assert!(offset + (1u32 << order) <= self.total_pages);
        let mut o = order;
        while o < MAX_ORDER && self.remove(o, offset ^ (1u32 << o)) {
            offset &= !(1u32 << o);
            o += 1;
        }
        let inserted = self.insert(o, offset);
        debug_assert!(inserted, "double free at offset {offset} order {o}");
        self.free_pages += 1u32 << order;
    }

    /// The largest order that can currently be allocated.
    pub fn max_free_order(&self) -> Option<u8> {
        (0..=MAX_ORDER).rev().find(|&o| !self.list_empty(o))
    }

    /// Verifies the allocator's internal structure: every free chunk is
    /// aligned to its order, lies in range, overlaps no other free chunk,
    /// and the free lists sum to the free-page counter.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem found.
    pub fn audit(&self) -> std::result::Result<(), String> {
        let bits: u32 = self.top_free.iter().map(|w| w.count_ones()).sum();
        if bits != self.top_count {
            return Err(format!(
                "{bits} free max-order chunks but the counter says {}",
                self.top_count
            ));
        }
        let mut covered: Vec<(u32, u32)> = Vec::new();
        let mut listed = 0u64;
        for o in 0..=MAX_ORDER {
            let len = 1u32 << o;
            for off in self.free_offsets(o) {
                if off % len != 0 {
                    return Err(format!("free chunk {off} misaligned for order {o}"));
                }
                if off + len > self.total_pages {
                    return Err(format!(
                        "free chunk [{off}, {}) beyond {} pages",
                        off + len,
                        self.total_pages
                    ));
                }
                covered.push((off, off + len));
                listed += u64::from(len);
            }
        }
        covered.sort_unstable();
        for w in covered.windows(2) {
            if w[0].1 > w[1].0 {
                return Err(format!(
                    "free chunks overlap: [{}, {}) and [{}, {})",
                    w[0].0, w[0].1, w[1].0, w[1].1
                ));
            }
        }
        if listed != u64::from(self.free_pages) {
            return Err(format!(
                "free lists hold {listed} pages but the counter says {}",
                self.free_pages
            ));
        }
        Ok(())
    }

    /// Allocates up to `pages` pages as runs of chunks, preferring large
    /// chunks. Returns the runs actually obtained (which cover exactly
    /// `pages` pages on success, fewer if space ran out — the caller must
    /// free partial results if it needs all-or-nothing).
    ///
    /// Whole max-order chunks come first, lowest offsets first, a bitmap
    /// word at a time; the rest is split off the smaller orders one chunk
    /// at a time. The chunks, in run order, are the ones repeated
    /// [`alloc`](Self::alloc) calls of the largest order that fits and
    /// succeeds would return.
    pub fn alloc_pages(&mut self, pages: u64) -> Vec<ChunkRun> {
        let mut remaining = pages.min(self.free_pages as u64);
        let mut out: Vec<ChunkRun> = Vec::new();
        let mut push = |run: ChunkRun| {
            if !out.last_mut().is_some_and(|last| last.absorb(run)) {
                out.push(run);
            }
        };
        while remaining >> MAX_ORDER > 0 {
            let max = u32::try_from(remaining >> MAX_ORDER).unwrap_or(u32::MAX);
            let Some(run) = self.alloc_top_run(max) else {
                break;
            };
            remaining -= run.pages();
            push(run);
        }
        while remaining > 0 {
            let want = remaining.min(1 << MAX_ORDER);
            // Largest power of two not exceeding `want`.
            let mut order = 63 - want.leading_zeros() as u8;
            order = order.min(MAX_ORDER);
            // Degrade to whatever is available.
            let got = loop {
                if let Some(off) = self.alloc(order) {
                    break Some(ChunkRun::single(off, order));
                }
                if order == 0 {
                    break None;
                }
                order -= 1;
            };
            match got {
                Some(run) => {
                    remaining = remaining.saturating_sub(run.pages());
                    push(run);
                }
                None => break,
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_roundtrip() {
        let mut b = BuddyAllocator::new(4096);
        let a = b.alloc(3).unwrap();
        assert_eq!(b.free_pages(), 4096 - 8);
        b.free(a, 3);
        assert_eq!(b.free_pages(), 4096);
        assert!(b.is_empty());
    }

    #[test]
    fn coalescing_restores_max_order() {
        let mut b = BuddyAllocator::new(1 << MAX_ORDER);
        let mut chunks = Vec::new();
        while let Some(off) = b.alloc(0) {
            chunks.push(off);
        }
        assert_eq!(b.free_pages(), 0);
        for off in chunks {
            b.free(off, 0);
        }
        assert_eq!(b.max_free_order(), Some(MAX_ORDER));
    }

    #[test]
    fn splitting_produces_distinct_chunks() {
        let mut b = BuddyAllocator::new(2048);
        let x = b.alloc(2).unwrap();
        let y = b.alloc(2).unwrap();
        assert_ne!(x, y);
        assert!(x.is_multiple_of(4) && y.is_multiple_of(4));
    }

    #[test]
    fn alloc_pages_covers_request() {
        let mut b = BuddyAllocator::new(4096);
        let chunks = b.alloc_pages(1000);
        let total: u64 = chunks.iter().map(ChunkRun::pages).sum();
        // Greedy binary decomposition: 1000 = 512+256+128+64+32+8.
        assert_eq!(total, 1000);
        assert_eq!(chunks.len(), 6);
    }

    #[test]
    fn alloc_pages_exact_power_of_two() {
        let mut b = BuddyAllocator::new(4096);
        let chunks = b.alloc_pages(1024);
        let total: u64 = chunks.iter().map(ChunkRun::pages).sum();
        assert_eq!(total, 1024);
        assert_eq!(chunks.len(), 1);
    }

    #[test]
    fn exhaustion_returns_partial() {
        let mut b = BuddyAllocator::new(1024);
        let chunks = b.alloc_pages(5000);
        let total: u64 = chunks.iter().map(ChunkRun::pages).sum();
        assert_eq!(total, 1024);
        assert_eq!(b.free_pages(), 0);
        assert!(b.alloc(0).is_none());
    }

    /// Runs taken a bitmap word at a time hand out the chunks one
    /// `alloc(MAX_ORDER)` call at a time would, across word edges and
    /// around holes.
    #[test]
    fn max_order_runs_match_single_chunk_allocation() {
        let chunks = 130u32;
        let mut b = BuddyAllocator::new(chunks << MAX_ORDER);
        // Holes: every third chunk and a stretch across the first word edge.
        let taken: Vec<u32> = (0..chunks)
            .filter(|i| i % 3 == 0 || (60..70).contains(i))
            .map(|i| i << MAX_ORDER)
            .collect();
        let mut all = b.alloc_pages(u64::from(chunks) << MAX_ORDER);
        assert_eq!(all.len(), 1, "a free allocator is one run");
        for run in all.drain(..) {
            for off in run.offsets().filter(|off| !taken.contains(off)) {
                b.free(off, MAX_ORDER);
            }
        }
        let mut reference = b.clone();
        let runs = b.alloc_pages(40 << MAX_ORDER | 7);
        let mut singles = Vec::new();
        for _ in 0..40 {
            singles.push((reference.alloc(MAX_ORDER).unwrap(), MAX_ORDER));
        }
        singles.push((reference.alloc(2).unwrap(), 2));
        singles.push((reference.alloc(1).unwrap(), 1));
        singles.push((reference.alloc(0).unwrap(), 0));
        let expanded: Vec<(u32, u8)> = runs
            .iter()
            .flat_map(|r| r.offsets().map(|off| (off, r.order)))
            .collect();
        assert_eq!(expanded, singles);
        assert!(runs.iter().any(|r| r.count > 1), "{runs:?}");
        assert_eq!(b, reference);
        b.audit().unwrap();
    }

    #[test]
    #[should_panic(expected = "multiple of the max buddy chunk")]
    fn misaligned_size_rejected() {
        BuddyAllocator::new(1000);
    }
}
