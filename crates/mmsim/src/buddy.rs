//! A binary-buddy allocator over the pages of one memory block.
//!
//! This mirrors the Linux page allocator's per-zone buddy structure at the
//! granularity GreenDIMM interacts with: chunks of `2^order` pages,
//! split/coalesce on alloc/free, first-fit by order.
//!
//! Free chunks below [`MAX_ORDER`] sit in one sorted vector per order,
//! held inline. Free max-order chunks, the bulk of a block's free space,
//! sit in a bitmap with one bit per chunk; its lowest set bit is the lowest
//! free offset, the chunk an ordered set would hand out first. A stretch of
//! set bits is a run of free max-order chunks, handed out in one step.

#[cfg(test)]
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

/// The free chunk offsets of one order: an ordered set with
/// lowest-first [`pop_first`](Self::pop_first).
#[derive(Debug, Clone)]
#[cfg_attr(test, derive(PartialEq, Eq))]
enum FreeList {
    /// Offsets in descending order, so the lowest is popped off the end.
    /// The vector keeps its capacity as the list empties and refills, so a
    /// list that keeps going empty and non-empty allocates nothing.
    Sorted(Vec<u32>),
    /// The ordered set the sorted vector replaced: the tests' reference.
    #[cfg(test)]
    Tree(BTreeSet<u32>),
}

impl FreeList {
    fn is_empty(&self) -> bool {
        match self {
            FreeList::Sorted(v) => v.is_empty(),
            #[cfg(test)]
            FreeList::Tree(t) => t.is_empty(),
        }
    }

    /// Takes the lowest offset.
    fn pop_first(&mut self) -> Option<u32> {
        match self {
            FreeList::Sorted(v) => v.pop(),
            #[cfg(test)]
            FreeList::Tree(t) => t.pop_first(),
        }
    }

    /// Adds `offset`; false if it was already listed.
    fn insert(&mut self, offset: u32) -> bool {
        match self {
            FreeList::Sorted(v) => match v.binary_search_by(|probe| offset.cmp(probe)) {
                Ok(_) => false,
                Err(at) => {
                    v.insert(at, offset);
                    true
                }
            },
            #[cfg(test)]
            FreeList::Tree(t) => t.insert(offset),
        }
    }

    /// Drops `offset`; false if it was not listed.
    fn remove(&mut self, offset: u32) -> bool {
        match self {
            FreeList::Sorted(v) => match v.binary_search_by(|probe| offset.cmp(probe)) {
                Ok(at) => {
                    v.remove(at);
                    true
                }
                Err(_) => false,
            },
            #[cfg(test)]
            FreeList::Tree(t) => t.remove(&offset),
        }
    }

    /// The offsets, ascending.
    fn to_vec(&self) -> Vec<u32> {
        match self {
            FreeList::Sorted(v) => v.iter().rev().copied().collect(),
            #[cfg(test)]
            FreeList::Tree(t) => t.iter().copied().collect(),
        }
    }
}

/// A buddy allocator managing `total_pages` pages (offsets are block-local).
#[derive(Debug, Clone)]
#[cfg_attr(test, derive(PartialEq, Eq))]
pub struct BuddyAllocator {
    total_pages: u32,
    /// Free chunk offsets per order below `MAX_ORDER`.
    free_lists: [FreeList; MAX_ORDER as usize],
    /// The test reference's max-order list, which stands in for the bitmap
    /// (see [`Self::all_sets`]).
    #[cfg(test)]
    top_list: Option<FreeList>,
    /// Free max-order chunks when there is no `top_list`: bit `i % 64` of
    /// word `i / 64` is set when the chunk at offset `i << MAX_ORDER` is
    /// free.
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
            free_lists: std::array::from_fn(|_| FreeList::Sorted(Vec::new())),
            #[cfg(test)]
            top_list: None,
            top_free,
            top_count: chunks,
            free_pages: total_pages,
        }
    }

    /// An allocator that keeps the free chunks of every order, max-order
    /// included, in ordered sets: the all-B-tree layout the sorted vectors
    /// and the bitmap replaced, kept as the tests' reference.
    #[cfg(test)]
    pub(crate) fn all_sets(total_pages: u32) -> Self {
        let mut b = Self::new(total_pages);
        let top = b.free_offsets(MAX_ORDER).into_iter().collect();
        b.top_list = Some(FreeList::Tree(top));
        b.free_lists = std::array::from_fn(|_| FreeList::Tree(BTreeSet::new()));
        b.top_free.fill(0);
        b.top_count = 0;
        b
    }

    /// The free list of `order`; `None` for max-order chunks in the
    /// bitmap.
    fn list(&self, order: u8) -> Option<&FreeList> {
        match self.free_lists.get(order as usize) {
            Some(list) => Some(list),
            #[cfg(test)]
            None => self.top_list.as_ref(),
            #[cfg(not(test))]
            None => None,
        }
    }

    /// [`list`](Self::list), mutably.
    fn list_mut(&mut self, order: u8) -> Option<&mut FreeList> {
        match self.free_lists.get_mut(order as usize) {
            Some(list) => Some(list),
            #[cfg(test)]
            None => self.top_list.as_mut(),
            #[cfg(not(test))]
            None => None,
        }
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
        match self.list(order) {
            Some(list) => list.is_empty(),
            None => self.top_count == 0,
        }
    }

    /// Takes the lowest free chunk of exactly `order`.
    fn pop_first(&mut self, order: u8) -> Option<u32> {
        if let Some(list) = self.list_mut(order) {
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
        if let Some(list) = self.list_mut(MAX_ORDER) {
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
        if let Some(list) = self.list_mut(order) {
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
        if let Some(list) = self.list_mut(order) {
            return list.remove(offset);
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
        if let Some(list) = self.list(order) {
            return list.to_vec();
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

    /// Frees the max-order run `run` a bitmap word at a time, one mask per
    /// word. A max-order chunk has no buddy to coalesce with, so this is
    /// what one [`free`](Self::free) per chunk does. Only for the bitmap
    /// layout; the all-sets reference frees chunk by chunk.
    ///
    /// # Panics
    ///
    /// Panics if the run reaches past the block.
    pub(crate) fn free_top_run(&mut self, run: ChunkRun) {
        debug_assert!(
            run.order == MAX_ORDER && self.list(MAX_ORDER).is_none(),
            "a max-order run in the bitmap layout"
        );
        let mut slot = run.offset >> MAX_ORDER;
        let end = slot + run.count;
        while slot < end {
            let bit = slot % 64;
            let n = (end - slot).min(64 - bit);
            let mask = (u64::MAX >> (64 - n)) << bit;
            let word = self
                .top_free
                .get_mut((slot / 64) as usize)
                .expect("invariant: a max-order run lies inside its block");
            debug_assert_eq!(*word & mask, 0, "double free in the run at {}", run.offset);
            *word |= mask;
            slot += n;
        }
        self.top_count += run.count;
        self.free_pages += run.count << MAX_ORDER;
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
    /// chunks, and appends the runs actually obtained to `out` (they cover
    /// exactly `pages` pages on success, fewer if space ran out — the
    /// caller must free partial results if it needs all-or-nothing). Runs
    /// already in `out` are left alone: none absorbs a new one.
    ///
    /// Whole max-order chunks come first, lowest offsets first, a bitmap
    /// word at a time; the rest is split off the smaller orders one chunk
    /// at a time. The chunks, in run order, are the ones repeated
    /// [`alloc`](Self::alloc) calls of the largest order that fits and
    /// succeeds would return.
    pub fn alloc_pages(&mut self, pages: u64, out: &mut Vec<ChunkRun>) {
        let mut remaining = pages.min(self.free_pages as u64);
        let first = out.len();
        let mut push = |run: ChunkRun| {
            let absorbed = out.len() > first && out.last_mut().is_some_and(|last| last.absorb(run));
            if !absorbed {
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
        assert_eq!(b.free_offsets(MAX_ORDER), [0]);
    }

    #[test]
    fn splitting_produces_distinct_chunks() {
        let mut b = BuddyAllocator::new(2048);
        let x = b.alloc(2).unwrap();
        let y = b.alloc(2).unwrap();
        assert_ne!(x, y);
        assert!(x.is_multiple_of(4) && y.is_multiple_of(4));
    }

    /// The runs [`BuddyAllocator::alloc_pages`] appends to an empty buffer.
    fn alloc_runs(b: &mut BuddyAllocator, pages: u64) -> Vec<ChunkRun> {
        let mut out = Vec::new();
        b.alloc_pages(pages, &mut out);
        out
    }

    #[test]
    fn alloc_pages_covers_request() {
        let mut b = BuddyAllocator::new(4096);
        let chunks = alloc_runs(&mut b, 1000);
        let total: u64 = chunks.iter().map(ChunkRun::pages).sum();
        // Greedy binary decomposition: 1000 = 512+256+128+64+32+8.
        assert_eq!(total, 1000);
        assert_eq!(chunks.len(), 6);
    }

    #[test]
    fn alloc_pages_exact_power_of_two() {
        let mut b = BuddyAllocator::new(4096);
        let chunks = alloc_runs(&mut b, 1024);
        let total: u64 = chunks.iter().map(ChunkRun::pages).sum();
        assert_eq!(total, 1024);
        assert_eq!(chunks.len(), 1);
    }

    #[test]
    fn exhaustion_returns_partial() {
        let mut b = BuddyAllocator::new(1024);
        let chunks = alloc_runs(&mut b, 5000);
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
        let mut all = alloc_runs(&mut b, u64::from(chunks) << MAX_ORDER);
        assert_eq!(all.len(), 1, "a free allocator is one run");
        for run in all.drain(..) {
            for off in run.offsets().filter(|off| !taken.contains(off)) {
                b.free(off, MAX_ORDER);
            }
        }
        let mut reference = b.clone();
        let runs = alloc_runs(&mut b, 40 << MAX_ORDER | 7);
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

    /// A max-order run freed a bitmap word at a time leaves the allocator
    /// that freeing its chunks one at a time leaves, for runs that start
    /// and end inside, at and across word edges.
    #[test]
    fn max_order_run_free_matches_single_chunk_frees() {
        let chunks = 200u32;
        for (first, count) in [
            (0, 1),
            (63, 2),
            (0, 64),
            (64, 64),
            (1, 128),
            (62, 3),
            (5, 190),
            (0, 200),
            (127, 73),
            (199, 1),
        ] {
            let mut run_freed = BuddyAllocator::new(chunks << MAX_ORDER);
            let all = alloc_runs(&mut run_freed, u64::from(chunks) << MAX_ORDER);
            assert_eq!(all.len(), 1, "a free allocator is one run");
            let mut singles = run_freed.clone();
            let run = ChunkRun {
                offset: first << MAX_ORDER,
                order: MAX_ORDER,
                count,
            };
            run_freed.free_top_run(run);
            for off in run.offsets() {
                singles.free(off, MAX_ORDER);
            }
            assert_eq!(run_freed, singles, "{count} chunks from chunk {first}");
            assert_eq!(
                run_freed.free_pages(),
                count << MAX_ORDER,
                "{count} chunks from chunk {first}"
            );
            run_freed.audit().unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "multiple of the max buddy chunk")]
    fn misaligned_size_rejected() {
        BuddyAllocator::new(1000);
    }
}
