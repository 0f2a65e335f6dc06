//! A hot-pluggable memory block: the kernel's unit of on/off-lining.

use crate::buddy::{BuddyAllocator, ChunkRun, MAX_ORDER};
use crate::frame::{AllocationId, PageKind};
#[cfg(test)]
use std::collections::BTreeMap;

/// One allocated buddy chunk inside a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// Owning allocation.
    pub owner: AllocationId,
    /// Page kind (decides movability).
    pub kind: PageKind,
    /// Buddy order (`2^order` pages).
    pub order: u8,
}

/// A block's allocated chunks below `MAX_ORDER`, by offset.
#[derive(Debug, Clone)]
#[cfg_attr(test, derive(PartialEq, Eq))]
enum ChunkBook {
    /// Sorted by offset, ascending. The vector keeps its capacity as
    /// chunks come and go, so a book that keeps going empty and non-empty
    /// allocates nothing.
    Sorted(Vec<(u32, Chunk)>),
    /// The ordered map the sorted vector replaced: the tests' reference.
    #[cfg(test)]
    Tree(BTreeMap<u32, Chunk>),
}

impl ChunkBook {
    fn insert(&mut self, offset: u32, chunk: Chunk) {
        match self {
            ChunkBook::Sorted(v) => match v.binary_search_by_key(&offset, |&(off, _)| off) {
                Ok(at) => v[at].1 = chunk,
                Err(at) => v.insert(at, (offset, chunk)),
            },
            #[cfg(test)]
            ChunkBook::Tree(t) => {
                t.insert(offset, chunk);
            }
        }
    }

    fn remove(&mut self, offset: u32) -> Option<Chunk> {
        match self {
            ChunkBook::Sorted(v) => {
                let at = v.binary_search_by_key(&offset, |&(off, _)| off).ok()?;
                Some(v.remove(at).1)
            }
            #[cfg(test)]
            ChunkBook::Tree(t) => t.remove(&offset),
        }
    }

    fn get(&self, offset: u32) -> Option<&Chunk> {
        match self {
            ChunkBook::Sorted(v) => {
                let at = v.binary_search_by_key(&offset, |&(off, _)| off).ok()?;
                v.get(at).map(|(_, c)| c)
            }
            #[cfg(test)]
            ChunkBook::Tree(t) => t.get(&offset),
        }
    }

    /// Every chunk with its offset, ascending.
    // Outside test builds the match has one arm.
    #[allow(clippy::infallible_destructuring_match)]
    fn iter(&self) -> impl Iterator<Item = (u32, &Chunk)> {
        let sorted: &[(u32, Chunk)] = match self {
            ChunkBook::Sorted(v) => v,
            #[cfg(test)]
            ChunkBook::Tree(_) => &[],
        };
        let chunks = sorted.iter().map(|(off, c)| (*off, c));
        #[cfg(test)]
        let chunks = chunks.chain(
            match self {
                ChunkBook::Tree(t) => Some(t),
                ChunkBook::Sorted(_) => None,
            }
            .into_iter()
            .flatten()
            .map(|(&off, c)| (off, c)),
        );
        chunks
    }
}

/// A contiguous, block-aligned range of physical memory that the kernel can
/// on/off-line as a unit (default 128 MB in Linux; GreenDIMM sizes it to one
/// or more sub-array groups). Whether it is on-line is the manager's book,
/// not the block's.
#[derive(Debug, Clone)]
#[cfg_attr(test, derive(PartialEq, Eq))]
pub struct MemoryBlock {
    index: usize,
    pages: u32,
    buddy: BuddyAllocator,
    /// Allocated chunks below `MAX_ORDER`, by offset.
    chunks: ChunkBook,
    /// Allocated max-order chunks, indexed by `offset >> MAX_ORDER`. Empty
    /// until the first max-order chunk is placed, and always in the test
    /// reference built by [`Self::all_btrees`].
    top_chunks: Vec<Option<Chunk>>,
    movable_pages: u64,
    unmovable_pages: u64,
    pinned_pages: u64,
}

/// A read-only snapshot of a block's state, as exposed through sysfs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockInfo {
    /// Block index.
    pub index: usize,
    /// Whether the block is online.
    pub online: bool,
    /// The sysfs `removable` flag: true iff the block contains no unmovable
    /// or pinned pages (§5.2).
    pub removable: bool,
    /// Pages in use.
    pub used_pages: u64,
    /// Pages free.
    pub free_pages: u64,
    /// Total pages.
    pub total_pages: u64,
}

impl MemoryBlock {
    /// Creates an empty block of `pages` pages.
    pub fn new(index: usize, pages: u32) -> Self {
        MemoryBlock {
            index,
            pages,
            buddy: BuddyAllocator::new(pages),
            chunks: ChunkBook::Sorted(Vec::new()),
            top_chunks: Vec::new(),
            movable_pages: 0,
            unmovable_pages: 0,
            pinned_pages: 0,
        }
    }

    /// A block that keeps every allocated chunk in an ordered map and
    /// every free chunk in ordered sets: the all-B-tree layout the sorted
    /// vectors, the slot table and the free bitmap replaced, kept as the
    /// tests' reference.
    #[cfg(test)]
    pub(crate) fn all_btrees(index: usize, pages: u32) -> Self {
        MemoryBlock {
            buddy: BuddyAllocator::all_sets(pages),
            chunks: ChunkBook::Tree(BTreeMap::new()),
            ..Self::new(index, pages)
        }
    }

    /// Whether max-order chunks go to the slot table: always, but in the
    /// all-B-tree reference.
    fn has_slot_table(&self) -> bool {
        #[cfg(test)]
        if let ChunkBook::Tree(_) = self.chunks {
            return false;
        }
        true
    }

    /// Offsets of the free chunks of exactly `order`, ascending.
    #[cfg(test)]
    pub(crate) fn free_offsets(&self, order: u8) -> Vec<u32> {
        self.buddy.free_offsets(order)
    }

    /// Block index.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Total pages.
    pub fn total_pages(&self) -> u64 {
        self.pages as u64
    }

    /// Free pages.
    pub fn free_pages(&self) -> u64 {
        self.buddy.free_pages() as u64
    }

    /// Used pages.
    pub fn used_pages(&self) -> u64 {
        self.movable_pages + self.unmovable_pages + self.pinned_pages
    }

    /// Movable used pages.
    pub fn movable_pages(&self) -> u64 {
        self.movable_pages
    }

    /// Unmovable + pinned pages.
    pub fn unmovable_pages(&self) -> u64 {
        self.unmovable_pages + self.pinned_pages
    }

    /// Device-pinned pages only (distinguishes EBUSY causes).
    pub fn pinned_pages(&self) -> u64 {
        self.pinned_pages
    }

    /// The sysfs `removable` flag.
    pub fn removable(&self) -> bool {
        self.unmovable_pages() == 0
    }

    /// True when no page is in use.
    pub fn is_free(&self) -> bool {
        self.used_pages() == 0
    }

    /// Snapshot for the sysfs-style API, with the on-line state the
    /// manager keeps for the block.
    pub fn info(&self, online: bool) -> BlockInfo {
        BlockInfo {
            index: self.index,
            online,
            removable: self.removable(),
            used_pages: self.used_pages(),
            free_pages: self.free_pages(),
            total_pages: self.total_pages(),
        }
    }

    /// Allocates up to `pages` pages for `owner`; returns the runs of
    /// chunks actually placed (possibly fewer pages than requested).
    pub fn alloc_chunks(
        &mut self,
        pages: u64,
        owner: AllocationId,
        kind: PageKind,
    ) -> Vec<ChunkRun> {
        let runs = self.buddy.alloc_pages(pages);
        for &run in &runs {
            self.put_run(
                run,
                Chunk {
                    owner,
                    kind,
                    order: run.order,
                },
            );
            *self.kind_pages_mut(kind) += run.pages();
        }
        runs
    }

    /// Records every chunk of `run` as `chunk`: in the slot table when they
    /// are max-order, in the small-chunk book otherwise. The first
    /// max-order chunk placed sizes the table.
    fn put_run(&mut self, run: ChunkRun, chunk: Chunk) {
        let first = (run.offset >> MAX_ORDER) as usize;
        if run.order == MAX_ORDER && self.top_chunks.is_empty() && self.has_slot_table() {
            self.top_chunks = vec![None; (self.pages >> MAX_ORDER) as usize];
        }
        let slots = (run.order == MAX_ORDER)
            .then(|| self.top_chunks.get_mut(first..first + run.count as usize))
            .flatten();
        match slots {
            Some(slots) => slots.fill(Some(chunk)),
            None => {
                for off in run.offsets() {
                    self.chunks.insert(off, chunk);
                }
            }
        }
    }

    /// Removes and returns the chunk starting at `offset`, if any.
    fn take_chunk(&mut self, offset: u32) -> Option<Chunk> {
        self.top_slot(offset)
            .and_then(|slot| self.top_chunks.get_mut(slot)?.take())
            .or_else(|| self.chunks.remove(offset))
    }

    /// The slot-table index of a max-order chunk at `offset`; `None` when
    /// `offset` is not max-order aligned.
    fn top_slot(&self, offset: u32) -> Option<usize> {
        offset
            .is_multiple_of(1 << MAX_ORDER)
            .then_some((offset >> MAX_ORDER) as usize)
    }

    /// Every allocated chunk with its offset, ascending: the slot table
    /// and the small-chunk book merged.
    fn chunks(&self) -> impl Iterator<Item = (u32, &Chunk)> {
        let mut top = self
            .top_chunks
            .iter()
            .enumerate()
            .filter_map(|(slot, c)| Some(((slot as u32) << MAX_ORDER, c.as_ref()?)))
            .peekable();
        let mut small = self.chunks.iter().peekable();
        std::iter::from_fn(move || match (top.peek(), small.peek()) {
            (Some(t), Some(s)) if s.0 < t.0 => small.next(),
            (Some(_), _) => top.next(),
            (None, _) => small.next(),
        })
    }

    /// The used-page counter for `kind`.
    fn kind_pages_mut(&mut self, kind: PageKind) -> &mut u64 {
        match kind {
            PageKind::UserMovable => &mut self.movable_pages,
            PageKind::KernelUnmovable => &mut self.unmovable_pages,
            PageKind::Pinned => &mut self.pinned_pages,
        }
    }

    /// Frees the chunk at `offset`, returning its metadata.
    ///
    /// # Panics
    ///
    /// Panics if no chunk starts at `offset`.
    pub fn free_chunk(&mut self, offset: u32) -> Chunk {
        let chunk = self
            .take_chunk(offset)
            .expect("free of unknown chunk offset");
        self.buddy.free(offset, chunk.order);
        *self.kind_pages_mut(chunk.kind) -= 1u64 << chunk.order;
        chunk
    }

    /// Frees every chunk of `run`, all of one allocation. A max-order run
    /// whose chunks sit in the slot table goes back in one step: its slots
    /// are emptied, its kind's page count drops once and the buddy
    /// allocator marks it free a bitmap word at a time. Any other run is
    /// freed chunk by chunk through [`free_chunk`](Self::free_chunk), the
    /// path the one step must match. Returns whether the run took the one
    /// step.
    ///
    /// # Panics
    ///
    /// Panics if no chunk starts at the run's first offset.
    pub fn free_run(&mut self, run: ChunkRun) -> bool {
        let first = (run.offset >> MAX_ORDER) as usize;
        let slots = (run.order == MAX_ORDER)
            .then(|| self.top_chunks.get_mut(first..first + run.count as usize))
            .flatten();
        let Some(slots) = slots else {
            for off in run.offsets() {
                self.free_chunk(off);
            }
            return false;
        };
        let kind = slots
            .first()
            .copied()
            .flatten()
            .expect("free of unknown chunk offset")
            .kind;
        debug_assert!(
            slots.iter().all(|s| s.is_some_and(|c| c.kind == kind)),
            "the run at {} holds unallocated chunks or mixed kinds",
            run.offset
        );
        slots.fill(None);
        self.buddy.free_top_run(run);
        *self.kind_pages_mut(kind) -= run.pages();
        true
    }

    /// Frees the top `need` pages of the chunk at `offset` in one step; the
    /// rest stays allocated to the same owner. The kept lower part
    /// `[offset, offset + keep)` becomes its aligned binary decomposition,
    /// largest piece first; the freed upper part goes back to the buddy
    /// allocator smallest piece first, starting at `offset + keep`. Returns
    /// the kept pieces in ascending order. Kept pieces are all below the
    /// chunk's order, so they go to the small-chunk book.
    ///
    /// The result is the state that repeatedly splitting the chunk into
    /// buddy halves and freeing the upper halves would leave behind.
    ///
    /// # Panics
    ///
    /// Panics if no chunk starts at `offset` or `need` is not in
    /// `1..2^order`.
    pub fn trim_chunk(&mut self, offset: u32, need: u32) -> impl Iterator<Item = ChunkRun> {
        let chunk = self.take_chunk(offset).expect("trim of unknown chunk");
        let size = 1u32 << chunk.order;
        assert!(
            need > 0 && need < size,
            "cannot trim {need} pages from a {size}-page chunk"
        );
        let keep = size - need;
        let kept = aligned_pieces(offset, keep, (0..chunk.order).rev());
        for (off, order) in kept.clone() {
            self.chunks.insert(off, Chunk { order, ..chunk });
        }
        for (off, order) in aligned_pieces(offset + keep, need, 0..chunk.order) {
            self.buddy.free(off, order);
        }
        *self.kind_pages_mut(chunk.kind) -= u64::from(need);
        kept.map(|(off, order)| ChunkRun::single(off, order))
    }

    /// Verifies the block's books: the buddy structure is sound, allocated
    /// chunks are aligned, in range, and non-overlapping, the per-kind
    /// counters match the chunk map, and used + free == total.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn audit(&self) -> std::result::Result<(), String> {
        self.buddy
            .audit()
            .map_err(|e| format!("block {}: {e}", self.index))?;
        let mut movable = 0u64;
        let mut unmovable = 0u64;
        let mut pinned = 0u64;
        let mut alloc_pages = 0u64;
        let mut prev_end = 0u32;
        for (off, chunk) in self.chunks() {
            let len = 1u32 << chunk.order;
            if off % len != 0 || off + len > self.pages {
                return Err(format!(
                    "block {}: chunk at {off} order {} out of bounds",
                    self.index, chunk.order
                ));
            }
            if off < prev_end {
                return Err(format!(
                    "block {}: allocated chunks overlap at offset {off}",
                    self.index
                ));
            }
            prev_end = off + len;
            alloc_pages += u64::from(len);
            match chunk.kind {
                PageKind::UserMovable => movable += u64::from(len),
                PageKind::KernelUnmovable => unmovable += u64::from(len),
                PageKind::Pinned => pinned += u64::from(len),
            }
        }
        if (movable, unmovable, pinned)
            != (self.movable_pages, self.unmovable_pages, self.pinned_pages)
        {
            return Err(format!(
                "block {}: kind counters (movable {}, unmovable {}, pinned {}) \
                 disagree with chunks (movable {movable}, unmovable {unmovable}, \
                 pinned {pinned})",
                self.index, self.movable_pages, self.unmovable_pages, self.pinned_pages
            ));
        }
        if alloc_pages + self.free_pages() != self.total_pages() {
            return Err(format!(
                "block {}: {alloc_pages} allocated + {} free != {} total",
                self.index,
                self.free_pages(),
                self.total_pages()
            ));
        }
        Ok(())
    }

    /// Offsets of all chunks currently in the block (ascending).
    pub fn chunk_offsets(&self) -> Vec<u32> {
        self.chunks().map(|(off, _)| off).collect()
    }

    /// The chunk starting at `offset`, if any.
    pub fn chunk_at(&self, offset: u32) -> Option<&Chunk> {
        self.top_slot(offset)
            .and_then(|slot| self.top_chunks.get(slot)?.as_ref())
            .or_else(|| self.chunks.get(offset))
    }

    /// Splits the chunk at `offset` into its two buddy halves, both still
    /// owned; returns their offsets. Only the reference model of the old
    /// split-by-halves shrink loop uses it.
    #[cfg(test)]
    pub(crate) fn split_chunk(&mut self, offset: u32) -> (u32, u32) {
        let chunk = self.take_chunk(offset).expect("split of unknown chunk");
        assert!(chunk.order > 0, "cannot split an order-0 chunk");
        let half = Chunk {
            order: chunk.order - 1,
            ..chunk
        };
        let upper = offset + (1u32 << half.order);
        self.chunks.insert(offset, half);
        self.chunks.insert(upper, half);
        (offset, upper)
    }
}

/// The `(offset, order)` pieces of the `len`-page range starting at
/// `start`: one piece per set bit of `len`, laid out in the order `orders`
/// yields the bits. The pieces are aligned when the range is cut from an
/// aligned chunk with its small pieces facing the cut.
fn aligned_pieces(
    start: u32,
    len: u32,
    orders: impl Iterator<Item = u8> + Clone,
) -> impl Iterator<Item = (u32, u8)> + Clone {
    orders
        .filter(move |o| len >> o & 1 == 1)
        .scan(start, |at, order| {
            let off = *at;
            *at += 1 << order;
            Some((off, order))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block() -> MemoryBlock {
        MemoryBlock::new(0, 4096)
    }

    #[test]
    fn fresh_block_is_free_and_removable() {
        let b = block();
        assert!(b.is_free());
        assert!(b.removable());
        assert_eq!(b.free_pages(), 4096);
    }

    #[test]
    fn unmovable_chunk_clears_removable() {
        let mut b = block();
        b.alloc_chunks(16, AllocationId(1), PageKind::KernelUnmovable);
        assert!(!b.removable());
        assert_eq!(b.unmovable_pages(), 16);
        let info = b.info(true);
        assert!(info.online);
        assert!(!info.removable);
        assert_eq!(info.used_pages, 16);
    }

    #[test]
    fn movable_chunks_keep_removable() {
        let mut b = block();
        b.alloc_chunks(100, AllocationId(2), PageKind::UserMovable);
        assert!(b.removable());
        assert!(!b.is_free());
        assert_eq!(b.movable_pages(), 100);
    }

    #[test]
    fn free_chunk_restores_accounting() {
        let mut b = block();
        let runs = b.alloc_chunks(64, AllocationId(3), PageKind::UserMovable);
        for off in runs.into_iter().flat_map(ChunkRun::offsets) {
            let c = b.free_chunk(off);
            assert_eq!(c.owner, AllocationId(3));
        }
        assert!(b.is_free());
        assert_eq!(b.free_pages(), 4096);
    }

    /// A max-order run freed in one step leaves the block that freeing its
    /// chunks one at a time leaves; a smaller run takes the per-chunk path.
    #[test]
    fn free_run_matches_per_chunk_frees() {
        let mut b = MemoryBlock::new(0, 130 << MAX_ORDER);
        b.alloc_chunks(1 << MAX_ORDER, AllocationId(1), PageKind::UserMovable);
        let runs = b.alloc_chunks(128 << MAX_ORDER | 6, AllocationId(2), PageKind::Pinned);
        assert_eq!(runs[0].count, 128, "{runs:?}");
        let mut per_chunk = b.clone();
        for run in runs {
            assert_eq!(b.free_run(run), run.order == MAX_ORDER, "{run:?}");
            for off in run.offsets() {
                per_chunk.free_chunk(off);
            }
            assert_eq!(b, per_chunk, "{run:?}");
        }
        assert_eq!(b.pinned_pages(), 0);
        b.audit().unwrap();
    }

    /// Every chunk of a block with its metadata, ascending.
    fn chunk_list(b: &MemoryBlock) -> Vec<(u32, Chunk)> {
        b.chunk_offsets()
            .into_iter()
            .map(|off| (off, *b.chunk_at(off).expect("listed chunk exists")))
            .collect()
    }

    /// The sorted-vector books (free lists below `MAX_ORDER`, the
    /// small-chunk book) and the lazily sized slot table must make every
    /// placement, split, coalesce, free and trim the all-B-tree layout
    /// makes. Blocks of 1, 4 and 65 max-order chunks; most requests are
    /// small, so the small lists keep emptying and refilling. Coverage:
    /// trims, small free lists refilled after running empty, frees that
    /// coalesce back to a max-order chunk, and slot tables first sized
    /// after small chunks were already placed.
    #[test]
    fn sorted_books_match_the_btree_reference() {
        sorted_books_differential(0..4);
    }

    /// [`sorted_books_match_the_btree_reference`] over 64 more seeds;
    /// `tools/ci.sh` runs it in release mode.
    #[test]
    #[ignore = "wide-seed run, ~64 seeds per block size"]
    fn sorted_books_match_the_btree_reference_wide_seeds() {
        sorted_books_differential(4..68);
    }

    fn sorted_books_differential(seeds: std::ops::Range<u64>) {
        use gd_types::rng::component_rng;
        const KINDS: [PageKind; 3] = [
            PageKind::UserMovable,
            PageKind::KernelUnmovable,
            PageKind::Pinned,
        ];
        let (mut trims, mut refills, mut coalesced, mut late_tables) = (0u32, 0u32, 0u32, 0u32);
        for chunks_per_block in [1u32, 4, 65] {
            let pages = chunks_per_block << MAX_ORDER;
            for seed in seeds.clone() {
                let mut rng = component_rng(seed, "sorted-books-reference");
                let mut fast = MemoryBlock::new(0, pages);
                let mut reference = MemoryBlock::all_btrees(0, pages);
                // Live allocations, each as its runs; a trimmed chunk's
                // kept pieces join its allocation's runs.
                let mut live: Vec<Vec<ChunkRun>> = Vec::new();
                let mut was_listed = [false; MAX_ORDER as usize];
                let mut next_owner = 1u64;
                for step in 0..400 {
                    let ctx = format!("{chunks_per_block}-chunk block, seed {seed} step {step}");
                    let top_before = fast.free_offsets(MAX_ORDER).len();
                    let mut small_free = false;
                    match rng.gen_range(0u32..10) {
                        0..=3 => {
                            let want = if rng.gen_bool(0.8) {
                                rng.gen_range(1..200u64)
                            } else {
                                rng.gen_range(1..u64::from(pages) / 2 + 2)
                            };
                            let kind = KINDS[rng.gen_range(0usize..KINDS.len())];
                            let owner = AllocationId(next_owner);
                            next_owner += 1;
                            let small_placed = fast.chunks.iter().next().is_some();
                            let sized = !fast.top_chunks.is_empty();
                            let a = fast.alloc_chunks(want, owner, kind);
                            let b = reference.alloc_chunks(want, owner, kind);
                            assert_eq!(a, b, "{ctx}: placed runs");
                            late_tables +=
                                u32::from(small_placed && !sized && !fast.top_chunks.is_empty());
                            if !a.is_empty() {
                                live.push(a);
                            }
                        }
                        4 | 5 if !live.is_empty() => {
                            let runs = live.swap_remove(rng.gen_range(0..live.len()));
                            small_free = runs.iter().any(|r| r.order < MAX_ORDER);
                            for run in runs {
                                fast.free_run(run);
                                reference.free_run(run);
                            }
                        }
                        6 if !live.is_empty() => {
                            let at = rng.gen_range(0..live.len());
                            let runs = &mut live[at];
                            let run = runs[0];
                            small_free = run.order < MAX_ORDER;
                            assert_eq!(
                                fast.free_chunk(run.offset),
                                reference.free_chunk(run.offset),
                                "{ctx}: freed chunk"
                            );
                            match run.rest() {
                                Some(rest) => runs[0] = rest,
                                None => {
                                    runs.remove(0);
                                }
                            }
                            if runs.is_empty() {
                                live.swap_remove(at);
                            }
                        }
                        7..=9 if !live.is_empty() => {
                            let at = rng.gen_range(0..live.len());
                            let runs = &mut live[at];
                            let Some(&run) = runs.last().filter(|r| r.order > 0) else {
                                continue;
                            };
                            runs.pop();
                            if run.count > 1 {
                                runs.push(ChunkRun {
                                    count: run.count - 1,
                                    ..run
                                });
                            }
                            let last = run.chunk(run.count - 1);
                            let need = rng.gen_range(1..1u32 << run.order);
                            let a: Vec<ChunkRun> = fast.trim_chunk(last, need).collect();
                            let b: Vec<ChunkRun> = reference.trim_chunk(last, need).collect();
                            assert_eq!(a, b, "{ctx}: kept pieces");
                            runs.extend(a);
                            small_free = true;
                            trims += 1;
                        }
                        _ => {}
                    }
                    for o in 0..=MAX_ORDER {
                        let offsets = fast.free_offsets(o);
                        assert_eq!(
                            offsets,
                            reference.free_offsets(o),
                            "{ctx}: free chunks of order {o}"
                        );
                        if let Some(listed) = was_listed.get_mut(o as usize) {
                            refills += u32::from(!*listed && !offsets.is_empty() && step > 0);
                            *listed = !offsets.is_empty();
                        }
                    }
                    coalesced +=
                        u32::from(small_free && fast.free_offsets(MAX_ORDER).len() > top_before);
                    assert_eq!(chunk_list(&fast), chunk_list(&reference), "{ctx}: chunks");
                    assert_eq!(fast.info(true), reference.info(true), "{ctx}: info");
                    assert_eq!(fast.audit(), Ok(()), "{ctx}: audit");
                    assert_eq!(reference.audit(), Ok(()), "{ctx}: reference audit");
                }
            }
        }
        let runs = seeds.end - seeds.start;
        let floor = |per_seed: u64| u32::try_from(per_seed * runs).unwrap_or(u32::MAX);
        assert!(trims > floor(50), "only {trims} trims");
        assert!(
            refills > floor(50),
            "only {refills} small free lists refilled"
        );
        assert!(
            coalesced > floor(5),
            "only {coalesced} frees coalesced to max order"
        );
        assert!(late_tables > 0, "no slot table sized after small chunks");
    }

    #[test]
    fn pinned_counts_as_unmovable() {
        let mut b = block();
        b.alloc_chunks(8, AllocationId(4), PageKind::Pinned);
        assert!(!b.removable());
        assert_eq!(b.unmovable_pages(), 8);
        assert_eq!(b.movable_pages(), 0);
    }
}
