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

/// `count` allocated max-order chunks, all equal to `chunk`, in the
/// max-order slots (`offset >> MAX_ORDER`) from `first` up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Extent {
    first: u32,
    count: u32,
    chunk: Chunk,
}

impl Extent {
    /// The slot after the last one.
    fn end(&self) -> u32 {
        self.first + self.count
    }
}

/// A block's allocated chunks, by offset.
#[derive(Debug, Clone)]
#[cfg_attr(test, derive(PartialEq, Eq))]
enum ChunkBook {
    /// Chunks below `MAX_ORDER` sorted by offset, and max-order chunks as
    /// extents sorted by first slot. Extents never overlap, and two that
    /// touch hold different chunks, so a set of chunks has one extent list.
    /// The vectors keep their capacity as chunks come and go, so a book
    /// that keeps going empty and non-empty allocates nothing.
    Sorted {
        small: Vec<(u32, Chunk)>,
        top: Vec<Extent>,
    },
    /// The ordered map the sorted books replaced, every chunk in it: the
    /// tests' reference.
    #[cfg(test)]
    Tree(BTreeMap<u32, Chunk>),
}

impl ChunkBook {
    /// Records every chunk of `run` as `chunk`. A max-order run joins the
    /// extents, merged with a touching extent of the same chunk on either
    /// side.
    fn insert_run(&mut self, run: ChunkRun, chunk: Chunk) {
        match self {
            ChunkBook::Sorted { top, .. } if run.order == MAX_ORDER => insert_extent(
                top,
                Extent {
                    first: run.offset >> MAX_ORDER,
                    count: run.count,
                    chunk,
                },
            ),
            ChunkBook::Sorted { small, .. } => {
                for off in run.offsets() {
                    match small.binary_search_by_key(&off, |&(o, _)| o) {
                        Ok(at) => small[at].1 = chunk,
                        Err(at) => small.insert(at, (off, chunk)),
                    }
                }
            }
            #[cfg(test)]
            ChunkBook::Tree(t) => {
                for off in run.offsets() {
                    t.insert(off, chunk);
                }
            }
        }
    }

    /// Removes and returns the chunk starting at `offset`, if any; a chunk
    /// inside an extent splits it.
    fn remove(&mut self, offset: u32) -> Option<Chunk> {
        match self {
            ChunkBook::Sorted { small, top } => {
                if let Some(chunk) = top_slot(offset).and_then(|slot| remove_slots(top, slot, 1)) {
                    return Some(chunk);
                }
                let at = small.binary_search_by_key(&offset, |&(o, _)| o).ok()?;
                Some(small.remove(at).1)
            }
            #[cfg(test)]
            ChunkBook::Tree(t) => t.remove(&offset),
        }
    }

    /// Removes the max-order `run` from the extents in one step and returns
    /// its chunks' kind; `None`, removing nothing, when `run` is not
    /// max-order or the book keeps no extents.
    ///
    /// # Panics
    ///
    /// Panics if no chunk starts at the run's first offset.
    fn remove_top_run(&mut self, run: ChunkRun) -> Option<PageKind> {
        match self {
            ChunkBook::Sorted { top, .. } if run.order == MAX_ORDER => {
                let chunk = remove_slots(top, run.offset >> MAX_ORDER, run.count)
                    .expect("free of unknown chunk offset");
                Some(chunk.kind)
            }
            _ => None,
        }
    }

    fn get(&self, offset: u32) -> Option<&Chunk> {
        match self {
            ChunkBook::Sorted { small, top } => {
                if let Some(slot) = top_slot(offset) {
                    let at = top.partition_point(|e| e.end() <= slot);
                    if let Some(e) = top.get(at).filter(|e| e.first <= slot) {
                        return Some(&e.chunk);
                    }
                }
                let at = small.binary_search_by_key(&offset, |&(o, _)| o).ok()?;
                small.get(at).map(|(_, c)| c)
            }
            #[cfg(test)]
            ChunkBook::Tree(t) => t.get(&offset),
        }
    }

    /// Every chunk with its offset, ascending: the extents expanded and
    /// merged with the small chunks.
    fn iter(&self) -> impl Iterator<Item = (u32, &Chunk)> {
        let (small, top): (&[(u32, Chunk)], &[Extent]) = match self {
            ChunkBook::Sorted { small, top } => (small, top),
            #[cfg(test)]
            ChunkBook::Tree(_) => (&[], &[]),
        };
        let mut top = top
            .iter()
            .flat_map(|e| (e.first..e.end()).map(move |slot| (slot << MAX_ORDER, &e.chunk)))
            .peekable();
        let mut small = small.iter().map(|(off, c)| (*off, c)).peekable();
        let chunks = std::iter::from_fn(move || match (top.peek(), small.peek()) {
            (Some(t), Some(s)) if s.0 < t.0 => small.next(),
            (Some(_), _) => top.next(),
            (None, _) => small.next(),
        });
        #[cfg(test)]
        let chunks = chunks.chain(
            match self {
                ChunkBook::Tree(t) => Some(t),
                ChunkBook::Sorted { .. } => None,
            }
            .into_iter()
            .flatten()
            .map(|(&off, c)| (off, c)),
        );
        chunks
    }
}

/// The max-order slot of `offset`; `None` when `offset` is not max-order
/// aligned.
fn top_slot(offset: u32) -> Option<u32> {
    offset
        .is_multiple_of(1 << MAX_ORDER)
        .then_some(offset >> MAX_ORDER)
}

/// Adds `new` to the sorted extents `top`, merging it with a touching
/// extent of the same chunk on either side.
fn insert_extent(top: &mut Vec<Extent>, new: Extent) {
    let at = top.partition_point(|e| e.first < new.first);
    let (below, above) = top.split_at_mut(at);
    debug_assert!(
        below.last().is_none_or(|e| e.end() <= new.first)
            && above.first().is_none_or(|e| new.end() <= e.first),
        "the slots {}..{} are already allocated",
        new.first,
        new.end()
    );
    let left = below
        .last_mut()
        .filter(|e| e.end() == new.first && e.chunk == new.chunk);
    let right = above
        .first_mut()
        .filter(|e| e.first == new.end() && e.chunk == new.chunk);
    match (left, right) {
        (Some(left), Some(right)) => {
            left.count += new.count + right.count;
            top.remove(at);
        }
        (Some(left), None) => left.count += new.count,
        (None, Some(right)) => {
            right.first = new.first;
            right.count += new.count;
        }
        (None, None) => top.insert(at, new),
    }
}

/// Removes the max-order chunks in the `count` slots from `first`,
/// splitting the extents at the range's edges, and returns the chunk in
/// slot `first`; `None`, removing nothing, when that slot holds none.
fn remove_slots(top: &mut Vec<Extent>, first: u32, count: u32) -> Option<Chunk> {
    let end = first + count;
    let lo = top.partition_point(|e| e.end() <= first);
    let hi = top.partition_point(|e| e.first < end);
    let hit = top.get(lo..hi)?;
    let head = *hit.first().filter(|e| e.first <= first)?;
    let tail = *hit.last()?;
    debug_assert!(
        tail.end() >= end
            && hit
                .windows(2)
                .all(|w| w[0].end() == w[1].first && w[1].chunk.kind == head.chunk.kind),
        "the slots {first}..{end} hold unallocated chunks or mixed kinds"
    );
    let left = (head.first < first).then_some(Extent {
        count: first - head.first,
        ..head
    });
    let right = (tail.end() > end).then_some(Extent {
        first: end,
        count: tail.end() - end,
        ..tail
    });
    top.splice(lo..hi, left.into_iter().chain(right));
    Some(head.chunk)
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
    /// Allocated chunks, by offset.
    chunks: ChunkBook,
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
            chunks: ChunkBook::Sorted {
                small: Vec::new(),
                top: Vec::new(),
            },
            movable_pages: 0,
            unmovable_pages: 0,
            pinned_pages: 0,
        }
    }

    /// A block that keeps every allocated chunk in an ordered map and
    /// every free chunk in ordered sets: the all-B-tree layout the sorted
    /// vectors, the extents and the free bitmap replaced, kept as the
    /// tests' reference.
    #[cfg(test)]
    pub(crate) fn all_btrees(index: usize, pages: u32) -> Self {
        MemoryBlock {
            buddy: BuddyAllocator::all_sets(pages),
            chunks: ChunkBook::Tree(BTreeMap::new()),
            ..Self::new(index, pages)
        }
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

    /// Allocates up to `pages` pages for `owner` and appends the runs of
    /// chunks actually placed (possibly fewer pages than requested) to
    /// `out`, as [`BuddyAllocator::alloc_pages`] does.
    pub fn alloc_chunks(
        &mut self,
        pages: u64,
        owner: AllocationId,
        kind: PageKind,
        out: &mut Vec<ChunkRun>,
    ) {
        let first = out.len();
        self.buddy.alloc_pages(pages, out);
        for &run in &out[first..] {
            self.chunks.insert_run(
                run,
                Chunk {
                    owner,
                    kind,
                    order: run.order,
                },
            );
            *self.kind_pages_mut(kind) += run.pages();
        }
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
            .chunks
            .remove(offset)
            .expect("free of unknown chunk offset");
        self.buddy.free(offset, chunk.order);
        *self.kind_pages_mut(chunk.kind) -= 1u64 << chunk.order;
        chunk
    }

    /// Frees every chunk of `run`, all of one allocation. A max-order run
    /// goes back in one step: it leaves the extents as one slot range, its
    /// kind's page count drops once and the buddy allocator marks it free a
    /// bitmap word at a time. Any other run, and every run of the
    /// all-B-tree reference, is freed chunk by chunk through
    /// [`free_chunk`](Self::free_chunk), the path the one step must match.
    /// Returns whether the run took the one step.
    ///
    /// # Panics
    ///
    /// Panics if no chunk starts at the run's first offset.
    pub fn free_run(&mut self, run: ChunkRun) -> bool {
        let Some(kind) = self.chunks.remove_top_run(run) else {
            for off in run.offsets() {
                self.free_chunk(off);
            }
            return false;
        };
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
        let chunk = self.chunks.remove(offset).expect("trim of unknown chunk");
        let size = 1u32 << chunk.order;
        assert!(
            need > 0 && need < size,
            "cannot trim {need} pages from a {size}-page chunk"
        );
        let keep = size - need;
        let kept = aligned_pieces(offset, keep, (0..chunk.order).rev());
        for (off, order) in kept.clone() {
            self.chunks
                .insert_run(ChunkRun::single(off, order), Chunk { order, ..chunk });
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
        for (off, chunk) in self.chunks.iter() {
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
        self.chunks.iter().map(|(off, _)| off).collect()
    }

    /// The chunk starting at `offset`, if any.
    pub fn chunk_at(&self, offset: u32) -> Option<&Chunk> {
        self.chunks.get(offset)
    }

    /// Splits the chunk at `offset` into its two buddy halves, both still
    /// owned; returns their offsets. Only the reference model of the old
    /// split-by-halves shrink loop uses it.
    #[cfg(test)]
    pub(crate) fn split_chunk(&mut self, offset: u32) -> (u32, u32) {
        let chunk = self.chunks.remove(offset).expect("split of unknown chunk");
        assert!(chunk.order > 0, "cannot split an order-0 chunk");
        let half = Chunk {
            order: chunk.order - 1,
            ..chunk
        };
        let upper = offset + (1u32 << half.order);
        self.chunks
            .insert_run(ChunkRun::single(offset, half.order), half);
        self.chunks
            .insert_run(ChunkRun::single(upper, half.order), half);
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

    /// The runs [`MemoryBlock::alloc_chunks`] appends to an empty buffer.
    fn alloc(
        b: &mut MemoryBlock,
        pages: u64,
        owner: AllocationId,
        kind: PageKind,
    ) -> Vec<ChunkRun> {
        let mut out = Vec::new();
        b.alloc_chunks(pages, owner, kind, &mut out);
        out
    }

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
        alloc(&mut b, 16, AllocationId(1), PageKind::KernelUnmovable);
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
        alloc(&mut b, 100, AllocationId(2), PageKind::UserMovable);
        assert!(b.removable());
        assert!(!b.is_free());
        assert_eq!(b.movable_pages(), 100);
    }

    #[test]
    fn free_chunk_restores_accounting() {
        let mut b = block();
        let runs = alloc(&mut b, 64, AllocationId(3), PageKind::UserMovable);
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
        alloc(
            &mut b,
            1 << MAX_ORDER,
            AllocationId(1),
            PageKind::UserMovable,
        );
        let runs = alloc(
            &mut b,
            128 << MAX_ORDER | 6,
            AllocationId(2),
            PageKind::Pinned,
        );
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

    /// The extents of a block's max-order chunks, after checking that they
    /// are sorted, that none overlap and that no two touching ones hold
    /// the same chunk.
    fn extents(b: &MemoryBlock) -> Vec<Extent> {
        let top = match &b.chunks {
            ChunkBook::Sorted { top, .. } => top.clone(),
            ChunkBook::Tree(_) => Vec::new(),
        };
        for w in top.windows(2) {
            assert!(w[0].end() <= w[1].first, "unsorted extents {w:?}");
            assert!(
                w[0].end() < w[1].first || w[0].chunk != w[1].chunk,
                "unmerged extents {w:?}"
            );
        }
        top
    }

    /// The sorted-vector books (free lists below `MAX_ORDER`, the
    /// small-chunk book) and the max-order extents must make every
    /// placement, split, coalesce, free and trim the all-B-tree layout
    /// makes. Blocks of 1, 4 and 65 max-order chunks; most requests are
    /// small, so the small lists keep emptying and refilling, and some
    /// grow a live allocation. Coverage: trims, small free lists refilled
    /// after running empty, frees that coalesce back to a max-order chunk,
    /// grows whose max-order run merges with an extent of the same owner,
    /// frees that split an extent, and trims of a chunk inside an extent.
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
        let (mut trims, mut refills, mut coalesced) = (0u32, 0u32, 0u32);
        let (mut merges, mut split_frees, mut inner_trims) = (0u32, 0u32, 0u32);
        for chunks_per_block in [1u32, 4, 65] {
            let pages = chunks_per_block << MAX_ORDER;
            for seed in seeds.clone() {
                let mut rng = component_rng(seed, "sorted-books-reference");
                let mut fast = MemoryBlock::new(0, pages);
                let mut reference = MemoryBlock::all_btrees(0, pages);
                // Live allocations, each with its owner, kind and runs; a
                // grow's runs and a trimmed chunk's kept pieces join its
                // allocation's runs.
                let mut live: Vec<(AllocationId, PageKind, Vec<ChunkRun>)> = Vec::new();
                let mut was_listed = [false; MAX_ORDER as usize];
                let mut next_owner = 1u64;
                for step in 0..400 {
                    let ctx = format!("{chunks_per_block}-chunk block, seed {seed} step {step}");
                    let top_before = fast.free_offsets(MAX_ORDER).len();
                    let mut small_free = false;
                    match rng.gen_range(0u32..10) {
                        0..=3 => {
                            let grown = (!live.is_empty() && rng.gen_bool(0.4))
                                .then(|| rng.gen_range(0..live.len()));
                            // Half the grows ask for whole max-order chunks.
                            let want = if grown.is_some() && rng.gen_bool(0.5) {
                                rng.gen_range(1..5u64) << MAX_ORDER
                            } else if rng.gen_bool(0.8) {
                                rng.gen_range(1..200u64)
                            } else {
                                rng.gen_range(1..u64::from(pages) / 2 + 2)
                            };
                            let (owner, kind) = match grown {
                                Some(at) => (live[at].0, live[at].1),
                                None => {
                                    next_owner += 1;
                                    let kind = KINDS[rng.gen_range(0usize..KINDS.len())];
                                    (AllocationId(next_owner - 1), kind)
                                }
                            };
                            let before = extents(&fast).len();
                            let a = alloc(&mut fast, want, owner, kind);
                            let b = alloc(&mut reference, want, owner, kind);
                            assert_eq!(a, b, "{ctx}: placed runs");
                            let top_runs = a.iter().filter(|r| r.order == MAX_ORDER).count();
                            merges += u32::from(extents(&fast).len() < before + top_runs);
                            match grown {
                                Some(at) => live[at].2.extend(a),
                                None if !a.is_empty() => live.push((owner, kind, a)),
                                None => {}
                            }
                        }
                        4 | 5 if !live.is_empty() => {
                            let (_, _, runs) = live.swap_remove(rng.gen_range(0..live.len()));
                            small_free = runs.iter().any(|r| r.order < MAX_ORDER);
                            for run in runs {
                                let before = extents(&fast).len();
                                fast.free_run(run);
                                reference.free_run(run);
                                split_frees += u32::from(extents(&fast).len() > before);
                            }
                        }
                        6 if !live.is_empty() => {
                            let at = rng.gen_range(0..live.len());
                            let runs = &mut live[at].2;
                            let i = rng.gen_range(0..runs.len());
                            let run = runs[i];
                            small_free = run.order < MAX_ORDER;
                            let before = extents(&fast).len();
                            assert_eq!(
                                fast.free_chunk(run.offset),
                                reference.free_chunk(run.offset),
                                "{ctx}: freed chunk"
                            );
                            split_frees += u32::from(extents(&fast).len() > before);
                            match run.rest() {
                                Some(rest) => runs[i] = rest,
                                None => {
                                    runs.remove(i);
                                }
                            }
                            if runs.is_empty() {
                                live.swap_remove(at);
                            }
                        }
                        7..=9 if !live.is_empty() => {
                            let at = rng.gen_range(0..live.len());
                            let runs = &mut live[at].2;
                            let i = rng.gen_range(0..runs.len());
                            let Some(&run) = runs.get(i).filter(|r| r.order > 0) else {
                                continue;
                            };
                            if run.count > 1 {
                                runs[i].count -= 1;
                            } else {
                                runs.remove(i);
                            }
                            let last = run.chunk(run.count - 1);
                            let need = rng.gen_range(1..1u32 << run.order);
                            let before = extents(&fast).len();
                            let a: Vec<ChunkRun> = fast.trim_chunk(last, need).collect();
                            let b: Vec<ChunkRun> = reference.trim_chunk(last, need).collect();
                            assert_eq!(a, b, "{ctx}: kept pieces");
                            inner_trims += u32::from(extents(&fast).len() > before);
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
        assert!(merges > 0, "no grow merged with an extent of its owner");
        assert!(split_frees > 0, "no free split an extent");
        assert!(inner_trims > 0, "no trim took a chunk inside an extent");
    }

    #[test]
    fn pinned_counts_as_unmovable() {
        let mut b = block();
        alloc(&mut b, 8, AllocationId(4), PageKind::Pinned);
        assert!(!b.removable());
        assert_eq!(b.unmovable_pages(), 8);
        assert_eq!(b.movable_pages(), 0);
    }
}
