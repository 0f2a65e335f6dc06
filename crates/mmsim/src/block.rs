//! A hot-pluggable memory block: the kernel's unit of on/off-lining.

use crate::buddy::{BuddyAllocator, MAX_ORDER};
use crate::frame::{AllocationId, PageKind};
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

/// A contiguous, block-aligned range of physical memory that the kernel can
/// on/off-line as a unit (default 128 MB in Linux; GreenDIMM sizes it to one
/// or more sub-array groups).
#[derive(Debug, Clone)]
#[cfg_attr(test, derive(PartialEq, Eq))]
pub struct MemoryBlock {
    index: usize,
    pages: u32,
    online: bool,
    buddy: BuddyAllocator,
    /// Allocated chunks below `MAX_ORDER`, by offset.
    chunks: BTreeMap<u32, Chunk>,
    /// Allocated max-order chunks, indexed by `offset >> MAX_ORDER`; empty
    /// in the test reference built by [`Self::all_btrees`].
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
    /// Creates an online block of `pages` pages.
    pub fn new(index: usize, pages: u32) -> Self {
        MemoryBlock {
            index,
            pages,
            online: true,
            buddy: BuddyAllocator::new(pages),
            chunks: BTreeMap::new(),
            top_chunks: vec![None; (pages >> MAX_ORDER) as usize],
            movable_pages: 0,
            unmovable_pages: 0,
            pinned_pages: 0,
        }
    }

    /// A block that keeps every allocated chunk in the ordered map and
    /// every free chunk in ordered sets: the all-B-tree layout the slot
    /// table and the free bitmap replaced, kept as the tests' reference.
    #[cfg(test)]
    pub(crate) fn all_btrees(index: usize, pages: u32) -> Self {
        MemoryBlock {
            buddy: BuddyAllocator::all_sets(pages),
            top_chunks: Vec::new(),
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

    /// Whether the block is online.
    pub fn online(&self) -> bool {
        self.online
    }

    /// Sets the online state (the manager enforces the transition rules).
    pub(crate) fn set_online(&mut self, online: bool) {
        self.online = online;
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

    /// Largest buddy order currently allocatable in this block.
    pub fn max_free_order(&self) -> Option<u8> {
        self.buddy.max_free_order()
    }

    /// Snapshot for the sysfs-style API.
    pub fn info(&self) -> BlockInfo {
        BlockInfo {
            index: self.index,
            online: self.online,
            removable: self.removable(),
            used_pages: self.used_pages(),
            free_pages: self.free_pages(),
            total_pages: self.total_pages(),
        }
    }

    /// Allocates up to `pages` pages for `owner`; returns `(offset, order)`
    /// chunks actually placed (possibly fewer pages than requested).
    pub fn alloc_chunks(
        &mut self,
        pages: u64,
        owner: AllocationId,
        kind: PageKind,
    ) -> Vec<(u32, u8)> {
        debug_assert!(self.online);
        let chunks = self.buddy.alloc_pages(pages);
        for &(off, order) in &chunks {
            self.put_chunk(off, Chunk { owner, kind, order });
            *self.kind_pages_mut(kind) += 1u64 << order;
        }
        chunks
    }

    /// Records `chunk` as allocated at `offset`: in the slot table when it
    /// is max-order and the table has its slot, in the ordered map
    /// otherwise.
    fn put_chunk(&mut self, offset: u32, chunk: Chunk) {
        let slot = self
            .top_slot(offset)
            .filter(|_| chunk.order == MAX_ORDER)
            .and_then(|slot| self.top_chunks.get_mut(slot));
        match slot {
            Some(slot) => *slot = Some(chunk),
            None => {
                self.chunks.insert(offset, chunk);
            }
        }
    }

    /// Removes and returns the chunk starting at `offset`, if any.
    fn take_chunk(&mut self, offset: u32) -> Option<Chunk> {
        self.top_slot(offset)
            .and_then(|slot| self.top_chunks.get_mut(slot)?.take())
            .or_else(|| self.chunks.remove(&offset))
    }

    /// The slot-table index of a max-order chunk at `offset`; `None` when
    /// `offset` is not max-order aligned.
    fn top_slot(&self, offset: u32) -> Option<usize> {
        offset
            .is_multiple_of(1 << MAX_ORDER)
            .then_some((offset >> MAX_ORDER) as usize)
    }

    /// Every allocated chunk with its offset, ascending: the slot table
    /// and the ordered map merged.
    fn chunks(&self) -> impl Iterator<Item = (u32, &Chunk)> {
        let mut top = self
            .top_chunks
            .iter()
            .enumerate()
            .filter_map(|(slot, c)| Some(((slot as u32) << MAX_ORDER, c.as_ref()?)))
            .peekable();
        let mut small = self.chunks.iter().map(|(&off, c)| (off, c)).peekable();
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

    /// Frees the top `need` pages of the chunk at `offset` in one step; the
    /// rest stays allocated to the same owner. The kept lower part
    /// `[offset, offset + keep)` becomes its aligned binary decomposition,
    /// largest piece first; the freed upper part goes back to the buddy
    /// allocator smallest piece first, starting at `offset + keep`. Returns
    /// the offsets of the kept pieces in ascending order. Kept pieces are
    /// all below the chunk's order, so they go to the ordered map.
    ///
    /// The result is the state that repeatedly splitting the chunk into
    /// buddy halves and freeing the upper halves would leave behind.
    ///
    /// # Panics
    ///
    /// Panics if no chunk starts at `offset` or `need` is not in
    /// `1..2^order`.
    pub fn trim_chunk(&mut self, offset: u32, need: u32) -> impl Iterator<Item = u32> {
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
        kept.map(|(off, _)| off)
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
            .or_else(|| self.chunks.get(&offset))
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
        assert!(b.online());
        assert_eq!(b.free_pages(), 4096);
    }

    #[test]
    fn unmovable_chunk_clears_removable() {
        let mut b = block();
        b.alloc_chunks(16, AllocationId(1), PageKind::KernelUnmovable);
        assert!(!b.removable());
        assert_eq!(b.unmovable_pages(), 16);
        let info = b.info();
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
        let chunks = b.alloc_chunks(64, AllocationId(3), PageKind::UserMovable);
        for (off, _) in chunks {
            let c = b.free_chunk(off);
            assert_eq!(c.owner, AllocationId(3));
        }
        assert!(b.is_free());
        assert_eq!(b.free_pages(), 4096);
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
