//! A binary-buddy allocator over the pages of one memory block.
//!
//! This mirrors the Linux page allocator's per-zone buddy structure at the
//! granularity GreenDIMM interacts with: chunks of `2^order` pages,
//! split/coalesce on alloc/free, first-fit by order.

use std::collections::BTreeSet;

/// Maximum buddy order (2^10 pages = 4 MB with 4 KB pages), matching Linux's
/// `MAX_ORDER - 1`.
pub const MAX_ORDER: u8 = 10;

/// A buddy allocator managing `total_pages` pages (offsets are block-local).
#[derive(Debug, Clone)]
#[cfg_attr(test, derive(PartialEq, Eq))]
pub struct BuddyAllocator {
    total_pages: u32,
    /// Free chunk offsets per order.
    free_lists: Vec<BTreeSet<u32>>,
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
        let mut free_lists = vec![BTreeSet::new(); MAX_ORDER as usize + 1];
        let mut off = 0;
        while off < total_pages {
            free_lists[MAX_ORDER as usize].insert(off);
            off += max_chunk;
        }
        BuddyAllocator {
            total_pages,
            free_lists,
            free_pages: total_pages,
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

    /// Allocates a chunk of `2^order` pages; returns its offset.
    pub fn alloc(&mut self, order: u8) -> Option<u32> {
        if order > MAX_ORDER {
            return None;
        }
        // Find the smallest order with a free chunk.
        let mut o = order;
        while (o as usize) < self.free_lists.len() && self.free_lists[o as usize].is_empty() {
            o += 1;
        }
        if o > MAX_ORDER {
            return None;
        }
        let offset = *self.free_lists[o as usize].iter().next()?;
        self.free_lists[o as usize].remove(&offset);
        // Split down to the requested order, returning buddies to the lists.
        while o > order {
            o -= 1;
            let buddy = offset + (1u32 << o);
            self.free_lists[o as usize].insert(buddy);
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
        while o < MAX_ORDER {
            let buddy = offset ^ (1u32 << o);
            if self.free_lists[o as usize].remove(&buddy) {
                offset = offset.min(buddy);
                o += 1;
            } else {
                break;
            }
        }
        let inserted = self.free_lists[o as usize].insert(offset);
        debug_assert!(inserted, "double free at offset {offset} order {o}");
        self.free_pages += 1u32 << order;
    }

    /// The largest order that can currently be allocated.
    pub fn max_free_order(&self) -> Option<u8> {
        (0..=MAX_ORDER)
            .rev()
            .find(|o| !self.free_lists[*o as usize].is_empty())
    }

    /// Verifies the allocator's internal structure: every free chunk is
    /// aligned to its order, lies in range, overlaps no other free chunk,
    /// and the free lists sum to the free-page counter.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem found.
    pub fn audit(&self) -> std::result::Result<(), String> {
        let mut covered: Vec<(u32, u32)> = Vec::new();
        let mut listed = 0u64;
        for (o, list) in self.free_lists.iter().enumerate() {
            let len = 1u32 << o;
            for &off in list {
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

    /// Allocates up to `pages` pages as a list of `(offset, order)` chunks,
    /// preferring large chunks. Returns the chunks actually obtained (which
    /// cover exactly `pages` pages on success, fewer if space ran out — the
    /// caller must free partial results if it needs all-or-nothing).
    pub fn alloc_pages(&mut self, pages: u64) -> Vec<(u32, u8)> {
        let mut remaining = pages.min(self.free_pages as u64);
        let mut out = Vec::new();
        while remaining > 0 {
            let want = remaining.min(1 << MAX_ORDER);
            // Largest power of two not exceeding `want`.
            let mut order = 63 - want.leading_zeros() as u8;
            order = order.min(MAX_ORDER);
            // Degrade to whatever is available.
            let got = loop {
                if let Some(off) = self.alloc(order) {
                    break Some((off, order));
                }
                if order == 0 {
                    break None;
                }
                order -= 1;
            };
            match got {
                Some((off, order)) => {
                    out.push((off, order));
                    remaining = remaining.saturating_sub(1 << order);
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
        let total: u64 = chunks.iter().map(|(_, o)| 1u64 << o).sum();
        // Greedy binary decomposition: 1000 = 512+256+128+64+32+8.
        assert_eq!(total, 1000);
        assert_eq!(chunks.len(), 6);
    }

    #[test]
    fn alloc_pages_exact_power_of_two() {
        let mut b = BuddyAllocator::new(4096);
        let chunks = b.alloc_pages(1024);
        let total: u64 = chunks.iter().map(|(_, o)| 1u64 << o).sum();
        assert_eq!(total, 1024);
        assert_eq!(chunks.len(), 1);
    }

    #[test]
    fn exhaustion_returns_partial() {
        let mut b = BuddyAllocator::new(1024);
        let chunks = b.alloc_pages(5000);
        let total: u64 = chunks.iter().map(|(_, o)| 1u64 << o).sum();
        assert_eq!(total, 1024);
        assert_eq!(b.free_pages(), 0);
        assert!(b.alloc(0).is_none());
    }

    #[test]
    #[should_panic(expected = "multiple of the max buddy chunk")]
    fn misaligned_size_rejected() {
        BuddyAllocator::new(1000);
    }
}
