//! An OS physical-memory simulator: the substrate standing in for the Linux
//! kernel's page allocator and memory-hotplug machinery that GreenDIMM
//! drives through `offline_pages()` / `online_pages()` and sysfs.
//!
//! The model reproduces everything GreenDIMM can observe of the kernel:
//!
//! * a binary-buddy allocator per memory block ([`buddy`]),
//! * memory blocks with movable/unmovable/pinned pages and the sysfs
//!   `removable` flag ([`block`]),
//! * on/off-lining with the paper's measured EBUSY/EAGAIN failure semantics
//!   and Table 3 latencies ([`manager`], [`latency`]),
//! * `/proc/meminfo`-style accounting restricted to on-line memory.
//!
//! # Example
//!
//! ```
//! use gd_mmsim::{MemoryManager, MmConfig, PageKind};
//!
//! # fn main() -> gd_types::Result<()> {
//! let mut mm = MemoryManager::new(MmConfig::small_test())?;
//! let app = mm.allocate(10_000, PageKind::UserMovable)?;
//! // The last block is still entirely free, so off-lining it needs no
//! // page migration and costs the paper's 1.58 ms.
//! let report = mm.offline_block(mm.block_count() - 1)?.expect("free block");
//! assert_eq!(report.migrated_pages, 0);
//! mm.free(app)?;
//! # Ok(())
//! # }
//! ```

pub mod block;
pub mod buddy;
pub mod frame;
pub mod latency;
pub mod manager;

pub use block::{BlockInfo, MemoryBlock};
pub use buddy::{BuddyAllocator, ChunkRun, MAX_ORDER};
pub use frame::{
    AllocationId, OfflineErrno, OfflineError, OfflineFailure, OfflineReport, PageKind, PAGE_BYTES,
};
pub use latency::HotplugLatencies;
pub use manager::{HotplugStats, MemInfo, MemoryManager, MmConfig, PlacementWork};
