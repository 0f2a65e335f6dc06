//! The mapping between OS memory blocks and DRAM sub-array groups.
//!
//! Because the sub-array index occupies the most significant physical
//! address bits under interleaving (see `gd_dram::addrmap`), memory block
//! `b` of size `block_bytes` covers a contiguous slice of the sub-array
//! group space. The paper sizes blocks to one, two, or four groups (§5.1);
//! Linux's default 128 MB block can also be *smaller* than one group, in
//! which case a group powers down only when every block inside it is
//! off-line.

use gd_types::ids::SubArrayGroup;
use gd_types::{GdError, Result};
use std::ops::Range;

/// Block ↔ sub-array-group geometry for a managed capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupMap {
    groups: u32,
    group_bytes: u64,
    block_bytes: u64,
    n_blocks: usize,
}

impl GroupMap {
    /// Builds a map for `managed_bytes` of capacity split into `groups`
    /// sub-array groups and blocks of `block_bytes`.
    ///
    /// # Errors
    ///
    /// Returns [`GdError::InvalidConfig`] unless the managed capacity is an
    /// exact multiple of both sizes and one size divides the other.
    pub fn new(managed_bytes: u64, groups: u32, block_bytes: u64) -> Result<Self> {
        if groups == 0 || block_bytes == 0 || managed_bytes == 0 {
            return Err(GdError::InvalidConfig("zero-sized group map".into()));
        }
        if !managed_bytes.is_multiple_of(groups as u64) {
            return Err(GdError::InvalidConfig(format!(
                "managed capacity {managed_bytes} not divisible into {groups} groups"
            )));
        }
        let group_bytes = managed_bytes / groups as u64;
        if !managed_bytes.is_multiple_of(block_bytes) {
            return Err(GdError::InvalidConfig(format!(
                "managed capacity {managed_bytes} not divisible into {block_bytes}-byte blocks"
            )));
        }
        if !group_bytes.is_multiple_of(block_bytes) && !block_bytes.is_multiple_of(group_bytes) {
            return Err(GdError::InvalidConfig(format!(
                "block size {block_bytes} incommensurate with group size {group_bytes}"
            )));
        }
        Ok(GroupMap {
            groups,
            group_bytes,
            block_bytes,
            n_blocks: (managed_bytes / block_bytes) as usize,
        })
    }

    /// Number of sub-array groups.
    pub fn groups(&self) -> u32 {
        self.groups
    }

    /// Bytes per group.
    pub fn group_bytes(&self) -> u64 {
        self.group_bytes
    }

    /// Number of memory blocks.
    pub fn blocks(&self) -> usize {
        self.n_blocks
    }

    /// Sub-array groups covered by one memory block (≥ 1 when blocks are at
    /// least group-sized, e.g. the paper's 256/512 MB settings).
    pub fn groups_per_block(&self) -> u32 {
        (self.block_bytes / self.group_bytes).max(1) as u32
    }

    /// Memory blocks inside one group (≥ 1 when groups are at least
    /// block-sized).
    pub fn blocks_per_group(&self) -> u32 {
        (self.group_bytes / self.block_bytes).max(1) as u32
    }

    /// The groups whose address range intersects block `b`, ascending.
    pub fn groups_of_block(
        &self,
        block: usize,
    ) -> Result<impl Iterator<Item = SubArrayGroup> + Clone> {
        if block >= self.n_blocks {
            return Err(GdError::NotFound(format!("block {block}")));
        }
        let start = block as u64 * self.block_bytes;
        let end = start + self.block_bytes;
        let g0 = (start / self.group_bytes) as u32;
        let g1 = ((end - 1) / self.group_bytes) as u32;
        Ok((g0..=g1).map(SubArrayGroup::new))
    }

    /// The blocks inside group `g`.
    pub fn blocks_of_group(&self, group: SubArrayGroup) -> Result<Range<usize>> {
        if group.0 >= self.groups {
            return Err(GdError::NotFound(group.to_string()));
        }
        let start = group.0 as u64 * self.group_bytes;
        let end = start + self.group_bytes;
        let b0 = (start / self.block_bytes) as usize;
        let b1 = ((end - 1) / self.block_bytes) as usize;
        Ok(b0..b1 + 1)
    }

    /// Whether every block of `group` is off-line by `block_offline`, so
    /// the group may enter deep power-down (false for an out-of-range
    /// group).
    pub fn group_fully_offline(
        &self,
        group: SubArrayGroup,
        block_offline: impl Fn(usize) -> bool,
    ) -> bool {
        self.blocks_of_group(group)
            .is_ok_and(|mut blocks| blocks.all(block_offline))
    }

    /// Given per-block off-line flags, which groups are *fully* off-line
    /// (every block of the group is off-line) and therefore eligible for
    /// deep power-down.
    ///
    /// # Panics
    ///
    /// Panics if `block_offline.len()` differs from [`blocks`](Self::blocks).
    pub fn fully_offline_groups(&self, block_offline: &[bool]) -> Vec<bool> {
        assert_eq!(block_offline.len(), self.n_blocks, "flag vector size");
        (0..self.groups)
            .map(|g| self.group_fully_offline(SubArrayGroup::new(g), |b| block_offline[b]))
            .collect()
    }

    /// The sense-amp buddy of a group: two consecutive sub-arrays share a
    /// sense amplifier, so deep power-down of group `g` additionally
    /// requires `buddy(g)` to be off-lined (§6.1).
    pub fn sense_amp_buddy(&self, group: SubArrayGroup) -> SubArrayGroup {
        SubArrayGroup::new(group.0 ^ 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_block_per_group() {
        // The paper's 8 GB managed region with 128 MB blocks: 64 groups.
        let m = GroupMap::new(8 << 30, 64, 128 << 20).unwrap();
        assert_eq!(m.blocks(), 64);
        assert_eq!(m.groups_per_block(), 1);
        assert_eq!(m.blocks_per_group(), 1);
        assert!(m.groups_of_block(5).unwrap().eq([SubArrayGroup::new(5)]));
    }

    #[test]
    fn block_spans_multiple_groups() {
        // 512 MB blocks = 4 sub-array groups each.
        let m = GroupMap::new(8 << 30, 64, 512 << 20).unwrap();
        assert_eq!(m.blocks(), 16);
        assert_eq!(m.groups_per_block(), 4);
        let gs = m.groups_of_block(1).unwrap();
        assert!(gs.eq((4..8).map(SubArrayGroup::new)));
    }

    #[test]
    fn group_spans_multiple_blocks() {
        // 256 GB with 1 GB blocks and 4 GB groups: 4 blocks per group.
        let m = GroupMap::new(256 << 30, 64, 1 << 30).unwrap();
        assert_eq!(m.blocks(), 256);
        assert_eq!(m.blocks_per_group(), 4);
        assert_eq!(m.blocks_of_group(SubArrayGroup::new(1)).unwrap(), 4..8);
    }

    #[test]
    fn fully_offline_requires_all_blocks() {
        let m = GroupMap::new(256 << 30, 64, 1 << 30).unwrap();
        let mut flags = vec![false; 256];
        flags[4] = true;
        flags[5] = true;
        flags[6] = true;
        assert!(!m.fully_offline_groups(&flags)[1]);
        flags[7] = true;
        assert!(m.fully_offline_groups(&flags)[1]);
        assert!(!m.fully_offline_groups(&flags)[0]);
    }

    #[test]
    fn buddy_pairs() {
        let m = GroupMap::new(8 << 30, 64, 128 << 20).unwrap();
        assert_eq!(m.sense_amp_buddy(SubArrayGroup::new(0)).0, 1);
        assert_eq!(m.sense_amp_buddy(SubArrayGroup::new(1)).0, 0);
        assert_eq!(m.sense_amp_buddy(SubArrayGroup::new(62)).0, 63);
    }

    #[test]
    fn incommensurate_sizes_rejected() {
        assert!(GroupMap::new(8 << 30, 64, 192 << 20).is_err());
        assert!(GroupMap::new(8 << 30, 0, 128 << 20).is_err());
    }
}
