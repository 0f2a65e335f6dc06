//! The mapping between OS memory blocks and DRAM sub-array groups.
//!
//! Because the sub-array index occupies the most significant physical
//! address bits under interleaving (see `gd_dram::addrmap`), memory block
//! `b` of size `block_bytes` covers a contiguous slice of the sub-array
//! group space. The paper sizes blocks to one, two, or four groups (§5.1);
//! Linux's default 128 MB block can also be *smaller* than one group, in
//! which case a group powers down only when every block inside it is
//! off-line.

use gd_types::bits;
use gd_types::ids::SubArrayGroup;
use gd_types::{GdError, Result};
use std::ops::Range;

/// The low `2^b` bits of every `2^f`-bit field of a word (`b <= f <= 6`).
const fn lows(f: usize, b: usize) -> u64 {
    let field = if b == 6 {
        u64::MAX
    } else {
        (1 << (1 << b)) - 1
    };
    let mut x = 0;
    let mut at = 0;
    while at < 64 {
        x |= field << at;
        at += 1 << f;
    }
    x
}

/// The steps that move bit `i * 2^p` of a word to bit `i`, for each `p`:
/// a first mask, then `6 - p` `(shift, mask)` steps (the rest of the
/// array unused), each merging pairs of fields, narrowest first.
const GATHER: [(u64, [(u32, u64); 6]); 7] = {
    let mut table = [(0, [(0, 0); 6]); 7];
    let mut p = 0;
    while p <= 6 {
        table[p].0 = lows(p, 0);
        let mut j = 0;
        while j < 6 - p {
            // Fields of 2^(p + j) bits holding 2^j low bits merge in pairs.
            let shift = (1 << (p + j)) - (1 << j);
            table[p].1[j] = (shift, lows(p + j + 1, j + 1));
            j += 1;
        }
        p += 1;
    }
    table
};

/// Moves bit `i * 2^p` of `x` to bit `i`, for every `i < 64 / 2^p`, and
/// clears the rest.
fn gather(x: u64, p: usize) -> u64 {
    let (first, steps) = GATHER[p];
    steps
        .iter()
        .take(6 - p)
        .fold(x & first, |x, &(shift, mask)| (x | x >> shift) & mask)
}

/// Swaps every even bit of `x` with the odd bit above it: the word of the
/// sense-amp buddies of the groups in `x`.
pub fn swap_adjacent_pairs(x: u64) -> u64 {
    const EVEN: u64 = 0x5555_5555_5555_5555;
    (x & EVEN) << 1 | (x >> 1) & EVEN
}

/// Block ↔ sub-array-group geometry for a managed capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupMap {
    groups: u32,
    group_bytes: u64,
    n_blocks: usize,
    /// Blocks inside one group (1 when a block spans groups).
    blocks_per_group: u32,
    /// Groups inside one block (1 when a group spans blocks). One of the
    /// two is 1, so a range start is a multiply or a small divide.
    groups_per_block: u32,
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
        let n_blocks = managed_bytes / block_bytes;
        if n_blocks > u64::from(u32::MAX) {
            return Err(GdError::InvalidConfig(format!(
                "{n_blocks} blocks exceed the 32-bit block index"
            )));
        }
        Ok(GroupMap {
            groups,
            group_bytes,
            n_blocks: n_blocks as usize,
            blocks_per_group: (group_bytes / block_bytes).max(1) as u32,
            groups_per_block: (block_bytes / group_bytes).max(1) as u32,
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
        self.groups_per_block
    }

    /// Memory blocks inside one group (≥ 1 when groups are at least
    /// block-sized).
    pub fn blocks_per_group(&self) -> u32 {
        self.blocks_per_group
    }

    /// The groups whose address range intersects block `b`, ascending.
    pub fn groups_of_block(
        &self,
        block: usize,
    ) -> Result<impl Iterator<Item = SubArrayGroup> + Clone> {
        if block >= self.n_blocks {
            return Err(GdError::NotFound(format!("block {block}")));
        }
        let g0 = block as u32 * self.groups_per_block / self.blocks_per_group;
        Ok((g0..g0 + self.groups_per_block).map(SubArrayGroup::new))
    }

    /// The blocks inside group `g`.
    pub fn blocks_of_group(&self, group: SubArrayGroup) -> Result<Range<usize>> {
        if group.0 >= self.groups {
            return Err(GdError::NotFound(group.to_string()));
        }
        let b0 = (group.0 * self.blocks_per_group / self.groups_per_block) as usize;
        Ok(b0..b0 + self.blocks_per_group as usize)
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

    /// Word `gw` of the fully-off-line groups: bit `g % 64` is set when
    /// every block of group `g = 64 * gw + g % 64` is off-line in
    /// `online`, the on-line blocks as words (bit `b % 64` of word `b / 64`
    /// for block `b`; blocks past its end count as on-line). The bits past
    /// the last group are clear. It equals
    /// [`group_fully_offline`](Self::group_fully_offline) bit for bit
    /// without walking a group's blocks:
    ///
    /// * `2^p` blocks per group (`p` ≤ 6): each off-line word's `2^p`-bit
    ///   fields are AND-ed down to their lowest bit by `p` shifts, then
    ///   [`gather`]ed into `64 / 2^p` group bits;
    /// * any other geometry (12 blocks per group, whose groups straddle
    ///   word edges; several groups per block): each group tests its
    ///   block range against the on-line words a word at a time.
    pub fn fully_offline_word(&self, gw: usize, online: &[u64]) -> u64 {
        let g0 = gw * 64;
        let in_word = (self.groups as usize).saturating_sub(g0).min(64);
        if in_word == 0 {
            return 0;
        }
        let valid = u64::MAX >> (64 - in_word);
        let offline = |w: usize| online.get(w).map_or(0, |word| !word);
        let (k, m) = (
            self.blocks_per_group as usize,
            self.groups_per_block as usize,
        );
        let word = if m == 1 && k.is_power_of_two() && k <= 64 {
            let p = k.trailing_zeros() as usize;
            let per_word = 64 / k;
            (0..k).fold(0, |acc, j| {
                let mut x = offline(gw * k + j);
                for s in 0..p {
                    x &= x >> (1 << s);
                }
                acc | gather(x, p) << (j * per_word)
            })
        } else {
            (0..in_word).fold(0, |acc, i| {
                let b0 = (g0 + i) * k / m;
                acc | u64::from(!bits::any_in(online, b0..b0 + k)) << i
            })
        };
        word & valid
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

    /// The precomputed ranges are the ones the byte-address division
    /// formula gives, with blocks smaller than, equal to and larger than
    /// groups.
    #[test]
    fn ranges_match_the_division_formula() {
        for (managed, groups, block) in [
            (256u64 << 30, 64u32, 1u64 << 30),
            (8 << 30, 64, 32 << 20),
            (8 << 30, 64, 128 << 20),
            (8 << 30, 64, 512 << 20),
            (8 << 30, 8, 8 << 30),
            (6 << 30, 48, 1 << 30),
        ] {
            let m = GroupMap::new(managed, groups, block).unwrap();
            let group = managed / u64::from(groups);
            let span = |start: u64, len: u64, unit: u64| start / unit..=(start + len - 1) / unit;
            for b in 0..m.blocks() {
                let want = span(b as u64 * block, block, group);
                let got: Vec<u64> = m.groups_of_block(b).unwrap().map(|g| g.0.into()).collect();
                assert_eq!(got, want.collect::<Vec<_>>(), "{block}-byte block {b}");
            }
            for g in 0..groups {
                let want = span(u64::from(g) * group, group, block);
                let got = m.blocks_of_group(SubArrayGroup::new(g)).unwrap();
                assert_eq!(
                    (*want.start() as usize, *want.end() as usize + 1),
                    (got.start, got.end),
                    "{block}-byte blocks, group {g}"
                );
            }
            assert!(m.groups_of_block(m.blocks()).is_err());
            assert!(m.blocks_of_group(SubArrayGroup::new(groups)).is_err());
        }
    }

    /// The word fold equals the per-group block walk for every geometry
    /// the figures use (1, 4, 8, 12 and 16 blocks per group; 1, 2 and 4
    /// groups per block) and for odd ones: a block of 64 groups, groups of
    /// 2 and 128 blocks, 48 groups of 3 blocks or spanning 3 per block, and
    /// a map covering only a prefix of the blocks.
    #[test]
    fn fully_offline_words_match_the_block_walk() {
        use gd_types::rng::component_rng;
        let mut rng = component_rng(9, "groupmap-fold");
        for (groups, blocks_per_group, groups_per_block, extra_blocks) in [
            (64u32, 1usize, 1usize, 0usize),
            (64, 4, 1, 0),
            (64, 8, 1, 0),
            (64, 12, 1, 0),
            (64, 16, 1, 0),
            (64, 2, 1, 0),
            (64, 128, 1, 0),
            (64, 1, 2, 0),
            (64, 1, 4, 0),
            (64, 1, 64, 0),
            (48, 3, 1, 0),
            (48, 1, 3, 0),
            (16, 1, 1, 48),
            (130, 1, 1, 0),
            (130, 12, 1, 5),
        ] {
            let block = (groups_per_block as u64) << 20;
            let blocks = groups as usize * blocks_per_group / groups_per_block;
            let managed = blocks as u64 * block;
            let m = GroupMap::new(managed, groups, block).unwrap();
            assert_eq!(
                (m.blocks_per_group() as usize, m.groups_per_block() as usize),
                (blocks_per_group, groups_per_block)
            );
            let n = blocks + extra_blocks;
            for trial in 0..40 {
                // Mostly off-line, so that whole groups are.
                let p_online = [0.0, 0.02, 0.1, 0.5][trial % 4];
                let offline: Vec<bool> = (0..n).map(|_| !rng.gen_bool(p_online)).collect();
                let mut online = vec![0u64; bits::words_for(n)];
                for (b, &off) in offline.iter().enumerate() {
                    bits::assign(&mut online, b, !off);
                }
                let want = m.fully_offline_groups(&offline[..blocks]);
                for gw in 0..bits::words_for(groups as usize) + 1 {
                    let word = m.fully_offline_word(gw, &online);
                    for i in 0..64 {
                        let g = gw * 64 + i;
                        assert_eq!(
                            word >> i & 1 == 1,
                            want.get(g).copied().unwrap_or(false),
                            "{groups} groups, {blocks_per_group}/{groups_per_block}: group {g}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gather_packs_every_strided_bit() {
        for p in 0..=6 {
            let k = 1usize << p;
            for x in [0x9E37_79B9_7F4A_7C15u64, u64::MAX, 1, 1 << 63] {
                let want = (0..64 / k).fold(0, |acc, i| acc | (x >> (i * k) & 1) << i);
                assert_eq!(gather(x, p), want, "stride {k}, {x:#x}");
            }
        }
        assert_eq!(swap_adjacent_pairs(0b0110_0001), 0b1001_0010);
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
        // 2^33 blocks of 4 KiB overflow the 32-bit block index.
        assert!(GroupMap::new(1 << 45, 64, 4 << 10).is_err());
    }
}
