//! Physical-address ↔ DRAM-coordinate mapping.
//!
//! The mapper implements the two layouts evaluated in the paper:
//!
//! * [`InterleaveMode::Interleaved`] — commodity channel/rank/bank
//!   interleaving. From LSB to MSB the physical address is laid out as
//!   `[cache-line offset][channel][bank group][bank][column][rank][row]`,
//!   where the row bits are themselves `[local row][sub-array]` with the
//!   sub-array index on top. Because the sub-array bits are the **most
//!   significant bits of the whole address**, each sub-array group owns one
//!   contiguous `1/subarray_groups` slice of the physical address space even
//!   though consecutive cache lines are spread over every channel, rank, and
//!   bank — the key property GreenDIMM exploits (paper §4.1, Fig. 5).
//! * [`InterleaveMode::Linear`] — no interleaving: the address fills an
//!   entire rank (column, then row, then bank) before moving to the next
//!   rank, then the next channel. Small footprints touch a single rank,
//!   which is what lets rank-granularity power management work *without*
//!   interleaving (paper §3.3).

use gd_types::config::{DramConfig, DramOrg, InterleaveMode};
use gd_types::ids::{Bank, BankGroup, Channel, DramCoord, Rank, Row, SubArray, SubArrayGroup};
use gd_types::{GdError, Result};

/// Bytes per cache line (the interleaving granularity).
pub const CACHE_LINE_BYTES: u64 = 64;

/// Number of low address bits covered by the cache-line offset.
pub const CACHE_LINE_BITS: u32 = 6;

/// A physical-address ↔ [`DramCoord`] mapper for a fixed configuration.
#[derive(Debug, Clone)]
pub struct AddressMapper {
    org: DramOrg,
    mode: InterleaveMode,
    capacity: u64,
    ch_bits: u32,
    rank_bits: u32,
    bg_bits: u32,
    bank_bits: u32,
    col_bits: u32,
    sa_bits: u32,
    local_row_bits: u32,
}

fn log2_exact(v: u32, name: &str) -> Result<u32> {
    if v.is_power_of_two() {
        Ok(v.trailing_zeros())
    } else {
        Err(GdError::InvalidConfig(format!(
            "{name} = {v} is not a power of two"
        )))
    }
}

impl AddressMapper {
    /// Builds a mapper from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`GdError::InvalidConfig`] if the organization is invalid or
    /// a rank row is smaller than a cache line.
    pub fn new(cfg: &DramConfig) -> Result<Self> {
        cfg.org.validate()?;
        let org = cfg.org;
        // Column bits at cache-line granularity: a 64-byte line spans
        // (64 * 8 / device_width) device columns across the rank.
        let lines_per_row = org.rank_row_bytes() / CACHE_LINE_BYTES;
        if lines_per_row == 0 {
            return Err(GdError::InvalidConfig(
                "rank row smaller than a cache line".into(),
            ));
        }
        Ok(AddressMapper {
            org,
            mode: cfg.interleave,
            capacity: org.total_bytes(),
            ch_bits: log2_exact(org.channels, "channels")?,
            rank_bits: log2_exact(org.ranks_per_channel, "ranks_per_channel")?,
            bg_bits: log2_exact(org.bank_groups, "bank_groups")?,
            bank_bits: log2_exact(org.banks_per_group, "banks_per_group")?,
            col_bits: log2_exact(lines_per_row as u32, "cache lines per row")?,
            sa_bits: log2_exact(org.subarrays_per_bank, "subarrays_per_bank")?,
            local_row_bits: log2_exact(org.rows_per_subarray, "rows_per_subarray")?,
        })
    }

    /// The configured interleave mode.
    pub fn mode(&self) -> InterleaveMode {
        self.mode
    }

    /// Total mappable capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity
    }

    /// Decodes a physical address into DRAM coordinates.
    ///
    /// # Errors
    ///
    /// Returns [`GdError::AddressOutOfRange`] if `addr` exceeds capacity.
    pub fn decode(&self, addr: u64) -> Result<DramCoord> {
        if addr >= self.capacity {
            return Err(GdError::AddressOutOfRange {
                addr,
                capacity: self.capacity,
            });
        }
        let mut a = addr >> CACHE_LINE_BITS;
        let mut take = |bits: u32| -> u32 {
            let v = (a & ((1u64 << bits) - 1)) as u32;
            a >>= bits;
            v
        };
        let coord = match self.mode {
            InterleaveMode::Interleaved => {
                let channel = take(self.ch_bits);
                let bank_group = take(self.bg_bits);
                let bank = take(self.bank_bits);
                let column = take(self.col_bits);
                let rank = take(self.rank_bits);
                let local_row = take(self.local_row_bits);
                let subarray = take(self.sa_bits);
                DramCoord {
                    channel: Channel::new(channel),
                    rank: Rank::new(rank),
                    bank_group: BankGroup::new(bank_group),
                    bank: Bank::new(bank),
                    subarray: SubArray::new(subarray),
                    row: Row::new(local_row),
                    column,
                }
            }
            InterleaveMode::Linear => {
                let column = take(self.col_bits);
                let local_row = take(self.local_row_bits);
                let subarray = take(self.sa_bits);
                let bank = take(self.bank_bits);
                let bank_group = take(self.bg_bits);
                let rank = take(self.rank_bits);
                let channel = take(self.ch_bits);
                DramCoord {
                    channel: Channel::new(channel),
                    rank: Rank::new(rank),
                    bank_group: BankGroup::new(bank_group),
                    bank: Bank::new(bank),
                    subarray: SubArray::new(subarray),
                    row: Row::new(local_row),
                    column,
                }
            }
        };
        debug_assert_eq!(a, 0, "all address bits must be consumed");
        Ok(coord)
    }

    /// Encodes DRAM coordinates back into a physical address (the inverse of
    /// [`decode`](Self::decode)).
    ///
    /// # Errors
    ///
    /// Returns [`GdError::InvalidConfig`] if any coordinate exceeds its
    /// configured dimension.
    pub fn encode(&self, coord: &DramCoord) -> Result<u64> {
        let checks = [
            ("channel", coord.channel.0, self.org.channels),
            ("rank", coord.rank.0, self.org.ranks_per_channel),
            ("bank_group", coord.bank_group.0, self.org.bank_groups),
            ("bank", coord.bank.0, self.org.banks_per_group),
            ("subarray", coord.subarray.0, self.org.subarrays_per_bank),
            ("row", coord.row.0, self.org.rows_per_subarray),
            ("column", coord.column, 1 << self.col_bits),
        ];
        for (name, v, dim) in checks {
            if v >= dim {
                return Err(GdError::InvalidConfig(format!(
                    "{name} index {v} exceeds dimension {dim}"
                )));
            }
        }
        let mut a: u64 = 0;
        let mut shift: u32 = 0;
        let put = |v: u32, bits: u32, a: &mut u64, shift: &mut u32| {
            *a |= (v as u64) << *shift;
            *shift += bits;
        };
        match self.mode {
            InterleaveMode::Interleaved => {
                put(coord.channel.0, self.ch_bits, &mut a, &mut shift);
                put(coord.bank_group.0, self.bg_bits, &mut a, &mut shift);
                put(coord.bank.0, self.bank_bits, &mut a, &mut shift);
                put(coord.column, self.col_bits, &mut a, &mut shift);
                put(coord.rank.0, self.rank_bits, &mut a, &mut shift);
                put(coord.row.0, self.local_row_bits, &mut a, &mut shift);
                put(coord.subarray.0, self.sa_bits, &mut a, &mut shift);
            }
            InterleaveMode::Linear => {
                put(coord.column, self.col_bits, &mut a, &mut shift);
                put(coord.row.0, self.local_row_bits, &mut a, &mut shift);
                put(coord.subarray.0, self.sa_bits, &mut a, &mut shift);
                put(coord.bank.0, self.bank_bits, &mut a, &mut shift);
                put(coord.bank_group.0, self.bg_bits, &mut a, &mut shift);
                put(coord.rank.0, self.rank_bits, &mut a, &mut shift);
                put(coord.channel.0, self.ch_bits, &mut a, &mut shift);
            }
        }
        Ok(a << CACHE_LINE_BITS)
    }

    /// The sub-array group an address belongs to.
    ///
    /// # Errors
    ///
    /// Returns [`GdError::AddressOutOfRange`] for addresses past capacity.
    pub fn subarray_group_of(&self, addr: u64) -> Result<SubArrayGroup> {
        Ok(self.decode(addr)?.subarray_group())
    }

    /// The contiguous physical-address range owned by a sub-array group
    /// under interleaved mapping, as `[start, end)`.
    ///
    /// # Errors
    ///
    /// Returns [`GdError::InvalidState`] when the mode is
    /// [`InterleaveMode::Linear`] — without interleaving a sub-array group is
    /// *not* contiguous in the physical address space, which is exactly why
    /// the paper's rank-granularity techniques need interleaving disabled.
    pub fn subarray_group_range(&self, group: SubArrayGroup) -> Result<(u64, u64)> {
        if self.mode == InterleaveMode::Linear {
            return Err(GdError::InvalidState(
                "sub-array groups are not contiguous without interleaving".into(),
            ));
        }
        let group_bytes = self.org.subarray_group_bytes();
        let start = group.0 as u64 * group_bytes;
        Ok((start, start + group_bytes))
    }

    /// Number of sub-array groups.
    pub fn subarray_groups(&self) -> u32 {
        self.org.subarray_groups()
    }

    /// Bits of the physical address used for each field, for diagnostics and
    /// the Fig. 5 address-map printout: `(channel, bankgroup, bank, column,
    /// rank, local row, sub-array)`.
    pub fn bit_layout(&self) -> AddressBitLayout {
        AddressBitLayout {
            offset: CACHE_LINE_BITS,
            channel: self.ch_bits,
            bank_group: self.bg_bits,
            bank: self.bank_bits,
            column: self.col_bits,
            rank: self.rank_bits,
            local_row: self.local_row_bits,
            subarray: self.sa_bits,
        }
    }
}

/// Field widths of the decoded physical address, LSB-first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressBitLayout {
    /// Cache-line offset bits.
    pub offset: u32,
    /// Channel-select bits.
    pub channel: u32,
    /// Bank-group-select bits.
    pub bank_group: u32,
    /// Bank-select bits.
    pub bank: u32,
    /// Column (cache-line) bits.
    pub column: u32,
    /// Rank-select bits.
    pub rank: u32,
    /// Local-row bits (within a sub-array).
    pub local_row: u32,
    /// Sub-array-select bits (the global row-decoder input, MSBs).
    pub subarray: u32,
}

impl AddressBitLayout {
    /// Total address bits.
    pub fn total(&self) -> u32 {
        self.offset
            + self.channel
            + self.bank_group
            + self.bank
            + self.column
            + self.rank
            + self.local_row
            + self.subarray
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gd_types::config::DramConfig;

    fn mappers() -> Vec<AddressMapper> {
        [InterleaveMode::Interleaved, InterleaveMode::Linear]
            .into_iter()
            .flat_map(|m| {
                [
                    DramConfig::small_test().with_interleave(m),
                    DramConfig::ddr4_2133_64gb().with_interleave(m),
                ]
            })
            .map(|cfg| AddressMapper::new(&cfg).unwrap())
            .collect()
    }

    #[test]
    fn decode_encode_roundtrip_sampled() {
        for m in mappers() {
            let cap = m.capacity_bytes();
            for i in 0..4096u64 {
                // Sample across the full range with a large odd stride.
                let addr = ((i * 0x9e37_79b9 * CACHE_LINE_BYTES) % cap) & !(CACHE_LINE_BYTES - 1);
                let coord = m.decode(addr).unwrap();
                let back = m.encode(&coord).unwrap();
                assert_eq!(addr, back, "mode {:?} addr {addr:#x}", m.mode());
            }
        }
    }

    #[test]
    fn out_of_range_rejected() {
        let m = AddressMapper::new(&DramConfig::small_test()).unwrap();
        assert!(m.decode(m.capacity_bytes()).is_err());
        assert!(m.decode(u64::MAX).is_err());
    }

    #[test]
    fn interleaved_spreads_consecutive_lines_across_channels() {
        let m = AddressMapper::new(&DramConfig::ddr4_2133_64gb()).unwrap();
        let c0 = m.decode(0).unwrap();
        let c1 = m.decode(64).unwrap();
        assert_ne!(c0.channel, c1.channel, "adjacent lines hit other channels");
    }

    #[test]
    fn linear_keeps_small_footprint_in_one_rank() {
        let cfg = DramConfig::ddr4_2133_64gb().with_interleave(InterleaveMode::Linear);
        let m = AddressMapper::new(&cfg).unwrap();
        // First 64 MB must all live in channel 0, rank 0.
        for i in 0..1024u64 {
            let addr = i * (64 << 20) / 1024;
            let c = m.decode(addr).unwrap();
            assert_eq!(c.channel, Channel::new(0));
            assert_eq!(c.rank, Rank::new(0));
        }
    }

    #[test]
    fn subarray_group_is_contiguous_when_interleaved() {
        // The paper's headline mapping property: group g owns exactly
        // [g*group_bytes, (g+1)*group_bytes).
        let m = AddressMapper::new(&DramConfig::ddr4_2133_64gb()).unwrap();
        let group_bytes = 1024u64 << 20;
        for g in [0u32, 1, 31, 63] {
            let (start, end) = m.subarray_group_range(SubArrayGroup::new(g)).unwrap();
            assert_eq!(start, g as u64 * group_bytes);
            assert_eq!(end - start, group_bytes);
            // Sample addresses within the range all decode to group g.
            for k in 0..64u64 {
                let addr = start + k * (group_bytes / 64);
                assert_eq!(m.subarray_group_of(addr).unwrap(), SubArrayGroup::new(g));
            }
            // And the addresses cover every channel, rank, and bank.
        }
    }

    #[test]
    fn subarray_group_spans_every_channel_rank_bank() {
        let m = AddressMapper::new(&DramConfig::small_test()).unwrap();
        let (start, end) = m.subarray_group_range(SubArrayGroup::new(3)).unwrap();
        let mut channels = std::collections::HashSet::new();
        let mut ranks = std::collections::HashSet::new();
        let mut banks = std::collections::HashSet::new();
        let mut addr = start;
        while addr < end {
            let c = m.decode(addr).unwrap();
            assert_eq!(c.subarray, SubArray::new(3));
            channels.insert(c.channel);
            ranks.insert((c.channel, c.rank));
            banks.insert((c.channel, c.rank, c.bank_group, c.bank));
            addr += CACHE_LINE_BYTES;
        }
        let org = DramConfig::small_test().org;
        assert_eq!(channels.len() as u32, org.channels);
        assert_eq!(ranks.len() as u32, org.total_ranks());
        assert_eq!(banks.len() as u32, org.total_banks());
    }

    #[test]
    fn linear_mode_group_range_errors() {
        let cfg = DramConfig::small_test().with_interleave(InterleaveMode::Linear);
        let m = AddressMapper::new(&cfg).unwrap();
        assert!(m.subarray_group_range(SubArrayGroup::new(0)).is_err());
    }

    #[test]
    fn bit_layout_sums_to_capacity_bits() {
        for m in mappers() {
            let layout = m.bit_layout();
            assert_eq!(1u64 << layout.total(), m.capacity_bytes());
        }
    }

    #[test]
    fn encode_rejects_out_of_dim_coords() {
        let m = AddressMapper::new(&DramConfig::small_test()).unwrap();
        let mut c = m.decode(0).unwrap();
        c.row = Row::new(1 << 20);
        assert!(m.encode(&c).is_err());
    }
}
