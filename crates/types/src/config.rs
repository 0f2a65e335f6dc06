//! DRAM organization and timing configuration.
//!
//! The presets mirror the paper's two evaluation platforms:
//!
//! * [`DramConfig::ddr4_2133_64gb`] — eight 4Gb 2R×8 DDR4-2133 8GB DIMMs on
//!   four channels (two slots each): 16 ranks, 64 GB. Used for the SPEC and
//!   data-center workload experiments.
//! * [`DramConfig::ddr4_2133_256gb`] — eight 8Gb 2R×4 32GB DIMMs: 16 ranks,
//!   256 GB. Used for the Azure VM-trace experiments.

use crate::error::{GdError, Result};

/// Physical organization of the DRAM system.
///
/// Capacities are derived, never stored, so the organization can not get out
/// of sync with itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramOrg {
    /// Number of independent memory channels.
    pub channels: u32,
    /// Ranks per channel (DIMMs × ranks-per-DIMM).
    pub ranks_per_channel: u32,
    /// DDR4 bank groups per rank.
    pub bank_groups: u32,
    /// Banks per bank group.
    pub banks_per_group: u32,
    /// Sub-arrays per bank (the paper's DDR4 ×8 4Gb part has 64).
    pub subarrays_per_bank: u32,
    /// Rows per sub-array (512 for the 4Gb ×8 part: 15 row bits, 6 of which
    /// select the sub-array).
    pub rows_per_subarray: u32,
    /// Column positions per row (device columns).
    pub columns: u32,
    /// Device data width in bits (×4, ×8, or ×16).
    pub device_width: u32,
    /// DRAM devices per rank providing the 64-bit data bus
    /// (`64 / device_width`).
    pub devices_per_rank: u32,
}

impl DramOrg {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`GdError::InvalidConfig`] if any field is zero, the device
    /// widths do not fill a 64-bit bus, or a dimension is not a power of two
    /// (the address mapper requires power-of-two dimensions).
    pub fn validate(&self) -> Result<()> {
        let dims = [
            ("channels", self.channels),
            ("ranks_per_channel", self.ranks_per_channel),
            ("bank_groups", self.bank_groups),
            ("banks_per_group", self.banks_per_group),
            ("subarrays_per_bank", self.subarrays_per_bank),
            ("rows_per_subarray", self.rows_per_subarray),
            ("columns", self.columns),
            ("device_width", self.device_width),
            ("devices_per_rank", self.devices_per_rank),
        ];
        for (name, v) in dims {
            if v == 0 {
                return Err(GdError::InvalidConfig(format!("{name} must be non-zero")));
            }
            if !v.is_power_of_two() {
                return Err(GdError::InvalidConfig(format!(
                    "{name} must be a power of two, got {v}"
                )));
            }
        }
        if self.device_width * self.devices_per_rank != 64 {
            return Err(GdError::InvalidConfig(format!(
                "device_width ({}) x devices_per_rank ({}) must equal 64",
                self.device_width, self.devices_per_rank
            )));
        }
        Ok(())
    }

    /// Banks per rank (bank groups × banks per group).
    pub fn banks_per_rank(&self) -> u32 {
        self.bank_groups * self.banks_per_group
    }

    /// Total ranks in the system.
    pub fn total_ranks(&self) -> u32 {
        self.channels * self.ranks_per_channel
    }

    /// Total banks in the system.
    pub fn total_banks(&self) -> u32 {
        self.total_ranks() * self.banks_per_rank()
    }

    /// Rows per bank (sub-arrays × rows per sub-array).
    pub fn rows_per_bank(&self) -> u32 {
        self.subarrays_per_bank * self.rows_per_subarray
    }

    /// Bytes in one device row (columns × device width / 8).
    pub fn device_row_bytes(&self) -> u64 {
        self.columns as u64 * self.device_width as u64 / 8
    }

    /// Bytes in one rank-level row (device row × devices per rank), i.e. the
    /// amount of data addressed by one (bank, row) pair across the rank.
    pub fn rank_row_bytes(&self) -> u64 {
        self.device_row_bytes() * self.devices_per_rank as u64
    }

    /// Capacity of one rank in bytes.
    pub fn rank_bytes(&self) -> u64 {
        self.rank_row_bytes() * self.rows_per_bank() as u64 * self.banks_per_rank() as u64
    }

    /// Capacity of one DRAM device in bits.
    pub fn device_bits(&self) -> u64 {
        self.device_row_bytes() * 8 * self.rows_per_bank() as u64 * self.banks_per_rank() as u64
    }

    /// Total system capacity in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.rank_bytes() * self.total_ranks() as u64
    }

    /// Number of sub-array groups, which always equals the sub-arrays per
    /// bank (a group spans every channel, rank, and bank).
    pub fn subarray_groups(&self) -> u32 {
        self.subarrays_per_bank
    }

    /// Capacity of one sub-array group: `total / subarray_groups`.
    /// Always 1/64 = 1.5625 % of capacity with 64 sub-arrays per bank.
    pub fn subarray_group_bytes(&self) -> u64 {
        self.total_bytes() / self.subarray_groups() as u64
    }

    /// Capacity of one sub-array within one bank of one rank, across the
    /// devices of that rank (the paper's "4MB across 8 DRAM devices").
    pub fn rank_subarray_bytes(&self) -> u64 {
        self.rank_row_bytes() * self.rows_per_subarray as u64
    }
}

/// DDR4 timing parameters, in memory-clock cycles unless suffixed `_ns`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramTiming {
    /// Memory clock frequency in MHz (data rate is twice this).
    pub clock_mhz: f64,
    /// CAS latency (READ to data).
    pub cl: u64,
    /// RAS-to-CAS delay (ACT to READ/WRITE).
    pub t_rcd: u64,
    /// Row precharge time (PRE to ACT).
    pub t_rp: u64,
    /// Row active time (ACT to PRE minimum).
    pub t_ras: u64,
    /// Row cycle time (ACT to ACT, same bank).
    pub t_rc: u64,
    /// ACT-to-ACT, different bank group.
    pub t_rrd_s: u64,
    /// ACT-to-ACT, same bank group.
    pub t_rrd_l: u64,
    /// Four-activate window.
    pub t_faw: u64,
    /// CAS-to-CAS, different bank group.
    pub t_ccd_s: u64,
    /// CAS-to-CAS, same bank group.
    pub t_ccd_l: u64,
    /// Write recovery time (end of write data to PRE).
    pub t_wr: u64,
    /// Write-to-read, different bank group.
    pub t_wtr_s: u64,
    /// Write-to-read, same bank group.
    pub t_wtr_l: u64,
    /// Read-to-precharge.
    pub t_rtp: u64,
    /// CAS write latency.
    pub cwl: u64,
    /// Refresh cycle time (REF command duration).
    pub t_rfc: u64,
    /// Same-bank refresh cycle time (DDR5 REFsb duration). Equal to
    /// [`t_rfc`](Self::t_rfc) on generations without same-bank refresh.
    pub t_rfc_sb: u64,
    /// Average refresh interval.
    pub t_refi: u64,
    /// Minimum CKE low pulse (power-down minimum residency).
    pub t_cke: u64,
    /// Power-down exit latency, cycles.
    pub t_xp: u64,
    /// Self-refresh exit latency, cycles.
    pub t_xs: u64,
    /// Burst length (8 for DDR4).
    pub burst_length: u64,
    /// Rank power-down entry/exit pair latency quoted by the paper (18 ns).
    pub power_down_exit_ns: f64,
    /// Self-refresh exit latency quoted by the paper (768 ns).
    pub self_refresh_exit_ns: f64,
    /// Exit latency of GreenDIMM's sub-array deep power-down state. The DLL
    /// stays on, so this is no longer than power-down exit (18 ns).
    pub deep_power_down_exit_ns: f64,
}

impl DramTiming {
    /// DDR4-2133 (15-15-15) timing for a 4Gb device.
    pub fn ddr4_2133_4gb() -> Self {
        DramTiming {
            clock_mhz: 1_066.666_666_666_666_7,
            cl: 15,
            t_rcd: 15,
            t_rp: 15,
            t_ras: 36,
            t_rc: 51,
            t_rrd_s: 4,
            t_rrd_l: 6,
            t_faw: 26,
            t_ccd_s: 4,
            t_ccd_l: 6,
            t_wr: 16,
            t_wtr_s: 3,
            t_wtr_l: 9,
            t_rtp: 8,
            cwl: 11,
            t_rfc: 278,    // 260 ns for 4Gb parts
            t_rfc_sb: 278, // DDR4 has no same-bank refresh; kept equal to tRFC
            t_refi: 8320,  // 7.8 us
            t_cke: 6,
            t_xp: 7,
            t_xs: 289, // tRFC + 10 ns
            burst_length: 8,
            power_down_exit_ns: 18.0,
            self_refresh_exit_ns: 768.0,
            deep_power_down_exit_ns: 18.0,
        }
    }

    /// DDR4-2133 timing for an 8Gb device (longer tRFC).
    pub fn ddr4_2133_8gb() -> Self {
        DramTiming {
            t_rfc: 374, // 350 ns for 8Gb parts
            t_rfc_sb: 374,
            t_xs: 385,
            ..Self::ddr4_2133_4gb()
        }
    }

    /// DDR5-4800B (40-39-39) timing for a 16Gb device, in 2400 MHz memory
    /// clocks (tCK = 0.4167 ns). Sources: JEDEC JESD79-5 speed-bin tables
    /// (tAA/tRCD/tRP 16.66/16.25/16.25 ns, tRAS 32 ns, tRFC1 295 ns,
    /// tRFCsb 130 ns, tREFI1 3.9 us).
    pub fn ddr5_4800() -> Self {
        DramTiming {
            clock_mhz: 2_400.0,
            cl: 40,
            t_rcd: 39,
            t_rp: 39,
            t_ras: 77,
            t_rc: 116,
            t_rrd_s: 8,
            t_rrd_l: 12,
            t_faw: 32,
            t_ccd_s: 8,
            t_ccd_l: 12,
            t_wr: 72,
            t_wtr_s: 16,
            t_wtr_l: 24,
            t_rtp: 18,
            cwl: 38,
            t_rfc: 708,    // tRFC1 = 295 ns for 16Gb parts
            t_rfc_sb: 312, // tRFCsb = 130 ns: the same-bank refresh win
            t_refi: 9360,  // tREFI1 = 3.9 us
            t_cke: 8,
            t_xp: 18,
            t_xs: 732, // tRFC1 + 10 ns
            burst_length: 16,
            power_down_exit_ns: 7.5,
            self_refresh_exit_ns: 305.0,
            // GreenDIMM's MRS-programmed sub-array exit is a DLL-on state;
            // the paper's 18 ns figure is device-internal and carries over.
            deep_power_down_exit_ns: 18.0,
        }
    }

    /// LPDDR4-3200 (28-29-34) timing for an 8Gb die, in 1600 MHz memory
    /// clocks (tCK = 0.625 ns). Sources: JEDEC JESD209-4 core timings
    /// (tRCD 18 ns, tRPpb 21 ns, tRAS 42 ns, tRFCab 380 ns,
    /// tREFI 3.9 us). No bank groups, no same-bank refresh.
    pub fn lpddr4_3200() -> Self {
        DramTiming {
            clock_mhz: 1_600.0,
            cl: 28,
            t_rcd: 29,
            t_rp: 34,
            t_ras: 68,
            t_rc: 102,
            t_rrd_s: 10,
            t_rrd_l: 10,
            t_faw: 64,
            t_ccd_s: 8,
            t_ccd_l: 8,
            t_wr: 29,
            t_wtr_s: 16,
            t_wtr_l: 16,
            t_rtp: 12,
            cwl: 14,
            t_rfc: 608, // tRFCab = 380 ns for 8Gb dies
            t_rfc_sb: 608,
            t_refi: 6240, // 3.9 us
            t_cke: 12,
            t_xp: 12,
            t_xs: 619, // tRFCab + ~7 ns (tXSR)
            burst_length: 16,
            power_down_exit_ns: 7.5,
            self_refresh_exit_ns: 500.0,
            deep_power_down_exit_ns: 18.0,
        }
    }

    /// Clock period in nanoseconds.
    pub fn t_ck_ns(&self) -> f64 {
        1e3 / self.clock_mhz
    }

    /// Data-bus transfer time of one 64-byte cache line (BL/2 clock cycles).
    pub fn burst_cycles(&self) -> u64 {
        self.burst_length / 2
    }

    /// [`burst_cycles`](Self::burst_cycles) as a typed count, for
    /// unit-safe conversion to seconds or energy.
    pub fn burst(&self) -> crate::time::Cycles {
        crate::time::Cycles::new(self.burst_cycles())
    }

    /// Validates ordering constraints between parameters.
    ///
    /// # Errors
    ///
    /// Returns [`GdError::InvalidConfig`] if e.g. `t_rc < t_ras + t_rp`.
    pub fn validate(&self) -> Result<()> {
        if self.clock_mhz <= 0.0 {
            return Err(GdError::InvalidConfig("clock_mhz must be positive".into()));
        }
        if self.t_rc < self.t_ras + self.t_rp {
            return Err(GdError::InvalidConfig(format!(
                "t_rc ({}) must be >= t_ras + t_rp ({})",
                self.t_rc,
                self.t_ras + self.t_rp
            )));
        }
        if self.t_rrd_l < self.t_rrd_s || self.t_ccd_l < self.t_ccd_s {
            return Err(GdError::InvalidConfig(
                "same-bank-group constraints must be >= different-bank-group".into(),
            ));
        }
        if self.burst_length == 0 || !self.burst_length.is_multiple_of(2) {
            return Err(GdError::InvalidConfig(
                "burst_length must be a positive even number".into(),
            ));
        }
        Ok(())
    }
}

/// How physical addresses are spread across the DRAM hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum InterleaveMode {
    /// Channel/rank/bank interleaving using low-order cache-line-granularity
    /// address bits (the commodity-server default the paper evaluates).
    #[default]
    Interleaved,
    /// No interleaving: consecutive physical addresses fill an entire rank
    /// before moving to the next (the paper's "w/o interleaving" baseline).
    Linear,
}

impl InterleaveMode {
    /// True for [`InterleaveMode::Interleaved`], the only mode whose
    /// sub-array groups are contiguous physical-address ranges.
    pub fn is_interleaved(self) -> bool {
        self == InterleaveMode::Interleaved
    }
}

/// Memory generation the configuration models. Selects the refresh scheme,
/// the protocol legality table, and the generation-specific terms of
/// `gd-power`'s `DramPowerModel`; timing and organization numbers live in
/// the presets below.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MemSpecKind {
    /// DDR4: all-bank refresh, single-rail IDD power model (the paper's
    /// evaluation platform and the bit-identical default).
    #[default]
    Ddr4,
    /// DDR5: 32 banks in 8 bank groups, same-bank refresh (REFsb) rotating
    /// one bank per group at a time, split VDD/VDDQ core + interface power.
    Ddr5,
    /// LPDDR4-style device with partial-array self-refresh, modelled in the
    /// power model as the paper models it: the array share of IDD6 scales
    /// with the fraction of the array whose refresh the governor turns off.
    /// The cycle-level model programs no PASR register.
    Lpddr4Pasr,
}

impl MemSpecKind {
    /// Stable lowercase name, used by `--memspec` and provenance lines.
    pub fn name(self) -> &'static str {
        match self {
            MemSpecKind::Ddr4 => "ddr4",
            MemSpecKind::Ddr5 => "ddr5",
            MemSpecKind::Lpddr4Pasr => "lpddr4-pasr",
        }
    }

    /// Parses a `--memspec` argument. Accepts the canonical names plus the
    /// `lpddr4` / `pasr` shorthands.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "ddr4" => Some(MemSpecKind::Ddr4),
            "ddr5" => Some(MemSpecKind::Ddr5),
            "lpddr4-pasr" | "lpddr4" | "pasr" => Some(MemSpecKind::Lpddr4Pasr),
            _ => None,
        }
    }

    /// Every backend, in fixed (provenance-stable) order.
    pub fn all() -> [MemSpecKind; 3] {
        [
            MemSpecKind::Ddr4,
            MemSpecKind::Ddr5,
            MemSpecKind::Lpddr4Pasr,
        ]
    }
}

impl std::fmt::Display for MemSpecKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How the device retires its refresh obligation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshScheme {
    /// One REF command refreshes every bank of the rank (DDR4, LPDDR4
    /// all-bank refresh); the whole rank stalls for tRFC.
    AllBank,
    /// DDR5 same-bank refresh: each REFsb refreshes one bank per bank group
    /// (one "set"), stalling only those banks for tRFCsb. `sets` equals the
    /// banks per group; a REFsb is due every tREFI / sets, rotating sets.
    SameBank {
        /// Number of refresh sets (= banks per bank group).
        sets: u32,
    },
}

/// Complete DRAM system configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Physical organization.
    pub org: DramOrg,
    /// Timing parameters.
    pub timing: DramTiming,
    /// Address interleaving mode.
    pub interleave: InterleaveMode,
    /// Memory generation (refresh scheme + power backend selector).
    pub kind: MemSpecKind,
}

impl DramConfig {
    /// The paper's 64 GB SPEC platform: 4 channels × 4 ranks of eight 4Gb
    /// ×8 devices (16 banks × 64 sub-arrays × 512 rows × 1024 columns).
    pub fn ddr4_2133_64gb() -> Self {
        DramConfig {
            org: DramOrg {
                channels: 4,
                ranks_per_channel: 4,
                bank_groups: 4,
                banks_per_group: 4,
                subarrays_per_bank: 64,
                rows_per_subarray: 512,
                columns: 1024,
                device_width: 8,
                devices_per_rank: 8,
            },
            timing: DramTiming::ddr4_2133_4gb(),
            interleave: InterleaveMode::Interleaved,
            kind: MemSpecKind::Ddr4,
        }
    }

    /// The paper's 256 GB VM-trace platform: 4 channels × 4 ranks of
    /// sixteen 8Gb ×4 devices.
    pub fn ddr4_2133_256gb() -> Self {
        DramConfig {
            org: DramOrg {
                channels: 4,
                ranks_per_channel: 4,
                bank_groups: 4,
                banks_per_group: 4,
                subarrays_per_bank: 64,
                rows_per_subarray: 2048,
                columns: 1024,
                device_width: 4,
                devices_per_rank: 16,
            },
            timing: DramTiming::ddr4_2133_8gb(),
            interleave: InterleaveMode::Interleaved,
            kind: MemSpecKind::Ddr4,
        }
    }

    /// DDR5-4800 analog of the 64 GB platform: same channel/rank topology,
    /// 32 banks per rank in 8 bank groups (same-bank refresh rotates
    /// 4 sets of 8 banks). Row space is redistributed (more banks, shorter
    /// sub-arrays) so capacity stays 64 GB.
    pub fn ddr5_4800_64gb() -> Self {
        DramConfig {
            org: DramOrg {
                channels: 4,
                ranks_per_channel: 4,
                bank_groups: 8,
                banks_per_group: 4,
                subarrays_per_bank: 64,
                rows_per_subarray: 256,
                columns: 1024,
                device_width: 8,
                devices_per_rank: 8,
            },
            timing: DramTiming::ddr5_4800(),
            interleave: InterleaveMode::Interleaved,
            kind: MemSpecKind::Ddr5,
        }
    }

    /// DDR5-4800 analog of the 256 GB VM-trace platform (16Gb ×4 devices).
    pub fn ddr5_4800_256gb() -> Self {
        DramConfig {
            org: DramOrg {
                channels: 4,
                ranks_per_channel: 4,
                bank_groups: 8,
                banks_per_group: 4,
                subarrays_per_bank: 64,
                rows_per_subarray: 1024,
                columns: 1024,
                device_width: 4,
                devices_per_rank: 16,
            },
            timing: DramTiming::ddr5_4800(),
            interleave: InterleaveMode::Interleaved,
            kind: MemSpecKind::Ddr5,
        }
    }

    /// LPDDR4-3200 analog of the 64 GB platform: 8 ungrouped banks of
    /// ×16 dies, four dies per 64-bit rank.
    pub fn lpddr4_3200_64gb() -> Self {
        DramConfig {
            org: DramOrg {
                channels: 4,
                ranks_per_channel: 4,
                bank_groups: 1,
                banks_per_group: 8,
                subarrays_per_bank: 64,
                rows_per_subarray: 1024,
                columns: 1024,
                device_width: 16,
                devices_per_rank: 4,
            },
            timing: DramTiming::lpddr4_3200(),
            interleave: InterleaveMode::Interleaved,
            kind: MemSpecKind::Lpddr4Pasr,
        }
    }

    /// LPDDR4-3200 analog of the 256 GB VM-trace platform.
    pub fn lpddr4_3200_256gb() -> Self {
        DramConfig {
            org: DramOrg {
                channels: 4,
                ranks_per_channel: 4,
                bank_groups: 1,
                banks_per_group: 8,
                subarrays_per_bank: 64,
                rows_per_subarray: 4096,
                columns: 1024,
                device_width: 16,
                devices_per_rank: 4,
            },
            timing: DramTiming::lpddr4_3200(),
            interleave: InterleaveMode::Interleaved,
            kind: MemSpecKind::Lpddr4Pasr,
        }
    }

    /// The paper-platform preset for a backend at 64 GB (fig09/10/15).
    pub fn preset_64gb(kind: MemSpecKind) -> Self {
        match kind {
            MemSpecKind::Ddr4 => Self::ddr4_2133_64gb(),
            MemSpecKind::Ddr5 => Self::ddr5_4800_64gb(),
            MemSpecKind::Lpddr4Pasr => Self::lpddr4_3200_64gb(),
        }
    }

    /// The paper-platform preset for a backend at 256 GB (fig02/13).
    pub fn preset_256gb(kind: MemSpecKind) -> Self {
        match kind {
            MemSpecKind::Ddr4 => Self::ddr4_2133_256gb(),
            MemSpecKind::Ddr5 => Self::ddr5_4800_256gb(),
            MemSpecKind::Lpddr4Pasr => Self::lpddr4_3200_256gb(),
        }
    }

    /// A deliberately small configuration for fast unit tests: 2 channels ×
    /// 2 ranks, 8 banks, 8 sub-arrays, 16 MB total.
    pub fn small_test() -> Self {
        DramConfig {
            org: DramOrg {
                channels: 2,
                ranks_per_channel: 2,
                bank_groups: 2,
                banks_per_group: 4,
                subarrays_per_bank: 8,
                rows_per_subarray: 64,
                columns: 128,
                device_width: 8,
                devices_per_rank: 8,
            },
            timing: DramTiming::ddr4_2133_4gb(),
            interleave: InterleaveMode::Interleaved,
            kind: MemSpecKind::Ddr4,
        }
    }

    /// DDR5 variant of [`small_test`](Self::small_test): same 16 MB
    /// capacity, 8 banks in 4 groups so same-bank refresh rotates 2 sets.
    pub fn small_test_ddr5() -> Self {
        DramConfig {
            org: DramOrg {
                bank_groups: 4,
                banks_per_group: 2,
                ..Self::small_test().org
            },
            timing: DramTiming::ddr5_4800(),
            interleave: InterleaveMode::Interleaved,
            kind: MemSpecKind::Ddr5,
        }
    }

    /// LPDDR4-PASR variant of [`small_test`](Self::small_test): same 16 MB
    /// capacity, 8 ungrouped banks of ×16 dies.
    pub fn small_test_lpddr4() -> Self {
        DramConfig {
            org: DramOrg {
                bank_groups: 1,
                banks_per_group: 8,
                device_width: 16,
                devices_per_rank: 4,
                ..Self::small_test().org
            },
            timing: DramTiming::lpddr4_3200(),
            interleave: InterleaveMode::Interleaved,
            kind: MemSpecKind::Lpddr4Pasr,
        }
    }

    /// The small-test preset for a backend (engine-equivalence matrices).
    pub fn small_test_for(kind: MemSpecKind) -> Self {
        match kind {
            MemSpecKind::Ddr4 => Self::small_test(),
            MemSpecKind::Ddr5 => Self::small_test_ddr5(),
            MemSpecKind::Lpddr4Pasr => Self::small_test_lpddr4(),
        }
    }

    /// Refresh scheme implied by the memory generation and organization.
    pub fn refresh_scheme(&self) -> RefreshScheme {
        match self.kind {
            MemSpecKind::Ddr5 => RefreshScheme::SameBank {
                sets: self.org.banks_per_group,
            },
            MemSpecKind::Ddr4 | MemSpecKind::Lpddr4Pasr => RefreshScheme::AllBank,
        }
    }

    /// Validates organization, timing, and generation-specific constraints
    /// together.
    ///
    /// # Errors
    ///
    /// Propagates [`GdError::InvalidConfig`] from either part, and rejects
    /// generation/timing mismatches (a DDR5 config whose tRFCsb exceeds
    /// tRFC or whose tREFI is too short for its same-bank refresh sets).
    pub fn validate(&self) -> Result<()> {
        self.org.validate()?;
        self.timing.validate()?;
        // Only DDR5 refreshes per bank set.
        if let RefreshScheme::SameBank { sets } = self.refresh_scheme() {
            if self.timing.t_rfc_sb == 0 || self.timing.t_rfc_sb > self.timing.t_rfc {
                return Err(GdError::InvalidConfig(format!(
                    "DDR5 t_rfc_sb ({}) must be in 1..=t_rfc ({})",
                    self.timing.t_rfc_sb, self.timing.t_rfc
                )));
            }
            if self.timing.t_refi / sets as u64 == 0 {
                return Err(GdError::InvalidConfig(format!(
                    "t_refi ({}) too short for {sets} same-bank refresh sets",
                    self.timing.t_refi
                )));
            }
        }
        Ok(())
    }

    /// Total capacity in bytes.
    pub fn total_capacity_bytes(&self) -> u64 {
        self.org.total_bytes()
    }

    /// Capacity of one sub-array group in bytes.
    pub fn subarray_group_bytes(&self) -> u64 {
        self.org.subarray_group_bytes()
    }

    /// Returns a copy with a different interleave mode.
    pub fn with_interleave(mut self, mode: InterleaveMode) -> Self {
        self.interleave = mode;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_64gb_matches_paper() {
        let cfg = DramConfig::ddr4_2133_64gb();
        cfg.validate().unwrap();
        assert_eq!(cfg.total_capacity_bytes(), 64 << 30);
        // 4Gb devices.
        assert_eq!(cfg.org.device_bits(), 4 << 30);
        // A rank of eight x8 devices provides 4 GB with 16 banks.
        assert_eq!(cfg.org.rank_bytes(), 4 << 30);
        assert_eq!(cfg.org.banks_per_rank(), 16);
        // Sub-array: 4Mb per device, 4MB across the rank.
        assert_eq!(cfg.org.rank_subarray_bytes(), 4 << 20);
        // Sub-array group: 4MB x 16 banks x 16 ranks = 1024 MB.
        assert_eq!(cfg.subarray_group_bytes(), 1024 << 20);
        // 1.5625% of total capacity.
        assert!(
            (cfg.subarray_group_bytes() as f64 / cfg.total_capacity_bytes() as f64 - 0.015625)
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn preset_256gb_matches_paper() {
        let cfg = DramConfig::ddr4_2133_256gb();
        cfg.validate().unwrap();
        assert_eq!(cfg.total_capacity_bytes(), 256 << 30);
        assert_eq!(cfg.org.device_bits(), 8 << 30);
        assert_eq!(cfg.org.rank_bytes(), 16 << 30);
        // Sub-array group fraction stays 1/64 regardless of capacity.
        assert_eq!(cfg.subarray_group_bytes() * 64, cfg.total_capacity_bytes());
    }

    #[test]
    fn small_test_is_valid_and_small() {
        let cfg = DramConfig::small_test();
        cfg.validate().unwrap();
        assert_eq!(cfg.total_capacity_bytes(), 16 << 20);
    }

    #[test]
    fn invalid_width_rejected() {
        let mut cfg = DramConfig::small_test();
        cfg.org.device_width = 16; // 16 x 8 devices = 128-bit bus: invalid
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn non_power_of_two_rejected() {
        let mut cfg = DramConfig::small_test();
        cfg.org.channels = 3;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn timing_validation_catches_trc() {
        let mut t = DramTiming::ddr4_2133_4gb();
        t.t_rc = 10;
        assert!(t.validate().is_err());
    }

    #[test]
    fn timing_clock_period() {
        let t = DramTiming::ddr4_2133_4gb();
        assert!((t.t_ck_ns() - 0.9375).abs() < 1e-9);
        assert_eq!(t.burst_cycles(), 4);
    }

    #[test]
    fn interleave_mode_helpers() {
        assert!(InterleaveMode::Interleaved.is_interleaved());
        assert!(!InterleaveMode::Linear.is_interleaved());
    }

    #[test]
    fn ddr5_presets_match_capacity_and_banks() {
        for (cfg, bytes) in [
            (DramConfig::ddr5_4800_64gb(), 64u64 << 30),
            (DramConfig::ddr5_4800_256gb(), 256 << 30),
        ] {
            cfg.validate().unwrap();
            assert_eq!(cfg.total_capacity_bytes(), bytes);
            assert_eq!(cfg.org.banks_per_rank(), 32);
            assert_eq!(cfg.org.bank_groups, 8);
            assert_eq!(cfg.refresh_scheme(), RefreshScheme::SameBank { sets: 4 });
        }
    }

    #[test]
    fn lpddr4_presets_match_capacity() {
        for (cfg, bytes) in [
            (DramConfig::lpddr4_3200_64gb(), 64u64 << 30),
            (DramConfig::lpddr4_3200_256gb(), 256 << 30),
        ] {
            cfg.validate().unwrap();
            assert_eq!(cfg.total_capacity_bytes(), bytes);
            assert_eq!(cfg.org.banks_per_rank(), 8);
            assert_eq!(cfg.refresh_scheme(), RefreshScheme::AllBank);
        }
    }

    #[test]
    fn small_test_variants_share_capacity() {
        for kind in MemSpecKind::all() {
            let cfg = DramConfig::small_test_for(kind);
            cfg.validate().unwrap();
            assert_eq!(cfg.total_capacity_bytes(), 16 << 20, "{kind}");
            assert_eq!(cfg.kind, kind);
        }
    }

    #[test]
    fn memspec_kind_parse_round_trips() {
        for kind in MemSpecKind::all() {
            assert_eq!(MemSpecKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(MemSpecKind::parse("pasr"), Some(MemSpecKind::Lpddr4Pasr));
        assert_eq!(MemSpecKind::parse("lpddr4"), Some(MemSpecKind::Lpddr4Pasr));
        assert_eq!(MemSpecKind::parse("hbm3"), None);
    }

    #[test]
    fn ddr5_rfc_sb_ordering_enforced() {
        let mut cfg = DramConfig::small_test_ddr5();
        cfg.timing.t_rfc_sb = cfg.timing.t_rfc + 1;
        assert!(cfg.validate().is_err());
        cfg.timing.t_rfc_sb = 0;
        assert!(cfg.validate().is_err());
    }
}
