//! The DRAM power model: average power from an [`ActivityProfile`] of
//! state-residency fractions and bus utilization, following the Micron
//! IDD methodology.
//!
//! One [`DramPowerModel`] serves every memory generation. The generations
//! share the aggregation (per-state background power over residency, awake
//! refresh, per-transfer activity energy) and differ in three places, each
//! a `match` on the configuration:
//!
//! * **Refresh** ([`RefreshScheme`]): an all-bank REF draws IDD5B over tRFC
//!   every tREFI; a DDR5 same-bank REFsb draws the lower IDD5C over tRFCsb
//!   every tREFI/sets.
//! * **VDDQ interface** (DDR5 only): the CA/CS driver and termination power
//!   that DDR4's and LPDDR4's single-rail IDD figures already fold in.
//! * **Masked self-refresh** (LPDDR4-PASR only): the array share of IDD6
//!   (`PASR_IDD6_ARRAY_SHARE`) scales with the unmasked segment fraction.

use crate::device::IddParams;
use crate::gating::PowerGating;
use gd_dram::RankPowerState;
use gd_types::config::{DramConfig, MemSpecKind, RefreshScheme};
use gd_types::{Fraction, GdError, Result};

/// Share of LPDDR4 IDD6 that is array retention current and therefore
/// scales with the unmasked PASR segment fraction; the remainder is the
/// control-logic/regulator floor that stays on while in self-refresh.
pub(crate) const PASR_IDD6_ARRAY_SHARE: f64 = 0.7;

/// VDDQ-rail interface parameters of a DDR5 rank (the CA/CS/CK drivers
/// that DDR4's single-rail IDD figures fold into the core currents).
#[derive(Debug, Clone, Copy)]
struct Ddr5InterfaceParams {
    /// Interface supply voltage (V).
    vddq: f64,
    /// Command/address pins per rank (14 per sub-channel × 2).
    num_ca: u32,
    /// Chip-select pins per rank.
    num_cs: u32,
    /// Per-pin driver current while toggling (mA).
    ca_active_ma: f64,
    /// Per-pin receiver/termination current while parked high (mA).
    ca_standby_ma: f64,
}

impl Ddr5InterfaceParams {
    /// Typical DDR5-4800 interface rail: VDDQ = 1.1 V, two 14-pin CA
    /// sub-channels plus chip selects.
    const DDR5_4800: Self = Ddr5InterfaceParams {
        vddq: 1.1,
        num_ca: 28,
        num_cs: 2,
        ca_active_ma: 1.5,
        ca_standby_ma: 0.35,
    };
}

/// Average state-residency fractions and bus utilization for the analytic
/// power path. The four state residencies sum to at most 1: the model does
/// not check it, `gd_bench::energy::energy_cell` does for those it builds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActivityProfile {
    /// Fraction of peak data-bus utilization.
    pub bandwidth_util: Fraction,
    /// Fraction of reads among data transfers.
    pub read_fraction: Fraction,
    /// ACT commands per column command (1 − row-hit rate).
    pub act_per_access: f64,
    /// Fraction of time ranks sit with a row open.
    pub active_standby: Fraction,
    /// Fraction of time ranks sit precharged with CKE high.
    pub precharge_standby: Fraction,
    /// Fraction of time ranks spend in power-down.
    pub power_down: Fraction,
    /// Fraction of time ranks spend in self-refresh.
    pub self_refresh: Fraction,
}

impl ActivityProfile {
    /// A fully idle system parked in precharge standby (Table 1 / Fig. 2
    /// "idle" operating point: no low-power state is reachable under
    /// interleaved traffic, so idle ranks still burn standby power).
    pub fn idle_standby() -> Self {
        ActivityProfile {
            bandwidth_util: Fraction::ZERO,
            read_fraction: Fraction::lit(0.67),
            act_per_access: 0.5,
            active_standby: Fraction::ZERO,
            precharge_standby: Fraction::ONE,
            power_down: Fraction::ZERO,
            self_refresh: Fraction::ZERO,
        }
    }

    /// A memory-intensive operating point (16 copies of `mcf`-like load):
    /// high bus utilization, rows mostly open.
    pub fn busy(bandwidth_util: Fraction) -> Self {
        ActivityProfile {
            bandwidth_util,
            read_fraction: Fraction::lit(0.67),
            act_per_access: 0.5,
            active_standby: Fraction::lit(0.8),
            precharge_standby: Fraction::lit(0.2),
            power_down: Fraction::ZERO,
            self_refresh: Fraction::ZERO,
        }
    }
}

/// IDD-based power model of a whole memory system of any generation
/// (`cfg.kind`).
#[derive(Debug, Clone)]
pub struct DramPowerModel {
    cfg: DramConfig,
    idd: IddParams,
}

impl DramPowerModel {
    /// Builds the model for `cfg` with its generation's default device
    /// parameters, chosen by device width.
    ///
    /// # Errors
    ///
    /// Same as [`with_idd`](Self::with_idd).
    pub fn new(cfg: DramConfig) -> Result<Self> {
        let x4 = cfg.org.device_width == 4;
        let idd = match cfg.kind {
            MemSpecKind::Ddr4 if x4 => IddParams::ddr4_2133_8gb_x4(),
            MemSpecKind::Ddr4 => IddParams::ddr4_2133_4gb_x8(),
            MemSpecKind::Ddr5 if x4 => IddParams::ddr5_4800_16gb_x4(),
            MemSpecKind::Ddr5 => IddParams::ddr5_4800_16gb_x8(),
            MemSpecKind::Lpddr4Pasr => IddParams::lpddr4_3200_8gb_x16(),
        };
        Self::with_idd(cfg, idd)
    }

    /// Builds the model for `cfg` with explicit device parameters.
    ///
    /// # Errors
    ///
    /// Returns [`GdError::InvalidConfig`] if the configuration fails
    /// [`DramConfig::validate`], its clock period is not positive and
    /// finite, or the device parameters fail [`IddParams::validate`]. The
    /// energy math relies on those orderings and never clamps a current
    /// delta.
    pub fn with_idd(cfg: DramConfig, idd: IddParams) -> Result<Self> {
        cfg.validate()?;
        if !(cfg.timing.t_ck_ns() > 0.0 && cfg.timing.t_ck_ns().is_finite()) {
            return Err(GdError::InvalidConfig(format!(
                "clock period must be positive and finite, got {} ns",
                cfg.timing.t_ck_ns()
            )));
        }
        idd.validate()?;
        Ok(DramPowerModel { cfg, idd })
    }

    /// The generation this model covers.
    pub fn kind(&self) -> MemSpecKind {
        self.cfg.kind
    }

    /// The configuration in use.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// The core-rail device parameters in use.
    pub fn idd(&self) -> &IddParams {
        &self.idd
    }

    fn t_ck_s(&self) -> f64 {
        self.cfg.timing.t_ck_ns() * 1e-9
    }

    fn burst_s(&self) -> f64 {
        self.cfg.timing.burst().as_f64() * self.t_ck_s()
    }

    fn devices_per_rank(&self) -> f64 {
        self.cfg.org.devices_per_rank as f64
    }

    /// The VDDQ interface rail modeled apart from the IDD currents: DDR5
    /// only.
    fn interface(&self) -> Option<Ddr5InterfaceParams> {
        match self.cfg.kind {
            MemSpecKind::Ddr5 => Some(Ddr5InterfaceParams::DDR5_4800),
            MemSpecKind::Ddr4 | MemSpecKind::Lpddr4Pasr => None,
        }
    }

    /// Core (gateable) background power of one device in `state`, W.
    /// `refresh_off` is the fraction of the array whose refresh is masked;
    /// only LPDDR4-PASR self-refresh shrinks with it.
    fn device_core_background_w(&self, state: RankPowerState, refresh_off: Fraction) -> f64 {
        let i = &self.idd;
        let ma = match state {
            RankPowerState::ActiveStandby => i.idd3n,
            RankPowerState::PrechargeStandby => i.idd2n,
            RankPowerState::PowerDown => i.idd2p,
            RankPowerState::SelfRefresh if self.cfg.kind == MemSpecKind::Lpddr4Pasr => {
                let array_off = PASR_IDD6_ARRAY_SHARE * refresh_off.get();
                i.idd6 * (1.0 - array_off)
            }
            RankPowerState::SelfRefresh => i.idd6,
        };
        i.vdd * ma * 1e-3
    }

    /// Interface-rail standby power of one rank in `state`, W: VDDQ
    /// CA/CS/CK termination while the rank clock runs, off in power-down
    /// and self-refresh (clock stopped).
    fn interface_standby_w_per_rank(&self, state: RankPowerState) -> f64 {
        match (self.interface(), state) {
            (Some(p), RankPowerState::ActiveStandby | RankPowerState::PrechargeStandby) => {
                let pins = (p.num_ca + p.num_cs + 1) as f64;
                pins * p.vddq * p.ca_standby_ma * 1e-3
            }
            _ => 0.0,
        }
    }

    /// Interface-rail energy of one transfer, J: the VDDQ CA/CS drivers of
    /// the ~2 two-cycle commands behind it.
    fn interface_transfer_energy_j(&self) -> f64 {
        self.interface().map_or(0.0, |p| {
            let pins = (p.num_ca + p.num_cs) as f64;
            pins * p.vddq * p.ca_active_ma * 1e-3 * 4.0 * self.t_ck_s()
        })
    }

    /// Background power of the whole system with every rank in `state`, W.
    fn background_power_w(&self, state: RankPowerState, gating: &PowerGating) -> f64 {
        let org = &self.cfg.org;
        let static_w = self.idd.dimm_static_mw * 1e-3;
        let devices = (org.total_ranks() * org.devices_per_rank) as f64
            * (self.device_core_background_w(state, gating.refresh_off)
                * gating.background_multiplier()
                + static_w);
        let interface = org.total_ranks() as f64
            * self.interface_standby_w_per_rank(state)
            * gating.background_multiplier();
        devices + interface
    }

    /// One refresh command on one rank under the configured scheme: its
    /// energy, J (the current delta over standby for its duration), and the
    /// cycles until the next one.
    fn refresh_command(&self) -> (f64, u64) {
        let i = &self.idd;
        let t = &self.cfg.timing;
        let (idd5, t_rfc, interval) = match self.cfg.refresh_scheme() {
            RefreshScheme::AllBank => (i.idd5b, t.t_rfc, t.t_refi),
            RefreshScheme::SameBank { sets } => (i.idd5c, t.t_rfc_sb, t.t_refi / u64::from(sets)),
        };
        let t_rfc_s = t_rfc as f64 * self.t_ck_s();
        let energy_j = i.vdd * (idd5 - i.idd2n) * 1e-3 * t_rfc_s * self.devices_per_rank();
        (energy_j, interval)
    }

    /// Average refresh power of the whole system when awake, W.
    fn refresh_avg_power_w(&self, gating: &PowerGating) -> f64 {
        let (energy_j, interval) = self.refresh_command();
        let per_rank = energy_j / (interval as f64 * self.t_ck_s());
        per_rank * self.cfg.org.total_ranks() as f64 * gating.refresh_multiplier()
    }

    /// Energy of one ACT/PRE pair across a rank, J (IDD0 minus the standby
    /// currents over tRC).
    fn act_pre_energy_j(&self) -> f64 {
        let i = &self.idd;
        let t = &self.cfg.timing;
        let t_rc_s = t.t_rc as f64 * self.t_ck_s();
        let t_ras_s = t.t_ras as f64 * self.t_ck_s();
        let background = i.idd3n * t_ras_s + i.idd2n * (t_rc_s - t_ras_s);
        // No clamp: `IddParams::validate` rejects idd0 < idd3n at
        // construction, so the delta is non-negative by contract.
        let e_dev = i.vdd * (i.idd0 * t_rc_s - background) * 1e-3;
        e_dev * self.devices_per_rank()
    }

    /// Core energy of one read burst across a rank, J.
    fn read_energy_j(&self) -> f64 {
        let i = &self.idd;
        i.vdd * (i.idd4r - i.idd3n) * 1e-3 * self.burst_s() * self.devices_per_rank()
    }

    /// Core energy of one write burst across a rank, J.
    fn write_energy_j(&self) -> f64 {
        let i = &self.idd;
        i.vdd * (i.idd4w - i.idd3n) * 1e-3 * self.burst_s() * self.devices_per_rank()
    }

    /// I/O + termination energy of one 64-byte transfer, J (64 data pins
    /// per rank regardless of device width).
    fn io_energy_j(&self) -> f64 {
        self.idd.io_mw_per_dq * 1e-3 * 64.0 * self.burst_s()
    }

    /// Peak data-bus throughput of the system in 64-byte transfers per
    /// second (all channels combined).
    pub fn peak_transfers_per_s(&self) -> f64 {
        let per_channel = 1.0 / self.burst_s();
        per_channel * self.cfg.org.channels as f64
    }

    /// Average power for an [`ActivityProfile`], W.
    pub fn analytic_power_w(&self, profile: &ActivityProfile, gating: &PowerGating) -> f64 {
        let p = profile;
        let mut w = 0.0;
        // Background by state residency.
        let states = [
            (RankPowerState::ActiveStandby, p.active_standby),
            (RankPowerState::PrechargeStandby, p.precharge_standby),
            (RankPowerState::PowerDown, p.power_down),
            (RankPowerState::SelfRefresh, p.self_refresh),
        ];
        for (state, frac) in states {
            w += self.background_power_w(state, gating) * frac.get();
        }
        // Refresh (not needed while in self-refresh: IDD6 covers it).
        w += self.refresh_avg_power_w(gating) * p.self_refresh.complement().get();
        // Activity power from bus utilization.
        let xfers = self.peak_transfers_per_s() * p.bandwidth_util.get();
        let rf = p.read_fraction;
        let per_xfer = rf.get() * self.read_energy_j()
            + rf.complement().get() * self.write_energy_j()
            + self.io_energy_j()
            + self.interface_transfer_energy_j()
            + p.act_per_access * self.act_pre_energy_j();
        w + xfers * per_xfer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(cfg: DramConfig) -> DramPowerModel {
        DramPowerModel::new(cfg).expect("paper preset")
    }

    #[test]
    fn idle_power_256gb_matches_paper_measurement() {
        // Paper §3.2: 256 GB DRAM consumes ~18 W idle.
        let model = model(DramConfig::ddr4_2133_256gb());
        let idle = model.analytic_power_w(&ActivityProfile::idle_standby(), &PowerGating::none());
        assert!(
            (14.0..24.0).contains(&idle),
            "idle power {idle:.1} W should be near the paper's 18 W"
        );
    }

    #[test]
    fn busy_power_exceeds_idle_by_several_watts() {
        // Paper §3.2: 18 W idle vs 26 W busy at 256 GB.
        let model = model(DramConfig::ddr4_2133_256gb());
        let idle = model.analytic_power_w(&ActivityProfile::idle_standby(), &PowerGating::none());
        let busy = model.analytic_power_w(
            &ActivityProfile::busy(Fraction::lit(0.45)),
            &PowerGating::none(),
        );
        assert!(busy > idle + 4.0, "busy {busy:.1} vs idle {idle:.1}");
        assert!(busy < idle * 2.5);
    }

    #[test]
    fn idle_power_is_flat_in_utilization() {
        // Table 1: without power management, DRAM power is constant no
        // matter how much of the capacity is used.
        let model = model(DramConfig::ddr4_2133_256gb());
        let p = ActivityProfile::idle_standby();
        let base = model.analytic_power_w(&p, &PowerGating::none());
        for _util in [0.1, 0.25, 0.5, 0.75, 1.0] {
            // Utilization of capacity does not enter the model at all.
            let again = model.analytic_power_w(&p, &PowerGating::none());
            assert_eq!(base, again);
        }
    }

    #[test]
    fn deep_pd_halves_background_when_half_offline() {
        let model = model(DramConfig::ddr4_2133_256gb());
        let p = ActivityProfile::idle_standby();
        let full = model.analytic_power_w(&p, &PowerGating::none());
        let half = model.analytic_power_w(&p, &PowerGating::deep_pd(Fraction::lit(0.5)));
        assert!(half < full * 0.75);
        assert!(half > full * 0.4);
    }

    #[test]
    fn pasr_saves_less_than_deep_pd() {
        let model = model(DramConfig::ddr4_2133_256gb());
        let p = ActivityProfile::idle_standby();
        let pasr = model.analytic_power_w(&p, &PowerGating::pasr(Fraction::lit(0.5)));
        let deep = model.analytic_power_w(&p, &PowerGating::deep_pd(Fraction::lit(0.5)));
        assert!(
            deep < pasr,
            "deep power-down gates static power too: {deep:.2} < {pasr:.2}"
        );
    }

    #[test]
    fn capacity_scaling_is_monotone() {
        let p64 = model(DramConfig::ddr4_2133_64gb())
            .analytic_power_w(&ActivityProfile::idle_standby(), &PowerGating::none());
        let p256 = model(DramConfig::ddr4_2133_256gb())
            .analytic_power_w(&ActivityProfile::idle_standby(), &PowerGating::none());
        assert!(p256 > p64 * 1.3, "{p64:.1} -> {p256:.1}");
    }

    #[test]
    fn invalid_idd_rejected_at_construction() {
        let cfg = DramConfig::ddr4_2133_64gb();
        let mut idd = IddParams::ddr4_2133_4gb_x8();
        idd.idd4r = idd.idd3n - 5.0;
        assert!(DramPowerModel::with_idd(cfg, idd).is_err());
        let mut idd = IddParams::ddr4_2133_4gb_x8();
        idd.idd5b = idd.idd2n - 1.0;
        assert!(DramPowerModel::with_idd(cfg, idd).is_err());
    }

    #[test]
    fn zero_clock_rejected_at_construction() {
        let mut cfg = DramConfig::ddr4_2133_64gb();
        cfg.timing.clock_mhz = 0.0;
        assert!(DramPowerModel::new(cfg).is_err());
    }

    #[test]
    fn ddr5_refresh_power_undercuts_all_bank_equivalent() {
        let cfg = DramConfig::ddr5_4800_64gb();
        let model = model(cfg);
        // What the same rank would pay with all-bank REF at IDD5B/tRFC1.
        let idd = model.idd();
        let t_ck_s = cfg.timing.t_ck_ns() * 1e-9;
        let all_bank_j = idd.vdd
            * (idd.idd5b - idd.idd2n)
            * 1e-3
            * (cfg.timing.t_rfc as f64 * t_ck_s)
            * cfg.org.devices_per_rank as f64;
        let all_bank_w =
            all_bank_j / (cfg.timing.t_refi as f64 * t_ck_s) * cfg.org.total_ranks() as f64;
        let same_bank_w = model.refresh_avg_power_w(&PowerGating::none());
        assert!(
            same_bank_w < all_bank_w * 0.8,
            "REFsb {same_bank_w:.2} W should undercut all-bank {all_bank_w:.2} W"
        );
    }

    #[test]
    fn ddr5_interface_power_is_present_and_clock_gated() {
        let model = model(DramConfig::ddr5_4800_64gb());
        assert!(model.interface_transfer_energy_j() > 0.0);
        assert!(model.interface_standby_w_per_rank(RankPowerState::PrechargeStandby) > 0.0);
        assert_eq!(
            model.interface_standby_w_per_rank(RankPowerState::SelfRefresh),
            0.0
        );
    }

    #[test]
    fn pasr_mask_shrinks_self_refresh_power_on_lpddr4_only() {
        let lp = model(DramConfig::lpddr4_3200_64gb());
        let d4 = model(DramConfig::ddr4_2133_64gb());
        let full = lp.device_core_background_w(RankPowerState::SelfRefresh, Fraction::ZERO);
        let half = lp.device_core_background_w(RankPowerState::SelfRefresh, Fraction::lit(0.5));
        assert!(
            half < full,
            "masking half the segments must shrink LPDDR4 IDD6"
        );
        assert!((full - half) / full - PASR_IDD6_ARRAY_SHARE * 0.5 < 1e-12);
        // DDR4 has no segment mask: its IDD6 stays whole.
        assert_eq!(
            d4.device_core_background_w(RankPowerState::SelfRefresh, Fraction::lit(0.5)),
            d4.device_core_background_w(RankPowerState::SelfRefresh, Fraction::ZERO),
        );
    }

    #[test]
    fn every_generation_yields_positive_ordered_energies() {
        for kind in MemSpecKind::all() {
            let model = model(DramConfig::preset_64gb(kind));
            assert_eq!(model.kind(), kind);
            assert!(model.act_pre_energy_j() > 0.0, "{kind}");
            assert!(model.read_energy_j() > 0.0, "{kind}");
            assert!(model.write_energy_j() > 0.0, "{kind}");
            assert!(model.refresh_command().0 > 0.0, "{kind}");
            let idle =
                model.analytic_power_w(&ActivityProfile::idle_standby(), &PowerGating::none());
            let busy = model.analytic_power_w(
                &ActivityProfile::busy(Fraction::lit(0.45)),
                &PowerGating::none(),
            );
            assert!(busy > idle, "{kind}: busy {busy:.2} <= idle {idle:.2}");
        }
    }

    #[test]
    fn event_energies_positive_and_ordered() {
        let model = model(DramConfig::ddr4_2133_64gb());
        assert!(model.act_pre_energy_j() > 0.0);
        assert!(model.read_energy_j() > 0.0);
        assert!(model.write_energy_j() > 0.0);
        assert!(model.refresh_command().0 > model.act_pre_energy_j());
    }
}
