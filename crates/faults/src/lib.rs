//! Deterministic fault injection (`gd-faults`).
//!
//! The co-sim's recovery paths — retry with backoff in the daemon,
//! transactional rollback in `mmsim`, degraded (shallow-PD) mode for
//! groups that keep NACKing deep power-down — only earn their keep when
//! something actually goes wrong. This crate supplies the "going wrong"
//! half as a *pure function of configuration and seed*:
//!
//! - A [`FaultPlan`] names the injection sites ([`FaultSite`]) and gives
//!   each a [`FaultTrigger`] (never / probability / every-Nth / one-shot).
//! - [`FaultPlan::build`] turns the plan into a [`FaultInjector`] whose
//!   per-site decision streams are derived from the experiment seed via
//!   [`gd_types::rng::derive_seed`], so two sites never share a stream
//!   and adding a site cannot perturb another site's decisions.
//!
//! Determinism contract: every decision is drawn by the component that
//! owns the injector, in the order its own simulation advances. Nothing
//! here reads wall-clock time or entropy, so a faulted run is
//! byte-identical across `--jobs` values and engine modes, and a plan
//! with all triggers at [`FaultTrigger::Never`] (or probability 0) draws
//! no random numbers at all — the injection layer is zero-cost-off.

use gd_types::rng::{derive_seed, StdRng};
use gd_types::time::SimTime;
use gd_types::Fraction;

/// Extra MRS handshake latency charged when [`FaultSite::MrsAckDelay`]
/// fires (the DIMM acknowledges the deep-PD register write late).
pub const MRS_ACK_DELAY: SimTime = SimTime::from_micros(1);

/// Multiplier on per-page migration latency when
/// [`FaultSite::MigrationSlow`] fires (compaction contention).
pub const MIGRATION_SLOWDOWN: u64 = 8;

/// Multiplier on tXP/tXS when [`FaultSite::WakeStretch`] fires
/// (worst-case wake from deep power-down).
pub const WAKE_STRETCH: u64 = 4;

/// A place in the stack where a fault can be injected.
///
/// Sites are stable identifiers: the per-site RNG stream is derived from
/// [`FaultSite::label`], so renaming a site changes its stream (and is a
/// snapshot-visible event), while adding a new site leaves every
/// existing stream untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultSite {
    /// `mmsim`: a block that looks movable turns out to hold a pinned
    /// page at offline time → EBUSY.
    OfflinePinned,
    /// `mmsim`: migration aborts partway through a block; already-placed
    /// destination frames must be rolled back → EAGAIN.
    MigrationAbort,
    /// `mmsim`: migration succeeds but each page costs
    /// [`MIGRATION_SLOWDOWN`]× the nominal copy latency.
    MigrationSlow,
    /// daemon: the DIMM NACKs a deep-PD entry for a group (MRS write
    /// rejected); the group stays in shallow power-down.
    DeepPdEntryNack,
    /// daemon: deep-PD entry succeeds but the MRS ack arrives
    /// [`MRS_ACK_DELAY`] late.
    MrsAckDelay,
    /// daemon: waking a group (or its sense-amp buddy) for an online
    /// fails transiently and must be retried.
    BuddyWakeFail,
    /// dram: a wake from deep power-down takes [`WAKE_STRETCH`]× the
    /// nominal tXP/tXS.
    WakeStretch,
}

impl FaultSite {
    /// Every site, in stream-derivation order.
    pub const ALL: [FaultSite; 7] = [
        FaultSite::OfflinePinned,
        FaultSite::MigrationAbort,
        FaultSite::MigrationSlow,
        FaultSite::DeepPdEntryNack,
        FaultSite::MrsAckDelay,
        FaultSite::BuddyWakeFail,
        FaultSite::WakeStretch,
    ];

    /// Stable label: seed-derivation key and telemetry name segment.
    pub fn label(self) -> &'static str {
        match self {
            FaultSite::OfflinePinned => "offline-pinned",
            FaultSite::MigrationAbort => "migration-abort",
            FaultSite::MigrationSlow => "migration-slow",
            FaultSite::DeepPdEntryNack => "deep-pd-entry-nack",
            FaultSite::MrsAckDelay => "mrs-ack-delay",
            FaultSite::BuddyWakeFail => "buddy-wake-fail",
            FaultSite::WakeStretch => "wake-stretch",
        }
    }

    fn index(self) -> usize {
        FaultSite::ALL
            .iter()
            .position(|s| *s == self)
            .expect("invariant: FaultSite::ALL covers every variant")
    }
}

/// When a site fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultTrigger {
    /// Site is disarmed; checks draw nothing from the stream.
    Never,
    /// Each check fires independently with this probability. Zero
    /// behaves exactly like [`FaultTrigger::Never`] (no draw).
    Prob(Fraction),
    /// Fires on every Nth check (1-based: `EveryNth(3)` fires on checks
    /// 3, 6, 9, …). `EveryNth(0)` never fires.
    EveryNth(u64),
    /// Fires on exactly the Nth check (1-based), then never again.
    /// `OneShot(0)` never fires.
    OneShot(u64),
}

impl FaultTrigger {
    /// True when the trigger can ever fire.
    fn armed(self) -> bool {
        match self {
            FaultTrigger::Never => false,
            FaultTrigger::Prob(p) => p > Fraction::ZERO,
            FaultTrigger::EveryNth(n) | FaultTrigger::OneShot(n) => n > 0,
        }
    }
}

/// A declarative fault plan: one trigger per site.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    triggers: [FaultTrigger; FaultSite::ALL.len()],
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// A plan with every site disarmed.
    pub fn none() -> Self {
        FaultPlan {
            triggers: [FaultTrigger::Never; FaultSite::ALL.len()],
        }
    }

    /// A plan arming every site with the same per-check probability.
    /// A zero `rate` yields an inactive plan (zero-cost-off).
    pub fn uniform(rate: Fraction) -> Self {
        let mut plan = FaultPlan::none();
        for site in FaultSite::ALL {
            plan = plan.with(site, FaultTrigger::Prob(rate));
        }
        plan
    }

    /// Sets one site's trigger (builder style).
    #[must_use]
    pub fn with(mut self, site: FaultSite, trigger: FaultTrigger) -> Self {
        self.triggers[site.index()] = trigger;
        self
    }

    /// True when any site can ever fire.
    pub fn is_active(&self) -> bool {
        self.triggers.iter().any(|t| t.armed())
    }

    /// Instantiates the plan with per-site streams derived from `seed`.
    pub fn build(&self, seed: u64) -> FaultInjector {
        let streams =
            FaultSite::ALL.map(|site| StdRng::seed_from_u64(derive_seed(seed, site.label())));
        FaultInjector {
            plan: self.clone(),
            streams,
            checks: [0; FaultSite::ALL.len()],
            fired: [0; FaultSite::ALL.len()],
        }
    }
}

/// A built fault plan: per-site seeded decision streams plus counters.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultInjector {
    plan: FaultPlan,
    streams: [StdRng; FaultSite::ALL.len()],
    checks: [u64; FaultSite::ALL.len()],
    fired: [u64; FaultSite::ALL.len()],
}

impl FaultInjector {
    /// Asks whether `site` fires at this check point. Disarmed sites
    /// return `false` without advancing any stream.
    pub fn should_fire(&mut self, site: FaultSite) -> bool {
        let i = site.index();
        let trigger = self.plan.triggers[i];
        if !trigger.armed() {
            return false;
        }
        self.checks[i] += 1;
        let fire = match trigger {
            FaultTrigger::Never => false,
            FaultTrigger::Prob(p) => self.streams[i].gen_bool(p.get()),
            FaultTrigger::EveryNth(n) => self.checks[i].is_multiple_of(n),
            FaultTrigger::OneShot(n) => self.checks[i] == n,
        };
        if fire {
            self.fired[i] += 1;
        }
        fire
    }

    /// True when any site can ever fire (mirrors [`FaultPlan::is_active`]).
    pub fn is_active(&self) -> bool {
        self.plan.is_active()
    }

    /// How many times `site` has been checked.
    pub fn checks(&self, site: FaultSite) -> u64 {
        self.checks[site.index()]
    }

    /// How many times `site` has fired.
    pub fn fired(&self, site: FaultSite) -> u64 {
        self.fired[site.index()]
    }

    /// Total faults injected across all sites.
    pub fn total_fired(&self) -> u64 {
        self.fired.iter().sum()
    }

    /// Exports per-site check/fire counters as
    /// `{scope}.faults.<site>.checks` / `.fired` for every site that has
    /// been checked at least once. An inactive injector exports nothing,
    /// so a rate-0 run's telemetry is byte-identical to a no-faults run.
    pub fn export_telemetry(&self, tele: &mut gd_obs::Telemetry, scope: &str) {
        if !self.is_active() {
            return;
        }
        for site in FaultSite::ALL {
            let i = site.index();
            if self.checks[i] == 0 {
                continue;
            }
            let label = site.label();
            tele.registry
                .counter_add(&format!("{scope}.faults.{label}.checks"), self.checks[i]);
            tele.registry
                .counter_add(&format!("{scope}.faults.{label}.fired"), self.fired[i]);
        }
    }
}

/// Bounded exponential backoff in sim-time, shared by the daemon's
/// recovery paths: a group whose deep-PD entry is NACKed is quarantined
/// (not retried) for [`RetryPolicy::backoff_after`] the failure, and
/// after [`RetryPolicy::degrade_after`] consecutive failures it is
/// permanently degraded to shallow power-down instead of oscillating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum transient retries for a single operation (buddy wake).
    pub max_retries: u32,
    /// Quarantine after the first failure; doubles per consecutive
    /// failure.
    pub base_backoff: SimTime,
    /// Quarantine cap.
    pub max_backoff: SimTime,
    /// Consecutive deep-PD failures before a group is degraded to
    /// shallow power-down for the rest of the run.
    pub degrade_after: u32,
}

impl RetryPolicy {
    /// Defaults sized for the co-sim's 1 s monitoring epochs: first
    /// backoff spans two epochs, the cap stays well under the shortest
    /// benchmark runtime, and degradation needs a persistent failure.
    pub const fn paper_default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff: SimTime::from_secs(2),
            max_backoff: SimTime::from_secs(60),
            degrade_after: 5,
        }
    }

    /// Quarantine length after `consecutive_failures` (>= 1) failures:
    /// `base * 2^(n-1)`, capped at [`RetryPolicy::max_backoff`].
    pub fn backoff_after(&self, consecutive_failures: u32) -> SimTime {
        if consecutive_failures == 0 {
            return SimTime::from_nanos(0);
        }
        let exp = consecutive_failures.saturating_sub(1).min(32);
        let mut backoff = self.base_backoff;
        for _ in 0..exp {
            backoff = backoff * 2;
            if backoff >= self.max_backoff {
                return self.max_backoff;
            }
        }
        backoff.min(self.max_backoff)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_plan_is_inactive_and_never_draws() {
        let mut inj = FaultPlan::none().build(7);
        assert!(!inj.is_active());
        for site in FaultSite::ALL {
            for _ in 0..100 {
                assert!(!inj.should_fire(site));
            }
            assert_eq!(inj.checks(site), 0, "disarmed site must not count checks");
        }
        assert_eq!(inj.total_fired(), 0);

        // Probability zero behaves identically to Never.
        let mut zero = FaultPlan::uniform(Fraction::ZERO).build(7);
        assert!(!zero.is_active());
        assert!(!zero.should_fire(FaultSite::MigrationAbort));
        assert_eq!(zero.checks(FaultSite::MigrationAbort), 0);
    }

    #[test]
    fn same_seed_same_decisions() {
        let plan = FaultPlan::uniform(Fraction::lit(0.3));
        let mut a = plan.build(42);
        let mut b = plan.build(42);
        for _ in 0..500 {
            for site in FaultSite::ALL {
                assert_eq!(a.should_fire(site), b.should_fire(site));
            }
        }
        assert!(a.total_fired() > 0, "rate 0.3 over 3500 checks must fire");
        assert_eq!(a.total_fired(), b.total_fired());
    }

    #[test]
    fn site_streams_are_independent() {
        let plan = FaultPlan::uniform(Fraction::lit(0.5));
        // Checking extra sites in one injector must not perturb another
        // site's stream.
        let mut interleaved = plan.build(9);
        let mut solo = plan.build(9);
        let mut a_decisions = Vec::new();
        for _ in 0..200 {
            interleaved.should_fire(FaultSite::WakeStretch);
            a_decisions.push(interleaved.should_fire(FaultSite::OfflinePinned));
        }
        for decision in a_decisions {
            assert_eq!(decision, solo.should_fire(FaultSite::OfflinePinned));
        }
    }

    #[test]
    fn every_nth_and_one_shot_schedules() {
        let mut inj = FaultPlan::none()
            .with(FaultSite::MigrationAbort, FaultTrigger::EveryNth(3))
            .with(FaultSite::DeepPdEntryNack, FaultTrigger::OneShot(2))
            .build(1);
        assert!(inj.is_active());
        let fires: Vec<bool> = (0..9)
            .map(|_| inj.should_fire(FaultSite::MigrationAbort))
            .collect();
        assert_eq!(
            fires,
            [false, false, true, false, false, true, false, false, true]
        );
        let shots: Vec<bool> = (0..5)
            .map(|_| inj.should_fire(FaultSite::DeepPdEntryNack))
            .collect();
        assert_eq!(shots, [false, true, false, false, false]);
        assert_eq!(inj.fired(FaultSite::MigrationAbort), 3);
        assert_eq!(inj.fired(FaultSite::DeepPdEntryNack), 1);
        assert_eq!(inj.total_fired(), 4);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = RetryPolicy::paper_default();
        assert_eq!(policy.backoff_after(0), SimTime::from_nanos(0));
        assert_eq!(policy.backoff_after(1), SimTime::from_secs(2));
        assert_eq!(policy.backoff_after(2), SimTime::from_secs(4));
        assert_eq!(policy.backoff_after(3), SimTime::from_secs(8));
        assert_eq!(policy.backoff_after(5), SimTime::from_secs(32));
        assert_eq!(policy.backoff_after(6), SimTime::from_secs(60));
        assert_eq!(policy.backoff_after(60), SimTime::from_secs(60));
    }

    #[test]
    fn inactive_injector_exports_nothing() {
        let mut tele = gd_obs::Telemetry::new();
        let mut inj = FaultPlan::uniform(Fraction::ZERO).build(3);
        inj.should_fire(FaultSite::OfflinePinned);
        inj.export_telemetry(&mut tele, "mm");
        let rendered = tele.render_jsonl("p");
        assert!(
            !rendered.contains("faults"),
            "inactive injector must not leave telemetry keys: {rendered}"
        );

        let mut active = FaultPlan::uniform(Fraction::ONE).build(3);
        assert!(active.should_fire(FaultSite::OfflinePinned));
        active.export_telemetry(&mut tele, "mm");
        assert_eq!(tele.registry.counter("mm.faults.offline-pinned.fired"), 1);
        assert_eq!(tele.registry.counter("mm.faults.offline-pinned.checks"), 1);
    }
}
