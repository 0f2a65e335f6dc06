//! Scheduler correctness: every command the FR-FCFS controller issues must
//! satisfy the JEDEC timing constraints, the rank power-state protocol, and
//! GreenDIMM's sub-array-group safety rules, as judged by the *independent*
//! replay checker in `gd_dram::validate`.

use greendimm_suite::dram::{
    CommandRecord, DramCommand, EngineMode, LowPowerPolicy, MemRequest, MemorySystem, TimingChecker,
};
use greendimm_suite::types::config::{DramConfig, InterleaveMode, MemSpecKind};
use greendimm_suite::types::ids::SubArrayGroup;
use greendimm_suite::types::rng::{component_rng, StdRng};
use greendimm_suite::types::Fraction;
use greendimm_suite::workloads::{by_name, AppProfile, TraceGenerator};

const MODES: [InterleaveMode; 2] = [InterleaveMode::Interleaved, InterleaveMode::Linear];

fn run_and_validate(
    mode: InterleaveMode,
    policy: LowPowerPolicy,
    profile: &AppProfile,
    requests: usize,
    seed: u64,
) -> Vec<greendimm_suite::dram::CommandRecord> {
    let cfg = DramConfig::small_test().with_interleave(mode);
    let mut sys = MemorySystem::new(cfg, policy).expect("config");
    sys.enable_command_log();
    let mut gen = TraceGenerator::new(profile.clone(), seed);
    let cap = cfg.total_capacity_bytes();
    let trace: Vec<_> = gen
        .take(requests)
        .into_iter()
        .map(|mut r| {
            r.addr %= cap;
            r
        })
        .collect();
    sys.run_trace(trace).expect("trace");
    let log = sys.take_command_log();
    assert!(!log.is_empty(), "log must record commands");
    let checker = TimingChecker::for_config(&cfg);
    let violations = checker.check(&log);
    assert!(
        violations.is_empty(),
        "{} violations under {mode:?} for {} (first: {})",
        violations.len(),
        profile.name,
        violations[0]
    );
    log
}

fn validate_run(mode: InterleaveMode, profile: &AppProfile, requests: usize, seed: u64) {
    run_and_validate(mode, LowPowerPolicy::srf_default(), profile, requests, seed);
}

#[test]
fn scheduler_respects_timing_interleaved() {
    let p = by_name("mcf").expect("profile");
    validate_run(InterleaveMode::Interleaved, &p, 5_000, 1);
}

#[test]
fn scheduler_respects_timing_linear() {
    // Linear mapping serializes onto one channel: the densest, most
    // conflict-prone schedule.
    let p = by_name("mcf").expect("profile");
    validate_run(InterleaveMode::Linear, &p, 5_000, 2);
}

#[test]
fn scheduler_respects_timing_streaming_workload() {
    // High row locality: long sequential bursts stress tCCD/tFAW paths.
    let p = by_name("libquantum").expect("profile");
    validate_run(InterleaveMode::Interleaved, &p, 5_000, 4);
}

#[test]
fn scheduler_respects_timing_write_heavy() {
    let mut p = by_name("lbm").expect("profile");
    p.read_fraction = Fraction::lit(0.3); // stress tWR / tWTR turnarounds
    validate_run(InterleaveMode::Interleaved, &p, 5_000, 5);
}

/// Property-style sweep: every interleave mode × several workload
/// personalities produces a clean protocol log, including the rank
/// power-state transitions the governor emits under self-refresh timeouts.
#[test]
fn scheduler_clean_across_interleave_and_workloads() {
    for (wi, name) in ["mcf", "soplex", "libquantum", "gems"].iter().enumerate() {
        let Some(profile) = by_name(name) else {
            continue; // profile set may shrink; the sweep adapts
        };
        for (mi, mode) in MODES.into_iter().enumerate() {
            run_and_validate(
                mode,
                LowPowerPolicy::srf_default(),
                &profile,
                2_000,
                100 + (wi * MODES.len() + mi) as u64,
            );
        }
    }
}

/// A sparse trace with aggressive power-down/self-refresh timeouts makes the
/// governor cycle ranks through PDE/PDX and SRE/SRX; the state machine in the
/// validator must accept the schedule, and the log must actually contain the
/// power commands (the test is vacuous otherwise).
#[test]
fn power_state_transitions_validate_clean() {
    let policy = LowPowerPolicy {
        pd_timeout: Some(64),
        sr_timeout: Some(4_000),
    };
    let p = by_name("mcf").expect("profile");
    let mut sparse = p.clone();
    // Stretch arrivals so ranks go idle between bursts.
    sparse.mpki = 1.0;
    let log = run_and_validate(InterleaveMode::Linear, policy, &sparse, 1_500, 11);
    let pde = log
        .iter()
        .filter(|r| r.command == DramCommand::PowerDownEnter)
        .count();
    let pdx = log
        .iter()
        .filter(|r| r.command == DramCommand::PowerDownExit)
        .count();
    assert!(pde > 0, "governor never entered power-down");
    assert!(pdx > 0, "power-down rank was never woken");
}

/// Deep power-down MRS writes land in the log, and traffic steered away from
/// the powered-down group validates clean — including the neighbor-pair rule.
#[test]
fn deep_pd_register_traffic_validates_clean() {
    let cfg = DramConfig::small_test();
    let mut sys = MemorySystem::new(cfg, LowPowerPolicy::srf_default()).expect("config");
    sys.enable_command_log();
    // Power down the top group and its sense-amp buddy, then run traffic
    // confined to the bottom half of the address space.
    let groups = sys.mapper().subarray_groups();
    let top = SubArrayGroup::new(groups - 1);
    let buddy = SubArrayGroup::new((groups - 1) ^ 1);
    sys.set_group_deep_pd(top, true).unwrap();
    sys.set_group_deep_pd(buddy, true).unwrap();
    let cap = sys.mapper().capacity_bytes();
    let reqs: Vec<_> = (0..1_000u64)
        .map(|i| MemRequest::read((i * 64 * 7) % (cap / 4), i * 20))
        .collect();
    sys.run_trace(reqs).unwrap();
    // Wake the groups again (still no traffic touches them beforehand).
    sys.set_group_deep_pd(top, false).unwrap();
    sys.set_group_deep_pd(buddy, false).unwrap();
    let log = sys.take_command_log();
    let mrs = log
        .iter()
        .filter(|r| r.command == DramCommand::ModeRegisterSet)
        .count();
    assert_eq!(
        mrs,
        4 * cfg.org.channels as usize,
        "each register write must be logged on every channel"
    );
    let violations = TimingChecker::for_config(&cfg)
        .with_neighbor_pairs(true)
        .check(&log);
    assert!(violations.is_empty(), "first: {}", violations[0]);
}

/// A register write is ordered against the traffic of every channel, not
/// only channel 0's: traffic on channel 1 to a group that powers down only
/// afterwards is legal, and so is traffic to it once it is back up.
#[test]
fn deep_pd_toggle_orders_against_every_channel() {
    let cfg = DramConfig::small_test();
    let mut sys = MemorySystem::new(cfg, LowPowerPolicy::srf_default()).expect("config");
    sys.enable_command_log();
    let mapper = sys.mapper().clone();
    let addr = (0..mapper.capacity_bytes() / 64)
        .map(|line| line * 64)
        .find(|&a| mapper.decode(a).unwrap().channel.index() == 1)
        .expect("an address on channel 1");
    let group = mapper.subarray_group_of(addr).unwrap();
    let buddy = SubArrayGroup::new(group.index() as u32 ^ 1);
    // Traffic, power-down, wake-up, traffic, power-down.
    for on in [true, false, true] {
        if on {
            let now = sys.clock();
            sys.run_trace([MemRequest::read(addr, now)]).unwrap();
        }
        sys.set_group_deep_pd(group, on).unwrap();
        sys.set_group_deep_pd(buddy, on).unwrap();
    }
    let violations = sys.validate_command_log(true);
    assert!(violations.is_empty(), "first: {}", violations[0]);
}

/// What a protocol stress run exercised, summed over seeds.
#[derive(Debug, Default)]
struct ProtocolCoverage {
    requests: u64,
    pd_entries: u64,
    sr_entries: u64,
    mrs: u64,
    refills: u64,
}

/// A random idle timeout, or none at all.
fn timeout(rng: &mut StdRng, max: u64) -> Option<u64> {
    rng.gen_bool(0.8).then(|| rng.gen_range(1..max))
}

/// Whether the OS could still send traffic to `addr`: its sub-array group
/// and that group's sense-amp buddy are up. The validator flags traffic
/// anywhere else by design.
fn usable(sys: &MemorySystem, addr: u64) -> bool {
    let g = sys.mapper().decode(addr).unwrap().subarray_group();
    let buddy = SubArrayGroup::new(g.index() as u32 ^ 1);
    !(sys.group_deep_pd(g) || sys.group_deep_pd(buddy))
}

/// A random usable address that `keep` accepts, if 64 draws find one.
fn draw_addr(rng: &mut StdRng, sys: &MemorySystem, keep: impl Fn(u64) -> bool) -> Option<u64> {
    let lines = sys.mapper().capacity_bytes() / 64;
    (0..64)
        .map(|_| rng.gen_range(0..lines) * 64)
        .find(|&a| keep(a) && usable(sys, a))
}

/// The same system driven through the stepped and the event-driven engine,
/// with one command log of everything they issued.
struct Twins {
    engines: [MemorySystem; 2],
    log: Vec<CommandRecord>,
    what: String,
}

impl Twins {
    fn new(cfg: DramConfig, policy: LowPowerPolicy, what: String) -> Self {
        let engines = [EngineMode::Stepped, EngineMode::EventDriven].map(|engine| {
            let mut sys = MemorySystem::new(cfg, policy)
                .expect("config")
                .with_engine_mode(engine);
            sys.enable_command_log();
            sys
        });
        Twins {
            engines,
            log: Vec::new(),
            what,
        }
    }

    /// The event-driven system, for the state the next operation reads.
    fn sys(&self) -> &MemorySystem {
        &self.engines[1]
    }

    fn each(&mut self, mut op: impl FnMut(&mut MemorySystem)) {
        self.engines.iter_mut().for_each(&mut op);
    }

    fn run_trace(&mut self, trace: &[MemRequest]) {
        let what = &self.what;
        for sys in &mut self.engines {
            sys.run_trace(trace.to_vec())
                .unwrap_or_else(|e| panic!("{what}: {e}"));
        }
    }

    /// The commands issued since the last call, which both engines must
    /// have logged alike.
    fn take_log(&mut self) -> Vec<CommandRecord> {
        let [stepped, event] = &mut self.engines;
        let (a, b) = (stepped.take_command_log(), event.take_command_log());
        // Taking a log ends it; keep logging what follows.
        stepped.enable_command_log();
        event.enable_command_log();
        assert!(
            a == b,
            "{}: the engines logged different commands",
            self.what
        );
        self.log.extend_from_slice(&b);
        b
    }
}

/// One trace in which a bank's FIFO empties and then refills: a request to
/// bank X, traffic to other banks, and `gap` cycles later a second request
/// to bank X, long after the first was served. Both must be served, one on
/// each side of the refill. Returns `false` when no usable address was
/// drawn.
fn refill_probe(rng: &mut StdRng, twins: &mut Twins) -> bool {
    twins.take_log();
    let sys = twins.sys();
    let bank_of = |addr: u64| {
        let c = sys.mapper().decode(addr).unwrap();
        let flat =
            c.bank_group.index() * sys.config().org.banks_per_group as usize + c.bank.index();
        (c.channel.index() as u32, c.rank.index() as u32, flat as u32)
    };
    let Some(first) = draw_addr(rng, sys, |_| true) else {
        return false;
    };
    let bank = bank_of(first);
    let second = draw_addr(rng, sys, |a| bank_of(a) == bank).unwrap_or(first);
    let start = sys.clock();
    let gap = rng.gen_range(4_000u64..12_000);
    let mut trace = vec![MemRequest::read(first, start)];
    for i in 0..rng.gen_range(0u64..8) {
        if let Some(a) = draw_addr(rng, sys, |a| bank_of(a) != bank) {
            trace.push(MemRequest::write(a, start + i * gap / 8));
        }
    }
    trace.push(MemRequest::write(second, start + gap));
    twins.run_trace(&trace);
    let served: Vec<u64> = twins
        .take_log()
        .iter()
        .filter(|r| {
            matches!(r.command, DramCommand::Read | DramCommand::Write)
                && (r.channel, r.rank, r.bank) == bank
        })
        .map(|r| r.cycle)
        .collect();
    assert!(
        matches!(served[..], [a, b] if a < start + gap && b >= start + gap),
        "{}: bank {bank:?} served at {served:?}, refilled at {}",
        twins.what,
        start + gap
    );
    true
}

/// Seeded random command and power-state sequences through `MemorySystem`
/// on `kind`'s small test config, driven through both engines. Each seed
/// draws an interleave mode and a `LowPowerPolicy`, then mixes bursts of
/// reads and writes with random gaps, idle stretches and deep power-down
/// toggles of a sense-amp buddy pair, and ends with a [`refill_probe`]. Traffic only targets
/// usable addresses. Both engines must log identical commands and end with
/// identical `RunStats`, and the log must replay clean through the full
/// protocol validator with the neighbour-pair rule on.
fn protocol_stress(kind: MemSpecKind, seed: u64, cov: &mut ProtocolCoverage) {
    let mut rng = component_rng(seed, "dram-protocol-stress");
    let mode = MODES[rng.gen_range(0..MODES.len())];
    let cfg = DramConfig::small_test_for(kind).with_interleave(mode);
    let policy = LowPowerPolicy {
        pd_timeout: timeout(&mut rng, 256),
        sr_timeout: timeout(&mut rng, 20_000),
    };
    let mut twins = Twins::new(
        cfg,
        policy,
        format!("{kind} seed {seed} ({mode:?}, {policy:?})"),
    );
    let groups = cfg.org.subarray_groups();
    for _ in 0..40 {
        match rng.gen_range(0u32..10) {
            0 => {
                let cycles = rng.gen_range(1u64..30_000);
                twins.each(|sys| {
                    sys.run_idle(cycles);
                });
            }
            1 | 2 => {
                // A buddy pair goes down or comes back up together; at
                // least one pair stays up.
                let pair = rng.gen_range(0..groups / 2);
                let (g, buddy) = (
                    SubArrayGroup::new(2 * pair),
                    SubArrayGroup::new(2 * pair + 1),
                );
                let on = !twins.sys().group_deep_pd(g);
                if !on || twins.sys().groups_in_deep_pd() + 2 < groups as usize {
                    twins.each(|sys| {
                        sys.set_group_deep_pd(g, on).unwrap();
                        sys.set_group_deep_pd(buddy, on).unwrap();
                    });
                    cov.mrs += 2;
                }
            }
            _ => {
                let mut arrival = twins.sys().clock();
                let mut burst = Vec::new();
                for _ in 0..rng.gen_range(1u32..48) {
                    arrival += if rng.gen_bool(0.1) {
                        rng.gen_range(100u64..20_000)
                    } else {
                        rng.gen_range(0u64..16)
                    };
                    let Some(addr) = draw_addr(&mut rng, twins.sys(), |_| true) else {
                        continue;
                    };
                    burst.push(if rng.gen_bool(0.6) {
                        MemRequest::read(addr, arrival)
                    } else {
                        MemRequest::write(addr, arrival)
                    });
                }
                cov.requests += burst.len() as u64;
                twins.run_trace(&burst);
            }
        }
    }
    cov.refills += u64::from(refill_probe(&mut rng, &mut twins));
    twins.take_log();
    let [stepped, event] = &mut twins.engines;
    let stats = event.snapshot_stats();
    assert_eq!(
        stepped.snapshot_stats(),
        stats,
        "{}: the engines diverged",
        twins.what
    );
    cov.pd_entries += stats.pd_entries;
    cov.sr_entries += stats.sr_entries;
    let violations = TimingChecker::for_config(&cfg)
        .with_neighbor_pairs(true)
        .check(&twins.log);
    assert!(
        violations.is_empty(),
        "{}: {} violations, first: {}",
        twins.what,
        violations.len(),
        violations[0]
    );
}

/// Runs the stress over `seeds` on every memory generation, one thread per
/// generation: the stepped twin walks every cycle of every idle stretch.
fn protocol_stress_corpus(seeds: std::ops::Range<u64>) {
    std::thread::scope(|scope| {
        for kind in [
            MemSpecKind::Ddr4,
            MemSpecKind::Ddr5,
            MemSpecKind::Lpddr4Pasr,
        ] {
            let seeds = seeds.clone();
            scope.spawn(move || {
                let mut cov = ProtocolCoverage::default();
                for seed in seeds {
                    protocol_stress(kind, seed, &mut cov);
                }
                assert!(cov.requests > 0, "{kind}: {cov:?}");
                assert!(cov.pd_entries > 0 && cov.sr_entries > 0, "{kind}: {cov:?}");
                assert!(cov.mrs > 0, "{kind}: {cov:?}");
                assert!(cov.refills > 0, "{kind}: {cov:?}");
            });
        }
    });
}

/// The tier-1 seed corpus of the DRAM protocol stress.
#[test]
fn seeded_dram_protocol_stress_validates_clean() {
    protocol_stress_corpus(0..16);
}

/// The long seed sweep of the same stress (`cargo test -- --ignored`).
#[test]
#[ignore = "long seed sweep"]
fn seeded_dram_protocol_stress_sweep() {
    protocol_stress_corpus(0..200);
}
