//! Property-style tests on the core data structures and invariants,
//! spanning crates. Inputs are driven by the workspace's seeded RNG
//! (deterministic across runs) instead of an external property-testing
//! framework: each test sweeps a few hundred generated cases.

use greendimm_suite::core::GroupMap;
use greendimm_suite::dram::AddressMapper;
use greendimm_suite::faults::{FaultPlan, FaultSite, FaultTrigger};
use greendimm_suite::mmsim::{BuddyAllocator, MemoryManager, MmConfig, PageKind, MAX_ORDER};
use greendimm_suite::types::config::{DramConfig, InterleaveMode};
use greendimm_suite::types::ids::SubArrayGroup;
use greendimm_suite::types::rng::{component_rng, derive_seed};
use greendimm_suite::types::Fraction;
use greendimm_suite::workloads::azure::{synthesize, AzureConfig};

const MODES: [InterleaveMode; 2] = [InterleaveMode::Interleaved, InterleaveMode::Linear];

/// Address decode/encode is a bijection for every interleave mode.
#[test]
fn addrmap_roundtrip() {
    let mut rng = component_rng(1, "prop-addrmap");
    for mode in MODES {
        let cfg = DramConfig::small_test().with_interleave(mode);
        let mapper = AddressMapper::new(&cfg).unwrap();
        for _ in 0..500 {
            let addr = (rng.next_u64() % mapper.capacity_bytes()) & !63;
            let coord = mapper.decode(addr).unwrap();
            assert_eq!(mapper.encode(&coord).unwrap(), addr, "{mode:?} {addr:#x}");
        }
    }
}

/// Under interleaving, the sub-array group of an address is exactly its
/// position in the top-level split of the address space.
#[test]
fn subarray_group_is_address_prefix() {
    let mut rng = component_rng(2, "prop-subarray");
    let cfg = DramConfig::small_test();
    let mapper = AddressMapper::new(&cfg).unwrap();
    let group_bytes = mapper.capacity_bytes() / mapper.subarray_groups() as u64;
    for _ in 0..1000 {
        let addr = rng.next_u64() % mapper.capacity_bytes();
        assert_eq!(
            mapper.subarray_group_of(addr).unwrap().0 as u64,
            addr / group_bytes,
            "{addr:#x}"
        );
    }
}

/// The buddy allocator conserves pages and never double-allocates across
/// arbitrary alloc/free sequences.
#[test]
fn buddy_invariants() {
    let mut rng = component_rng(3, "prop-buddy");
    for case in 0..50 {
        let total = 1u32 << 14;
        let mut buddy = BuddyAllocator::new(total);
        let mut live: Vec<(u32, u8)> = Vec::new();
        let ops = rng.gen_range(1usize..60);
        for i in 0..ops {
            let order = rng.gen_range(0u32..u32::from(MAX_ORDER) + 1) as u8;
            if i % 3 == 2 && !live.is_empty() {
                let (off, o) = live.swap_remove(i % live.len());
                buddy.free(off, o);
            } else if let Some(off) = buddy.alloc(order) {
                // No overlap with any live chunk.
                let len = 1u32 << order;
                for (o2, ord2) in &live {
                    let len2 = 1u32 << ord2;
                    assert!(
                        off + len <= *o2 || o2 + len2 <= off,
                        "case {case}: overlap ({off},{len}) vs ({o2},{len2})"
                    );
                }
                live.push((off, order));
            }
            let live_pages: u32 = live.iter().map(|(_, o)| 1u32 << o).sum();
            assert_eq!(buddy.free_pages() + live_pages, total, "case {case}");
            buddy.audit().unwrap();
        }
        for (off, o) in live.drain(..) {
            buddy.free(off, o);
        }
        assert!(buddy.is_empty(), "case {case}");
    }
}

/// The memory manager's meminfo always balances: used + free == total,
/// total + offline == installed, across arbitrary alloc/free/hotplug
/// sequences.
#[test]
fn meminfo_always_balances() {
    let mut rng = component_rng(4, "prop-meminfo");
    for case in 0..30 {
        let mut mm = MemoryManager::new(MmConfig::small_test()).unwrap();
        let mut allocs = Vec::new();
        let ops = rng.gen_range(1usize..40);
        for _ in 0..ops {
            let kind = rng.gen_range(0u32..4);
            let arg = rng.gen_range(1u64..3000);
            match kind {
                0 => {
                    if let Ok(id) = mm.allocate(arg, PageKind::UserMovable) {
                        allocs.push(id);
                    }
                }
                1 => {
                    if !allocs.is_empty() {
                        let id = allocs.swap_remove(arg as usize % allocs.len());
                        mm.free(id).unwrap();
                    }
                }
                2 => {
                    let b = arg as usize % mm.block_count();
                    let _ = mm.offline_block(b);
                }
                _ => {
                    let b = arg as usize % mm.block_count();
                    let _ = mm.online_block(b);
                }
            }
            let info = mm.meminfo();
            assert_eq!(
                info.used_pages + info.free_pages,
                info.total_pages,
                "case {case}"
            );
            assert_eq!(
                info.total_pages + info.offline_pages,
                info.installed_pages,
                "case {case}"
            );
            mm.audit().unwrap();
        }
    }
}

/// Frame accounting is conserved across arbitrary alloc/free/hotplug
/// sequences *while faults fire*: injected pin rejections, mid-migration
/// aborts (with transactional rollback), and slow migrations never leak or
/// duplicate a page.
#[test]
fn fault_interleavings_conserve_frame_accounting() {
    let mut rng = component_rng(5, "prop-faults");
    for case in 0..20 {
        let seed = derive_seed(0xFA17, &format!("case-{case}"));
        let mut mm = MemoryManager::new(MmConfig::small_test()).unwrap();
        mm.set_fault_injector(
            FaultPlan::none()
                .with(
                    FaultSite::OfflinePinned,
                    FaultTrigger::Prob(Fraction::lit(0.3)),
                )
                .with(
                    FaultSite::MigrationAbort,
                    FaultTrigger::Prob(Fraction::lit(0.4)),
                )
                .with(
                    FaultSite::MigrationSlow,
                    FaultTrigger::Prob(Fraction::lit(0.5)),
                )
                .build(seed),
        );
        let mut allocs = Vec::new();
        let ops = rng.gen_range(20usize..60);
        for _ in 0..ops {
            let kind = rng.gen_range(0u32..4);
            let arg = rng.gen_range(1u64..3000);
            match kind {
                0 => {
                    if let Ok(id) = mm.allocate(arg, PageKind::UserMovable) {
                        allocs.push(id);
                    }
                }
                1 => {
                    if !allocs.is_empty() {
                        let id = allocs.swap_remove(arg as usize % allocs.len());
                        mm.free(id).unwrap();
                    }
                }
                2 => {
                    let b = arg as usize % mm.block_count();
                    let _ = mm.offline_block(b);
                }
                _ => {
                    let b = arg as usize % mm.block_count();
                    let _ = mm.online_block(b);
                }
            }
            let info = mm.meminfo();
            assert_eq!(
                info.used_pages + info.free_pages,
                info.total_pages,
                "case {case}"
            );
            assert_eq!(
                info.total_pages + info.offline_pages,
                info.installed_pages,
                "case {case}"
            );
            mm.audit().unwrap();
        }
    }
    // The property is vacuous if the plan never bites — force a dense case
    // and check the injector actually fired.
    let mut mm = MemoryManager::new(MmConfig::small_test()).unwrap();
    mm.set_fault_injector(FaultPlan::uniform(Fraction::lit(0.5)).build(7));
    for b in 0..mm.block_count() {
        let _ = mm.offline_block(b);
    }
    assert!(mm.fault_injector().unwrap().total_fired() > 0);
}

/// Negative test: a deliberately broken rollback (one destination frame
/// half-committed) is caught by the Strict mm invariants.
#[test]
fn strict_verification_catches_broken_rollback() {
    use greendimm_suite::verify::{mm, strict};
    let mut mm = MemoryManager::new(MmConfig::small_test()).unwrap();
    mm.set_fault_injector(
        FaultPlan::none()
            .with(FaultSite::MigrationAbort, FaultTrigger::EveryNth(1))
            .build(3),
    );
    mm.debug_break_rollback();
    // Put movable pages everywhere so off-lining must migrate (and the
    // forced abort exercises the broken rollback).
    let total = mm.meminfo().total_pages;
    mm.allocate(total / 2, PageKind::UserMovable).unwrap();
    let mut broke = false;
    for b in 0..mm.block_count() {
        let _ = mm.offline_block(b);
        if mm.audit().is_err() {
            broke = true;
            break;
        }
    }
    assert!(broke, "the broken rollback must corrupt the books");
    let err = strict(mm::check(&mm)).unwrap_err();
    assert!(
        err.to_string().contains("invariant violated"),
        "unexpected error: {err}"
    );
    // A healthy manager under the same fault plan (rollback intact) passes.
    let mut healthy = MemoryManager::new(MmConfig::small_test()).unwrap();
    healthy.set_fault_injector(
        FaultPlan::none()
            .with(FaultSite::MigrationAbort, FaultTrigger::EveryNth(1))
            .build(3),
    );
    let total = healthy.meminfo().total_pages;
    healthy.allocate(total / 2, PageKind::UserMovable).unwrap();
    for b in 0..healthy.block_count() {
        let _ = healthy.offline_block(b);
    }
    healthy.audit().unwrap();
    strict(mm::check(&healthy)).unwrap();
}

/// The Azure synthesizer across many seeds: every utilization sample stays
/// inside the paper's documented envelope (Fig. 1: 7–92 % of installed
/// capacity, so [0, 0.95] with slack), the diurnal mean lands near the
/// reported 48 % average, and each seed reproduces its schedule exactly.
#[test]
fn azure_utilization_stays_in_the_documented_envelope() {
    for seed in 1u64..=10 {
        let cfg = AzureConfig {
            seed,
            ..AzureConfig::paper_24h()
        };
        let trace = synthesize(&cfg);
        for &(t, u) in &trace.utilization {
            assert!(
                (0.0..=0.95).contains(&u),
                "seed {seed}: utilization {u:.3} at t={t} left the envelope"
            );
        }
        let mean = trace.mean_utilization();
        assert!(
            (0.25..=0.70).contains(&mean),
            "seed {seed}: mean utilization {mean:.2}"
        );
        let (lo, hi) = trace.utilization_range();
        assert!(lo < 0.30, "seed {seed}: diurnal trough {lo:.2} too high");
        assert!(hi > 0.55, "seed {seed}: diurnal peak {hi:.2} too low");
        // Same seed, same schedule — bit for bit.
        assert_eq!(trace, synthesize(&cfg), "seed {seed} not reproducible");
    }
}

/// Every block belongs to at least one group and the group->blocks /
/// block->groups relations are mutually consistent.
#[test]
fn groupmap_relations_consistent() {
    for block_mib in [64u64, 128, 256, 512] {
        let managed = 8u64 << 30;
        let map = GroupMap::new(managed, 64, block_mib << 20).unwrap();
        for b in 0..map.blocks() {
            for g in map.groups_of_block(b).unwrap() {
                assert!(
                    map.blocks_of_group(g).unwrap().contains(&b),
                    "{block_mib} MiB"
                );
            }
        }
        for g in 0..map.groups() {
            let group = SubArrayGroup::new(g);
            for b in map.blocks_of_group(group).unwrap() {
                assert!(
                    map.groups_of_block(b).unwrap().any(|x| x == group),
                    "{block_mib} MiB"
                );
            }
        }
    }
}

/// A fully-off-lined flag vector puts every group in deep power-down; an
/// all-on-line vector puts none.
#[test]
fn groupmap_offline_extremes() {
    for block_mib in [128u64, 256, 512] {
        let map = GroupMap::new(8 << 30, 64, block_mib << 20).unwrap();
        let all_off = vec![true; map.blocks()];
        assert!(map.fully_offline_groups(&all_off).iter().all(|x| *x));
        let all_on = vec![false; map.blocks()];
        assert!(map.fully_offline_groups(&all_on).iter().all(|x| !*x));
    }
}

/// `Fraction::new` accepts exactly the inputs a `.clamp(0.0, 1.0)` leaves
/// bit-for-bit unchanged, so replacing a clamp by the type changes no
/// value that reached the clamp in range. NaN is the one input the two
/// treat differently: the clamp passed it through, the type rejects it.
/// The type's operations compute the same bits as the `f64` expressions
/// they replace, and stay in range, where any clamp leaves them alone.
#[test]
fn fraction_accepts_what_the_unit_clamp_left_alone() {
    let mut rng = component_rng(7, "prop-fraction");
    let mut inputs = vec![
        0.0,
        -0.0,
        1.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        1.0f64.next_up(),
        1.0f64.next_down(),
        0.0f64.next_up(),
        0.0f64.next_down(),
    ];
    for _ in 0..2_000 {
        inputs.push(rng.gen_range(-0.5..1.5f64));
        inputs.push(rng.gen_range(0.0..1.0f64));
        inputs.push(f64::from_bits(rng.next_u64()));
    }
    let mut accepted = Vec::new();
    for x in inputs {
        let ok = Fraction::new(x).is_ok();
        if x.is_nan() {
            assert!(!ok, "NaN accepted");
            continue;
        }
        assert_eq!(
            ok,
            x.clamp(0.0, 1.0).to_bits() == x.to_bits(),
            "{x:e} ({:#x})",
            x.to_bits()
        );
        if ok {
            accepted.push(Fraction::new(x).unwrap());
        }
    }
    assert!(accepted.len() > 2_000, "{} accepted", accepted.len());
    for pair in accepted.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        let (x, y) = (a.get(), b.get());
        let cases = [
            ("complement", a.complement(), 1.0 - x),
            ("product", a * b, x * y),
            ("max", a.max(b), x.max(y)),
        ];
        for (op, got, want) in cases {
            assert_eq!(got.get().to_bits(), want.to_bits(), "{op} of {x:e}, {y:e}");
            assert_eq!(Fraction::new(got.get()), Ok(got), "{op} of {x:e}, {y:e}");
        }
    }
}
