//! Golden power values: the exact bits of `analytic_power_w` and
//! `peak_transfers_per_s` for every memory generation at its 64 GB and
//! 256 GB paper presets. Any change to the power math, however small,
//! moves at least one of these; a refactor that keeps them keeps every
//! figure built on the model.

use gd_power::{ActivityProfile, DramPowerModel, PowerGating};
use gd_types::config::{DramConfig, MemSpecKind};
use gd_types::Fraction;

/// `(label, f64::to_bits)` in the order [`measure`] produces them.
const GOLDEN: [(&str, u64); 78] = [
    ("ddr4/64gb/peak", 0x41cfca0555555556),
    ("ddr4/64gb/idle/none", 0x40212a8438088509),
    ("ddr4/64gb/idle/deep_pd0.5", 0x40169973d9ec7000),
    ("ddr4/64gb/idle/pasr0.5", 0x40205d8d79d0a676),
    ("ddr4/64gb/busy0.15/none", 0x40272a1f8e3ac0c6),
    ("ddr4/64gb/busy0.15/deep_pd0.5", 0x401f424950abe9fe),
    ("ddr4/64gb/busy0.15/pasr0.5", 0x40265d28d002e233),
    ("ddr4/64gb/busy0.45/none", 0x402c47baa9b499d0),
    ("ddr4/64gb/busy0.45/deep_pd0.5", 0x4024bebfc3cfce09),
    ("ddr4/64gb/busy0.45/pasr0.5", 0x402b7ac3eb7cbb3d),
    ("ddr4/64gb/parked/none", 0x40191cc100e6afcc),
    ("ddr4/64gb/parked/deep_pd0.5", 0x4011e00ec8f09f3a),
    ("ddr4/64gb/parked/pasr0.5", 0x40184fca42aed139),
    ("ddr4/256gb/peak", 0x41cfca0555555556),
    ("ddr4/256gb/idle/none", 0x40317a3cbbf65896),
    ("ddr4/256gb/idle/deep_pd0.5", 0x4026e47468351062),
    ("ddr4/256gb/idle/pasr0.5", 0x403036c513063b72),
    ("ddr4/256gb/busy0.15/none", 0x4036a5e0434f7dcc),
    ("ddr4/256gb/busy0.15/deep_pd0.5", 0x402e226132ce264a),
    ("ddr4/256gb/busy0.15/pasr0.5", 0x403562689a5f60a8),
    ("ddr4/256gb/busy0.45/none", 0x403a9960024c7e3e),
    ("ddr4/256gb/busy0.45/deep_pd0.5", 0x403304b058641396),
    ("ddr4/256gb/busy0.45/pasr0.5", 0x403955e8595c611a),
    ("ddr4/256gb/parked/none", 0x402a09c2d6572cec),
    ("ddr4/256gb/parked/deep_pd0.5", 0x4022568fb3a8ddc9),
    ("ddr4/256gb/parked/pasr0.5", 0x4028c64b2d670fc8),
    ("ddr5/64gb/peak", 0x41d1e1a2ffffffff),
    ("ddr5/64gb/idle/none", 0x4026c5fcab287eed),
    ("ddr5/64gb/idle/deep_pd0.5", 0x401c53c647bf2309),
    ("ddr5/64gb/idle/pasr0.5", 0x40252d7ab058b12c),
    ("ddr5/64gb/busy0.15/none", 0x402ea2a5d1271638),
    ("ddr5/64gb/busy0.15/deep_pd0.5", 0x4024b6e6195d5784),
    ("ddr5/64gb/busy0.15/pasr0.5", 0x402d0a23d6574876),
    ("ddr5/64gb/busy0.45/none", 0x403479eca7ecd1df),
    ("ddr5/64gb/busy0.45/deep_pd0.5", 0x402f0819980fe50a),
    ("ddr5/64gb/busy0.45/pasr0.5", 0x4033adabaa84eafe),
    ("ddr5/64gb/parked/none", 0x401f1eac6fa6c89e),
    ("ddr5/64gb/parked/deep_pd0.5", 0x4014f1fae547505a),
    ("ddr5/64gb/parked/pasr0.5", 0x401d862a74d6fadc),
    ("ddr5/256gb/peak", 0x41d1e1a2ffffffff),
    ("ddr5/256gb/idle/none", 0x4036a8533b107747),
    ("ddr5/256gb/idle/deep_pd0.5", 0x402c30521a7f0748),
    ("ddr5/256gb/idle/pasr0.5", 0x4034be1da7b0b392),
    ("ddr5/256gb/busy0.15/none", 0x403d8b30d738609a),
    ("ddr5/256gb/busy0.15/deep_pd0.5", 0x4033ab6078e69bab),
    ("ddr5/256gb/busy0.15/pasr0.5", 0x403ba0fb43d89ce5),
    ("ddr5/256gb/busy0.45/none", 0x4042f466a11ec919),
    ("ddr5/256gb/busy0.45/deep_pd0.5", 0x403c08fce3ebcd44),
    ("ddr5/256gb/busy0.45/pasr0.5", 0x4041ff4bd76ee73f),
    ("ddr5/256gb/parked/none", 0x402fa4bec679cc75),
    ("ddr5/256gb/parked/deep_pd0.5", 0x402534936eb23a50),
    ("ddr5/256gb/parked/pasr0.5", 0x402dba89331a08c0),
    ("lpddr4-pasr/64gb/peak", 0x41c7d78400000000),
    ("lpddr4-pasr/64gb/idle/none", 0x4008fcd9f0d8ce7a),
    ("lpddr4-pasr/64gb/idle/deep_pd0.5", 0x3ffc8864d3f63fa3),
    ("lpddr4-pasr/64gb/idle/pasr0.5", 0x4005ea2684ea8f62),
    ("lpddr4-pasr/64gb/busy0.15/none", 0x4013785ea69a0c91),
    ("lpddr4-pasr/64gb/busy0.15/deep_pd0.5", 0x400998c96554c7e4),
    ("lpddr4-pasr/64gb/busy0.15/pasr0.5", 0x4011ef04f0a2ed05),
    ("lpddr4-pasr/64gb/busy0.45/none", 0x401c042335aab62d),
    ("lpddr4-pasr/64gb/busy0.45/deep_pd0.5", 0x4015582941bb0d8e),
    ("lpddr4-pasr/64gb/busy0.45/pasr0.5", 0x401a7ac97fb396a0),
    ("lpddr4-pasr/64gb/parked/none", 0x3ff95b3921c0cdd1),
    ("lpddr4-pasr/64gb/parked/deep_pd0.5", 0x3fef14878c87ec09),
    ("lpddr4-pasr/64gb/parked/pasr0.5", 0x3ff57eabe28d01e6),
    ("lpddr4-pasr/256gb/peak", 0x41c7d78400000000),
    ("lpddr4-pasr/256gb/idle/none", 0x4008fcd9f0d8ce7a),
    ("lpddr4-pasr/256gb/idle/deep_pd0.5", 0x3ffc8864d3f63fa3),
    ("lpddr4-pasr/256gb/idle/pasr0.5", 0x4005ea2684ea8f62),
    ("lpddr4-pasr/256gb/busy0.15/none", 0x4013785ea69a0c91),
    ("lpddr4-pasr/256gb/busy0.15/deep_pd0.5", 0x400998c96554c7e4),
    ("lpddr4-pasr/256gb/busy0.15/pasr0.5", 0x4011ef04f0a2ed05),
    ("lpddr4-pasr/256gb/busy0.45/none", 0x401c042335aab62d),
    ("lpddr4-pasr/256gb/busy0.45/deep_pd0.5", 0x4015582941bb0d8e),
    ("lpddr4-pasr/256gb/busy0.45/pasr0.5", 0x401a7ac97fb396a0),
    ("lpddr4-pasr/256gb/parked/none", 0x3ff95b3921c0cdd1),
    ("lpddr4-pasr/256gb/parked/deep_pd0.5", 0x3fef14878c87ec09),
    ("lpddr4-pasr/256gb/parked/pasr0.5", 0x3ff57eabe28d01e6),
];

/// Every pinned value, labeled `generation/size/profile/gating`.
fn measure() -> Vec<(String, u64)> {
    let profiles = [
        ("idle", ActivityProfile::idle_standby()),
        ("busy0.15", ActivityProfile::busy(Fraction::lit(0.15))),
        ("busy0.45", ActivityProfile::busy(Fraction::lit(0.45))),
        // Self-refresh and power-down residency: the only states whose
        // currents (IDD6, IDD2P) the three profiles above never weigh.
        (
            "parked",
            ActivityProfile {
                precharge_standby: Fraction::lit(0.3),
                power_down: Fraction::lit(0.2),
                self_refresh: Fraction::lit(0.5),
                ..ActivityProfile::idle_standby()
            },
        ),
    ];
    let gatings = [
        ("none", PowerGating::none()),
        ("deep_pd0.5", PowerGating::deep_pd(Fraction::lit(0.5))),
        ("pasr0.5", PowerGating::pasr(Fraction::lit(0.5))),
    ];
    let mut out = Vec::new();
    for kind in MemSpecKind::all() {
        let presets = [
            ("64gb", DramConfig::preset_64gb(kind)),
            ("256gb", DramConfig::preset_256gb(kind)),
        ];
        for (size, cfg) in presets {
            let model = DramPowerModel::new(cfg).expect("paper preset");
            let prefix = format!("{}/{size}", kind.name());
            out.push((
                format!("{prefix}/peak"),
                model.peak_transfers_per_s().to_bits(),
            ));
            for (pn, profile) in &profiles {
                for (gn, gating) in &gatings {
                    let w = model.analytic_power_w(profile, gating);
                    out.push((format!("{prefix}/{pn}/{gn}"), w.to_bits()));
                }
            }
        }
    }
    out
}

#[test]
fn power_model_matches_golden_bits() {
    let got = measure();
    assert_eq!(got.len(), GOLDEN.len());
    for ((label, bits), (want_label, want_bits)) in got.iter().zip(GOLDEN) {
        assert_eq!(label, want_label);
        assert_eq!(
            *bits,
            want_bits,
            "{label}: {} vs golden {}",
            f64::from_bits(*bits),
            f64::from_bits(want_bits),
        );
    }
}
