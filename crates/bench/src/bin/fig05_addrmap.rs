//! Fig. 5: the address mapping for the 64 GB platform and the sub-array
//! group as the minimum power-management unit (1.5625 % of capacity).
//!
//! One sweep point (`--jobs N` accepted for interface uniformity);
//! `--telemetry PATH` dumps the layout gauges as JSONL. This figure is CI's snapshot
//! staleness probe: it is cheap, fully deterministic, and regenerating it
//! at HEAD must reproduce `results/fig05_addrmap.txt` byte for byte.

use gd_bench::BenchArgs;
use gd_dram::AddressMapper;
use gd_types::config::DramConfig;
use gd_types::ids::SubArrayGroup;

fn render() -> String {
    let cfg = DramConfig::ddr4_2133_64gb();
    let mapper = AddressMapper::new(&cfg).expect("valid config");
    let l = mapper.bit_layout();
    let mut out = String::new();
    let mut line = |s: String| {
        out.push_str(&s);
        out.push('\n');
    };
    line("=== Fig. 5: physical address layout, 64 GB 4ch x 4rank DDR4 x8 ===\n".into());
    line("bit fields (LSB -> MSB):".into());
    line(format!("  [{:>2} b] cache-line offset", l.offset));
    line(format!(
        "  [{:>2} b] channel select      (interleaved)",
        l.channel
    ));
    line(format!(
        "  [{:>2} b] bank group select   (interleaved)",
        l.bank_group
    ));
    line(format!(
        "  [{:>2} b] bank select         (interleaved)",
        l.bank
    ));
    line(format!("  [{:>2} b] column (cache line)", l.column));
    line(format!(
        "  [{:>2} b] rank select         (interleaved)",
        l.rank
    ));
    line(format!(
        "  [{:>2} b] local row  <- local row decoder",
        l.local_row
    ));
    line(format!(
        "  [{:>2} b] sub-array  <- global row decoder (MSBs)",
        l.subarray
    ));
    line(format!(
        "  total {} bits = {} GB\n",
        l.total(),
        (1u64 << l.total()) >> 30
    ));
    line(format!(
        "sub-array groups: {} x {} MB = {} GB ({}% of capacity each)",
        mapper.subarray_groups(),
        cfg.subarray_group_bytes() >> 20,
        cfg.total_capacity_bytes() >> 30,
        100.0 * cfg.subarray_group_bytes() as f64 / cfg.total_capacity_bytes() as f64,
    ));
    for g in [0u32, 1, 63] {
        let (s, e) = mapper
            .subarray_group_range(SubArrayGroup::new(g))
            .expect("interleaved");
        line(format!("  group {g:>2}: physical [{s:#013x}, {e:#013x})"));
    }
    line("\npaper: 1024 MB unit = 1.5625% of capacity, independent of total size".into());
    out
}

fn main() {
    let args = BenchArgs::from_env(env!("CARGO_BIN_NAME"));
    args.finish();
    args.provenance("ddr4-2133 64GB 4ch x 4rank x8");
    let results = args.sweep(
        &["64gb"],
        |p| (*p).to_string(),
        |_, sink| {
            sink.fill(|tele| {
                if let Some(t) = tele {
                    let cfg = DramConfig::ddr4_2133_64gb();
                    let mapper = AddressMapper::new(&cfg).expect("valid config");
                    t.registry.gauge_set(
                        "addrmap.subarray_groups",
                        f64::from(mapper.subarray_groups()),
                    );
                    t.registry.gauge_set(
                        "addrmap.group_mib",
                        (cfg.subarray_group_bytes() >> 20) as f64,
                    );
                }
            });
            render()
        },
    );
    print!("{}", results[0]);
}
