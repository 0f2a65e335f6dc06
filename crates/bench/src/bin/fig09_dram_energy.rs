//! Fig. 9: DRAM energy, normalized to (w/o interleave, srf_only), for four
//! policies under both interleave modes (paper: GreenDIMM reduces DRAM
//! energy 38 % for SPEC and 60 % for data-center workloads on average,
//! and beats RAMZzz/PASR by ~49 pp when interleaving is on). The table is
//! [`gd_bench::energy::energy_table`], shared with Fig. 10.

use gd_bench::energy::energy_table;
use gd_bench::BenchArgs;

fn main() {
    energy_table(
        BenchArgs::from_env(env!("CARGO_BIN_NAME")),
        "Fig. 9: normalized DRAM energy (baseline = w/o intlv, srf_only)",
        |r| r.dram_norm,
        "paper: GreenDIMM -38% (SPEC) / -60% (data-center) vs baseline",
    );
}
