//! Fig. 10: system energy, same matrix as Fig. 9 (paper: GreenDIMM reduces
//! system energy by 26 % for SPEC and 30 % for data-center workloads; only
//! GreenDIMM helps when interleaving is on). The table is
//! [`gd_bench::energy::energy_table`], shared with Fig. 9.

use gd_bench::energy::energy_table;
use gd_bench::BenchArgs;

fn main() {
    energy_table(
        BenchArgs::from_env(env!("CARGO_BIN_NAME")),
        "Fig. 10: normalized system energy (baseline = w/o intlv, srf_only)",
        |r| r.system_norm,
        "paper: GreenDIMM -26% (SPEC) / -30% (data-center) vs baseline",
    );
}
