//! Fig. 7: execution-time increase vs. block size (paper: all under 3 %;
//! overhead grows slightly as blocks shrink — mcf 2.9 % @128 MB vs 2.2 %
//! @512 MB). The table is [`gd_bench::blocks::block_size_table`], shared
//! with Fig. 6 and Table 2.

use gd_bench::blocks::block_size_table;
use gd_bench::report::pct;
use gd_bench::BenchArgs;

fn main() {
    block_size_table(
        BenchArgs::from_env(env!("CARGO_BIN_NAME")),
        "Fig. 7: execution-time increase by GreenDIMM vs. block size",
        [16, 10, 10, 10],
        |r| pct(r.overhead_fraction),
        "paper: <3% everywhere; overhead decreases slightly with larger blocks",
    );
}
