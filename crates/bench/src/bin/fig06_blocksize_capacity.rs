//! Fig. 6: off-lined capacity as the memory block size changes
//! (paper: gcc off-lines 3.125 GB with 128 MB blocks vs 2 GB with 512 MB).
//! The table is [`gd_bench::blocks::block_size_table`], shared with Fig. 7
//! and Table 2.

use gd_bench::blocks::block_size_table;
use gd_bench::report::f2;
use gd_bench::BenchArgs;

fn main() {
    block_size_table(
        BenchArgs::from_env(env!("CARGO_BIN_NAME")),
        "Fig. 6: average off-lined capacity (GiB) in an 8 GiB managed region",
        [16, 12, 12, 12],
        |r| f2(r.offlined_gib_avg),
        "paper: smaller blocks off-line more (gcc: 3.125 GB @128MB vs 2 GB @512MB)",
    );
}
