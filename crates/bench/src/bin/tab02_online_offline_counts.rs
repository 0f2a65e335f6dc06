//! Table 2: number of on/off-lining events vs. block size
//! (paper: mcf 6/2/1, gcc 47/24/12, soplex 36/18/8, lbm 30/15/6,
//! libquantum 37/17/8, povray 40/20/9 for 128/256/512 MB). The table is
//! [`gd_bench::blocks::block_size_table`], shared with Figs. 6 and 7.

use gd_bench::blocks::block_size_table;
use gd_bench::BenchArgs;

fn main() {
    block_size_table(
        BenchArgs::from_env(env!("CARGO_BIN_NAME")),
        "Table 2: on/off-lining events vs. block size",
        [16, 10, 10, 10],
        |r| r.hotplug_events.to_string(),
        "paper: event counts roughly halve with each block-size doubling",
    );
}
