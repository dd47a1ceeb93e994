#![warn(missing_docs)]
//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation (see DESIGN.md §4 for the experiment index).
//!
//! Each binary under `src/bin/` reproduces one artifact
//! (`cargo run --release -p bench --bin fig14`), printing the paper-style
//! rows to stdout and appending JSON-lines records under `results/`.
//!
//! - [`systems`]: the registry of all serving systems and testbeds.
//! - [`harness`]: the one single-instance recipe,
//!   [`harness::stability_run`] (healthy, generated faults or one
//!   crash), plus fixed-trace runs and the latency table.
//! - [`sweep`]: the one job type, [`sweep::SweepJob`], and the
//!   deterministic worker pool that runs grids of them
//!   ([`sweep::run_sweep`], [`sweep::parallel_goodput`]).
//! - [`fleet_harness`]: the one fleet point — build, stream, run and
//!   books check — shared by the `fleet` and `fleet_chaos` binaries.

pub mod fleet_harness;
pub mod harness;
pub mod sweep;
pub mod systems;

use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::Path;

/// Appends a JSON record to `results/<file>.jsonl` (best effort; the
/// printed output is the primary artifact).
pub fn save_record(file: &str, value: &serde_json::Value) {
    let dir = Path::new("results");
    let _ = std::fs::create_dir_all(dir);
    if let Ok(mut f) = OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join(format!("{file}.jsonl")))
    {
        let _ = writeln!(f, "{value}");
    }
}

/// Prints a header for an experiment binary.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}
