//! # ses-bench — the experiment harness
//!
//! Regenerates every figure of the paper's evaluation (§IV, Fig. 1a–1d) and
//! records the committed benchmark files. Three binaries:
//!
//! * `fig1` drives [`run_sweep`] over the paper's sweeps and prints one
//!   table per panel;
//! * `bench_engine` writes and gates `BENCH_engine.json` (the engine's
//!   `score_evaluations`/`posting_visits` counters and timings);
//! * `bench_server` writes `BENCH_server.json` (HTTP latency and
//!   throughput).
//!
//! Heuristic quality against the exact optimum is `ses quality`, and the
//! dataset calibration statistics are `ses analyze`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod baseline;
pub mod harness;
pub mod report;

pub use harness::{run_sweep, CellResult, HarnessConfig};
pub use report::{panel_table, write_json};
pub use ses_core::SchedulerSpec;
