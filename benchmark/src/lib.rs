//! The repo benchmark: two gated and three capacity cluster workloads, four end-to-end metrics and
//! an outside-in per-layer ledger. See `README.md` for the glossary, the
//! predictions and the known limits; `BENCHMARK.json` at the repository
//! root is the machine-readable contract.
//!
//! Everything is measured from outside, through public functions of the
//! crates under test; the harness itself is single-threaded.

pub mod metrics;
pub mod procfs;
pub mod rep;
pub mod replay;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
