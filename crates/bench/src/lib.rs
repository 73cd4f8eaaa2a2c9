//! Shared benchmark harness for regenerating the paper's tables and
//! figures (§6–§7). Each figure has a binary under `src/bin/`; this
//! library provides thread orchestration, throughput measurement, a
//! unified index interface over every structure in the factor analysis,
//! and simple CLI parameter handling.
//!
//! Absolute numbers will not match the paper's 2012 Opteron testbed; the
//! harness reproduces *shapes*: orderings, ratios and crossovers.

pub mod params;
pub mod runner;
pub mod standins;
pub mod unified;

pub use params::Params;
pub use runner::{run_fixed_ops, run_timed, Throughput};
pub use unified::AnyIndex;
