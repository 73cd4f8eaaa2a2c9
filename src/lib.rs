//! Umbrella crate for the Masstree reproduction workspace.
//!
//! Re-exports the member crates so that examples and integration tests can
//! use a single dependency. See `README.md` for an overview.

pub use baselines;
pub use masstree;
pub use mtkv;
pub use mtnet;
pub use mtworkload;
