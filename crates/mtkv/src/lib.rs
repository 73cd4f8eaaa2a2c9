//! # mtkv — the Masstree storage system
//!
//! The full system from §3 and §5 of the paper around the `masstree`
//! index: multi-column versioned values with atomic multi-column puts,
//! per-worker value logging with group commit (≤200 ms force),
//! parallel fuzzy checkpointing, and parallel log recovery with a
//! prefix-consistent cutoff.
//!
//! ```no_run
//! use mtkv::Store;
//!
//! let store = Store::persistent(std::path::Path::new("/tmp/mtkv")).unwrap();
//! let session = store.session().unwrap();   // one per worker thread
//! session.put(b"user1", &[(0, b"alice"), (1, b"42")]);
//! assert_eq!(session.get(b"user1", Some(&[0])).unwrap()[0], b"alice");
//! ```

pub mod checkpoint;
pub mod clock;
pub mod crc32;
pub mod log;
pub mod plan;
pub mod recovery;
pub mod store;
pub mod value;
pub mod vtier;

pub use checkpoint::{
    latest_checkpoint, latest_checkpoint_at_or_before, prune_checkpoints, write_checkpoint,
    CheckpointMeta,
};
pub use log::{
    read_log, segment_path, truncate_covered_segments, CrashPoint, LogRecord, LogWriter,
    TruncateReport,
};
pub use mtcache::{CacheConfig, CacheStats};
pub use mtobs;
pub use plan::{recycle, OpClass, PhasePlanner};
pub use recovery::{
    log_files, parse_log_name, recover, recover_with, session_segments, RecoveryReport,
};
pub use store::{DurabilityConfig, DurabilityStats, PutOp, ReplStats, ScanCursor, Session, Store};
pub use value::{ColValue, ValuePtr};
pub use vtier::{ValueError, ValueTier, ValueTierStats};
