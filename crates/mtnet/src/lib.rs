//! # mtnet — network front end for the Masstree store
//!
//! A framed binary protocol with batched, pipelined queries (§3, §5, §7
//! of the paper), a shard-per-core event-loop TCP server (worker-owned
//! sessions and logs, cross-connection batch aggregation), and a client
//! library.

pub mod client;
pub mod poll;
// `poll` is raw epoll, with no fallback for other kernels.
#[cfg(not(target_os = "linux"))]
compile_error!("mtnet's poller is raw epoll: Linux is the one supported OS");
pub mod proto;
pub mod server;

pub use client::Client;
pub use proto::{Request, RequestRef, Response, ScanResume, StatsExReply, StatsReply};
pub use server::{
    execute, execute_batch, execute_batch_into, execute_refs_into, Backend, ConnState, Server,
    ServerConfig,
};
