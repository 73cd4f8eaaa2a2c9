//! `kvbench serve <workload> <dir>`: the program under test. A plain
//! server main over the repo's public API — recover the directory, give
//! every session the hint cache, serve on an ephemeral loopback port —
//! that the load generator runs as a child process, so the server's CPU
//! time, memory and storage writes are a separate process's numbers.

use std::io::{Read, Write};
use std::path::Path;

use mtnet::{Server, ServerConfig};

use crate::workload::{Spec, SERVER_WORKERS};

/// Everything the served store is configured with; the in-process wire
/// rung of the ladder builds its server the same way.
pub fn start(spec: &Spec, dir: &Path) -> std::io::Result<Server> {
    std::fs::create_dir_all(dir)?;
    let (store, _report) = mtkv::recover_with(dir, dir, spec.durability())?;
    store.set_session_cache(Some(Spec::session_cache()));
    let config = ServerConfig {
        workers: SERVER_WORKERS,
        ..Default::default()
    };
    Server::start_with(store, "127.0.0.1:0", config)
}

/// Serves until standard input closes: the parent holds the other end
/// of the pipe, so the server cannot outlive it even if the parent is
/// killed.
pub fn main(spec: &Spec, dir: &Path) -> std::io::Result<()> {
    let mut server = start(spec, dir)?;
    let mut out = std::io::stdout().lock();
    writeln!(out, "ADDR {}", server.addr())?;
    out.flush()?;
    let mut sink = [0u8; 64];
    while std::io::stdin().read(&mut sink)? > 0 {}
    server.stop();
    Ok(())
}
