//! The server child process and its data directory, both behind guards:
//! whatever way the generator leaves — return, error or panic — the
//! child is killed and reaped and the directory removed.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use crate::workload::Spec;

/// How long a freshly spawned server may take to recover its directory
/// and report its address.
const START_DEADLINE: Duration = Duration::from_secs(60);

/// `benchmark/out`: the only place the benchmark writes. Found from the
/// current directory — the root of the checkout for the driver and
/// `repeat.sh`, the package directory for `cargo test`.
pub fn out_dir() -> std::io::Result<PathBuf> {
    let cwd = std::env::current_dir()?;
    let bench = [cwd.join("benchmark"), cwd]
        .into_iter()
        .find(|d| d.join("src/serve.rs").is_file())
        .ok_or_else(|| std::io::Error::other("run kvbench from the root of the checkout"))?;
    let out = bench.join("out");
    std::fs::create_dir_all(&out)?;
    Ok(out)
}

/// Removes data directories left by runs that were killed before their
/// guards could run (their pid is gone).
pub fn sweep_stale(out: &Path) {
    for entry in std::fs::read_dir(out).into_iter().flatten().flatten() {
        let name = entry.file_name();
        let pid = name
            .to_str()
            .and_then(|n| n.strip_prefix("data-")?.split('-').next());
        if pid.is_some_and(|pid| !Path::new("/proc").join(pid).exists()) {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

/// A fresh data directory, removed on drop.
pub struct DataDir(PathBuf);

impl DataDir {
    pub fn create(spec: &Spec, tag: &str) -> std::io::Result<DataDir> {
        let dir = out_dir()?.join(format!("data-{}-{}-{tag}", std::process::id(), spec.name));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(DataDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A running `kvbench serve` child.
pub struct ServerChild {
    child: Child,
    pub addr: SocketAddr,
}

impl ServerChild {
    pub fn spawn(spec: &Spec, dir: &Path, smoke: bool) -> std::io::Result<ServerChild> {
        let mut cmd = Command::new(std::env::current_exe()?);
        cmd.arg("serve").arg(spec.name).arg(dir);
        if smoke {
            cmd.arg("--smoke");
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        // The address line is read on a helper thread so that a server
        // that never reports is a timeout here, not a hang.
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut line = String::new();
            let _ = BufReader::new(stdout).read_line(&mut line);
            let _ = tx.send(line);
        });
        let line = rx.recv_timeout(START_DEADLINE);
        let addr = line.ok().and_then(|l| {
            l.strip_prefix("ADDR ")?
                .split_ascii_whitespace()
                .next()?
                .parse()
                .ok()
        });
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            let _ = reader.join();
            return Err(std::io::Error::other(
                "server child did not report an address",
            ));
        };
        let _ = reader.join();
        Ok(ServerChild { child, addr })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Whether the child has exited on its own (it never should).
    pub fn exited(&mut self) -> bool {
        !matches!(self.child.try_wait(), Ok(None))
    }

    /// SIGKILL and reap: the crash of the durability check, and the
    /// normal way a benchmark server ends.
    pub fn kill(mut self) {
        self.kill_and_reap();
    }

    fn kill_and_reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        self.kill_and_reap();
    }
}
