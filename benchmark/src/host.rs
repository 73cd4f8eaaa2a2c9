//! What the benchmark reads from `/proc`: the server child's CPU time,
//! peak memory and storage writes, and the host stamp for provenance.

use std::path::Path;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// Value of a `Key:   value` line (as in `/proc/<pid>/status`, `/io`).
fn field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .map(str::trim)
}

/// utime + stime of a process in seconds. Linux reports these in
/// USER_HZ ticks, fixed at 100 on every supported architecture.
pub fn process_cpu_seconds(pid: u32) -> f64 {
    let stat = read(&format!("/proc/{pid}/stat"));
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the line, so 11 and 12 after ") ".
    let Some((_, rest)) = stat.rsplit_once(") ") else {
        return 0.0;
    };
    let mut it = rest.split_ascii_whitespace().skip(11);
    let ticks = |s: Option<&str>| s.and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
    (ticks(it.next()) + ticks(it.next())) as f64 / 100.0
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib(pid: u32) -> f64 {
    field(&read(&format!("/proc/{pid}/status")), "VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes the process caused to be sent to the storage layer.
pub fn storage_write_bytes(pid: u32) -> u64 {
    field(&read(&format!("/proc/{pid}/io")), "write_bytes")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn cpu_model() -> String {
    field(&read("/proc/cpuinfo"), "model name\t")
        .unwrap_or("unknown")
        .to_string()
}

pub fn kernel() -> String {
    read("/proc/sys/kernel/osrelease").trim().to_string()
}

/// The commit being measured, when the benchmark runs inside a git
/// checkout (the driver's checkout is not one).
pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_our_own_proc_entries() {
        let pid = std::process::id();
        assert!(peak_rss_mib(pid) > 0.1);
        // Burn a little CPU so the tick counter is visibly non-zero.
        let t0 = std::time::Instant::now();
        let mut x = 0u64;
        while t0.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(
            process_cpu_seconds(pid) >= 0.03,
            "{}",
            process_cpu_seconds(pid)
        );
        assert_eq!(field("VmHWM:\t  12 kB\nX: 1", "VmHWM"), Some("12 kB"));
        assert_eq!(field("write_bytes: 77", "write_bytes"), Some("77"));
        assert!(nproc() >= 1);
    }
}
