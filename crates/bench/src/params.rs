//! Tiny CLI/env parameter handling shared by all benchmark binaries.
//!
//! Flags: `--keys=N --threads=N --secs=N --scale=F` (also readable from
//! `MT_KEYS`, `MT_THREADS`, `MT_SECS`, `MT_SCALE`). `--scale` multiplies
//! key counts so `--scale=0.1` gives a smoke run and `--scale=35` the
//! paper's full 140M-key configuration (hardware permitting).

#[derive(Clone, Debug)]
pub struct Params {
    /// Working-set size (defaults to 4M keys; the paper uses 80–140M).
    pub keys: usize,
    /// Maximum worker threads (paper: 16).
    pub threads: usize,
    /// Measurement duration per data point, seconds.
    pub secs: f64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            keys: 4_000_000,
            threads: 16,
            secs: 2.0,
        }
    }
}

impl Params {
    /// Parses `std::env::args` and the `MT_*` environment variables.
    pub fn from_args() -> Params {
        let mut p = Params::default();
        let env = |k: &str| std::env::var(k).ok();
        if let Some(v) = env("MT_KEYS").and_then(|v| v.parse().ok()) {
            p.keys = v;
        }
        if let Some(v) = env("MT_THREADS").and_then(|v| v.parse().ok()) {
            p.threads = v;
        }
        if let Some(v) = env("MT_SECS").and_then(|v| v.parse().ok()) {
            p.secs = v;
        }
        let mut scale: f64 = env("MT_SCALE").and_then(|v| v.parse().ok()).unwrap_or(1.0);
        for arg in std::env::args().skip(1) {
            if let Some(v) = arg.strip_prefix("--keys=") {
                p.keys = v.parse().expect("--keys=N");
            } else if let Some(v) = arg.strip_prefix("--threads=") {
                p.threads = v.parse().expect("--threads=N");
            } else if let Some(v) = arg.strip_prefix("--secs=") {
                p.secs = v.parse().expect("--secs=SECONDS");
            } else if let Some(v) = arg.strip_prefix("--scale=") {
                scale = v.parse().expect("--scale=FACTOR");
            } else if arg == "--help" || arg == "-h" {
                eprintln!("flags: --keys=N --threads=N --secs=S --scale=F");
                std::process::exit(0);
            }
        }
        p.keys = ((p.keys as f64) * scale).max(1000.0) as usize;
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let p = Params::default();
        assert!(p.keys > 0 && p.threads > 0 && p.secs > 0.0);
    }
}
