//! `kvbench`: the repo's one benchmark.
//!
//! ```text
//! kvbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! kvbench serve <workload> <dir> [--smoke]        (the child it spawns)
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it is the separate traced run that measures the per-layer
//! ones. Either way the last line of standard output is one JSON object
//! `{correct, attempted, failed, metrics}`; the readable table and the
//! diagnostics go to standard error, and the provenance-stamped result
//! to `benchmark/out/result-<workload>.json`.

mod child;
mod gen;
mod host;
mod ladder;
mod metrics;
mod serve;
mod served;
mod stats;
mod trace;
mod wire;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;

use metrics::Metric;
use workload::Spec;

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn usage() -> String {
    let names: Vec<&str> = workload::SPECS.iter().map(|s| s.name).collect();
    format!(
        "usage: kvbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke]",
        names.join("|")
    )
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, 1u64, 10.0f64, false, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    let name = workload.ok_or_else(usage)?;
    let spec =
        Spec::by_name(&name).ok_or_else(|| format!("unknown workload {name}\n{}", usage()))?;
    if seconds.is_nan() || seconds < 1.0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        spec: if smoke { spec.smoke() } else { spec },
        seed,
        seconds,
        trace,
        smoke,
    })
}

/// `{"name": {"value": v, "unit": "u"}, ...}` with every digit measured.
fn metrics_json(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' | '\\' => {
                out.push('\\');
                out.push(ch);
            }
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("string write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result with its provenance: what was measured, on what, how.
fn result_json(a: &Args, s: &served::Served, ms: &[Metric], invalid: &[String]) -> String {
    let sp = &a.spec;
    let reasons: Vec<String> = invalid.iter().map(|r| json_str(r)).collect();
    format!(
        "{{\n  \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {},\n  \
         \"commit\": {}, \"nproc\": {}, \"cpu\": {}, \"kernel\": {},\n  \
         \"load_shape\": {{\"server_workers\": {}, \"connections\": {}, \"session_cache_slots\": {}, \
         \"keys\": {}, \"value_len\": {}, \"batch\": {}, \"depth\": {}, \"theta\": {}, \"mix\": {}, \
         \"open_rate\": {}, \"checkpoint_interval_s\": {}, \"value_separation\": {}, \
         \"setup_repeats\": {}, \"warmup_s\": {}, \"window_s\": {}, \"op_timeout_s\": {}, \
         \"flush_policy\": \"library default group commit\"}},\n  \
         \"samples\": {{\"closed_windows\": {}, \"closed_ops\": {}, \"open_frames\": {}, \
         \"open_get_frames\": {}, \"open_scan_frames\": {}}},\n  \
         \"attempted\": {}, \"failed\": {}, \"valid\": {}, \"invalid_because\": [{}],\n  \
         \"metrics\": {}\n}}\n",
        json_str(sp.name),
        a.seed,
        a.seconds,
        a.trace,
        a.smoke,
        json_str(&host::commit()),
        host::nproc(),
        json_str(&host::cpu_model()),
        json_str(&host::kernel()),
        workload::SERVER_WORKERS,
        workload::CONNS,
        workload::SESSION_CACHE_SLOTS,
        sp.keys,
        sp.value_len,
        sp.batch,
        sp.depth,
        sp.theta.map_or("null".into(), |t| t.to_string()),
        json_str(&format!("{:?}", sp.mix)),
        sp.open_rate,
        sp.checkpoint_interval.map_or("null".into(), |d| d.as_secs_f64().to_string()),
        sp.value_separation
            .map_or("null".into(), |(t, c)| format!("{{\"threshold\": {t}, \"cache_bytes\": {c}}}")),
        s.setups_s.len(),
        workload::WARMUP.as_secs_f64(),
        workload::WINDOW.as_secs_f64(),
        workload::OP_TIMEOUT.as_secs_f64(),
        s.window_rates.len(),
        s.closed_ops,
        s.lat_all.len(),
        s.lat_get.len(),
        s.lat_scan.len(),
        s.attempted,
        s.failed,
        invalid.is_empty(),
        reasons.join(", "),
        metrics_json(ms),
    )
}

fn run(a: &Args) -> std::io::Result<()> {
    if host::nproc() < 2 {
        return Err(std::io::Error::other(
            "kvbench needs 2 cores: one for the server worker, one for the generator",
        ));
    }
    let out_dir = child::out_dir()?;
    child::sweep_stale(&out_dir);
    let setups = if a.trace { 1 } else { workload::SETUP_REPEATS };
    let s = served::run(a.spec, a.seed, a.seconds, a.smoke, setups)?;
    let (ms, ladder) = if a.trace {
        let (l, spans) = ladder::run(a.spec, a.seed)?;
        spans.write_jsonl(&out_dir.join(format!("trace-{}.jsonl", a.spec.name)))?;
        (metrics::per_layer(&s, &l), Some(l))
    } else {
        (metrics::end_to_end(&s), None)
    };
    let invalid = metrics::validity(&s, ladder.as_ref());

    eprintln!(
        "kvbench {} seed {} ({} s, trace {})",
        a.spec.name, a.seed, a.seconds, a.trace as u8
    );
    for m in &ms {
        eprintln!("  {:<42} {:>16.4} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "  open-loop latency samples: {} frames at {} ops/s; {} set-up(s); {} failed of {} ops",
        s.lat_all.len(),
        a.spec.open_rate,
        s.setups_s.len(),
        s.failed,
        s.attempted
    );
    eprintln!(
        "  generator send lateness p50/p90/p99/max: {:.1}/{:.1}/{:.1}/{:.1} us; latency p50/p90/p99/p99.9: {:.1}/{:.1}/{:.1}/{:.1} us",
        stats::pct_us(&s.lag, 0.5),
        stats::pct_us(&s.lag, 0.9),
        stats::pct_us(&s.lag, 0.99),
        stats::pct_us(&s.lag, 1.0),
        stats::pct_us(&s.lat_all, 0.5),
        stats::pct_us(&s.lat_all, 0.9),
        stats::pct_us(&s.lat_all, 0.99),
        stats::pct_us(&s.lat_all, 0.999),
    );
    eprintln!(
        "  closed loop: generator busy {:.2}, window rates (k ops/s) {:?}",
        s.gen_busy_frac,
        s.window_rates
            .iter()
            .map(|r| (r / 1e3).round() as u64)
            .collect::<Vec<_>>()
    );
    for why in &invalid {
        eprintln!("kvbench: INVALID RUN (not a regression): {why}");
    }
    std::fs::write(
        out_dir.join(format!("result-{}.json", a.spec.name)),
        result_json(a, &s, &ms, &invalid),
    )?;

    let correct = s.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        s.attempted.max(1),
        s.failed,
        metrics_json(&ms)
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve") {
        let spec = argv.get(1).and_then(|n| Spec::by_name(n));
        let (Some(spec), Some(dir)) = (spec, argv.get(2)) else {
            eprintln!("usage: kvbench serve <workload> <dir> [--smoke]");
            return ExitCode::from(2);
        };
        let spec = if argv.get(3).map(String::as_str) == Some("--smoke") {
            spec.smoke()
        } else {
            spec
        };
        return match serve::main(&spec, std::path::Path::new(dir)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("kvbench serve: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        // Failed ops are reported in the result line; the exit code says
        // only whether the benchmark itself ran.
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("kvbench: {e}");
            ExitCode::FAILURE
        }
    }
}
