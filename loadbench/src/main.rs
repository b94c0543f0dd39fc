//! `loadbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--trace-dir <dir>]`
//!
//! Prints the host fingerprint, every metric by name with its unit, each
//! output check, and as its last line one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}` holding
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`).  A traced run also writes its spans to
//! `<trace-dir>/<workload>-<seed>.spans.tsv`.

use lc_loadbench::host::Fingerprint;
use lc_loadbench::{run_workload, WORKLOADS};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut trace_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("traces");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value:?}; known: {WORKLOADS:?}"));
                }
                workload = Some(value);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            "--trace-dir" => trace_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        trace_dir,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loadbench: {e}");
            return ExitCode::from(2);
        }
    };
    let host = Fingerprint::current(args.seed);
    println!("host {}", host.line());
    println!(
        "run workload={} seconds={} trace={}",
        args.workload, args.seconds, args.trace as u8
    );
    let report = run_workload(&args.workload, args.seed, args.seconds, args.trace)
        .expect("workload name was validated");
    for (k, v) in &report.notes {
        println!("note {k}={v}");
    }
    for c in &report.checks {
        println!(
            "check {} {} ({})",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.detail
        );
    }
    println!(
        "ops attempted={} failed={}",
        report.attempted, report.failed
    );
    let metrics = if args.trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    for m in metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    if args.trace {
        let path = args
            .trace_dir
            .join(format!("{}-{}.spans.tsv", args.workload, args.seed));
        let written = std::fs::create_dir_all(&args.trace_dir).and_then(|()| {
            let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
            writeln!(out, "# host {}", host.line())?;
            report.spans.write_to(&mut out)?;
            out.flush()
        });
        match written {
            Ok(()) => println!("spans {}", path.display()),
            Err(e) => eprintln!("loadbench: could not write {}: {e}", path.display()),
        }
    }
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let _ = write!(
            body,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted,
        report.failed,
        body
    );
    ExitCode::SUCCESS
}
