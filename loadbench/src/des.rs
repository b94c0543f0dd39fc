//! `des_megascale`: one `lc_des` engine run at the policy-sweep settings —
//! 1M virtual waiters on 64 virtual contexts, 8 shards, the contended
//! workload, the `paper` policy, a 200 ms sleep timeout and a 300 ms
//! virtual horizon — seeded from the run seed.
//!
//! The engine runs the real policy, splitter and slot code on one thread
//! over a virtual clock, so a slot or claim-path change shows here without
//! scheduler noise, and a `Parker` or futex change should not.  The run
//! repeats the same engine run for the measured time; every repeat must
//! produce the identical report.

use crate::report::Report;
use crate::rig::{self, PLAIN, TRACED};
use crate::stats;
use crate::trace::{next_span_id, now_ns, Span, SpanLog};
use lc_des::engine::{DesConfig, Engine};
use lc_des::metrics::RunReport;
use lc_des::workload::WorkloadSpec;
use std::time::{Duration, Instant};

/// Virtual waiters.
pub const WORKERS: usize = 1_000_000;
/// Virtual hardware contexts.
pub const CAPACITY: usize = 64;
/// Slot-buffer shards.
pub const SHARDS: usize = 8;

/// The engine configuration for `seed`.
pub fn config(seed: u64, workers: usize) -> DesConfig {
    let mut config = DesConfig::new(workers, CAPACITY);
    config.policy = "paper".to_string();
    config.shards = SHARDS;
    config.horizon = Duration::from_millis(300);
    config.sleep_timeout = Duration::from_millis(200);
    config.workload = WorkloadSpec::contended();
    config.seed = seed;
    config
}

/// Checks one engine report for internal consistency; returns the first
/// violation.
pub fn check_report(r: &RunReport, config: &DesConfig) -> Result<(), String> {
    let rows = &r.trace;
    // One trace row per controller tick.  Completed critical sections may
    // be 0: at this scale some seeds make no progress within the horizon.
    let ticks = config.horizon.as_nanos() / config.tick.as_nanos();
    if r.events == 0 || rows.len() as u128 != ticks {
        return Err(format!(
            "events={} rows={} for {ticks} controller ticks",
            r.events,
            rows.len()
        ));
    }
    if r.seed != config.seed || r.workers != config.workers as u64 {
        return Err(format!(
            "report is for seed {} and {} workers",
            r.seed, r.workers
        ));
    }
    let expected = r.completed as f64 / (r.horizon_ns as f64 / 1e9);
    if (r.throughput_per_vsec - expected).abs() > 1e-6 * expected.max(1.0) {
        return Err(format!(
            "throughput {} != completed/horizon {expected}",
            r.throughput_per_vsec
        ));
    }
    let mut prev: Option<&lc_des::metrics::CycleRow> = None;
    for row in rows {
        if row.woken_and_left > row.ever_slept
            || row.sleepers != row.ever_slept - row.woken_and_left
            || row.controller_wakes > row.woken_and_left
            || row.runnable > config.workers as u64
        {
            return Err(format!("inconsistent row {row:?}"));
        }
        if let Some(p) = prev {
            if row.at_ns <= p.at_ns
                || row.ever_slept < p.ever_slept
                || row.woken_and_left < p.woken_and_left
                || row.completed < p.completed
            {
                return Err(format!("row {row:?} goes back from {p:?}"));
            }
        }
        prev = Some(row);
    }
    let last = rows.last().expect("rows are non-empty");
    if r.completed < last.completed || r.controller_wakes < last.controller_wakes {
        return Err(format!("final counts below the last row {last:?}"));
    }
    Ok(())
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    run_with(seed, seconds, trace, WORKERS)
}

/// Runs the workload with `workers` virtual waiters (smaller populations
/// are for self-tests).
pub fn run_with(seed: u64, seconds: f64, trace: bool, workers: usize) -> Report {
    let config = config(seed, workers);
    let mut report = Report::default();
    let mut spans = SpanLog::default();
    let mut first: Option<RunReport> = None;
    let mut setup = Vec::new();
    let mut traced_setup = Vec::new();
    // Per window: events per second of each engine run.
    let mut event_rate: [Vec<f64>; 2] = Default::default();
    // Wall time per engine event of each untraced engine run, in µs.
    let mut event_us = Vec::new();
    let mut runs = 0u64;
    let mut failed_runs = 0u64;
    for (mode, len) in rig::windows(seconds, trace) {
        let w = rig::window_index(mode).expect("measuring window");
        let start = Instant::now();
        loop {
            let id = next_span_id();
            let t0 = now_ns();
            let begin = Instant::now();
            let engine = Engine::new(config.clone()).expect("sweep settings are valid");
            let built = begin.elapsed().as_secs_f64();
            let t1 = now_ns();
            let r = engine.run();
            let ran = begin.elapsed().as_secs_f64() - built;
            let t2 = now_ns();
            if mode == TRACED {
                spans.record("des.setup", id, t0, t1);
                spans.record("des.run", id, t1, t2);
                spans.push(Span {
                    name: "des.iteration",
                    id,
                    parent: 0,
                    start_ns: t0,
                    end_ns: t2,
                });
                traced_setup.push(built);
            } else if mode == PLAIN {
                setup.push(built);
                event_us.push(ran * 1e6 / r.events.max(1) as f64);
            }
            runs += 1;
            event_rate[w].push(r.events as f64 / ran);
            let verdict = check_report(&r, &config).and_then(|()| match &first {
                Some(f) if *f != r => Err("a repeat of the same seed gave another report".into()),
                _ => Ok(()),
            });
            if let Err(e) = verdict {
                failed_runs += 1;
                report.check("des_report_consistent", false, e);
            }
            if first.is_none() {
                first = Some(r);
            }
            if start.elapsed() >= len {
                break;
            }
        }
    }
    let first = first.expect("at least one engine run");
    report.attempted = runs;
    report.failed = failed_runs;
    if failed_runs == 0 {
        report.check(
            "des_report_consistent",
            true,
            format!("{runs} runs, identical reports, books consistent"),
        );
    }
    let rows = &first.trace;
    let last = rows.last().expect("checked non-empty");
    let mean_over_rows = |f: fn(&lc_des::metrics::CycleRow) -> f64| {
        rows.iter().map(f).sum::<f64>() / rows.len() as f64
    };
    let runnable = mean_over_rows(|r| r.runnable as f64);
    let excess = mean_over_rows(|r| r.runnable.saturating_sub(CAPACITY as u64) as f64);
    let gap = last.ever_slept as f64 - first.wait_count as f64;
    report.note("des.runs", runs);
    report.note("des.wait_p50_ns", first.wait_p50_ns);
    report.note("des.wait_p99_ns", first.wait_p99_ns);
    report.note("des.completed", first.completed);
    report.note("slots.wait_hist_gap", gap);
    // Each engine run is one slice: throughput is the median run's rate.
    let tput = stats::median(&event_rate[0]);
    report.e2e("setup_s", stats::median(&setup), "s");
    report.e2e("throughput_ops_s", tput, "1/s");
    // The simulation has no request latency of its own; what its user waits
    // for is simulated events, so the latency metrics are the wall time per
    // event of the median and of the slowest engine run.
    report.e2e("latency_p50_us", stats::median(&event_us), "us");
    report.e2e(
        "latency_tail_us",
        event_us.iter().copied().fold(0.0, f64::max),
        "us",
    );
    report.note("latency_samples", event_us.len());
    report.note("latency_tail_percentile", "max");
    report.e2e("runnable_per_capacity", runnable / CAPACITY as f64, "ratio");
    report.note("excess_runnable", excess);
    if trace {
        report.layer("des.events", first.events as f64, "count");
        report.layer("des.cycles", rows.len() as f64, "count");
        report.layer(
            "des.controller_wakes",
            first.controller_wakes as f64,
            "count",
        );
        report.layer("des.timeout_wakes", first.timeout_wakes as f64, "count");
        report.layer("controller.excess_runnable", excess, "threads");
        report.layer("des.setup_s", stats::median(&traced_setup), "s");
        // The engine does not expose its buffer's claim races, so only the
        // claims are reported.
        report.layer("slots.claims", last.ever_slept as f64, "count");
        report.layer("slots.wait_hist_gap", gap, "count");
        crate::overhead_layers(&mut report, tput, stats::median(&event_rate[1]));
    }
    report.spans = spans;
    report
}
