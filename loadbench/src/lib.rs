//! Wall-clock benchmark of the load-control suite.
//!
//! Four closed-loop workloads run the shipping code from one process:
//! [`lock`] (`lock_oversub`), [`asyncw`] (`async_oversub`), [`fleet`]
//! (`fleet_oversub`) and [`des`] (`des_megascale`).  A run measures with
//! tracing off and reports the end-to-end metrics; a traced run times the
//! calls into each layer from outside, through public functions and trait
//! seams, and reports the per-layer metrics.  See `README.md` beside this
//! crate for why each workload exists and which metric moves which.

pub mod asyncw;
pub mod des;
pub mod fleet;
pub mod host;
pub mod lock;
pub mod report;
pub mod rig;
pub mod stats;
pub mod trace;

use lc_core::{LoadControl, SlotBufferStats};
use report::Report;
use rig::CycleWindow;
use stats::Histogram;
use std::time::Duration;
use trace::SpanLog;

/// The workloads, by the name the command line takes.
pub const WORKLOADS: [&str; 4] = [
    "lock_oversub",
    "async_oversub",
    "fleet_oversub",
    "des_megascale",
];

/// End-to-end metrics: `(name, unit)`, in report order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_tail_us", "us"),
    ("runnable_per_capacity", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`, in report order.  A workload that
/// bypasses a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("locks.spins_per_acquire", "spins"),
    ("locks.aborts_per_acquire", "aborts"),
    ("gate.checks", "count"),
    ("gate.check_ns_p50", "ns"),
    ("gate.parks", "count"),
    ("gate.park_us_p50", "us"),
    ("gate.park_us_tail", "us"),
    ("slots.claims", "count"),
    ("slots.claim_races", "count"),
    ("slots.claim_success_ratio", "ratio"),
    ("slots.controller_wakes", "count"),
    ("slots.timeout_leaves", "count"),
    ("slots.fill", "ratio"),
    ("slots.wait_hist_gap", "count"),
    ("controller.cycles", "count"),
    ("controller.cycle_us_p50", "us"),
    ("controller.cycle_us_tail", "us"),
    ("controller.self_us_p50", "us"),
    ("controller.busy_frac", "ratio"),
    ("controller.target_mean", "threads"),
    ("controller.excess_runnable", "threads"),
    ("policy.target_ns_p50", "ns"),
    ("splitter.split_ns_p50", "ns"),
    ("accounting.sample_ns_p50", "ns"),
    ("async_gate.parks", "count"),
    ("async_gate.parked_tasks_mean", "tasks"),
    ("async_gate.polls_per_acquire", "polls"),
    ("shm.check_ns_p50", "ns"),
    ("shm.parks", "count"),
    ("shm.park_us_p50", "us"),
    ("shm.park_us_tail", "us"),
    ("shm.cycle_us_p50", "us"),
    ("shm.busy_frac", "ratio"),
    ("shm.claim_races", "count"),
    ("shm.controller_wakes", "count"),
    ("des.events", "count"),
    ("des.cycles", "count"),
    ("des.controller_wakes", "count"),
    ("des.timeout_wakes", "count"),
    ("des.setup_s", "s"),
    ("trace.untraced_ops_s", "1/s"),
    ("trace.traced_ops_s", "1/s"),
    ("trace.overhead_frac", "ratio"),
];

/// Set-ups timed per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 41;

/// Runs `workload` and returns its report, with `peak_rss_mb` added and the
/// metric lists completed and ordered as [`END_TO_END`] and [`PER_LAYER`].
pub fn run_workload(workload: &str, seed: u64, seconds: f64, trace: bool) -> Option<Report> {
    let mut report = match workload {
        "lock_oversub" => lock::run(seed, seconds, trace, SETUP_REPS),
        "async_oversub" => asyncw::run(seed, seconds, trace, SETUP_REPS),
        "fleet_oversub" => fleet::run(seed, seconds, trace, SETUP_REPS),
        "des_megascale" => des::run(seed, seconds, trace),
        _ => return None,
    };
    report.e2e("peak_rss_mb", host::peak_rss_mb(), "MB");
    report.end_to_end = ordered(&report.end_to_end, &END_TO_END);
    report.per_layer = if trace {
        ordered(&report.per_layer, &PER_LAYER)
    } else {
        Vec::new()
    };
    Some(report)
}

/// `metrics` in `table` order, with 0 for any the workload did not set.
fn ordered(
    metrics: &[report::Metric],
    table: &[(&'static str, &'static str)],
) -> Vec<report::Metric> {
    table
        .iter()
        .map(|&(name, unit)| {
            metrics
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or(report::Metric {
                    name,
                    value: 0.0,
                    unit,
                })
        })
        .collect()
}

/// A small seeded generator (SplitMix64) for workload inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The tail of a span histogram: its highest percentile with at least ten
/// samples beyond it, in microseconds (the maximum when there are fewer).
pub fn tail_us(h: &Histogram) -> f64 {
    h.nines(stats::tail_nines(h.count()).unwrap_or(0)) / 1e3
}

/// `latency_p50_us` and `latency_tail_us` from a window's latencies, with
/// the sample counts and the check that the fixed tail percentile still has
/// ten samples beyond it.
pub fn latency_metrics(report: &mut Report, latency: &Histogram, nines: u32) {
    let n = latency.count();
    let beyond = stats::beyond(n, nines);
    let label = stats::percentile_label(nines);
    report.e2e("latency_p50_us", latency.quantile(0.5) / 1e3, "us");
    report.e2e("latency_tail_us", latency.nines(nines) / 1e3, "us");
    report.note("latency_samples", n);
    report.note("latency_tail_percentile", &label);
    report.note("latency_tail_samples_beyond", beyond);
    report.check(
        "tail_has_10_samples_beyond",
        beyond >= stats::MIN_BEYOND,
        format!("samples={n} beyond_{label}={beyond}"),
    );
}

/// `runnable_per_capacity` from the untraced window's cycles, and the
/// sampled excess over capacity, which the traced run reports per layer.
pub fn load_metrics(
    report: &mut Report,
    cycles: &[CycleWindow; 2],
    capacity: u64,
    window: Duration,
) {
    let w = &cycles[0];
    let runnable = rig::median_mean(&w.runnable_slices, &w.cycle_slices, window);
    report.e2e("runnable_per_capacity", runnable / capacity as f64, "ratio");
    report.note("excess_runnable", w.mean(w.excess_sum));
    let t = &cycles[1];
    report.layer(
        "controller.excess_runnable",
        t.mean(t.excess_sum),
        "threads",
    );
}

/// After quiesce the in-process books must balance with nobody asleep.
/// The wait-histogram gap (`ever_slept − wait.count`) is reported as a
/// note, not checked: it is a known accounting gap.
pub fn in_process_book_checks(report: &mut Report, control: &LoadControl) {
    let st = control.buffer().stats();
    report.check(
        "books_balance_at_quiesce",
        st.ever_slept == st.woken_and_left && control.sleepers() == 0,
        format!(
            "S={} W={} sleepers={}",
            st.ever_slept,
            st.woken_and_left,
            control.sleepers()
        ),
    );
    report.check(
        "no_async_task_left_parked",
        control.async_parked_tasks() == 0,
        format!("async_parked_tasks={}", control.async_parked_tasks()),
    );
    let gap = st.ever_slept as f64 - st.wait.count as f64;
    report.note("slots.wait_hist_gap", gap);
    report.layer("slots.wait_hist_gap", gap, "count");
}

/// The `slots.*` metrics from buffer snapshots around the traced window.
pub fn slot_layers(report: &mut Report, a: &SlotBufferStats, b: &SlotBufferStats, w: &CycleWindow) {
    let claims = b.ever_slept - a.ever_slept;
    let races = b.claim_races - a.claim_races;
    let wakes = b.controller_wakes - a.controller_wakes;
    let leaves = b.woken_and_left - a.woken_and_left;
    report.layer("slots.claims", claims as f64, "count");
    report.layer("slots.claim_races", races as f64, "count");
    report.layer(
        "slots.claim_success_ratio",
        claims as f64 / (claims + races).max(1) as f64,
        "ratio",
    );
    report.layer("slots.controller_wakes", wakes as f64, "count");
    report.layer(
        "slots.timeout_leaves",
        leaves as f64 - wakes as f64,
        "count",
    );
    report.layer("slots.fill", w.fill(), "ratio");
}

/// The `controller.*`, `policy.*`, `splitter.*` and `accounting.*` metrics
/// of the traced window.
pub fn controller_layers(report: &mut Report, w: &CycleWindow, spans: &SpanLog, secs: f64) {
    report.layer("controller.cycles", w.cycles as f64, "count");
    report.layer(
        "controller.cycle_us_p50",
        w.cycle_ns.quantile(0.5) / 1e3,
        "us",
    );
    report.layer("controller.cycle_us_tail", tail_us(&w.cycle_ns), "us");
    report.layer(
        "controller.self_us_p50",
        w.self_ns.quantile(0.5) / 1e3,
        "us",
    );
    report.layer(
        "controller.busy_frac",
        w.busy_ns as f64 / 1e9 / secs,
        "ratio",
    );
    report.layer("controller.target_mean", w.mean(w.target_sum), "threads");
    for (metric, span) in [
        ("policy.target_ns_p50", "policy.target"),
        ("splitter.split_ns_p50", "splitter.split"),
        ("accounting.sample_ns_p50", "accounting.sample"),
    ] {
        report.layer(metric, spans.hist(span).quantile(0.5), "ns");
    }
}

/// Throughput of the untraced and traced windows of a traced run, and the
/// share of throughput the tracing cost.
pub fn overhead_layers(report: &mut Report, untraced: f64, traced: f64) {
    report.layer("trace.untraced_ops_s", untraced, "1/s");
    report.layer("trace.traced_ops_s", traced, "1/s");
    let overhead = if untraced > 0.0 {
        1.0 - traced / untraced
    } else {
        0.0
    };
    report.layer("trace.overhead_frac", overhead, "ratio");
}
