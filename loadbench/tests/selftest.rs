//! Self-tests of the benchmark's own pieces: the tail-percentile rule, span
//! self time, the metric tables against `BENCHMARK.json`, and a short smoke
//! run of every workload through its output checks.

use lc_loadbench::des;
use lc_loadbench::stats::{beyond, percentile_label, tail_nines, Histogram, MIN_BEYOND};
use lc_loadbench::trace::{self_time_ns, Span};
use lc_loadbench::{run_workload, END_TO_END, PER_LAYER, WORKLOADS};

#[test]
fn tail_percentile_keeps_ten_samples_beyond() {
    assert_eq!(tail_nines(99), None);
    assert_eq!(tail_nines(100), Some(1));
    assert_eq!(tail_nines(999), Some(1));
    assert_eq!(tail_nines(1_000), Some(2));
    assert_eq!(tail_nines(99_999), Some(3));
    assert_eq!(tail_nines(100_000), Some(4));
    for n in [100u64, 12_345, 1_000_000, 7_654_321] {
        let nines = tail_nines(n).expect("enough samples");
        assert!(beyond(n, nines) >= MIN_BEYOND);
        assert!(beyond(n, nines + 1) < MIN_BEYOND);
    }
    assert_eq!(percentile_label(1), "p90");
    assert_eq!(percentile_label(2), "p99");
    assert_eq!(percentile_label(4), "p99.99");
}

#[test]
fn histogram_tail_has_the_promised_samples_beyond_it() {
    let mut h = Histogram::new();
    for v in 1..=100_000u64 {
        h.record(v);
    }
    let nines = tail_nines(h.count()).expect("100k samples");
    assert_eq!(nines, 4);
    // p99.99 of 1..=100000 leaves exactly 10 samples above 99990.
    let p = h.nines(nines);
    assert!((p - 99_990.0).abs() / 99_990.0 < 0.02, "p99.99 = {p}");
    let p50 = h.quantile(0.5);
    assert!((p50 - 50_000.0).abs() / 50_000.0 < 0.02, "p50 = {p50}");
    // Small values keep their nanosecond: a sample of v stands for [v, v+1).
    let mut small = Histogram::new();
    for v in [3u64, 1, 2] {
        small.record(v);
    }
    assert_eq!(small.quantile(0.5), 2.5);
    assert_eq!(small.value_with_beyond(0), 3.5);
    // Many equal samples: the estimate moves with rank inside the bucket.
    let mut same = Histogram::new();
    for _ in 0..4 {
        same.record(40);
    }
    assert_eq!(same.quantile(0.0), 40.125);
    assert_eq!(same.value_with_beyond(0), 40.875);
    assert_eq!(Histogram::new().quantile(0.5), 0.0);
}

#[test]
fn histogram_merge_adds_counts() {
    let (mut a, mut b) = (Histogram::new(), Histogram::new());
    a.record(10);
    b.record(1_000_000);
    b.record(20);
    a.merge(&b);
    assert_eq!(a.count(), 3);
    assert_eq!(a.sum(), 1_000_030);
}

fn span(start_ns: u64, end_ns: u64) -> Span {
    Span {
        name: "t",
        id: 0,
        parent: 0,
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_is_parent_minus_union_of_children() {
    let parent = span(100, 200);
    assert_eq!(self_time_ns(&parent, &[]), 100);
    // Disjoint children.
    assert_eq!(self_time_ns(&parent, &[span(110, 120), span(150, 170)]), 70);
    // Overlapping children count once.
    assert_eq!(self_time_ns(&parent, &[span(110, 140), span(130, 150)]), 60);
    // Nested children count once.
    assert_eq!(self_time_ns(&parent, &[span(110, 190), span(120, 130)]), 20);
    // Children are clipped to the parent.
    assert_eq!(self_time_ns(&parent, &[span(50, 120), span(190, 400)]), 70);
    // A child outside the parent covers nothing.
    assert_eq!(self_time_ns(&parent, &[span(300, 400)]), 100);
    // Children covering everything leave no self time.
    assert_eq!(self_time_ns(&parent, &[span(0, 1_000)]), 0);
}

#[test]
fn metric_tables_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let named = |name: &str| json.contains(&format!("\"name\": \"{name}\""));
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(named(name), "{name} is not in BENCHMARK.json");
        assert!(
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} has another unit in BENCHMARK.json"
        );
    }
    for workload in WORKLOADS {
        assert!(named(workload), "{workload} is not in BENCHMARK.json");
    }
}

/// Smoke runs go one at a time, so each has the CPUs to itself and the
/// tail percentile keeps its ten samples beyond it.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn smoke(workload: &str, seconds: f64, trace: bool) {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let report = run_workload(workload, 7, seconds, trace).expect("known workload");
    let failed: Vec<_> = report.checks.iter().filter(|c| !c.ok).collect();
    assert!(report.correct(), "{workload}: failed checks {failed:?}");
    assert!(report.attempted > 0);
    assert_eq!(report.end_to_end.len(), END_TO_END.len());
    let value = |name: &str| {
        report
            .end_to_end
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
            .expect("metric present")
    };
    assert!(value("throughput_ops_s") > 0.0, "{workload}");
    assert!(value("setup_s") > 0.0, "{workload}");
    assert!(value("peak_rss_mb") > 0.0, "{workload}");
    if trace {
        assert_eq!(report.per_layer.len(), PER_LAYER.len());
        assert!(!report.spans.kept().is_empty(), "{workload}: no spans");
    } else {
        assert!(report.per_layer.is_empty());
    }
}

#[test]
fn lock_oversub_smoke() {
    smoke("lock_oversub", 2.0, true);
}

#[test]
fn async_oversub_smoke() {
    smoke("async_oversub", 1.0, false);
}

#[test]
fn fleet_oversub_smoke() {
    smoke("fleet_oversub", 1.5, true);
}

#[test]
fn des_smoke_at_small_scale() {
    let report = des::run_with(11, 0.2, true, 20_000);
    assert!(report.correct(), "{:?}", report.checks);
    assert!(report.attempted >= 2, "traced run has two windows");
    assert!(report
        .per_layer
        .iter()
        .any(|m| m.name == "des.events" && m.value > 0.0));
}

#[test]
fn des_report_checks_catch_a_broken_report() {
    let config = des::config(5, 5_000);
    let good = lc_des::engine::run(config.clone()).expect("valid config");
    assert_eq!(des::check_report(&good, &config), Ok(()));
    let mut bad = good.clone();
    bad.trace[1].sleepers += 1;
    assert!(des::check_report(&bad, &config).is_err());
    let mut bad = good.clone();
    bad.throughput_per_vsec *= 2.0;
    assert!(des::check_report(&bad, &config).is_err());
    let mut bad = good.clone();
    bad.trace.pop();
    assert!(des::check_report(&bad, &config).is_err());
    // A run in which no critical section completed is still consistent.
    let mut stalled = good.clone();
    stalled.completed = 0;
    stalled.throughput_per_vsec = 0.0;
    for row in &mut stalled.trace {
        row.completed = 0;
    }
    assert_eq!(des::check_report(&stalled, &config), Ok(()));
    let mut bad = good;
    bad.seed += 1;
    assert!(des::check_report(&bad, &config).is_err());
}

#[test]
fn unknown_workload_is_refused() {
    assert!(run_workload("bogus", 1, 0.1, false).is_none());
}
