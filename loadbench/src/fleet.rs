//! `fleet_oversub`: the cross-process plane, driven from one process.
//!
//! One anonymous `ShmSegment`, one `ShmSession` (this process's member
//! entry) and `nproc` threads, each with its own `ShmGate`.  Every operation
//! is private CPU work followed by `ShmGate::maybe_sleep`.  The bench runs
//! the `ShmController` cycle itself with a budget of `nproc / 2`: each cycle
//! sweeps slot and member leases against `/proc`, samples the members'
//! runnable counts, and publishes the target.  The in-process slot buffer
//! is never touched.

use crate::report::Report;
use crate::rig::{self, CycleSample, Phase, Slices, STOP, TRACED};
use crate::stats::{self, Histogram};
use crate::trace::{now_ns, SpanLog};
use lc_core::{RealClock, TimeSource};
use lc_shm::{attach_buffer, Geometry, ShmBufferStats, ShmController, ShmSegment, ShmSession};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Private work per operation, in spin iterations.
pub const WORK_ITERS: u32 = 400;
/// Controller cycle.
pub const INTERVAL: Duration = Duration::from_millis(1);
/// Sleep timeout of a parked thread.
pub const SLEEP_TIMEOUT: Duration = Duration::from_millis(5);
/// Tail percentile reported as `latency_tail_us`, in nines (p99.99).
pub const TAIL_NINES: u32 = 4;

#[derive(Default)]
struct WorkerOut {
    ops: u64,
    sleeps: u64,
    window_ops: [Slices; 2],
    latency: [Histogram; 2],
    spans: SpanLog,
}

struct Rig {
    seg: Arc<ShmSegment>,
    session: Arc<ShmSession>,
    phase: Arc<Phase>,
    workers: Vec<std::thread::JoinHandle<WorkerOut>>,
}

fn build(threads: usize) -> Rig {
    let seg = Arc::new(ShmSegment::create_anon(Geometry::DEFAULT).expect("create shm segment"));
    let session = Arc::new(ShmSession::attach(Arc::clone(&seg)).expect("attach shm session"));
    session.set_runnable(threads as u64);
    let phase = Arc::new(Phase::default());
    let start = Arc::new(Barrier::new(threads + 1));
    let workers = (0..threads)
        .map(|i| {
            let session = Arc::clone(&session);
            let phase = Arc::clone(&phase);
            let start = Arc::clone(&start);
            std::thread::Builder::new()
                .name(format!("fleet-worker-{i}"))
                .spawn(move || {
                    let clock: Arc<dyn TimeSource> = Arc::new(RealClock::new());
                    let gate = session
                        .register_gate(clock, SLEEP_TIMEOUT)
                        .expect("register shm gate");
                    let mut out = WorkerOut::default();
                    start.wait();
                    loop {
                        let mode = phase.get();
                        if mode == STOP {
                            break;
                        }
                        rig::spin_work(WORK_ITERS);
                        let t0 = now_ns();
                        let slept = gate.maybe_sleep();
                        let t1 = now_ns();
                        if mode == TRACED {
                            let name = if slept { "shm.park" } else { "shm.check" };
                            out.spans.record(name, 0, t0, t1);
                        }
                        out.ops += 1;
                        out.sleeps += u64::from(slept);
                        if let Some(w) = rig::window_index(mode) {
                            out.window_ops[w].add(phase.slice_at(t0), 1.0);
                            out.latency[w].record(t1 - t0);
                        }
                    }
                    out
                })
                .expect("spawn fleet worker")
        })
        .collect();
    // Set-up ends when every thread holds a registered gate.
    start.wait();
    Rig {
        seg,
        session,
        phase,
        workers,
    }
}

/// Stops and joins the workers; the session is handed back so the member
/// entry outlives the checks on it.
fn join(rig: Rig) -> (Vec<WorkerOut>, Arc<ShmSession>) {
    rig.phase.set(STOP);
    let outs = rig
        .workers
        .into_iter()
        .map(|h| h.join().expect("fleet worker panicked"))
        .collect();
    (outs, rig.session)
}

/// Runs the workload.
pub fn run(_seed: u64, seconds: f64, trace: bool, setup_reps: usize) -> Report {
    let threads = rig::worker_threads();
    let capacity = rig::capacity_for(threads);
    let (rig, setup) = rig::repeated_setup(
        setup_reps,
        || build(threads),
        |r| {
            join(r);
        },
    );
    let phase = Arc::clone(&rig.phase);
    let buffer = attach_buffer(Arc::clone(&rig.seg));
    let ctl_buffer = attach_buffer(Arc::clone(&rig.seg));
    let member = rig.session.member();
    let done = AtomicBool::new(false);
    let windows = rig::windows(seconds, trace);
    let mut report = Report::default();
    let mut snaps: Vec<ShmBufferStats> = Vec::new();
    let mut lengths = Vec::new();
    let (phase_ref, done_ref) = (&*phase, &done);
    let ((outs, session), (cycles, cycle_log)) = std::thread::scope(|s| {
        let controller = s.spawn(move || {
            let mut ctl = ShmController::new(ctl_buffer, capacity).with_interval(INTERVAL);
            let out = rig::drive_cycles(
                phase_ref,
                done_ref,
                INTERVAL,
                capacity as u64,
                None,
                "shm.cycle",
                || {
                    let elected = ctl.run_cycle();
                    assert!(elected, "the only controller candidate must hold the lease");
                    let st = ctl.buffer().stats();
                    CycleSample {
                        runnable: ctl.buffer().member_runnable(member),
                        target: st.total_target,
                        sleepers: st.sleeping,
                        extra: 0.0,
                    }
                },
            );
            ctl.resign();
            out
        });
        lengths = rig::run_windows(&phase, seconds, &windows, || snaps.push(buffer.stats()));
        let joined = join(rig);
        done.store(true, Ordering::SeqCst);
        (
            joined,
            controller.join().expect("shm controller loop panicked"),
        )
    });

    let ops: u64 = outs.iter().map(|o| o.ops).sum();
    let sleeps: u64 = outs.iter().map(|o| o.sleeps).sum();
    let st = buffer.stats();
    report.attempted = ops;
    report.failed = 0;
    report.check(
        "books_balance_at_quiesce",
        st.ever_slept == st.woken_and_left && st.sleeping == 0,
        format!(
            "S={} W={} sleeping={}",
            st.ever_slept, st.woken_and_left, st.sleeping
        ),
    );
    report.check(
        "every_claim_was_one_sleep",
        st.ever_slept == sleeps,
        format!("S={} maybe_sleep_true={sleeps}", st.ever_slept),
    );
    report.check(
        "no_reclaims_without_crashes",
        st.reclaimed_slots == 0,
        format!("reclaimed_slots={}", st.reclaimed_slots),
    );
    report.check(
        "runnable_restored",
        buffer.member_runnable(member) == threads as u64,
        format!(
            "member_runnable={} threads={threads}",
            buffer.member_runnable(member)
        ),
    );
    let hist_count: u64 = buffer.wait_buckets().iter().sum();
    let gap = st.ever_slept as f64 - hist_count as f64;
    report.note("slots.wait_hist_gap", gap);
    report.layer("slots.wait_hist_gap", gap, "count");
    report.note("threads", threads);
    report.note("capacity", capacity);
    drop(session);

    let mut latency: [Histogram; 2] = Default::default();
    let mut window_ops: [Slices; 2] = Default::default();
    let mut spans = cycle_log;
    for o in outs {
        for i in 0..2 {
            latency[i].merge(&o.latency[i]);
            window_ops[i].merge(&o.window_ops[i]);
        }
        spans.merge(o.spans);
    }
    let plain_tput = rig::median_rate(&window_ops[0], lengths[0]);
    report.e2e("setup_s", stats::median(&setup), "s");
    report.e2e("throughput_ops_s", plain_tput, "1/s");
    crate::latency_metrics(&mut report, &latency[0], TAIL_NINES);
    crate::load_metrics(&mut report, &cycles, capacity as u64, lengths[0]);
    if trace {
        let (a, b) = (snaps[1], snaps[2]);
        let w = &cycles[1];
        let secs = lengths[1].as_secs_f64();
        let checks = spans.hist("shm.check");
        let parks = spans.hist("shm.park");
        report.layer("shm.check_ns_p50", checks.quantile(0.5), "ns");
        report.layer("shm.parks", parks.count() as f64, "count");
        report.layer("shm.park_us_p50", parks.quantile(0.5) / 1e3, "us");
        report.layer("shm.park_us_tail", crate::tail_us(&parks), "us");
        report.layer("shm.cycle_us_p50", w.cycle_ns.quantile(0.5) / 1e3, "us");
        report.layer("shm.busy_frac", w.busy_ns as f64 / 1e9 / secs, "ratio");
        report.layer(
            "shm.claim_races",
            (b.claim_races - a.claim_races) as f64,
            "count",
        );
        report.layer(
            "shm.controller_wakes",
            (b.controller_wakes - a.controller_wakes) as f64,
            "count",
        );
        report.layer("slots.fill", w.fill(), "ratio");
        crate::overhead_layers(
            &mut report,
            plain_tput,
            rig::median_rate(&window_ops[1], lengths[1]),
        );
    }
    report.spans = spans;
    report
}
