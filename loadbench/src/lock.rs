//! `lock_oversub`: `nproc` threads share one `LcMutex<u64>` (time-published
//! queue lock) under a controller budget of `nproc / 2`.
//!
//! Each operation is a short critical section (60 spin iterations) plus
//! longer private work (400).  Seeded think-time episodes mark a worker
//! `Idle` for about a millisecond, so the sampled load falls and rises and
//! the controller's wake path runs, not only sleep timeouts.

use crate::report::Report;
use crate::rig::{self, CycleProbe, CycleSample, Phase, Slices, STOP, TRACED};
use crate::stats::{self, Histogram};
use crate::trace::{next_span_id, now_ns, Span, SpanLog};
use crate::Rng;
use lc_accounting::ThreadState;
use lc_core::thread_ctx::accounted_sleep;
use lc_core::{LcMutex, LoadControl, LoadControlConfig, LoadControlPolicy, SlotBufferStats};
use lc_locks::{AbortableLock, LockStatsSnapshot, RawLock, SpinDecision, SpinPolicy};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::Duration;

/// Critical-section and private work per operation, in spin iterations.
pub const CRITICAL_ITERS: u32 = 60;
/// Private work between acquisitions, in spin iterations.
pub const PRIVATE_ITERS: u32 = 400;
/// Controller cycle.
pub const INTERVAL: Duration = Duration::from_millis(1);
/// Sleep timeout of a parked waiter.
pub const SLEEP_TIMEOUT: Duration = Duration::from_millis(5);
/// Tail percentile reported as `latency_tail_us`, in nines (p99.99): the
/// highest one with at least ten samples beyond it at a 10 s run.
pub const TAIL_NINES: u32 = 4;
/// Mean operations between think-time episodes.
pub const THINK_GAP_OPS: u64 = 4000;
/// Mean think time, in microseconds.
pub const THINK_US: u64 = 1000;

/// A worker's think-time schedule: `(operations before, think length)`
/// pairs, cycled.  Drawn from the run seed; the program sees only these.
pub fn think_schedule(seed: u64, worker: usize, len: usize) -> Vec<(u64, Duration)> {
    let mut rng = Rng::new(seed ^ (worker as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (0..len)
        .map(|_| {
            let gap = THINK_GAP_OPS / 2 + rng.below(THINK_GAP_OPS);
            let think = THINK_US / 2 + rng.below(THINK_US);
            (gap, Duration::from_micros(think))
        })
        .collect()
}

/// The guarded state: the mutex's own counter (plain path) and a shadow
/// counter (traced path, which takes the queue lock through `lock_with` and
/// so never touches the mutex's data).  Both are bumped with a separate load
/// and store, so a broken mutual exclusion loses updates.
struct Shared {
    control: Arc<LoadControl>,
    mutex: LcMutex<u64>,
    shadow: AtomicU64,
    phase: Phase,
    done: AtomicBool,
    start: Barrier,
}

#[derive(Default)]
struct WindowAcc {
    ops: Slices,
    latency: Histogram,
    parks: u64,
}

#[derive(Default)]
struct WorkerOut {
    plain_ops: u64,
    traced_ops: u64,
    windows: [WindowAcc; 2],
    spans: SpanLog,
}

/// The traced acquisition path: `LoadControlPolicy`, the policy
/// `LcLock::lock` runs, wrapped so the gate's slot checks and parks become
/// spans under the acquisition.
struct TimedGate<'a> {
    inner: LoadControlPolicy,
    log: &'a mut SpanLog,
    parent: u64,
    period: u64,
}

impl SpinPolicy for TimedGate<'_> {
    fn on_spin(&mut self, spins: u64) -> SpinDecision {
        if !spins.is_multiple_of(self.period) {
            return self.inner.on_spin(spins);
        }
        let start = now_ns();
        let decision = self.inner.on_spin(spins);
        self.log.record("gate.check", self.parent, start, now_ns());
        decision
    }

    fn on_aborted(&mut self) {
        let before = self.inner.sleeps_this_acquire;
        let start = now_ns();
        self.inner.on_aborted();
        if self.inner.sleeps_this_acquire > before {
            self.log.record("gate.park", self.parent, start, now_ns());
        }
    }

    fn on_acquired(&mut self, spins: u64) {
        self.inner.on_acquired(spins);
    }
}

fn worker(shared: &Shared, index: usize, seed: u64) -> WorkerOut {
    let schedule = think_schedule(seed, index, 256);
    let mut next_think = 0usize;
    let mut until_think = schedule[0].0;
    let period = u64::from(shared.control.config().slot_check_period);
    let mut out = WorkerOut::default();
    let _registration = shared.control.register_worker();
    shared.start.wait();
    loop {
        let phase = shared.phase.get();
        if phase == STOP {
            break;
        }
        if until_think == 0 {
            let (_, think) = schedule[next_think % schedule.len()];
            accounted_sleep(&shared.control, ThreadState::Idle, think);
            next_think += 1;
            until_think = schedule[next_think % schedule.len()].0;
        }
        until_think -= 1;
        let t0 = now_ns();
        let waited;
        let mut parks = 0;
        if phase == TRACED {
            let id = next_span_id();
            let mut gate = TimedGate {
                inner: LoadControlPolicy::new(&shared.control),
                log: &mut out.spans,
                parent: id,
                period,
            };
            let raw = shared.mutex.raw().inner();
            raw.lock_with(&mut gate);
            parks = u64::from(gate.inner.sleeps_this_acquire);
            let held = now_ns();
            waited = held - t0;
            out.spans.push(Span {
                name: "lock.acquire",
                id,
                parent: 0,
                start_ns: t0,
                end_ns: held,
            });
            rig::spin_work(CRITICAL_ITERS);
            let v = shared.shadow.load(Ordering::Relaxed);
            shared.shadow.store(v + 1, Ordering::Relaxed);
            // SAFETY: `lock_with` above returned, so this thread holds the
            // queue lock, and nothing else releases it.
            unsafe { raw.unlock() };
            out.traced_ops += 1;
        } else {
            let mut guard = shared.mutex.lock();
            waited = now_ns() - t0;
            rig::spin_work(CRITICAL_ITERS);
            let v = *guard;
            *std::hint::black_box(&mut *guard) = v + 1;
            drop(guard);
            out.plain_ops += 1;
        }
        if let Some(i) = rig::window_index(phase) {
            let w = &mut out.windows[i];
            w.ops.add(shared.phase.slice_at(t0), 1.0);
            w.latency.record(waited);
            w.parks += parks;
        }
        rig::spin_work(PRIVATE_ITERS);
    }
    out
}

struct Rig {
    shared: Arc<Shared>,
    probe: Arc<CycleProbe>,
    workers: Vec<JoinHandle<WorkerOut>>,
}

fn build(threads: usize, seed: u64, trace: bool) -> Rig {
    let capacity = rig::capacity_for(threads);
    let config = LoadControlConfig::for_capacity(capacity)
        .with_update_interval(INTERVAL)
        .with_sleep_timeout(SLEEP_TIMEOUT);
    let probe = Arc::new(CycleProbe::default());
    let control = if trace {
        rig::timed_control(config, &probe)
    } else {
        LoadControl::new(config)
    };
    let shared = Arc::new(Shared {
        mutex: LcMutex::new_with(0, &control),
        control,
        shadow: AtomicU64::new(0),
        phase: Phase::default(),
        done: AtomicBool::new(false),
        start: Barrier::new(threads + 1),
    });
    let workers = (0..threads)
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("lock-worker-{i}"))
                .spawn(move || worker(&shared, i, seed))
                .expect("spawn lock worker")
        })
        .collect();
    // Set-up ends when every worker is registered and waiting to start.
    shared.start.wait();
    Rig {
        shared,
        probe,
        workers,
    }
}

fn join(rig: Rig) -> Vec<WorkerOut> {
    rig.shared.phase.set(STOP);
    rig.workers
        .into_iter()
        .map(|h| h.join().expect("lock worker panicked"))
        .collect()
}

#[derive(Clone, Copy, Default)]
struct Snap {
    slots: SlotBufferStats,
    lock: LockStatsSnapshot,
}

fn snap(shared: &Shared) -> Snap {
    Snap {
        slots: shared.control.buffer().stats(),
        lock: shared.mutex.raw().stats(),
    }
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, trace: bool, setup_reps: usize) -> Report {
    let threads = rig::worker_threads();
    let capacity = rig::capacity_for(threads) as u64;
    let (rig, setup) = rig::repeated_setup(
        setup_reps,
        || build(threads, seed, trace),
        |r| {
            join(r);
        },
    );
    let shared = Arc::clone(&rig.shared);
    let probe = Arc::clone(&rig.probe);
    let windows = rig::windows(seconds, trace);
    let mut report = Report::default();
    let mut snaps = Vec::new();
    let mut lengths = Vec::new();
    let (outs, (cycles, cycle_log)) = std::thread::scope(|s| {
        let controller = s.spawn(|| {
            rig::drive_cycles(
                &shared.phase,
                &shared.done,
                INTERVAL,
                capacity,
                trace.then_some(&*probe),
                "controller.cycle",
                || {
                    let st = shared.control.run_cycle();
                    CycleSample {
                        runnable: st.last_runnable as u64,
                        target: st.last_target,
                        sleepers: shared.control.sleepers(),
                        extra: 0.0,
                    }
                },
            )
        });
        lengths = rig::run_windows(&shared.phase, seconds, &windows, || {
            snaps.push(snap(&shared))
        });
        // The controller keeps cycling until the last worker has left, as
        // a daemon outlives the threads it manages.
        let outs = join(rig);
        shared.done.store(true, Ordering::SeqCst);
        (outs, controller.join().expect("controller loop panicked"))
    });

    let plain: u64 = outs.iter().map(|o| o.plain_ops).sum();
    let traced: u64 = outs.iter().map(|o| o.traced_ops).sum();
    let counter = *shared.mutex.lock();
    let shadow = shared.shadow.load(Ordering::SeqCst);
    report.attempted = plain + traced;
    report.failed = plain.abs_diff(counter) + traced.abs_diff(shadow);
    report.check(
        "guarded_counter_equals_ops",
        counter == plain && shadow == traced,
        format!("counter={counter} plain_ops={plain} shadow={shadow} traced_ops={traced}"),
    );
    crate::in_process_book_checks(&mut report, &shared.control);
    report.note("threads", threads);
    report.note("capacity", capacity);

    let mut acc: [WindowAcc; 2] = Default::default();
    let mut spans = cycle_log;
    for o in outs {
        for (a, w) in acc.iter_mut().zip(o.windows) {
            a.ops.merge(&w.ops);
            a.latency.merge(&w.latency);
            a.parks += w.parks;
        }
        spans.merge(o.spans);
    }
    let plain_tput = rig::median_rate(&acc[0].ops, lengths[0]);
    report.e2e("setup_s", stats::median(&setup), "s");
    report.e2e("throughput_ops_s", plain_tput, "1/s");
    crate::latency_metrics(&mut report, &acc[0].latency, TAIL_NINES);
    crate::load_metrics(&mut report, &cycles, capacity, lengths[0]);
    if trace {
        let (a, b) = (snaps[1], snaps[2]);
        let d_acq = b.lock.acquisitions - a.lock.acquisitions;
        let per_acq = |v: u64| v as f64 / d_acq.max(1) as f64;
        report.layer(
            "locks.spins_per_acquire",
            per_acq(b.lock.spin_iterations - a.lock.spin_iterations),
            "spins",
        );
        report.layer(
            "locks.aborts_per_acquire",
            per_acq(b.lock.aborts - a.lock.aborts),
            "aborts",
        );
        let checks = spans.hist("gate.check");
        let parks = spans.hist("gate.park");
        report.layer("gate.checks", checks.count() as f64, "count");
        report.layer("gate.check_ns_p50", checks.quantile(0.5), "ns");
        report.layer("gate.parks", acc[1].parks as f64, "count");
        report.layer("gate.park_us_p50", parks.quantile(0.5) / 1e3, "us");
        report.layer("gate.park_us_tail", crate::tail_us(&parks), "us");
        let secs = lengths[1].as_secs_f64();
        crate::slot_layers(&mut report, &a.slots, &b.slots, &cycles[1]);
        crate::controller_layers(&mut report, &cycles[1], &spans, secs);
        crate::overhead_layers(
            &mut report,
            plain_tput,
            rig::median_rate(&acc[1].ops, lengths[1]),
        );
    }
    report.spans = spans;
    report
}
