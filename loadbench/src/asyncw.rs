//! `async_oversub`: a `MiniPool` of `nproc` worker threads runs
//! `8 × nproc` tasks that take the one permit of an `LcSemaphore` through
//! `acquire_async`, under a controller budget of `nproc / 2`.
//!
//! The critical section is long (3000 spin iterations) so waiting tasks
//! poll long enough to reach the gate's slot check and park.  Parked tasks
//! hold a task waker in the slot, on a leased sleeper id; their timeouts are
//! swept by the controller cycle.  No thread `Parker` is ever parked.

use crate::report::Report;
use crate::rig::{self, CycleProbe, CycleSample, Phase, Slices, STOP, TRACED};
use crate::stats::{self, Histogram};
use crate::trace::now_ns;
use lc_core::{LcSemaphore, LoadControl, LoadControlConfig, SlotBufferStats};
use lc_workloads::drivers::load_registered_guard;
use lc_workloads::MiniPool;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll};
use std::time::Duration;

/// Critical section per operation, in spin iterations.
pub const CRITICAL_ITERS: u32 = 3000;
/// Private work after releasing the permit, in spin iterations.
pub const PRIVATE_ITERS: u32 = 400;
/// Tasks per worker thread.
pub const TASKS_PER_WORKER: usize = 8;
/// Controller cycle.
pub const INTERVAL: Duration = Duration::from_millis(1);
/// Sleep timeout of a parked task.
pub const SLEEP_TIMEOUT: Duration = Duration::from_millis(5);
/// Tail percentile reported as `latency_tail_us`, in nines (p99.9).
pub const TAIL_NINES: u32 = 3;

/// Counts the polls a future takes to complete.
struct CountPolls<F> {
    inner: F,
    polls: u64,
}

impl<F: Future + Unpin> Future for CountPolls<F> {
    type Output = (F::Output, u64);

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = &mut *self;
        this.polls += 1;
        Pin::new(&mut this.inner)
            .poll(cx)
            .map(|out| (out, this.polls))
    }
}

/// Returns `Pending` once, waking itself: the task's turn ends between
/// operations, as it would on awaiting its next request.
struct YieldNow(bool);

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.0 {
            return Poll::Ready(());
        }
        self.0 = true;
        cx.waker().wake_by_ref();
        Poll::Pending
    }
}

#[derive(Default)]
struct TaskOut {
    plain_ops: u64,
    traced_ops: u64,
    window_ops: [Slices; 2],
    latency: [Histogram; 2],
    polls: u64,
}

struct Shared {
    control: Arc<LoadControl>,
    semaphore: LcSemaphore,
    guarded: AtomicU64,
    phase: Phase,
    done: AtomicBool,
    started: AtomicUsize,
    outs: Mutex<Vec<TaskOut>>,
}

async fn task(shared: Arc<Shared>) {
    let mut out = TaskOut::default();
    shared.started.fetch_add(1, Ordering::SeqCst);
    loop {
        let phase = shared.phase.get();
        if phase == STOP {
            break;
        }
        let t0 = now_ns();
        let permit = if phase == TRACED {
            let (permit, polls) = CountPolls {
                inner: shared.semaphore.acquire_async(),
                polls: 0,
            }
            .await;
            out.polls += polls;
            permit
        } else {
            shared.semaphore.acquire_async().await
        };
        let waited = now_ns() - t0;
        rig::spin_work(CRITICAL_ITERS);
        let v = shared.guarded.load(Ordering::Relaxed);
        shared.guarded.store(v + 1, Ordering::Relaxed);
        drop(permit);
        if phase == TRACED {
            out.traced_ops += 1;
        } else {
            out.plain_ops += 1;
        }
        if let Some(i) = rig::window_index(phase) {
            out.window_ops[i].add(shared.phase.slice_at(t0), 1.0);
            out.latency[i].record(waited);
        }
        rig::spin_work(PRIVATE_ITERS);
        YieldNow(false).await;
    }
    shared.outs.lock().expect("outs mutex poisoned").push(out);
}

struct Rig {
    shared: Arc<Shared>,
    probe: Arc<CycleProbe>,
    pool: MiniPool,
}

fn build(workers: usize, trace: bool) -> Rig {
    let capacity = rig::capacity_for(workers);
    let config = LoadControlConfig::for_capacity(capacity)
        .with_update_interval(INTERVAL)
        .with_sleep_timeout(SLEEP_TIMEOUT);
    let probe = Arc::new(CycleProbe::default());
    let control = if trace {
        rig::timed_control(config, &probe)
    } else {
        LoadControl::new(config)
    };
    let pool_control = Arc::clone(&control);
    let pool = MiniPool::with_thread_hook(workers, move |_| load_registered_guard(&pool_control));
    let shared = Arc::new(Shared {
        semaphore: LcSemaphore::new_with(1, &control),
        control,
        guarded: AtomicU64::new(0),
        phase: Phase::default(),
        done: AtomicBool::new(false),
        started: AtomicUsize::new(0),
        outs: Mutex::new(Vec::new()),
    });
    let tasks = workers * TASKS_PER_WORKER;
    for _ in 0..tasks {
        pool.spawn(task(Arc::clone(&shared)));
    }
    // Set-up ends when every task has been polled once.
    while shared.started.load(Ordering::SeqCst) < tasks {
        std::thread::yield_now();
    }
    Rig {
        shared,
        probe,
        pool,
    }
}

fn stop(rig: &Rig) {
    rig.shared.phase.set(STOP);
    rig.pool.wait_idle();
}

/// Runs the workload.
pub fn run(_seed: u64, seconds: f64, trace: bool, setup_reps: usize) -> Report {
    let workers = rig::worker_threads();
    let capacity = rig::capacity_for(workers) as u64;
    let (rig, setup) = rig::repeated_setup(setup_reps, || build(workers, trace), |r| stop(&r));
    let shared = Arc::clone(&rig.shared);
    let windows = rig::windows(seconds, trace);
    let mut report = Report::default();
    let mut snaps: Vec<SlotBufferStats> = Vec::new();
    let mut lengths = Vec::new();
    let (cycles, spans) = std::thread::scope(|s| {
        let controller = s.spawn(|| {
            rig::drive_cycles(
                &shared.phase,
                &shared.done,
                INTERVAL,
                capacity,
                trace.then_some(&*rig.probe),
                "controller.cycle",
                || {
                    let st = shared.control.run_cycle();
                    CycleSample {
                        runnable: st.last_runnable as u64,
                        target: st.last_target,
                        sleepers: shared.control.sleepers(),
                        extra: shared.control.async_parked_tasks() as f64,
                    }
                },
            )
        });
        lengths = rig::run_windows(&shared.phase, seconds, &windows, || {
            snaps.push(shared.control.buffer().stats())
        });
        // Parked tasks still need the controller's timeout sweep to finish.
        stop(&rig);
        shared.done.store(true, Ordering::SeqCst);
        controller.join().expect("controller loop panicked")
    });
    drop(rig);

    let outs = std::mem::take(&mut *shared.outs.lock().expect("outs mutex poisoned"));
    let plain: u64 = outs.iter().map(|o| o.plain_ops).sum();
    let traced: u64 = outs.iter().map(|o| o.traced_ops).sum();
    let guarded = shared.guarded.load(Ordering::SeqCst);
    report.attempted = plain + traced;
    report.failed = (plain + traced).abs_diff(guarded);
    report.check(
        "guarded_counter_equals_ops",
        guarded == plain + traced,
        format!("counter={guarded} ops={}", plain + traced),
    );
    report.check(
        "permit_returned",
        shared.semaphore.available() == 1,
        format!("available={}", shared.semaphore.available()),
    );
    crate::in_process_book_checks(&mut report, &shared.control);
    report.note("workers", workers);
    report.note("tasks", workers * TASKS_PER_WORKER);
    report.note("capacity", capacity);

    let mut latency: [Histogram; 2] = Default::default();
    let mut window_ops: [Slices; 2] = Default::default();
    let mut polls = 0u64;
    for o in &outs {
        for i in 0..2 {
            latency[i].merge(&o.latency[i]);
            window_ops[i].merge(&o.window_ops[i]);
        }
        polls += o.polls;
    }
    let plain_tput = rig::median_rate(&window_ops[0], lengths[0]);
    report.e2e("setup_s", stats::median(&setup), "s");
    report.e2e("throughput_ops_s", plain_tput, "1/s");
    crate::latency_metrics(&mut report, &latency[0], TAIL_NINES);
    crate::load_metrics(&mut report, &cycles, capacity, lengths[0]);
    if trace {
        let (a, b) = (snaps[1], snaps[2]);
        let w = &cycles[1];
        let secs = lengths[1].as_secs_f64();
        report.layer(
            "async_gate.parks",
            (b.ever_slept - a.ever_slept) as f64,
            "count",
        );
        report.layer("async_gate.parked_tasks_mean", w.mean(w.extra_sum), "tasks");
        report.layer(
            "async_gate.polls_per_acquire",
            polls as f64 / traced.max(1) as f64,
            "polls",
        );
        crate::slot_layers(&mut report, &a, &b, w);
        crate::controller_layers(&mut report, w, &spans, secs);
        crate::overhead_layers(
            &mut report,
            plain_tput,
            rig::median_rate(&window_ops[1], lengths[1]),
        );
    }
    report.spans = spans;
    report
}
