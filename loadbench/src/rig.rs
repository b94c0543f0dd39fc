//! Pieces shared by the real-thread workloads: run phases and measurement
//! windows, the bench-driven controller loop, and the timing decorators
//! installed through `LoadControl::builder`.

use crate::stats::Histogram;
use crate::trace::{next_span_id, now_ns, self_time_ns, Span, SpanLog};
use lc_accounting::{LoadSample, LoadSampler, RegistryLoadSampler, ThreadRegistry};
use lc_core::{
    ControlPolicy, LoadControl, ParsedSpec, PolicyInputs, ShardSnapshot, TargetSplitter,
};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Workers run but nothing is counted yet.
pub const WARMUP: u8 = 0;
/// Measuring with tracing off.
pub const PLAIN: u8 = 1;
/// Measuring with tracing on.
pub const TRACED: u8 = 2;
/// Workers finish their current operation and exit.
pub const STOP: u8 = 3;

/// Index of a measuring phase's accumulator (`PLAIN` → 0, `TRACED` → 1).
pub fn window_index(phase: u8) -> Option<usize> {
    match phase {
        PLAIN => Some(0),
        TRACED => Some(1),
        _ => None,
    }
}

/// Warm-up before the first window: the controller settles and lazy
/// set-up finishes.
pub fn warmup(seconds: f64) -> Duration {
    Duration::from_secs_f64((seconds * 0.05).clamp(0.05, 0.5))
}

/// The windows a run measures: the whole run untraced, or, for the traced
/// run, an untraced half followed by a traced half so the two throughputs
/// give the tracing overhead.
pub fn windows(seconds: f64, trace: bool) -> Vec<(u8, Duration)> {
    if trace {
        let half = Duration::from_secs_f64(seconds / 2.0);
        vec![(PLAIN, half), (TRACED, half)]
    } else {
        vec![(PLAIN, Duration::from_secs_f64(seconds))]
    }
}

/// Length of one slice of a window.  Rates are the median over a window's
/// complete slices, so a burst of interference from outside the process
/// moves one slice rather than the result.
pub const SLICE_NS: u64 = 250_000_000;

/// Shared run phase, read by workers at the start of every operation, and
/// when it began.
#[derive(Debug, Default)]
pub struct Phase {
    mode: AtomicU8,
    since_ns: AtomicU64,
}

impl Phase {
    /// The current phase.
    #[inline]
    pub fn get(&self) -> u8 {
        self.mode.load(Ordering::Relaxed)
    }

    /// The slice of the current phase that time `t_ns` falls in.
    #[inline]
    pub fn slice_at(&self, t_ns: u64) -> usize {
        (t_ns.saturating_sub(self.since_ns.load(Ordering::Relaxed)) / SLICE_NS) as usize
    }

    /// Moves to `phase`.
    pub fn set(&self, phase: u8) {
        self.since_ns.store(now_ns(), Ordering::SeqCst);
        self.mode.store(phase, Ordering::SeqCst);
    }
}

/// Per-slice sums over one window.
#[derive(Debug, Default, Clone)]
pub struct Slices(Vec<f64>);

impl Slices {
    /// Adds `v` to slice `slice`.
    #[inline]
    pub fn add(&mut self, slice: usize, v: f64) {
        if self.0.len() <= slice {
            self.0.resize(slice + 1, 0.0);
        }
        self.0[slice] += v;
    }

    /// Adds every slice of `other`.
    pub fn merge(&mut self, other: &Slices) {
        for (i, v) in other.0.iter().enumerate() {
            self.add(i, *v);
        }
    }

    /// Sum of slice `i` (0 past the end).
    pub fn get(&self, i: usize) -> f64 {
        self.0.get(i).copied().unwrap_or(0.0)
    }

    /// Sum over every slice.
    pub fn total(&self) -> f64 {
        self.0.iter().sum()
    }
}

/// Complete slices in a window of length `window`.
pub fn complete_slices(window: Duration) -> usize {
    (window.as_nanos() / u128::from(SLICE_NS)) as usize
}

/// The median per-second rate over the complete slices of a window; the
/// plain rate when the window is shorter than a slice.
pub fn median_rate(counts: &Slices, window: Duration) -> f64 {
    let n = complete_slices(window);
    if n == 0 {
        return counts.total() / window.as_secs_f64();
    }
    let per_sec = 1e9 / SLICE_NS as f64;
    let rates: Vec<f64> = (0..n).map(|i| counts.get(i) * per_sec).collect();
    crate::stats::median(&rates)
}

/// The median over the complete slices of a window of per-slice means
/// `sums / counts`; the plain mean when the window is shorter than a slice.
pub fn median_mean(sums: &Slices, counts: &Slices, window: Duration) -> f64 {
    let n = complete_slices(window);
    if n == 0 {
        return sums.total() / counts.total().max(1.0);
    }
    let means: Vec<f64> = (0..n)
        .filter(|&i| counts.get(i) > 0.0)
        .map(|i| sums.get(i) / counts.get(i))
        .collect();
    crate::stats::median(&means)
}

/// Steps the phase through warm-up and `windows`, calling `snapshot` at the
/// start of the first window and at the end of every window.  Returns the
/// measured length of each window.
pub fn run_windows(
    phase: &Phase,
    seconds: f64,
    windows: &[(u8, Duration)],
    mut snapshot: impl FnMut(),
) -> Vec<Duration> {
    std::thread::sleep(warmup(seconds));
    let mut lengths = Vec::new();
    snapshot();
    for &(mode, len) in windows {
        let start = Instant::now();
        phase.set(mode);
        std::thread::sleep(len);
        snapshot();
        lengths.push(start.elapsed());
    }
    phase.set(STOP);
    lengths
}

/// Builds `reps` rigs one after another, timing each build, and keeps the
/// last; the earlier ones are torn down with `discard`.  Returns the kept
/// rig and every build time in seconds.
pub fn repeated_setup<R>(
    reps: usize,
    mut build: impl FnMut() -> R,
    mut discard: impl FnMut(R),
) -> (R, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for i in 0..reps.max(1) {
        let start = Instant::now();
        let rig = build();
        times.push(start.elapsed().as_secs_f64());
        if i + 1 < reps.max(1) {
            discard(rig);
        } else {
            kept = Some(rig);
        }
    }
    (kept.expect("at least one set-up"), times)
}

/// Open-cycle state shared by the controller loop and the decorators it
/// times: the running cycle's span id and the child spans it caused.
#[derive(Debug, Default)]
pub struct CycleProbe {
    cycle: AtomicU64,
    children: Mutex<Vec<Span>>,
}

impl CycleProbe {
    /// Runs `f`, recording it as a child of the open cycle if one is open.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let parent = self.cycle.load(Ordering::Relaxed);
        if parent == 0 {
            return f();
        }
        let start = now_ns();
        let out = f();
        let end = now_ns();
        self.children
            .lock()
            .expect("probe mutex poisoned")
            .push(Span {
                name,
                id: next_span_id(),
                parent,
                start_ns: start,
                end_ns: end,
            });
        out
    }

    fn open(&self, id: u64) {
        self.cycle.store(id, Ordering::Relaxed);
    }

    fn close(&self) -> Vec<Span> {
        self.cycle.store(0, Ordering::Relaxed);
        std::mem::take(&mut *self.children.lock().expect("probe mutex poisoned"))
    }
}

/// Times `ControlPolicy::target` as `policy.target`.
#[derive(Debug)]
pub struct TimedPolicy {
    /// The policy doing the work.
    pub inner: Box<dyn ControlPolicy>,
    /// Where the spans go.
    pub probe: Arc<CycleProbe>,
}

impl ControlPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn target(&mut self, inputs: &PolicyInputs) -> u64 {
        let inner = &mut self.inner;
        self.probe.time("policy.target", || inner.target(inputs))
    }

    fn spec(&self) -> ParsedSpec {
        self.inner.spec()
    }
}

/// Times `TargetSplitter::split` as `splitter.split`.
#[derive(Debug)]
pub struct TimedSplitter {
    /// The splitter doing the work.
    pub inner: Box<dyn TargetSplitter>,
    /// Where the spans go.
    pub probe: Arc<CycleProbe>,
}

impl TargetSplitter for TimedSplitter {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn rebalances(&self) -> bool {
        self.inner.rebalances()
    }

    fn split(&mut self, total: u64, shards: &[ShardSnapshot], shard_capacity: u64) -> Vec<u64> {
        let inner = &mut self.inner;
        self.probe.time("splitter.split", || {
            inner.split(total, shards, shard_capacity)
        })
    }

    fn observe_shard_groups(&mut self, groups: &[usize]) {
        self.inner.observe_shard_groups(groups);
    }

    fn spec(&self) -> ParsedSpec {
        self.inner.spec()
    }
}

/// Times `LoadSampler::sample` as `accounting.sample`.
#[derive(Debug)]
pub struct TimedSampler {
    /// The sampler doing the work.
    pub inner: RegistryLoadSampler,
    /// Where the spans go.
    pub probe: Arc<CycleProbe>,
}

impl LoadSampler for TimedSampler {
    fn sample(&self) -> LoadSample {
        self.probe.time("accounting.sample", || self.inner.sample())
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn spec(&self) -> ParsedSpec {
        self.inner.spec()
    }
}

/// A `LoadControl` whose policy, splitter and sampler are the defaults
/// wrapped in timing decorators; they record only while a cycle is open.
pub fn timed_control(
    config: lc_core::LoadControlConfig,
    probe: &Arc<CycleProbe>,
) -> Arc<LoadControl> {
    let registry = Arc::new(ThreadRegistry::new());
    let sampler = TimedSampler {
        inner: RegistryLoadSampler::new(Arc::clone(&registry)),
        probe: Arc::clone(probe),
    };
    LoadControl::builder(config)
        .boxed_policy(Box::new(TimedPolicy {
            inner: Box::new(lc_core::PaperPolicy),
            probe: Arc::clone(probe),
        }))
        .boxed_splitter(Box::new(TimedSplitter {
            inner: Box::new(lc_core::EvenSplitter),
            probe: Arc::clone(probe),
        }))
        .sampler(registry, Box::new(sampler))
        .build()
}

/// What the controller loop saw in one measuring window.
#[derive(Debug, Default)]
pub struct CycleWindow {
    /// Cycles run.
    pub cycles: u64,
    /// Σ max(0, runnable − capacity) over cycles.
    pub excess_sum: f64,
    /// Σ published target over cycles.
    pub target_sum: f64,
    /// Σ outstanding sleepers over cycles.
    pub sleepers_sum: f64,
    /// Σ of the workload's extra per-cycle sample.
    pub extra_sum: f64,
    /// Sampled runnable workers, per slice.
    pub runnable_slices: Slices,
    /// Cycles, per slice.
    pub cycle_slices: Slices,
    /// Σ cycle duration (traced window only).
    pub busy_ns: u64,
    /// Cycle durations (traced window only).
    pub cycle_ns: Histogram,
    /// Cycle self times: the cycle minus its sampler, policy and splitter
    /// children (traced window only).
    pub self_ns: Histogram,
}

impl CycleWindow {
    /// Mean of a per-cycle sum; 0 without cycles.
    pub fn mean(&self, sum: f64) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            sum / self.cycles as f64
        }
    }

    /// Mean sleepers over mean target: how much of the published target
    /// the gates filled; 0 while the target stayed 0.
    pub fn fill(&self) -> f64 {
        if self.target_sum > 0.0 {
            self.sleepers_sum / self.target_sum
        } else {
            0.0
        }
    }
}

/// One cycle's observation, taken by the controller loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct CycleSample {
    /// Runnable workers the cycle sampled.
    pub runnable: u64,
    /// The target it published.
    pub target: u64,
    /// Sleepers outstanding after it.
    pub sleepers: u64,
    /// The workload's extra per-cycle sample.
    pub extra: f64,
}

/// The bench's controller loop, the same run-cycle-then-sleep loop a
/// controller daemon runs: call `cycle` every `interval` until the phase
/// reaches [`STOP`] and `done` is set.  In the traced window each cycle is a
/// `controller.cycle` span whose children come from `probe`.
pub fn drive_cycles(
    phase: &Phase,
    done: &AtomicBool,
    interval: Duration,
    capacity: u64,
    probe: Option<&CycleProbe>,
    cycle_name: &'static str,
    mut cycle: impl FnMut() -> CycleSample,
) -> ([CycleWindow; 2], SpanLog) {
    let mut out: [CycleWindow; 2] = Default::default();
    let mut log = SpanLog::default();
    while !done.load(Ordering::SeqCst) {
        let mode = phase.get();
        if mode == TRACED {
            let id = next_span_id();
            if let Some(p) = probe {
                p.open(id);
            }
            let start = now_ns();
            let s = cycle();
            let end = now_ns();
            let children = probe.map(CycleProbe::close).unwrap_or_default();
            let span = Span {
                name: cycle_name,
                id,
                parent: 0,
                start_ns: start,
                end_ns: end,
            };
            let w = &mut out[1];
            w.busy_ns += span.duration_ns();
            w.cycle_ns.record(span.duration_ns());
            w.self_ns.record(self_time_ns(&span, &children));
            log.push(span);
            for child in children {
                log.push(child);
            }
            tally(w, &s, capacity, phase.slice_at(start));
        } else {
            let slice = phase.slice_at(now_ns());
            let s = cycle();
            if let Some(i) = window_index(mode) {
                tally(&mut out[i], &s, capacity, slice);
            }
        }
        std::thread::sleep(interval);
    }
    (out, log)
}

fn tally(w: &mut CycleWindow, s: &CycleSample, capacity: u64, slice: usize) {
    w.cycles += 1;
    w.runnable_slices.add(slice, s.runnable as f64);
    w.cycle_slices.add(slice, 1.0);
    w.excess_sum += s.runnable.saturating_sub(capacity) as f64;
    w.target_sum += s.target as f64;
    w.sleepers_sum += s.sleepers as f64;
    w.extra_sum += s.extra;
}

/// `iters` spin-loop hints: the private and critical work of one operation.
#[inline]
pub fn spin_work(iters: u32) {
    for _ in 0..iters {
        std::hint::spin_loop();
    }
}

/// Worker threads for the real-thread workloads: `nproc`, at least 2.
pub fn worker_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(2)
}

/// The controller's CPU budget: half the workers, i.e. 200 % load.
pub fn capacity_for(threads: usize) -> usize {
    (threads / 2).max(1)
}
