//! The fleet controller: election, sampling, reclamation, and the
//! `lcctl` command intake around the shared decision step.
//!
//! Exactly one controller runs per segment.  Election is a CAS on the
//! header's controller lease (`pid << 32 | generation`); every candidate
//! that finds the lease held probes the holder's pid through the same
//! `/proc` seam reclamation uses and takes over when the holder died —
//! so a SIGKILLed controller is replaced by the next candidate's cycle,
//! not by an operator.  The lease is also what keeps target publication
//! to one process at a time.
//!
//! The elected controller's [`ShmController::run_cycle`] does the duties
//! only a cross-process plane has — consume `lcctl` commands, sweep the
//! claims and member entries of dead pids back into the books, sum the
//! members' runnable counts — and then hands that fleet load sample to
//! [`lc_core::decide_and_publish`], the same policy → split → publish →
//! wake step the in-process controller runs.

use crate::plane::{check_spec_fits, ShmPlane};
use crate::sys;
use lc_core::policy::{build_policy_spec, build_splitter_spec};
use lc_core::{
    decide_and_publish, ControlPolicy, ControllerStats, CycleInput, ParsedSpec, SpecError,
    TargetSplitter,
};
use lc_locks::stats::WaitSnapshot;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::layout::{self, lease_pid};

/// Pid liveness probe — the reclamation seam.
///
/// Production uses [`ProcLiveness`] over `/proc`; tests and the
/// deterministic bench inject fakes to script crashes.
pub trait PidLiveness: Send + Sync + fmt::Debug {
    /// Whether `pid` refers to a live (non-zombie) process.
    fn alive(&self, pid: u32) -> bool;
}

/// `/proc/<pid>` probe with an injectable root, mirroring
/// `lc_accounting::ProcfsLoadSampler::with_root`.
#[derive(Debug, Clone)]
pub struct ProcLiveness {
    root: PathBuf,
}

impl ProcLiveness {
    /// Probes the real `/proc`.
    pub fn new() -> Self {
        Self::with_root("/proc")
    }

    /// Probes `<root>/<pid>` — point at a fixture tree in tests.
    pub fn with_root(root: impl Into<PathBuf>) -> Self {
        ProcLiveness { root: root.into() }
    }
}

impl Default for ProcLiveness {
    fn default() -> Self {
        Self::new()
    }
}

impl PidLiveness for ProcLiveness {
    fn alive(&self, pid: u32) -> bool {
        sys::pid_alive(&self.root, pid)
    }
}

/// The per-segment controller (candidate until elected).
#[derive(Debug)]
pub struct ShmController {
    buffer: ShmPlane,
    policy: Box<dyn ControlPolicy>,
    splitter: Box<dyn TargetSplitter>,
    liveness: Box<dyn PidLiveness>,
    capacity: usize,
    headroom: usize,
    interval: Duration,
    pid: u32,
    lease: u64,
    manual_target: Option<u64>,
    last_wait: WaitSnapshot,
}

/// Builds a policy by spec, refusing one whose canonical spec would not fit
/// the segment's applied-spec area (it could not be reported back).
fn build_publishable_policy(spec: &str) -> Result<Box<dyn ControlPolicy>, SpecError> {
    let policy = build_policy_spec(spec)?;
    let canonical = policy.spec().to_string();
    check_spec_fits(&canonical).map_err(|e| SpecError::Parse {
        input: canonical,
        reason: e.to_string(),
    })?;
    Ok(policy)
}

impl ShmController {
    /// A candidate controller over `buffer`, driving the paper policy and
    /// even splitter for a machine with `capacity` hardware contexts.
    pub fn new(buffer: ShmPlane, capacity: usize) -> Self {
        ShmController {
            buffer,
            policy: build_policy_spec("paper").expect("paper policy is registered"),
            splitter: build_splitter_spec("even").expect("even splitter is registered"),
            liveness: Box::new(ProcLiveness::new()),
            capacity,
            headroom: 0,
            interval: Duration::from_millis(5),
            pid: std::process::id(),
            lease: 0,
            manual_target: None,
            last_wait: WaitSnapshot::default(),
        }
    }

    /// Replaces the decision policy by spec string.  A spec whose canonical
    /// form is longer than [`layout::SPEC_MAX_BYTES`] is refused.
    pub fn with_policy_spec(mut self, spec: &str) -> Result<Self, SpecError> {
        self.policy = build_publishable_policy(spec)?;
        Ok(self)
    }

    /// Replaces the target splitter by spec string.
    pub fn with_splitter_spec(mut self, spec: &str) -> Result<Self, SpecError> {
        self.splitter = build_splitter_spec(spec)?;
        Ok(self)
    }

    /// Injects a liveness probe (tests, deterministic bench).
    pub fn with_liveness(mut self, liveness: Box<dyn PidLiveness>) -> Self {
        self.liveness = liveness;
        self
    }

    /// Overrides the pid used for the controller lease (bench scripting).
    pub fn with_pid(mut self, pid: u32) -> Self {
        self.pid = pid;
        self
    }

    /// Sets the overload headroom fed to the policy.
    pub fn with_headroom(mut self, headroom: usize) -> Self {
        self.headroom = headroom;
        self
    }

    /// Sets the cycle interval fed to the policy (and used by
    /// [`ShmControlDaemon`] as its period).
    pub fn with_interval(mut self, interval: Duration) -> Self {
        self.interval = interval;
        self
    }

    /// The segment handle this controller drives.
    pub fn buffer(&self) -> &ShmPlane {
        &self.buffer
    }

    /// The configured cycle interval.
    pub fn interval(&self) -> Duration {
        self.interval
    }

    /// Whether this candidate currently holds the controller lease.
    pub fn elected(&self) -> bool {
        self.lease != 0
            && self
                .buffer
                .segment()
                .u64_at(layout::OFF_CONTROLLER_LEASE)
                .load(Ordering::Acquire)
                == self.lease
    }

    /// Attempts to take the controller lease: wins a vacant lease
    /// outright, and *takes over* a lease whose holder pid is dead.
    pub fn try_elect(&mut self) -> bool {
        if self.elected() {
            return true;
        }
        let seg = self.buffer.segment();
        let lease_word = seg.u64_at(layout::OFF_CONTROLLER_LEASE);
        let current = lease_word.load(Ordering::Acquire);
        if current != 0 && self.liveness.alive(lease_pid(current)) {
            return false;
        }
        let mine = layout::lease(self.pid, seg.next_generation());
        if lease_word
            .compare_exchange(current, mine, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return false;
        }
        self.lease = mine;
        if current != 0 {
            seg.u64_at(layout::OFF_TAKEOVERS)
                .fetch_add(1, Ordering::AcqRel);
        }
        // Publish what we are actually running, so `lcctl stat` answers
        // from the segment even before the first command arrives.  The
        // spec fits: every policy this controller holds was checked.
        self.buffer
            .set_applied_spec(&self.policy.spec().to_string())
            .expect("policy specs are checked to fit");
        self.last_wait = self.buffer.book().wait_snapshot();
        true
    }

    /// Releases the lease (clean shutdown; a dead controller skips this
    /// and is replaced by takeover).
    pub fn resign(&mut self) {
        if self.elected() {
            let _ = self
                .buffer
                .segment()
                .u64_at(layout::OFF_CONTROLLER_LEASE)
                .compare_exchange(self.lease, 0, Ordering::AcqRel, Ordering::Relaxed);
        }
        self.lease = 0;
    }

    /// One controller cycle.  Returns `false` when this candidate is not
    /// (and could not become) the elected controller.
    pub fn run_cycle(&mut self) -> bool {
        if !self.try_elect() {
            return false;
        }
        let seg = Arc::clone(self.buffer.segment());
        seg.u64_at(layout::OFF_CONTROLLER_HEARTBEAT)
            .fetch_add(1, Ordering::AcqRel);

        // Commands first: a freshly posted `lcctl set policy` must steer
        // *this* cycle's target, not the next one's.
        self.consume_command();

        // Reclamation sweep: sleeper cells, then members.  A dead pid's
        // claim is ended exactly as if the sleeper had left (W advances
        // once), so S − W can never strand; the cell's claim word finds it
        // even when a later claim overwrote its slot.  Each pid is probed
        // once per sweep: a process's cells and member entry share it.
        let g = self.buffer.geometry();
        let mut probed: Vec<(u32, bool)> = Vec::new();
        let mut dead = |lease: u64| {
            if lease == 0 {
                return false;
            }
            let pid = lease_pid(lease);
            let alive = match probed.iter().find(|(p, _)| *p == pid) {
                Some(&(_, alive)) => alive,
                None => {
                    let alive = self.liveness.alive(pid);
                    probed.push((pid, alive));
                    alive
                }
            };
            !alive
        };
        for cell in 0..g.max_sleepers {
            if dead(self.buffer.sleeper_lease(cell)) {
                self.buffer.reclaim_cell(cell);
            }
        }
        for member in 0..g.max_members {
            if dead(self.buffer.member_lease(member)) {
                self.buffer.reclaim_member(member);
            }
        }

        // Fleet-wide sample: runnable threads published by live members.
        let runnable = self.buffer.fleet_runnable();
        seg.u64_at(layout::OFF_FLEET_RUNNABLE)
            .store(runnable, Ordering::Release);
        let cycles = seg
            .u64_at(layout::OFF_CYCLES)
            .fetch_add(1, Ordering::AcqRel);
        let book = self.buffer.book();
        // A drain or an operator's `target(value=N)` holds the target
        // outside the policy: publish it directly, as in-process
        // `set_sleep_target` does.  Re-publishing every cycle wakes any
        // sleeper that claimed against the previous value.
        let held = if self.buffer.draining() {
            Some(0)
        } else {
            self.manual_target
        };
        if let Some(target) = held {
            book.set_target(target);
            self.last_wait = book.wait_snapshot();
            return true;
        }
        let books = book.stats();
        decide_and_publish(
            book,
            self.policy.as_mut(),
            self.splitter.as_mut(),
            &mut self.last_wait,
            CycleInput {
                runnable: runnable as usize,
                capacity: self.capacity,
                headroom: self.headroom,
                interval: self.interval,
                stats: ControllerStats {
                    cycles,
                    last_runnable: runnable as usize,
                    last_target: books.target,
                    controller_wakes: books.controller_wakes,
                    woken_and_left: books.woken_and_left,
                },
            },
        );
        true
    }

    fn consume_command(&mut self) {
        let Some((seq, text)) = self.buffer.pending_command() else {
            return;
        };
        let ok = self.apply_command(&text);
        self.buffer.ack_command(seq, ok);
    }

    fn apply_command(&mut self, text: &str) -> bool {
        let Ok(spec) = ParsedSpec::parse(text) else {
            return false;
        };
        match spec.name() {
            // `drain()`: stop claiming, wake everyone, hold the fleet at
            // target 0 until `resume()`.
            "drain" => {
                self.buffer.set_draining(true);
                true
            }
            "resume" => {
                self.buffer.set_draining(false);
                true
            }
            // `target(value=N)`: manual steering — pin the fleet target,
            // bypassing the policy until a policy command replaces it.
            "target" => match spec.param::<u64>("value") {
                Ok(Some(v)) => {
                    self.manual_target = Some(v);
                    self.buffer
                        .set_applied_spec(&format!("target(value={v})"))
                        .is_ok()
                }
                _ => false,
            },
            // Anything else is a policy spec in the shared registry.
            _ => match build_publishable_policy(text) {
                Ok(policy) => {
                    self.policy = policy;
                    self.manual_target = None;
                    self.buffer
                        .set_applied_spec(&self.policy.spec().to_string())
                        .is_ok()
                }
                Err(_) => false,
            },
        }
    }
}

/// A background thread running [`ShmController::run_cycle`] on its
/// configured interval until stopped.
#[derive(Debug)]
pub struct ShmControlDaemon {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ShmControlDaemon {
    /// Spawns the controller loop.
    pub fn start(mut controller: ShmController) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("lc-shm-controller".into())
            .spawn(move || {
                let interval = controller.interval();
                while !stop2.load(Ordering::Acquire) {
                    controller.run_cycle();
                    std::thread::sleep(interval);
                }
                controller.resign();
            })
            .expect("spawn lc-shm controller daemon");
        ShmControlDaemon {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the loop, resigns the lease, and joins the thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ShmControlDaemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}
