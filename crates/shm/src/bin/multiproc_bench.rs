//! Deterministic multi-process control-plane benchmark.
//!
//! Simulates a fleet over a real anonymous segment — real claim CASes,
//! real books, the real controller cycle — but with every source of
//! nondeterminism scripted: fake pids, an injected liveness table instead
//! of `/proc`, synthetic wait durations, and a single-threaded event loop
//! instead of real parked threads (cells "park" by holding a claim and
//! "wake" by observing their slot cleared, exactly the `SlotWait` poll
//! protocol, minus the blocking).
//!
//! The script oversubscribes 4 workers × 4 threads on capacity 4, then
//! SIGKILLs one worker (by marking its pid dead) at cycle 10 with its
//! threads parked, exercising the reclamation sweep.  Output is a
//! stable-key-order JSON document; running the bin twice must produce
//! byte-identical bytes (CI enforces this).

use lc_shm::{Geometry, PidLiveness, ShmController, ShmPlane, ShmSegment};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Liveness table the script edits to "kill" pids.
#[derive(Debug, Clone, Default)]
struct ScriptedLiveness {
    dead: Arc<Mutex<HashSet<u32>>>,
}

impl PidLiveness for ScriptedLiveness {
    fn alive(&self, pid: u32) -> bool {
        !self.dead.lock().unwrap().contains(&pid)
    }
}

const WORKERS: usize = 4;
const THREADS_PER_WORKER: u64 = 4;
const CAPACITY: usize = 4;
const CYCLES: usize = 30;
const CRASH_CYCLE: usize = 10;
const CRASH_PID: u32 = 1002;

struct SimThread {
    cell: usize,
    slot: Option<usize>,
    member: usize,
}

fn main() {
    let seg = Arc::new(
        ShmSegment::create_anon(Geometry {
            shards: 2,
            shard_capacity: 16,
            max_members: 8,
            max_sleepers: 32,
        })
        .expect("anonymous segment (requires Linux)"),
    );
    let buffer = ShmPlane::new(seg);
    let liveness = ScriptedLiveness::default();
    let mut controller = ShmController::new(buffer.clone(), CAPACITY)
        .with_pid(999)
        .with_liveness(Box::new(liveness.clone()))
        .with_interval(Duration::from_millis(5));

    // Fleet: members with fake pids 1000..1004, each publishing a static
    // runnable count; one sim-thread per (worker, thread) pair.
    let mut threads = Vec::new();
    for w in 0..WORKERS {
        let pid = 1000 + w as u32;
        let member = buffer.register_member(pid).expect("member slot");
        buffer.set_member_runnable(member, THREADS_PER_WORKER);
        for _ in 0..THREADS_PER_WORKER {
            let cell = buffer.register_sleeper(pid).expect("sleeper cell");
            threads.push(SimThread {
                cell,
                slot: None,
                member,
            });
        }
    }

    let mut timeline = Vec::new();
    for cycle in 0..CYCLES {
        if cycle == CRASH_CYCLE {
            // SIGKILL worker pid 1002 with its threads parked: its member
            // entry and claimed slots go stale until the sweep runs.
            liveness.dead.lock().unwrap().insert(CRASH_PID);
            threads.retain(|t| buffer.sleeper_lease(t.cell) >> 32 != CRASH_PID as u64);
        }

        controller.run_cycle();

        // Sleeper side of the SlotWait protocol, single-threaded: parked
        // threads whose slot was cleared leave; runnable threads whose
        // shard wants sleepers claim.
        for t in threads.iter_mut() {
            if let Some(slot) = t.slot {
                if !buffer.still_claimed(slot, t.cell) {
                    buffer
                        .book()
                        .record_wait(Duration::from_micros(50 + cycle as u64));
                    buffer.leave(slot, t.cell);
                    buffer.member_runnable_add(t.member, 1);
                    t.slot = None;
                }
            } else if buffer.has_space_for(t.cell) {
                if let Some(slot) = buffer.claim(t.cell) {
                    buffer.member_runnable_add(t.member, -1);
                    t.slot = Some(slot);
                }
            }
        }

        let stats = buffer.stats();
        let runnable = buffer.fleet_runnable();
        timeline.push(format!(
            "{{\"cycle\": {}, \"s\": {}, \"w\": {}, \"sleeping\": {}, \"target\": {}, \
             \"runnable\": {}, \"reclaimed_slots\": {}}}",
            cycle,
            stats.ever_slept,
            stats.woken_and_left,
            stats.sleeping,
            stats.total_target,
            runnable,
            stats.reclaimed_slots
        ));
    }

    let stats = buffer.stats();
    println!("{{");
    println!("  \"bench\": \"multiproc\",");
    println!(
        "  \"fleet\": {{\"workers\": {WORKERS}, \"threads_per_worker\": {THREADS_PER_WORKER}, \
         \"capacity\": {CAPACITY}, \"crash_cycle\": {CRASH_CYCLE}, \"crash_pid\": {CRASH_PID}}},"
    );
    println!("  \"timeline\": [");
    for (i, line) in timeline.iter().enumerate() {
        let comma = if i + 1 == timeline.len() { "" } else { "," };
        println!("    {line}{comma}");
    }
    println!("  ],");
    println!(
        "  \"final\": {{\"s\": {}, \"w\": {}, \"sleeping\": {}, \"target\": {}, \
         \"reclaimed_slots\": {}, \"books_balanced\": {}}}",
        stats.ever_slept,
        stats.woken_and_left,
        stats.sleeping,
        stats.total_target,
        stats.reclaimed_slots,
        stats.sleeping <= stats.total_target
    );
    println!("}}");

    // Hard determinism + correctness gates: the crash must have been
    // reclaimed, and the books must balance (every claim either left or
    // was swept — nothing stranded).
    assert!(
        stats.reclaimed_slots > 0,
        "crash at cycle {CRASH_CYCLE} was never reclaimed"
    );
    assert!(
        stats.sleeping <= stats.total_target,
        "S - W stranded above target"
    );
}
