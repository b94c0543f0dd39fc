//! Crash-injection suite: the acceptance property of the cross-process
//! plane is that **SIGKILL never strands the books**.  A worker that dies
//! with a claimed slot must be swept back into `S − W` by the controller's
//! reclamation cycle, and a controller that dies holding the lease must be
//! replaced by takeover — both exercised here against real child
//! processes and the real `/proc` probe.  A scripted death (an injected
//! liveness table) covers the claim no slot names any more: a sleeper
//! evicted by a claim that wrapped onto its slot.
#![cfg(target_os = "linux")]

use lc_core::{ClaimOutcome, SleeperId};
use lc_shm::{layout, Geometry, PidLiveness, ShmController, ShmPlane, ShmSegment};
use std::collections::HashSet;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn temp_segment(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("lc-shm-{}-{}.seg", name, std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

fn lcctl() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lcctl"))
}

#[test]
fn sigkilled_parked_worker_never_strands_the_books() {
    let path = temp_segment("crash");
    let seg = Arc::new(ShmSegment::create(&path, Geometry::DEFAULT).expect("create segment"));
    let buffer = ShmPlane::new(Arc::clone(&seg));

    // A real child process attaches, claims a slot (the target published
    // here admits one sleeper), parks on its futex, and reports the claim
    // on stdout.
    buffer.book().set_target(1);
    let mut child = lcctl()
        .args(["__test-worker", path.to_str().unwrap()])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn test worker");
    let line = BufReader::new(child.stdout.take().unwrap())
        .lines()
        .next()
        .expect("worker reported")
        .expect("readable stdout");
    assert!(line.starts_with("parked slot="), "unexpected: {line}");
    let field = |key: &str| -> usize {
        line.split_whitespace()
            .find_map(|tok| tok.strip_prefix(key))
            .unwrap_or_else(|| panic!("no {key} in {line}"))
            .parse()
            .unwrap()
    };
    let slot = field("slot=");
    let cell = field("cell=");
    assert!(buffer.still_claimed(slot, cell), "worker's slot not held");
    let stats = buffer.stats();
    assert_eq!(stats.sleeping, 1, "worker's claim not visible");
    assert_eq!(stats.ever_slept, 1);

    // SIGKILL mid-park, and reap so /proc/<pid> actually disappears.
    child.kill().expect("SIGKILL worker");
    child.wait().expect("reap worker");

    // One reclamation cycle restores the books.
    let mut controller = ShmController::new(buffer.clone(), 2);
    assert!(controller.run_cycle(), "election over an empty lease");
    let stats = buffer.stats();
    assert_eq!(stats.sleeping, 0, "dead worker stranded S - W");
    assert_eq!(stats.ever_slept, stats.woken_and_left, "books unbalanced");
    assert_eq!(stats.reclaimed_slots, 1);
    assert_eq!(
        seg.u64_at(layout::OFF_RECLAIMED_MEMBERS)
            .load(Ordering::Acquire),
        1,
        "dead worker's member entry not swept"
    );

    // Reclamation emptied the dead worker's slot itself: no occupied slot
    // remains for a later wake scan to spend a wake (and a futex post) on,
    // and the cycle's own publication did not have to clear it.
    let book = buffer.book();
    let g = buffer.geometry();
    assert!(!buffer.still_claimed(slot, cell), "dead worker's slot kept");
    assert_eq!(
        stats.controller_wakes, 0,
        "slot cleared by a wake, not reclaim"
    );
    assert_eq!(
        book.wake(g.shards * g.shard_capacity),
        0,
        "an occupied slot survived reclamation"
    );

    // The reclaimed slot is reusable: the ring's next lap over the shard
    // claims every slot, the reclaimed one included.
    book.set_target((g.shards * g.shard_capacity) as u64);
    let id =
        SleeperId::from_index(buffer.register_sleeper(std::process::id()).expect("cell") as u64);
    let shard = slot / g.shard_capacity;
    let claimed: Vec<usize> = (0..g.shard_capacity)
        .map(|_| {
            let head = book.begin_claim_at(shard).expect("shard has room");
            match book.commit_claim_at(shard, id, head) {
                ClaimOutcome::Claimed(idx) => idx,
                other => panic!("uncontended claim failed: {other:?}"),
            }
        })
        .collect();
    assert!(
        claimed.contains(&slot),
        "reclaimed slot {slot} not claimable again (got {claimed:?})"
    );
    for s in claimed {
        book.leave(s, id);
    }
    let _ = std::fs::remove_file(&path);
}

/// Liveness table a test edits to "kill" pids.
#[derive(Debug, Clone, Default)]
struct ScriptedLiveness {
    dead: Arc<Mutex<HashSet<u32>>>,
}

impl PidLiveness for ScriptedLiveness {
    fn alive(&self, pid: u32) -> bool {
        !self.dead.lock().unwrap().contains(&pid)
    }
}

#[test]
fn evicted_sleeper_of_a_dead_pid_is_reclaimed_through_its_cell() {
    const DOOMED: u32 = 7001;
    const LIVE: u32 = 7002;
    let seg = ShmSegment::create_anon(Geometry {
        shards: 1,
        shard_capacity: 4,
        max_members: 4,
        max_sleepers: 8,
    })
    .expect("anonymous segment");
    let plane = ShmPlane::new(Arc::new(seg));
    plane.book().set_target(4);

    // Four claims fill the ring; the last three leave; a fifth claim wraps
    // onto slot 0, still held by the first sleeper, and evicts it.
    let doomed = plane.register_sleeper(DOOMED).expect("cell");
    let live: Vec<usize> = (0..4)
        .map(|_| plane.register_sleeper(LIVE).expect("cell"))
        .collect();
    let first = plane.claim(doomed).expect("claim");
    for &cell in &live[..3] {
        let slot = plane.claim(cell).expect("claim");
        plane.leave(slot, cell);
    }
    let lap = plane.claim(live[3]).expect("wrap-around claim");
    assert_eq!(
        lap, first,
        "the head wrapped onto the parked sleeper's slot"
    );
    assert!(!plane.still_claimed(first, doomed), "sleeper not evicted");
    assert_eq!(
        plane.sleeper_claim(doomed),
        Some(first),
        "cell lost the claim"
    );
    assert_eq!(plane.stats().sleeping, 2, "S - W must count both claims");

    // The evicted sleeper's process dies before it notices; one cycle
    // finds its claim through the cell, though no slot names it.
    let liveness = ScriptedLiveness::default();
    liveness.dead.lock().unwrap().insert(DOOMED);
    let mut controller = ShmController::new(plane.clone(), 4)
        .with_pid(LIVE)
        .with_liveness(Box::new(liveness));
    assert!(controller.run_cycle());
    assert_eq!(plane.stats().reclaimed_slots, 1);
    assert_eq!(plane.sleeper_lease(doomed), 0, "dead cell not released");
    assert_eq!(plane.sleeper_claim(doomed), None);
    // Reclaiming the same cell again ends nothing: the claim word was
    // taken before W moved, so W advanced exactly once.
    let after = plane.stats();
    plane.reclaim_cell(doomed);
    assert_eq!(plane.stats(), after, "a second reclaim counted a departure");

    // The live sleeper leaves; the books balance at quiesce.
    plane.leave(lap, live[3]);
    let stats = plane.stats();
    assert_eq!(stats.ever_slept, 5);
    assert_eq!(stats.ever_slept, stats.woken_and_left, "S != W at quiesce");
    assert_eq!(stats.sleeping, 0);
}

#[test]
fn dead_controller_lease_is_taken_over() {
    let path = temp_segment("takeover");
    let seg = Arc::new(ShmSegment::create(&path, Geometry::DEFAULT).expect("create segment"));
    let buffer = ShmPlane::new(Arc::clone(&seg));

    // A child process wins the election and heartbeats.
    let mut child = lcctl()
        .args(["__test-controller", path.to_str().unwrap()])
        .spawn()
        .expect("spawn test controller");
    let deadline = Instant::now() + Duration::from_secs(10);
    while seg
        .u64_at(layout::OFF_CONTROLLER_HEARTBEAT)
        .load(Ordering::Acquire)
        == 0
    {
        assert!(Instant::now() < deadline, "child controller never elected");
        std::thread::sleep(Duration::from_millis(5));
    }
    let child_lease = seg
        .u64_at(layout::OFF_CONTROLLER_LEASE)
        .load(Ordering::Acquire);
    assert_eq!(layout::lease_pid(child_lease), child.id());

    // SIGKILL the elected controller; the lease is now held by a dead pid.
    child.kill().expect("SIGKILL controller");
    child.wait().expect("reap controller");

    // A fresh candidate probes the holder, finds it dead, and takes over.
    let mut candidate = ShmController::new(buffer.clone(), 2);
    assert!(candidate.run_cycle(), "takeover failed");
    assert_eq!(
        seg.u64_at(layout::OFF_TAKEOVERS).load(Ordering::Acquire),
        1,
        "takeover not counted"
    );
    let lease = seg
        .u64_at(layout::OFF_CONTROLLER_LEASE)
        .load(Ordering::Acquire);
    assert_eq!(layout::lease_pid(lease), std::process::id());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn live_controller_lease_is_respected() {
    // The inverse guard: a candidate must NOT steal the lease from a
    // holder whose pid is alive (this process).
    let path = temp_segment("respect");
    let seg = Arc::new(ShmSegment::create(&path, Geometry::DEFAULT).expect("create segment"));
    let buffer = ShmPlane::new(Arc::clone(&seg));

    let mut holder = ShmController::new(buffer.clone(), 2);
    assert!(holder.run_cycle());
    let mut rival = ShmController::new(buffer.clone(), 2).with_pid(std::process::id());
    // Rival has a distinct lease generation but the same (live) pid word
    // already holds the lease: election must fail.
    assert!(!rival.try_elect(), "rival stole a live lease");
    assert_eq!(seg.u64_at(layout::OFF_TAKEOVERS).load(Ordering::Acquire), 0);
    holder.resign();
    let _ = std::fs::remove_file(&path);
}
