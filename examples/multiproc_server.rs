//! Multi-process oversubscribed server: one segment, one elected
//! controller, N worker *processes* — the flagship scenario of the
//! cross-process control plane.
//!
//! The parent creates a shared-memory segment, starts the controller
//! daemon (unless `--no-controller`), and re-executes itself `--workers`
//! times in worker mode.  Every worker attaches to the segment and runs
//! `--threads` spinner threads through an [`lc_shm::ShmGate`]; the fleet
//! as a whole oversubscribes `--capacity`, so with a controller running,
//! the **fleet-wide** S book must grow (threads across processes get
//! parked), and without one it must stay at 0 — exactly what the CI smoke
//! asserts.  While it runs, steer it live:
//!
//! ```text
//! cargo run --release --example multiproc_server -- --duration-ms 60000 &
//! lcctl stat /tmp/lc-multiproc-<pid>.seg
//! lcctl set /tmp/lc-multiproc-<pid>.seg policy 'pid(kp=0.9)'
//! lcctl drain /tmp/lc-multiproc-<pid>.seg
//! ```

use std::time::{Duration, Instant};

fn parse_flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parse_num(args: &[String], name: &str, default: u64) -> u64 {
    match parse_flag(args, name) {
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("multiproc_server: {name} expects a number, got '{v}'");
            std::process::exit(2);
        }),
        None => default,
    }
}

#[cfg(target_os = "linux")]
fn main() {
    use lc_shm::{Geometry, ShmControlDaemon, ShmController, ShmSegment, ShmSession};
    use std::sync::Arc;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let threads = parse_num(&args, "--threads", 2) as usize;
    let duration = Duration::from_millis(parse_num(&args, "--duration-ms", 1500));

    // ---- worker mode: attach and spin through the gate -------------------
    if let Some(seg_path) = parse_flag(&args, "--worker") {
        let seg = Arc::new(ShmSegment::open(seg_path.as_ref()).expect("attach segment"));
        let session = Arc::new(ShmSession::attach(seg).expect("join member table"));
        session.set_runnable(threads as u64);
        let deadline = Instant::now() + duration;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let session = Arc::clone(&session);
                std::thread::spawn(move || {
                    let gate = session
                        .register_gate(
                            Arc::new(lc_core::RealClock::new()),
                            Duration::from_millis(50),
                        )
                        .expect("register sleeper cell");
                    let mut work = 0u64;
                    while Instant::now() < deadline {
                        // "Serve a request": a little CPU, then the gate
                        // check every spinner loop makes at its back-off
                        // point.
                        for _ in 0..512 {
                            work = work.wrapping_mul(6364136223846793005).wrapping_add(1);
                        }
                        gate.maybe_sleep();
                    }
                    work
                })
            })
            .collect();
        for h in handles {
            let _ = h.join();
        }
        return;
    }

    // ---- parent: segment, controller, worker fleet -----------------------
    let workers = parse_num(&args, "--workers", 4);
    let capacity = parse_num(&args, "--capacity", 1) as usize;
    let with_controller = !args.iter().any(|a| a == "--no-controller");
    let seg_path = match parse_flag(&args, "--segment") {
        Some(p) => std::path::PathBuf::from(p),
        None => std::env::temp_dir().join(format!("lc-multiproc-{}.seg", std::process::id())),
    };
    let _ = std::fs::remove_file(&seg_path);

    let seg = Arc::new(ShmSegment::create(&seg_path, Geometry::DEFAULT).expect("create segment"));
    let buffer = lc_shm::ShmPlane::new(Arc::clone(&seg));
    let daemon = with_controller.then(|| {
        ShmControlDaemon::start(
            ShmController::new(buffer.clone(), capacity).with_interval(Duration::from_millis(5)),
        )
    });
    println!("segment={}", seg_path.display());

    let exe = std::env::current_exe().expect("current_exe");
    let mut children: Vec<std::process::Child> = (0..workers)
        .map(|_| {
            std::process::Command::new(&exe)
                .arg("--worker")
                .arg(&seg_path)
                .arg("--threads")
                .arg(threads.to_string())
                .arg("--duration-ms")
                .arg(duration.as_millis().to_string())
                .spawn()
                .expect("spawn worker process")
        })
        .collect();
    for child in children.iter_mut() {
        let status = child.wait().expect("reap worker");
        assert!(status.success(), "worker exited with {status}");
    }

    let stats = buffer.stats();
    // The CI smoke greps these: S must be > 0 with a controller governing
    // the oversubscribed fleet, and exactly 0 without one.
    println!(
        "fleet_S={} fleet_W={} sleeping={} target={} controller_wakes={} reclaimed={}",
        stats.ever_slept,
        stats.woken_and_left,
        stats.sleeping,
        stats.total_target,
        stats.controller_wakes,
        stats.reclaimed_slots
    );
    assert_eq!(
        stats.sleeping, 0,
        "workers all exited; every claim must have been released"
    );
    if let Some(daemon) = daemon {
        daemon.stop();
    }
    let _ = std::fs::remove_file(&seg_path);
}

#[cfg(not(target_os = "linux"))]
fn main() {
    let _ = (parse_flag(&[], ""), parse_num(&[], "", 0));
    eprintln!("multiproc_server requires Linux (mmap/futex segments)");
}
