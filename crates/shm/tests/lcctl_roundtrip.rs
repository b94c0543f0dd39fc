//! `lcctl` wire-format round trips: a spec posted with `set` must come
//! back **verbatim** from `stat` (the canonical `lc-spec` rendering is the
//! wire format in both directions), and rejected specs must fail loudly.
#![cfg(target_os = "linux")]

use lc_shm::{layout, Geometry, ShmControlDaemon, ShmController, ShmPlane, ShmSegment};
use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;
use std::time::Duration;

fn temp_segment(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("lc-shm-{}-{}.seg", name, std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

fn lcctl(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_lcctl"))
        .args(args)
        .output()
        .expect("run lcctl")
}

#[test]
fn set_round_trips_through_stat() {
    let path = temp_segment("roundtrip");
    let seg = Arc::new(ShmSegment::create(&path, Geometry::DEFAULT).expect("create segment"));
    let buffer = ShmPlane::new(Arc::clone(&seg));
    let daemon = ShmControlDaemon::start(
        ShmController::new(buffer.clone(), 2).with_interval(Duration::from_millis(2)),
    );
    let seg_path = path.to_str().unwrap();

    // Policy spec: applied by the live controller and reported verbatim.
    let out = lcctl(&["set", seg_path, "policy", "pid(kp=0.9)"]);
    assert!(
        out.status.success(),
        "set policy failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stat = String::from_utf8(lcctl(&["stat", seg_path]).stdout).unwrap();
    assert!(
        stat.contains("policy=pid(kp=0.9)"),
        "stat does not report the applied spec:\n{stat}"
    );

    // Manual target: pins the published fleet target.
    let out = lcctl(&["set", seg_path, "target", "3"]);
    assert!(out.status.success());
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while buffer.book().target() != 3 {
        assert!(
            std::time::Instant::now() < deadline,
            "target never published"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let stat = String::from_utf8(lcctl(&["stat", seg_path]).stdout).unwrap();
    assert!(stat.contains("policy=target(value=3)"), "stat:\n{stat}");
    assert!(stat.contains("t=3"), "stat books missing target:\n{stat}");

    // Drain and resume flip the segment flag.
    assert!(lcctl(&["drain", seg_path]).status.success());
    let stat = String::from_utf8(lcctl(&["stat", seg_path]).stdout).unwrap();
    assert!(stat.contains("draining=1"), "stat:\n{stat}");
    assert!(lcctl(&["resume", seg_path]).status.success());
    let stat = String::from_utf8(lcctl(&["stat", seg_path]).stdout).unwrap();
    assert!(stat.contains("draining=0"), "stat:\n{stat}");

    // An unknown policy is refused client-side (registry validation)…
    let out = lcctl(&["set", seg_path, "policy", "nonsense(x=1)"]);
    assert!(!out.status.success(), "bogus spec accepted");
    // …and a syntactically valid but unknown command is rejected by the
    // controller through the mailbox ack.
    assert!(buffer.post_command("blorp(x=2)").expect("short spec fits") > 0);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let (seq, ack, err) = buffer.command_state();
        if ack >= seq {
            assert_eq!(err, 1, "controller accepted an unknown command");
            break;
        }
        assert!(std::time::Instant::now() < deadline, "command never acked");
        std::thread::sleep(Duration::from_millis(5));
    }

    daemon.stop();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn stat_and_set_without_controller_fail_cleanly() {
    let path = temp_segment("orphan");
    let _seg = ShmSegment::create(&path, Geometry::DEFAULT).expect("create segment");
    let seg_path = path.to_str().unwrap();

    // stat works on a controller-less segment…
    let out = lcctl(&["stat", seg_path]);
    assert!(out.status.success());
    let stat = String::from_utf8(out.stdout).unwrap();
    assert!(stat.contains("controller(pid=0"), "stat:\n{stat}");

    // …but a command with nobody to consume it times out non-zero.
    let out = Command::new(env!("CARGO_BIN_EXE_lcctl"))
        .args(["set", seg_path, "target", "1"])
        .output()
        .expect("run lcctl");
    assert!(!out.status.success(), "unacked command reported success");

    // And attaching to a non-segment file is refused by the header check.
    let bogus = temp_segment("bogus");
    std::fs::write(&bogus, vec![0u8; 8192]).unwrap();
    let out = lcctl(&["stat", bogus.to_str().unwrap()]);
    assert!(!out.status.success(), "attached to a zeroed file");

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&bogus);
}

#[test]
fn a_spec_too_long_for_the_mailbox_is_refused_whole() {
    let path = temp_segment("longspec");
    let seg = Arc::new(ShmSegment::create(&path, Geometry::DEFAULT).expect("create segment"));
    let buffer = ShmPlane::new(Arc::clone(&seg));
    let daemon = ShmControlDaemon::start(
        ShmController::new(buffer.clone(), 2).with_interval(Duration::from_millis(2)),
    );
    let seg_path = path.to_str().unwrap();

    // A valid policy spec longer than the spec area: `lcctl set` fails
    // with the reason and posts nothing (the sequence word never moves).
    let long = format!("pid(kp=0.9{})", "0".repeat(300));
    assert!(long.len() > layout::SPEC_MAX_BYTES);
    let out = lcctl(&["set", seg_path, "policy", &long]);
    assert!(!out.status.success(), "over-long spec reported success");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("at most {}", layout::SPEC_MAX_BYTES)),
        "no clear reason in: {stderr}"
    );
    assert_eq!(buffer.command_state().0, 0, "a cut spec was posted");
    assert!(buffer.post_command(&long).is_err());

    // A long spec that fits is applied and reported canonically.
    let fits = format!("pid(kp=0.9{})", "0".repeat(200));
    assert!(fits.len() <= layout::SPEC_MAX_BYTES);
    let out = lcctl(&["set", seg_path, "policy", &fits]);
    assert!(
        out.status.success(),
        "fitting spec failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stat = String::from_utf8(lcctl(&["stat", seg_path]).stdout).unwrap();
    assert!(stat.contains("policy=pid(kp=0.9)"), "stat:\n{stat}");
    daemon.stop();

    // The applied-spec area refuses rather than cutting inside a UTF-8
    // sequence (which used to read back as an empty spec).
    let edge = "é".repeat(layout::SPEC_MAX_BYTES / 2);
    buffer.set_applied_spec(&edge).expect("fits exactly");
    assert_eq!(buffer.applied_spec(), edge);
    assert!(buffer.set_applied_spec(&format!("{edge}é")).is_err());
    assert_eq!(
        buffer.applied_spec(),
        edge,
        "a refused spec overwrote the area"
    );
    let _ = std::fs::remove_file(&path);
}
