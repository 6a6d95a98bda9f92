//! `ProcessPool` slots take turns at one job receiver: a slot that is busy
//! with a slow child must not keep the other slots from taking work.

use sledge_baseline::ProcessPool;
use std::fs;
use std::os::unix::fs::PermissionsExt;
use std::path::Path;
use std::process::Command;
use std::sync::mpsc;
use std::time::Duration;

/// A stand-in worker child: echoes stdin, but as function `slow` first waits
/// at a FIFO until the test has opened and closed its write end.
const CHILD: &str = "#!/bin/sh\n\
    [ \"$SLEDGE_BASELINE_WORKER\" = slow ] && cat \"$0.gate\"\n\
    exec cat\n";

/// Run `f` on a thread of its own and wait for it at most `secs` seconds.
fn within<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> Option<T> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(f()));
    rx.recv_timeout(Duration::from_secs(secs)).ok()
}

#[test]
fn a_slow_child_does_not_block_the_other_slot() {
    let exe = Path::new(env!("CARGO_TARGET_TMPDIR")).join("slow-or-echo.sh");
    let gate = exe.with_extension("sh.gate");
    fs::write(&exe, CHILD).unwrap();
    fs::set_permissions(&exe, fs::Permissions::from_mode(0o755)).unwrap();
    let _ = fs::remove_file(&gate);
    assert!(Command::new("mkfifo")
        .arg(&gate)
        .status()
        .unwrap()
        .success());

    let pool = ProcessPool::new(exe, 2, 16);
    let slow = pool.invoke("slow", &b"held"[..]);
    // Opening a FIFO for writing returns once its reader is there: the slow
    // child is at the gate, so one slot is inside `run_in_child`.
    let gate = within(10, move || fs::OpenOptions::new().write(true).open(gate))
        .expect("the slow child never reached its gate")
        .unwrap();
    let fast = pool.invoke("fast", &b"prompt"[..]);
    let fast = within(5, move || fast.wait());
    // Let the slow child go before judging, so a failure still winds down.
    drop(gate);
    let slow = slow.wait().expect("pool alive");
    pool.shutdown();

    let fast = fast
        .expect("the free slot waited behind the slow child")
        .expect("pool alive");
    assert!(fast.ok && fast.body == b"prompt", "{fast:?}");
    assert!(slow.ok && slow.body == b"held", "{slow:?}");
}
