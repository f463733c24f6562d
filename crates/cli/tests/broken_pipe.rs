//! `catbatch <cmd> | head`: a reader that goes away early is not an
//! error. The binary must exit quietly instead of panicking on the
//! closed pipe.

use std::io::Read;
use std::process::{Command, Stdio};

#[test]
fn closed_stdout_pipe_is_not_a_panic() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_catbatch"))
        .args([
            "generate", "--family", "chains", "--n", "20000", "--procs", "8",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn catbatch");
    // Close the only read end. The output (about 1 MB) is far larger than
    // a pipe buffer, so the child's write fails with EPIPE whether or not
    // it had started writing.
    drop(child.stdout.take());
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("stderr is piped")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    let status = child.wait().expect("wait for catbatch");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert_ne!(status.code(), Some(101), "stderr: {stderr}");
    assert!(
        status.success(),
        "a broken pipe exits 0: {status:?}, stderr: {stderr}"
    );
}
