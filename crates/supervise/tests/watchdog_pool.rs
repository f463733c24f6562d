//! The process-wide watchdog pool under sequential supervised trials.
//!
//! This test has a binary of its own: it counts the live threads of
//! `WatchdogPool::global()`, which the library's other tests would
//! otherwise share (a hung attempt's stale worker from another test keeps
//! a thread busy and makes the pool grow).

use rigid_exec::WatchdogPool;
use rigid_supervise::{Supervisor, SupervisorPolicy};
use std::time::Duration;

#[test]
fn watchdog_attempts_share_pooled_threads() {
    // Many sequential watchdogged trials must not spawn a thread each:
    // the global pool grows only when attempts overlap, so it stays far
    // below the trial count.
    let before = WatchdogPool::global().spawned_threads();
    let mut sup = Supervisor::new(SupervisorPolicy {
        watchdog: Some(Duration::from_millis(5_000)),
        max_retries: 0,
        backoff_base: Duration::ZERO,
    });
    for seed in 0..100 {
        assert_eq!(sup.run_trial(seed, 1, || move || seed), Ok(seed));
    }
    // `spawned_threads` counts *live* workers, and an idle worker may
    // reap itself mid-run — saturate instead of underflowing.
    let grown = WatchdogPool::global().spawned_threads().saturating_sub(before);
    assert!(
        grown <= 1,
        "100 sequential watchdog trials grew the pool by {grown} threads"
    );
}
