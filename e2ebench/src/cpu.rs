//! Running `serve-small`'s open loop on one CPU that never halts.
//!
//! On a virtual machine an idle CPU halts, and a halted virtual CPU
//! runs again only when the host schedules it: on a busy host that
//! takes milliseconds. A serve job passes through several threads
//! (client, session reader, worker, session writer), and an open loop
//! leaves the CPUs idle between jobs, so every hand-off could wait for
//! the host, and latency would follow the host's load more than the
//! daemon's. During the open loop every thread of the process is
//! therefore confined to one CPU (`OneCpu`), where a thread wakes the
//! next one without waiting for another CPU, and a thread of the lowest
//! priority keeps that CPU from halting (`Awake`). The other CPUs are
//! left free to halt: keeping every CPU busy stalled the guest's disk
//! writes, so that the daemon's journal fell seconds behind and its
//! queue grew by megabytes.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// glibc's `cpu_set_t`: one bit per CPU, 1024 CPUs.
#[repr(C)]
struct CpuSet([u64; 16]);

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(tid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(tid: i32, size: usize, mask: *const CpuSet) -> i32;
    fn sched_setscheduler(tid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// `struct sched_param`; its priority must be 0 under `SCHED_IDLE`.
#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

/// Sets the affinity of every thread of the process; threads started
/// later inherit their creator's. False if a live thread refused; a
/// thread that ended meanwhile (`ESRCH`) does not count.
#[cfg(target_os = "linux")]
fn set_all(mask: &CpuSet) -> bool {
    const ESRCH: i32 = 3;
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return false;
    };
    let mut ok = true;
    for tid in tasks.flatten().filter_map(|e| e.file_name().to_str()?.parse::<i32>().ok()) {
        // SAFETY: the call reads `size_of::<CpuSet>()` bytes of `mask`.
        let rc = unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), mask) };
        ok &= rc == 0 || std::io::Error::last_os_error().raw_os_error() == Some(ESRCH);
    }
    ok
}

/// While it lives, every thread of the process, and every thread
/// started meanwhile, runs on one CPU: the first the calling thread may
/// run on. Dropping it gives every thread the caller's former set.
pub struct OneCpu {
    #[cfg_attr(not(target_os = "linux"), allow(dead_code))]
    saved: CpuSet,
}

impl OneCpu {
    /// `None` where affinity cannot be read or set; the open loop then
    /// runs on every CPU.
    #[cfg(target_os = "linux")]
    pub fn pin() -> Option<OneCpu> {
        let mut saved = CpuSet([0; 16]);
        // SAFETY: pid 0 is the calling thread; the call writes at most
        // `size_of::<CpuSet>()` bytes into `saved`.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut saved) } != 0 {
            return None;
        }
        let cpu = (0..16 * 64).find(|&c| saved.0[c / 64] >> (c % 64) & 1 == 1)?;
        let mut one = CpuSet([0; 16]);
        one.0[cpu / 64] = 1 << (cpu % 64);
        let pinned = OneCpu { saved };
        set_all(&one).then_some(pinned)
    }

    #[cfg(not(target_os = "linux"))]
    pub fn pin() -> Option<OneCpu> {
        None
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        set_all(&self.saved);
    }
}

/// While it lives, a `SCHED_IDLE` thread spins on the CPUs the caller
/// may run on (under `OneCpu`, the one). `SCHED_IDLE` threads give way
/// to any other thread at once, and the kernel counts a CPU that runs
/// only them as idle when it places a woken thread. Where that policy
/// cannot be set, the thread does not spin.
pub struct Awake {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Awake {
    pub fn start() -> Awake {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            if !set_idle_policy() {
                return;
            }
            while !flag.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        });
        Awake { stop, thread: Some(thread) }
    }
}

impl Drop for Awake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Puts the calling thread under `SCHED_IDLE`; false where that fails.
#[cfg(target_os = "linux")]
fn set_idle_policy() -> bool {
    const SCHED_IDLE: i32 = 5;
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: pid 0 is the calling thread; the call only reads `param`.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn set_idle_policy() -> bool {
    false
}
