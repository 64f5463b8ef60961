//! What the harness reads from the operating system: the calling thread's
//! CPU clock, a process's peak resident memory, and the host record.

use std::fmt::Write as _;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU seconds the calling thread has run.
///
/// `/proc/thread-self/schedstat` needs no foreign call, but the kernel
/// folds the running slice into it only at scheduler ticks (every 4 ms on
/// a 250 Hz kernel), which quantizes a 25 ms job to ±16 %. The thread CPU
/// clock is exact to the nanosecond.
pub fn thread_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` is libc's, which std links on Linux; it
    // writes one `struct timespec` (two 64-bit fields on 64-bit Linux)
    // through the pointer, which points at a live local of that layout.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "Linux always provides the thread CPU clock");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident memory (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| format!("{path}: no VmHWM line"))?;
    Ok(kb / 1024.0)
}

/// Resets the peak-memory mark of process `pid` to its current resident
/// size, so a later [`peak_rss_mb`] covers only what follows.
pub fn reset_peak_rss(pid: u32) -> Result<(), String> {
    let path = format!("/proc/{pid}/clear_refs");
    std::fs::write(&path, "5").map_err(|e| format!("{path}: {e}"))
}

/// The host fields of the run record, as JSON members.
pub fn host_json() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut out = String::new();
    let _ = write!(
        out,
        "\"nproc\":{nproc},\"cpu\":{},\"kernel\":{}",
        crate::report::quote(&cpu),
        crate::report::quote(&kernel)
    );
    out
}
