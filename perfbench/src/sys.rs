//! Process and thread figures read from the kernel: CPU time, thread ids,
//! peak resident set and context switches; and the CPU the process runs on.

use std::fs;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, out: *mut Timespec) -> i32;
    fn gettid() -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

fn clock_ns(clock: i32) -> Option<u64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec matching the C layout on
    // 64-bit Linux; an unknown clock id only makes the call fail.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

/// CPU time (user + system) of every thread of the process, in ns.
pub fn cpu_ns() -> u64 {
    clock_ns(CLOCK_PROCESS_CPUTIME_ID).expect("clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed")
}

/// CPU time of thread `tid` of this process, in ns; 0 once it has exited.
pub fn thread_cpu_ns(tid: i32) -> u64 {
    // The kernel's per-thread scheduler clock id: !tid << 3 | PERTHREAD | SCHED.
    clock_ns((!tid).wrapping_shl(3) | 6).unwrap_or(0)
}

/// The calling thread's id.
pub fn tid() -> i32 {
    // SAFETY: gettid takes no arguments and cannot fail.
    unsafe { gettid() }
}

/// Bits in the kernel's `cpu_set_t` mask.
const CPU_SET_BITS: usize = 1024;

/// Confines the calling thread, and every thread it starts afterwards, to
/// the highest-numbered CPU it may run on, and returns that CPU.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; CPU_SET_BITS / 64];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes, the layout of a
    // glibc `cpu_set_t`; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err("sched_getaffinity failed".into());
    }
    let cpu = (0..CPU_SET_BITS)
        .rev()
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .ok_or("no CPU in the affinity mask")?;
    let mut one = [0u64; CPU_SET_BITS / 64];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; the mask names one CPU the thread may already use.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!("sched_setaffinity to CPU {cpu} failed"));
    }
    Ok(cpu)
}

/// Ids of the process's live threads.
pub fn thread_ids() -> Vec<i32> {
    fs::read_dir("/proc/self/task")
        .map(|tasks| {
            tasks
                .flatten()
                .filter_map(|t| t.file_name().to_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

fn status_field(text: &str, field: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
}

/// Peak resident set of the process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let text = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status_field(&text, "VmHWM:").expect("VmHWM in /proc/self/status");
    kb as f64 / 1024.0
}

/// Voluntary plus involuntary context switches summed over the process's
/// live threads.
pub fn ctx_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("status")).ok())
        .map(|s| {
            status_field(&s, "voluntary_ctxt_switches:").unwrap_or(0)
                + status_field(&s, "nonvoluntary_ctxt_switches:").unwrap_or(0)
        })
        .sum()
}
