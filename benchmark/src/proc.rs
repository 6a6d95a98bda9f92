//! What the kernel says about this process and this machine.

use std::fs;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    /// `ru_ixrss` through `ru_nsignals`.
    skipped: [i64; 11],
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Process-wide totals, threads that have exited included.
#[derive(Clone, Copy)]
pub struct Usage {
    pub cpu_us: u64,
    pub ctx_switches: u64,
}

pub fn usage() -> Usage {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` of the layout Linux
    // defines for 64-bit targets (asserted below), and RUSAGE_SELF (0) is a
    // valid `who`; the call writes only inside `ru`.
    let rc = unsafe { getrusage(0, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    Usage {
        cpu_us: ((ru.utime.sec + ru.stime.sec) * 1_000_000 + ru.utime.usec + ru.stime.usec) as u64,
        ctx_switches: (ru.nvcsw + ru.nivcsw) as u64,
    }
}

const _: () = assert!(std::mem::size_of::<Rusage>() == 144);

/// Peak resident set (`VmHWM`) in KiB.
pub fn vm_hwm_kib() -> u64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line")
}

/// Machine-wide (steal, total) jiffies from the first line of `/proc/stat`.
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").expect("/proc/stat");
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .expect("cpu line")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // the guest columns are already inside user and nice.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}
