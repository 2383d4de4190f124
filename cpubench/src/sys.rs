//! Readers for the process's own clocks and counters.
//!
//! The end-to-end times are on-CPU seconds from `CLOCK_PROCESS_CPUTIME_ID`.
//! On a paravirtualised guest (`CONFIG_PARAVIRT_TIME_ACCOUNTING=y`) task CPU
//! time leaves out steal, so the figure does not move when the hypervisor
//! takes the vCPU away.  Wall time and system-wide steal are read next to it
//! for reference only.

use std::time::Instant;

/// `struct timespec` as the C library lays it out on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>`: CPU time of every thread of the
/// calling process.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    // Provided by the C library that std already links on Linux.
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// On-CPU seconds consumed so far by this process, summed over its threads.
pub fn cpu_now() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `Timespec` whose layout matches the C
    // `struct timespec` on 64-bit Linux, and the clock id is a constant the
    // kernel always accepts for the calling process.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// A CPU-clock and wall-clock stopwatch started at construction.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    cpu: f64,
    wall: Instant,
}

impl Stopwatch {
    /// Starts both clocks now.
    pub fn start() -> Stopwatch {
        Stopwatch {
            cpu: cpu_now(),
            wall: Instant::now(),
        }
    }

    /// On-CPU seconds since the start.
    pub fn cpu(&self) -> f64 {
        cpu_now() - self.cpu
    }

    /// Wall seconds since the start.
    pub fn wall(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }
}

/// Peak resident set size in MiB, the `VmHWM` line of `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    vm_hwm_kib(&status) as f64 / 1024.0
}

/// The `VmHWM` value in KiB from the text of a `/proc/<pid>/status` file
/// (0 when the line is missing).
pub fn vm_hwm_kib(status: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

/// System-wide steal time in seconds since boot, summed over all CPUs: the
/// eighth value of the `cpu` line of `/proc/stat`, in `USER_HZ` ticks.
pub fn steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    steal_ticks(&stat) as f64 / USER_HZ
}

/// `USER_HZ`, the unit of `/proc/stat`; 100 on every Linux architecture the
/// benchmark targets.
const USER_HZ: f64 = 100.0;

/// Steal ticks from the aggregate `cpu` line of a `/proc/stat` text.
pub fn steal_ticks(stat: &str) -> u64 {
    stat.lines()
        .find(|l| l.split_whitespace().next() == Some("cpu"))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

/// Bytes and calls this process has written so far (`wchar`, `syscw` of
/// `/proc/self/io`).
pub fn write_io() -> (u64, u64) {
    let io = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
    io_fields(&io)
}

/// `(wchar, syscw)` from the text of a `/proc/<pid>/io` file.
pub fn io_fields(io: &str) -> (u64, u64) {
    let field = |name: &str| {
        io.lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|rest| rest.trim().parse().ok())
            .unwrap_or(0)
    };
    (field("wchar:"), field("syscw:"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One test, so that no other test of this module spins while it sleeps:
    /// the process clock counts every thread of the test binary.
    #[test]
    fn cpu_clock_counts_work_on_every_thread_and_not_sleep() {
        let w = Stopwatch::start();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let t = Stopwatch::start();
                    let mut x = 0u64;
                    while t.wall() < 0.15 {
                        x = std::hint::black_box(x.wrapping_add(1));
                    }
                });
            }
        });
        // Two spinning threads accrue CPU on the process clock even though
        // this thread only waited for them.
        let busy = w.cpu();
        assert!(busy > 0.1, "process clock missed worker threads: {busy}");
        let before = cpu_now();
        std::thread::sleep(std::time::Duration::from_millis(300));
        let slept = cpu_now() - before;
        assert!(slept < 0.1, "sleeping consumed {slept} s of CPU");
    }

    #[test]
    fn reads_vm_hwm() {
        let text = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    1832 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(vm_hwm_kib(text), 1832);
        assert_eq!(vm_hwm_kib("Name:\tx\n"), 0);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn reads_steal_from_the_aggregate_cpu_line() {
        let text = "cpu  218505 0 8333 2645686 330 0 603 28977 0 0\n\
                    cpu0 104564 0 3756 1327861 205 0 280 14722 0 0\n";
        assert_eq!(steal_ticks(text), 28977);
        assert_eq!(steal_ticks("intr 1 2 3\n"), 0);
    }

    #[test]
    fn reads_write_counters() {
        let text = "rchar: 3980\nwchar: 120\nsyscr: 9\nsyscw: 4\nread_bytes: 0\n";
        assert_eq!(io_fields(text), (120, 4));
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/target-io-test.tmp");
        let (before, calls) = write_io();
        std::fs::write(path, [0u8; 4096]).unwrap();
        let (after, calls_after) = write_io();
        std::fs::remove_file(path).unwrap();
        assert!(after >= before + 4096);
        assert!(calls_after > calls);
    }
}
