//! Host probes that need no change to the program: a counting global
//! allocator and `/proc/self` readings.
//!
//! On one thread the allocator's counts repeat exactly from run to
//! run, so they show changes far smaller than the host's timing noise.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator with counters. Every counter is a statistic
/// that publishes no other data, so `Relaxed` suffices.
pub struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged, so `System`'s guarantees carry over; the
// counters are plain atomics that never touch the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
            grow(new_size);
        }
        p
    }
}

/// Allocator totals at one instant. `peak_live` is the highest live
/// heap since the last [`reset_peak`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Heap {
    /// Allocations and reallocations so far.
    pub allocs: u64,
    /// Bytes requested so far.
    pub bytes: u64,
    /// Highest live heap in bytes since the last reset.
    pub peak_live: u64,
}

/// Reads the allocator counters.
pub fn heap() -> Heap {
    Heap {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
        peak_live: PEAK.load(Ordering::Relaxed),
    }
}

/// Allocations made so far (the cheap read used around single calls).
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Restarts peak tracking from the current live heap.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Process CPU time and page-fault counters from `/proc/self/stat`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcStat {
    /// User CPU seconds.
    pub user_s: f64,
    /// Kernel CPU seconds.
    pub sys_s: f64,
    /// Minor page faults.
    pub minor_faults: u64,
}

/// `/proc` reports CPU time in USER_HZ ticks, which Linux fixes at 100
/// per second for this interface on every architecture it ships.
const USER_HZ: f64 = 100.0;

/// Parses the text of `/proc/<pid>/stat`. The command name may contain
/// spaces and parentheses, so fields are counted from the last `)`.
pub fn parse_stat(text: &str) -> Option<ProcStat> {
    let rest = &text[text.rfind(')')? + 1..];
    // After the name: state(3) ppid pgrp session tty_nr tpgid flags
    // minflt(10) cminflt majflt cmajflt utime(14) stime(15).
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| fields.get(n - 3).and_then(|f| f.parse::<u64>().ok());
    Some(ProcStat {
        minor_faults: field(10)?,
        user_s: field(14)? as f64 / USER_HZ,
        sys_s: field(15)? as f64 / USER_HZ,
    })
}

/// Reads this process's CPU time and fault counters. The benchmark
/// runs on Linux only; a missing `/proc` is a broken environment.
pub fn stat() -> ProcStat {
    let text = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_stat(&text).expect("parse /proc/self/stat")
}

/// Parses `VmHWM` (peak resident set, kB) out of `/proc/<pid>/status`
/// text, in MiB.
pub fn parse_hwm_mib(text: &str) -> Option<f64> {
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb as f64 / 1024.0)
}

/// This process's peak resident set so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_hwm_mib(&text).expect("VmHWM in /proc/self/status")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        let text = "4242 (a (b) c) R 1 2 3 4 5 6 777 8 9 10 250 31 0 0 20 0 1 0";
        let s = parse_stat(text).unwrap();
        assert_eq!(s.minor_faults, 777);
        assert_eq!(s.user_s, 2.5);
        assert_eq!(s.sys_s, 0.31);
    }

    #[test]
    fn stat_of_this_process_reads() {
        let s = stat();
        assert!(s.user_s >= 0.0 && s.sys_s >= 0.0);
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn hwm_is_read_in_mib() {
        let text = "Name:\tx\nVmPeak:\t 9999 kB\nVmHWM:\t    2048 kB\n";
        assert_eq!(parse_hwm_mib(text), Some(2.0));
        assert_eq!(parse_hwm_mib("Name:\tx\n"), None);
    }
}
