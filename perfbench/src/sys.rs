//! Process resource readings: CPU time and peak resident memory.

/// `struct rusage` on 64-bit Linux: two `timeval`s (user, system) of two
/// `i64`s each, then fourteen `long` counters.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    counters: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User + system CPU seconds consumed by this process (all threads,
/// the in-process daemon included).
pub fn cpu_seconds() -> f64 {
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        counters: [0; 14],
    };
    // SAFETY: `usage` is a live, writable value laid out as the 64-bit
    // Linux `struct rusage`, which is all getrusage(2) writes to.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    secs(usage.utime) + secs(usage.stime)
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Returns freed heap memory to the system, then resets this process's
/// `VmHWM` to its current resident size, so a later [`peak_rss_mib`]
/// covers only live data and what ran after the reset — not memory the
/// allocator kept from earlier work.
pub fn reset_peak_rss() -> std::io::Result<()> {
    // SAFETY: malloc_trim(3) only releases free heap pages; it touches
    // no memory the program owns.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5")
}
