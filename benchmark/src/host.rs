//! What the benchmark reads from the host: process CPU time, peak
//! memory from `/proc`, the stamp printed with every result, and a fixed
//! CPU probe that shows how noisy the machine was during a run.

use std::time::Instant;

/// User + system CPU seconds this process has consumed on all its
/// threads, those that already exited included. Read from the process
/// CPU clock: `/proc/self/stat` counts in 10 ms ticks, which is a sixth
/// of a `falcon_selfservice` pass.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer, and `Timespec` has that struct's layout on 64-bit Linux
    // (two 64-bit fields); `ts` lives across the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
    } else {
        0.0
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn cpu_seconds() -> f64 {
    0.0
}

/// Peak resident set (`VmHWM`) of this process in MiB; `0.0` where
/// `/proc` is missing.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Worker threads every parallel workload uses: two show real stealing
/// and merge cost, more would make results depend on the host's size.
pub fn workers() -> usize {
    cores().min(2)
}

/// One line describing the machine and build, stamped into every output.
pub fn stamp(seed: u64) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    format!(
        "\"cores\": {}, \"workers\": {}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\", \"seed\": {seed}",
        cores(),
        workers(),
        cpu.replace('"', "'"),
        tool_line("rustc", &["-V"]),
        tool_line("git", &["rev-parse", "--short", "HEAD"]),
    )
}

/// First output line of a tool, or "unknown" (the measured checkout need
/// not be a git repository).
fn tool_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// A fixed amount of single-threaded work (hash then sort 1M `u64`),
/// timed. Its run-to-run spread within one benchmark run is the noise
/// the host added; the workloads' own work does not enter it.
pub fn probe_ms() -> f64 {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut v: Vec<u64> = (0..1_000_000u64)
        .map(|i| {
            x = splitmix64(x ^ i);
            x
        })
        .collect();
    v.sort_unstable();
    std::hint::black_box(&v);
    t.elapsed().as_secs_f64() * 1e3
}

/// The benchmark's own mixer for seeds and plans (not the crates' copy:
/// the inputs must not change when a crate's hash does).
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
