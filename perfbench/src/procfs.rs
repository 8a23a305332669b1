//! Process counters read from `/proc/self`: peak resident memory, CPU
//! time, and voluntary context switches.

use std::time::Instant;

/// Clock ticks per second of `/proc/<pid>/stat` CPU times (`USER_HZ`,
/// fixed at 100 by the Linux ABI on the platforms this runs on).
const USER_HZ: f64 = 100.0;

/// A point-in-time reading of the process counters.
#[derive(Clone, Copy, Debug)]
pub struct ProcSample {
    pub at: Instant,
    /// User + system CPU seconds of the whole process, exited threads
    /// included.
    pub cpu_seconds: f64,
    /// Voluntary context switches summed over the live threads.
    pub voluntary_switches: u64,
}

impl ProcSample {
    pub fn now() -> Self {
        ProcSample {
            at: Instant::now(),
            cpu_seconds: cpu_seconds(),
            voluntary_switches: live_thread_switches(),
        }
    }
}

/// CPU utilisation between two samples: CPU seconds over wall seconds
/// times the number of CPUs.
pub fn cpu_util(start: &ProcSample, end: &ProcSample, cpus: usize) -> f64 {
    let wall = end.at.duration_since(start.at).as_secs_f64();
    if wall <= 0.0 {
        return 0.0;
    }
    (end.cpu_seconds - start.cpu_seconds) / (wall * cpus.max(1) as f64)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_field(&s, "VmHWM:"))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Voluntary context switches of the calling thread so far. Threads that
/// exit take their count with them, so short-lived threads (the client
/// loops) read their own before returning.
pub fn thread_switches() -> u64 {
    std::fs::read_to_string("/proc/thread-self/status")
        .ok()
        .and_then(|s| status_field(&s, "voluntary_ctxt_switches:"))
        .unwrap_or(0)
}

fn live_thread_switches() -> u64 {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    dir.filter_map(Result::ok)
        .filter_map(|e| std::fs::read_to_string(e.path().join("status")).ok())
        .filter_map(|s| status_field(&s, "voluntary_ctxt_switches:"))
        .sum()
}

fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3
    // (`state`); utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick(11) + tick(12)) as f64 / USER_HZ
}

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_readable() {
        assert!(peak_rss_mb() > 0.0);
        let a = ProcSample::now();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        let b = ProcSample::now();
        assert!(b.cpu_seconds >= a.cpu_seconds);
        assert!(cpu_util(&a, &b, 1) >= 0.0);
        assert_eq!(status_field("VmHWM:\t  1234 kB\n", "VmHWM:"), Some(1234));
    }
}
