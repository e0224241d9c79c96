//! Process and per-thread accounting from `/proc/self`.
//!
//! Threads are grouped by name prefix (the cluster names its threads
//! `fc-gw-session*`, `fc-pipe-*`, `fc-node-*`). A thread's counters vanish
//! from `/proc/self/task` when it exits, so every sample is taken while all
//! threads of the measured phase are alive: the client threads wait at a
//! barrier while the main thread samples.

use std::collections::HashMap;
use std::fs;
use std::time::Instant;

/// Kernel clock ticks per second for `/proc/stat` times (`USER_HZ`, fixed
/// at 100 by the Linux ABI).
const USER_HZ: f64 = 100.0;

#[derive(Debug, Clone, Default)]
struct ThreadCounters {
    name: String,
    cpu_ns: u64,
    vcsw: u64,
}

/// One point-in-time sample of the process.
#[derive(Debug, Clone)]
pub struct Sample {
    pub at: Instant,
    steal_s: f64,
    threads: HashMap<u32, ThreadCounters>,
}

pub fn sample() -> Sample {
    let at = Instant::now();
    // Steal time of the whole box: CPU the hypervisor gave to others.
    let steal_s = fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let steal: u64 = s.lines().next()?.split_whitespace().nth(8)?.parse().ok()?;
            Some(steal as f64 / USER_HZ)
        })
        .unwrap_or(0.0);
    let mut threads = HashMap::new();
    if let Ok(dir) = fs::read_dir("/proc/self/task") {
        for entry in dir.flatten() {
            let Some(tid) = entry.file_name().to_str().and_then(|t| t.parse().ok()) else {
                continue;
            };
            let path = entry.path();
            let name = fs::read_to_string(path.join("comm"))
                .map(|s| s.trim().to_string())
                .unwrap_or_default();
            // schedstat: on-CPU nanoseconds, user and system together.
            let cpu_ns = fs::read_to_string(path.join("schedstat"))
                .ok()
                .and_then(|s| s.split_whitespace().next()?.parse().ok())
                .unwrap_or(0);
            let vcsw = fs::read_to_string(path.join("status"))
                .ok()
                .and_then(|s| {
                    s.lines()
                        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
                        .and_then(|v| v.trim().parse().ok())
                })
                .unwrap_or(0);
            threads.insert(tid, ThreadCounters { name, cpu_ns, vcsw });
        }
    }
    Sample {
        at,
        steal_s,
        threads,
    }
}

/// What happened between two samples.
#[derive(Debug, Clone)]
pub struct Delta {
    pub wall_s: f64,
    pub steal_s: f64,
    threads: Vec<ThreadCounters>,
}

impl Delta {
    pub fn between(a: &Sample, b: &Sample) -> Delta {
        let threads = b
            .threads
            .iter()
            .map(|(tid, end)| {
                let start = a.threads.get(tid).cloned().unwrap_or_default();
                ThreadCounters {
                    name: end.name.clone(),
                    cpu_ns: end.cpu_ns.saturating_sub(start.cpu_ns),
                    vcsw: end.vcsw.saturating_sub(start.vcsw),
                }
            })
            .collect();
        Delta {
            wall_s: b.at.duration_since(a.at).as_secs_f64(),
            steal_s: (b.steal_s - a.steal_s).max(0.0),
            threads,
        }
    }

    fn matching<'a>(&'a self, prefixes: &'a [&str]) -> impl Iterator<Item = &'a ThreadCounters> {
        self.threads
            .iter()
            .filter(move |t| prefixes.iter().any(|p| t.name.starts_with(p)))
    }

    /// CPU seconds of the threads whose name starts with any prefix.
    pub fn cpu_s(&self, prefixes: &[&str]) -> f64 {
        self.matching(prefixes).map(|t| t.cpu_ns).sum::<u64>() as f64 / 1e9
    }

    /// Voluntary context switches of the threads matching any prefix.
    pub fn vcsw(&self, prefixes: &[&str]) -> u64 {
        self.matching(prefixes).map(|t| t.vcsw).sum()
    }
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
