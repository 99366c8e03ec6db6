//! Process counters read from `/proc/self`, live in every build (they do
//! not depend on the `obs` feature): CPU time split into user and system,
//! context switches summed over every thread, and resident memory.

use std::fs;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. `USER_HZ`
/// is fixed at 100 by the Linux user-space ABI on every architecture the
/// benchmark runs on.
const USER_HZ: f64 = 100.0;

/// A point-in-time reading of the process's CPU and scheduling counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    pub user_s: f64,
    pub sys_s: f64,
    /// Voluntary plus involuntary switches over every live thread.
    pub ctx_switches: u64,
    /// Time the hypervisor ran something else on this machine's CPUs
    /// (`steal` in `/proc/stat`), summed over CPUs.
    pub steal_s: f64,
}

impl ProcSample {
    pub fn now() -> Self {
        let (user_s, sys_s) = cpu_times().unwrap_or((0.0, 0.0));
        Self {
            user_s,
            sys_s,
            ctx_switches: ctx_switches(),
            steal_s: steal().unwrap_or(0.0),
        }
    }

    /// `later - self`, field by field.
    pub fn until(&self, later: &ProcSample) -> ProcSample {
        ProcSample {
            user_s: later.user_s - self.user_s,
            sys_s: later.sys_s - self.sys_s,
            ctx_switches: later.ctx_switches.saturating_sub(self.ctx_switches),
            steal_s: later.steal_s - self.steal_s,
        }
    }
}

/// `(utime, stime)` in seconds: fields 14 and 15 of `/proc/self/stat`,
/// which cover every thread the process has run, live or exited.
fn cpu_times() -> Option<(f64, f64)> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may hold spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so field k sits at index k - 3.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime / USER_HZ, stime / USER_HZ))
}

/// The `steal` column of the aggregate `cpu` line of `/proc/stat`.
fn steal() -> Option<f64> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let ticks: f64 = stat
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    Some(ticks / USER_HZ)
}

fn status_field(status: &str, name: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(name))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Context switches summed over `/proc/self/task/*/status`: the top-level
/// `/proc/self/status` counts only the main thread.
fn ctx_switches() -> u64 {
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

/// Peak resident set (`VmHWM`), in KiB.
pub fn peak_rss_kib() -> Option<u64> {
    status_field(&fs::read_to_string("/proc/self/status").ok()?, "VmHWM:")
}

/// Current resident set (`VmRSS`), in KiB.
pub fn rss_kib() -> Option<u64> {
    status_field(&fs::read_to_string("/proc/self/status").ok()?, "VmRSS:")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_live() {
        let before = ProcSample::now();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let after = ProcSample::now();
        assert!(before.until(&after).user_s > 0.0);
        assert!(after.ctx_switches > 0);
        assert!(peak_rss_kib().unwrap() >= rss_kib().unwrap());
    }
}
