//! Host context recorded with every run, so a later shift in the figures
//! can be traced to the machine rather than to the code.

/// Aggregate CPU jiffies from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    pub total: u64,
    pub steal: u64,
}

pub fn cpu_times() -> CpuTimes {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    parse_cpu_line(text.lines().next().unwrap_or(""))
}

/// Parses `cpu  user nice system idle iowait irq softirq steal ...`.
pub fn parse_cpu_line(line: &str) -> CpuTimes {
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // guest and guest_nice (fields 9 and 10) are already counted in user.
    let total = fields.iter().take(8).sum();
    CpuTimes {
        total,
        steal: fields.get(7).copied().unwrap_or(0),
    }
}

/// Share of CPU time stolen by the hypervisor between two readings, in %.
pub fn steal_pct(before: CpuTimes, after: CpuTimes) -> f64 {
    let total = after.total.saturating_sub(before.total);
    if total == 0 {
        return 0.0;
    }
    100.0 * after.steal.saturating_sub(before.steal) as f64 / total as f64
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_share_of_the_delta() {
        let a = parse_cpu_line("cpu  100 0 50 800 10 0 5 20 7 0");
        assert_eq!(a.total, 985);
        assert_eq!(a.steal, 20);
        let b = parse_cpu_line("cpu  150 0 60 870 10 0 5 25 9 0");
        assert_eq!(steal_pct(a, b), 100.0 * 5.0 / 135.0);
        assert_eq!(steal_pct(b, b), 0.0);
    }
}
