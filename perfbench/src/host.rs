//! Host facts and process counters read from procfs.

/// The CPU model name, from `/proc/cpuinfo`.
pub fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|rest| rest.split_once(':'))
        .map(|(_, name)| name.trim().to_string())
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    impatience_obs::manifest::peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / (1024.0 * 1024.0))
}

/// User plus system CPU seconds this process has used, its exited
/// threads included (`/proc/self/stat`, in clock ticks of 1/100 s).
pub fn process_cpu_s() -> f64 {
    const TICKS_PER_S: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(user), Some(system)) => (user + system) / TICKS_PER_S,
        _ => f64::NAN,
    }
}

/// Cumulative `(steal, total)` clock ticks of all CPUs (`/proc/stat`).
/// Steal is time the hypervisor ran something else while this machine
/// wanted a CPU: a run with a large steal share was measured on a
/// slowed host.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Steal share since `from` (a [`cpu_ticks`] reading); 0 when unknown.
pub fn steal_since(from: Option<(u64, u64)>) -> f64 {
    match (from, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}
