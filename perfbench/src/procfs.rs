//! CPU time and peak memory of a process, read from Linux `/proc`.

use std::time::Duration;

/// Clock ticks per second of the `/proc/<pid>/stat` time fields.
/// `run.py` passes the host's `SC_CLK_TCK`; Linux fixes it at 100 on
/// every mainstream architecture.
fn clock_ticks() -> f64 {
    std::env::var("PERFBENCH_CLK_TCK")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|&t| t > 0.0)
        .unwrap_or(100.0)
}

/// User plus system CPU time consumed so far by every thread of `pid`.
pub fn cpu_time(pid: u32) -> Result<Duration, String> {
    let path = format!("/proc/{pid}/stat");
    let stat = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    // The command name (field 2) may hold spaces; fields after its
    // closing parenthesis start at field 3 (state).
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| format!("{path}: no command field"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| -> Result<f64, String> {
        fields
            .get(n - 3)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| format!("{path}: field {n} missing"))
    };
    let ticks = field(14)? + field(15)?;
    Ok(Duration::from_secs_f64(ticks / clock_ticks()))
}

/// Peak resident set size (`VmHWM`) of `pid`, in MiB.
pub fn peak_rss_mib(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| format!("{path}: no VmHWM line"))?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_cpu_and_memory() {
        let pid = std::process::id();
        let before = cpu_time(pid).expect("own stat");
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed() < Duration::from_millis(60) {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        std::hint::black_box(x);
        assert!(
            cpu_time(pid).expect("own stat") > before,
            "spinning used CPU"
        );
        assert!(peak_rss_mib(pid).expect("own status") > 0.0);
    }
}
