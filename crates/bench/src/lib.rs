//! Shared helpers for the benchmark harness and the `reproduce` binary.

pub mod harness;

use tempstream_workloads::Workload;

/// Formats a fraction as a percent string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// The standard column header for per-workload series.
pub fn workload_header() -> String {
    let mut s = format!("{:<22}", "series");
    for w in Workload::ALL {
        s.push_str(&format!("{:>9}", w.name()));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.5), "50.0%");
        assert_eq!(pct(0.0), "0.0%");
    }

    #[test]
    fn header_contains_all_workloads() {
        let h = workload_header();
        for w in Workload::ALL {
            assert!(h.contains(w.name()));
        }
    }
}
