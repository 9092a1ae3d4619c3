//! A dependency-free micro-benchmark harness with a criterion-shaped API.
//!
//! The workspace builds fully offline, so the benches cannot pull the
//! `criterion` crate from a registry. This module provides the small slice
//! of criterion's surface the benches actually use — [`Criterion`],
//! benchmark groups, [`Throughput`], and the [`criterion_group!`] /
//! [`criterion_main!`] macros — backed by a simple
//! warmup-then-sample timing loop. Porting a bench file is a one-line
//! import change.
//!
//! Reported numbers are wall-clock medians over `sample_size` samples,
//! with elements/second derived from [`Throughput::Elements`] when set.
//! They are indicative, not statistically rigorous; the point of keeping
//! the benches alive is catching order-of-magnitude regressions. Each
//! result also records its sample count, the fastest and slowest sample
//! and the median absolute deviation, so a reader can tell a real change
//! from run-to-run spread.
//!
//! Besides the console table, each group writes its results to
//! `BENCH_<group>.json` in the working directory (set
//! `TEMPSTREAM_BENCH_DIR` to redirect) so runs can be archived and
//! diffed mechanically; the file names the git revision it was measured
//! at (`"unknown"` outside a checkout). `TEMPSTREAM_BENCH_SAMPLES`
//! overrides every group's sample count — CI's perf smoke gate uses it to trade
//! precision for wall-clock. A group may name one benchmark as its
//! [`baseline`](BenchmarkGroup::baseline); every other result then
//! carries a `speedup_vs_<baseline>` ratio (>1 means faster than the
//! baseline) in the JSON.

use std::hint::black_box;
use std::path::Path;
use std::process::Command;
use std::time::Instant;
use tempstream_obsv::json::Json;

/// Top-level benchmark driver, mirroring `criterion::Criterion`.
#[derive(Debug, Default)]
pub struct Criterion {}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("\ngroup {name}");
        BenchmarkGroup {
            _criterion: self,
            name: name.to_string(),
            sample_size: sample_override().unwrap_or(10),
            throughput: None,
            baseline: None,
            results: Vec::new(),
        }
    }
}

/// The `TEMPSTREAM_BENCH_SAMPLES` override, if set and parseable.
fn sample_override() -> Option<usize> {
    std::env::var("TEMPSTREAM_BENCH_SAMPLES")
        .ok()?
        .trim()
        .parse()
        .ok()
        .filter(|&n| n > 0)
}

/// The git revision checked out at `dir`, or `"unknown"` outside a
/// checkout (or without `git`).
fn git_rev_in(dir: &Path) -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(dir)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One finished benchmark's numbers, as written to `BENCH_<group>.json`.
#[derive(Debug, PartialEq)]
struct BenchResult {
    name: String,
    samples: u64,
    median_ns: u64,
    min_ns: u64,
    max_ns: u64,
    /// Median absolute deviation from the median.
    mad_ns: u64,
    elements: Option<u64>,
}

impl BenchResult {
    /// Summarizes `samples` (nanoseconds, at least one).
    fn new(name: String, samples: &[u128], elements: Option<u64>) -> Self {
        let ns = |x: u128| x.min(u128::from(u64::MAX)) as u64;
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2];
        let mut deviations: Vec<u128> = sorted.iter().map(|&x| x.abs_diff(median)).collect();
        deviations.sort_unstable();
        BenchResult {
            name,
            samples: sorted.len() as u64,
            median_ns: ns(median),
            min_ns: ns(sorted[0]),
            max_ns: ns(sorted[sorted.len() - 1]),
            mad_ns: ns(deviations[deviations.len() / 2]),
            elements,
        }
    }

    fn to_json(&self, baseline: Option<(&str, u64)>) -> Json {
        let mut o = Json::obj();
        o.set("name", Json::Str(self.name.clone()));
        o.set("samples", Json::UInt(self.samples));
        o.set("median_ns", Json::UInt(self.median_ns));
        o.set("min_ns", Json::UInt(self.min_ns));
        o.set("max_ns", Json::UInt(self.max_ns));
        o.set("mad_ns", Json::UInt(self.mad_ns));
        if let Some(n) = self.elements {
            o.set("elements", Json::UInt(n));
            o.set(
                "elements_per_sec",
                Json::Float(n as f64 * 1e9 / self.median_ns.max(1) as f64),
            );
        }
        if let Some((base_name, base_ns)) = baseline {
            if self.name != base_name {
                o.set(
                    &format!("speedup_vs_{base_name}"),
                    Json::Float(base_ns as f64 / self.median_ns.max(1) as f64),
                );
            }
        }
        o
    }
}

/// Per-benchmark throughput annotation.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// The measured closure processes this many logical elements.
    Elements(u64),
}

/// A named group of benchmarks sharing sample settings.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
    baseline: Option<String>,
    results: Vec<BenchResult>,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark. The
    /// `TEMPSTREAM_BENCH_SAMPLES` environment variable, when set, wins
    /// over the programmatic value.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = sample_override().unwrap_or(n).max(1);
        self
    }

    /// Names the benchmark every other result in this group is compared
    /// against: the JSON for each non-baseline result gains a
    /// `speedup_vs_<name>` ratio (baseline median over its median).
    pub fn baseline<N: std::fmt::Display>(&mut self, name: N) -> &mut Self {
        self.baseline = Some(name.to_string());
        self
    }

    /// Annotates subsequent benchmarks with a throughput denominator.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Times one benchmark: a warmup run, then `sample_size` samples.
    pub fn bench_function<N: std::fmt::Display, F: FnMut(&mut Bencher)>(
        &mut self,
        name: N,
        mut f: F,
    ) -> &mut Self {
        let mut b = Bencher { elapsed_ns: 0 };
        // Warmup (untimed for reporting, but the closure still runs).
        f(&mut b);
        let mut samples: Vec<u128> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            b.elapsed_ns = 0;
            f(&mut b);
            samples.push(b.elapsed_ns);
        }
        let result = BenchResult::new(
            name.to_string(),
            &samples,
            self.throughput.map(|Throughput::Elements(n)| n),
        );
        let median = result.median_ns;
        let line = match self.throughput {
            Some(Throughput::Elements(n)) if median > 0 => {
                let eps = (n as f64) * 1e9 / median as f64;
                format!("{name:<40} {median:>12} ns/iter {eps:>14.0} elem/s")
            }
            _ => format!("{name:<40} {median:>12} ns/iter"),
        };
        println!("  {line}");
        self.results.push(result);
        self
    }

    /// Ends the group, writing `BENCH_<group>.json` (console output is
    /// unchanged; the file lands in `TEMPSTREAM_BENCH_DIR` or the
    /// working directory).
    pub fn finish(&mut self) {
        let baseline = self.baseline.as_deref().and_then(|base| {
            self.results
                .iter()
                .find(|r| r.name == base)
                .map(|r| (base, r.median_ns))
        });
        let mut doc = Json::obj();
        doc.set("group", Json::Str(self.name.clone()));
        doc.set("git_rev", Json::Str(git_rev_in(Path::new("."))));
        doc.set("sample_size", Json::UInt(self.sample_size as u64));
        // Scaling numbers are meaningless without the parallelism they
        // ran under; archive it next to the results (0 = unknown).
        doc.set(
            "host_cores",
            Json::UInt(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        );
        if let Some((base, _)) = baseline {
            doc.set("baseline", Json::Str(base.to_string()));
        }
        doc.set(
            "results",
            Json::Arr(self.results.iter().map(|r| r.to_json(baseline)).collect()),
        );
        let file = format!(
            "BENCH_{}.json",
            self.name.replace(
                |c: char| !c.is_ascii_alphanumeric() && c != '_' && c != '-',
                "_"
            )
        );
        let path = match std::env::var_os("TEMPSTREAM_BENCH_DIR") {
            Some(dir) => std::path::PathBuf::from(dir).join(file),
            None => std::path::PathBuf::from(file),
        };
        if let Err(e) = std::fs::write(&path, doc.render() + "\n") {
            eprintln!("warning: could not write {} ({e})", path.display());
        }
    }
}

/// Passed to the measured closure; times the inner workload.
#[derive(Debug)]
pub struct Bencher {
    elapsed_ns: u128,
}

impl Bencher {
    /// Runs `f` once under the timer, accumulating its wall-clock cost.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let start = Instant::now();
        black_box(f());
        self.elapsed_ns += start.elapsed().as_nanos();
    }
}

/// Declares a function that runs the listed benchmark functions, mirroring
/// `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::harness::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Declares the bench entry point, mirroring `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

pub use crate::{criterion_group, criterion_main};

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that mutate the `TEMPSTREAM_BENCH_DIR` process
    /// environment.
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn bench_function_runs_closure_and_writes_json() {
        let _env = ENV_LOCK.lock().unwrap();
        let dir = std::env::temp_dir().join(format!("tempstream-bench-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::env::set_var("TEMPSTREAM_BENCH_DIR", &dir);

        let mut c = Criterion::default();
        let mut g = c.benchmark_group("selftest");
        let mut runs = 0u32;
        g.sample_size(3).throughput(Throughput::Elements(10));
        g.bench_function("count", |b| {
            b.iter(|| {
                runs += 1;
            });
        });
        g.finish();
        // warmup + 3 samples
        assert_eq!(runs, 4);

        let text = std::fs::read_to_string(dir.join("BENCH_selftest.json")).unwrap();
        let doc = Json::parse(&text).unwrap();
        assert_eq!(doc.get("group").and_then(Json::as_str), Some("selftest"));
        assert!(
            doc.get("host_cores").and_then(Json::as_u64) >= Some(1),
            "host parallelism is archived with the results"
        );
        let Some(Json::Arr(results)) = doc.get("results") else {
            panic!("results array missing");
        };
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].get("elements").and_then(Json::as_u64), Some(10));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn results_carry_sample_spread_and_git_rev() {
        let _env = ENV_LOCK.lock().unwrap();
        let dir = std::env::temp_dir().join(format!("tempstream-bench-md-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::env::set_var("TEMPSTREAM_BENCH_DIR", &dir);

        let mut c = Criterion::default();
        let mut g = c.benchmark_group("metatest");
        g.sample_size(5);
        g.bench_function("sleep", |b| {
            b.iter(|| std::thread::sleep(std::time::Duration::from_millis(1)));
        });
        g.finish();

        let text = std::fs::read_to_string(dir.join("BENCH_metatest.json")).unwrap();
        let doc = Json::parse(&text).unwrap();
        let rev = doc
            .get("git_rev")
            .and_then(Json::as_str)
            .expect("git_rev archived");
        assert!(
            rev == "unknown" || (rev.len() >= 40 && rev.chars().all(|c| c.is_ascii_hexdigit())),
            "git_rev is a revision or \"unknown\", got {rev:?}"
        );
        let Some(Json::Arr(results)) = doc.get("results") else {
            panic!("results array missing");
        };
        let field = |k: &str| {
            results[0]
                .get(k)
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("{k} missing"))
        };
        assert_eq!(field("samples"), 5);
        let (min, median, max) = (field("min_ns"), field("median_ns"), field("max_ns"));
        assert!(1_000_000 <= min && min <= median && median <= max);
        assert!(field("mad_ns") <= max - min);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn summary_statistics_of_known_samples() {
        let r = BenchResult::new("x".into(), &[40, 10, 30, 100, 20], Some(7));
        // Sorted 10 20 30 40 100: median 30; deviations 0 10 10 20 70.
        assert_eq!(
            r,
            BenchResult {
                name: "x".into(),
                samples: 5,
                median_ns: 30,
                min_ns: 10,
                max_ns: 100,
                mad_ns: 10,
                elements: Some(7),
            }
        );
    }

    #[test]
    fn git_rev_outside_a_checkout_is_unknown() {
        let missing =
            std::env::temp_dir().join(format!("tempstream-no-such-dir-{}", std::process::id()));
        assert_eq!(git_rev_in(&missing), "unknown");
    }

    #[test]
    fn baseline_adds_speedup_ratios() {
        let _env = ENV_LOCK.lock().unwrap();
        let dir = std::env::temp_dir().join(format!("tempstream-bench-bl-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::env::set_var("TEMPSTREAM_BENCH_DIR", &dir);

        let mut c = Criterion::default();
        let mut g = c.benchmark_group("speedtest");
        g.sample_size(2).baseline("slow");
        g.bench_function("slow", |b| {
            b.iter(|| std::thread::sleep(std::time::Duration::from_millis(8)));
        });
        g.bench_function("fast", |b| {
            b.iter(|| std::thread::sleep(std::time::Duration::from_millis(1)));
        });
        g.finish();

        let text = std::fs::read_to_string(dir.join("BENCH_speedtest.json")).unwrap();
        let doc = Json::parse(&text).unwrap();
        assert_eq!(doc.get("baseline").and_then(Json::as_str), Some("slow"));
        let Some(Json::Arr(results)) = doc.get("results") else {
            panic!("results array missing");
        };
        assert!(
            results[0].get("speedup_vs_slow").is_none(),
            "baseline must not report a self-speedup"
        );
        let speedup = results[1]
            .get("speedup_vs_slow")
            .and_then(Json::as_f64)
            .expect("non-baseline result must report speedup_vs_slow");
        assert!(speedup > 1.0, "8ms baseline / 1ms sample, got {speedup}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
