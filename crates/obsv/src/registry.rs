//! The metric registry: named counters, gauges, log-scaled histograms,
//! and span timers.
//!
//! Handles returned by the registry are cheap `Arc`-backed wrappers
//! around atomics, so the hot path (a counter bump inside a simulator
//! loop or a span close on the job-completion path) never takes a lock.
//! The registry's own maps are behind a `Mutex`, but registration is
//! expected once per metric name, not per event.
//!
//! Metric names are `/`-separated paths (`sim/tpcc/multi_chip/invalidations`);
//! [`Registry::snapshot`] nests them into a JSON object tree. Keys are
//! kept in a `BTreeMap`, so snapshots are deterministically ordered.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::json::Json;

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value (or high-water-mark) gauge.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrites the gauge value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if it is higher than the current value.
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: value 0, then one bucket per power of
/// two up to `u64::MAX` (`ilog2` ∈ 0..=63).
const BUCKETS: usize = 65;

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramInner {
    fn default() -> Self {
        Self {
            buckets: [(); BUCKETS].map(|()| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// A log2-scaled histogram of `u64` samples.
///
/// Bucket 0 holds exact zeros; bucket `i > 0` holds samples in
/// `[2^(i-1), 2^i)`. Good enough resolution for length CDFs and
/// reuse-distance PDFs at a fixed 65-slot footprint.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// Records one sample.
    pub fn record(&self, v: u64) {
        let idx = if v == 0 { 0 } else { v.ilog2() as usize + 1 };
        self.0.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
        self.0.min.fetch_min(v, Ordering::Relaxed);
        self.0.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Mean of recorded samples; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        crate::frac(self.sum(), self.count())
    }

    fn snapshot(&self) -> Json {
        let count = self.count();
        let mut o = Json::obj();
        o.set("count", Json::UInt(count));
        o.set("sum", Json::UInt(self.sum()));
        if count > 0 {
            o.set("min", Json::UInt(self.0.min.load(Ordering::Relaxed)));
            o.set("max", Json::UInt(self.0.max.load(Ordering::Relaxed)));
        }
        o.set("mean", Json::Float(self.mean()));
        let mut buckets = Json::obj();
        for (i, b) in self.0.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                // Key each non-empty bucket by its lower bound.
                let lo = if i == 0 { 0 } else { 1u64 << (i - 1) };
                buckets.set(&lo.to_string(), Json::UInt(n));
            }
        }
        o.set("buckets", buckets);
        o
    }
}

#[derive(Debug, Default)]
struct SpanInner {
    count: AtomicU64,
    total_nanos: AtomicU64,
    max_nanos: AtomicU64,
}

/// Aggregate wall-time for a named span (a stage, a phase, a loop).
#[derive(Debug, Clone, Default)]
pub struct SpanStat(Arc<SpanInner>);

impl SpanStat {
    /// Folds one finished span of `elapsed` into the aggregate.
    pub fn record(&self, elapsed: Duration) {
        let nanos = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.total_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.0.max_nanos.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Runs `f`, recording its wall time as one span.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(start.elapsed());
        out
    }

    /// Number of recorded spans.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Total recorded wall time.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.0.total_nanos.load(Ordering::Relaxed))
    }

    /// Longest recorded span.
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.0.max_nanos.load(Ordering::Relaxed))
    }

    fn snapshot(&self) -> Json {
        let mut o = Json::obj();
        o.set("count", Json::UInt(self.count()));
        o.set(
            "total_nanos",
            Json::UInt(self.0.total_nanos.load(Ordering::Relaxed)),
        );
        o.set(
            "max_nanos",
            Json::UInt(self.0.max_nanos.load(Ordering::Relaxed)),
        );
        o
    }
}

/// A named collection of metrics.
///
/// Use [`global()`] for process-wide metrics or construct a private
/// registry (as the pipeline executor does) to scope metrics to a run.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    spans: Mutex<BTreeMap<String, SpanStat>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter registered under `name`, creating it on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.counters.lock().expect("obsv registry poisoned");
        map.entry(name.to_string()).or_default().clone()
    }

    /// The gauge registered under `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.gauges.lock().expect("obsv registry poisoned");
        map.entry(name.to_string()).or_default().clone()
    }

    /// The histogram registered under `name`, creating it on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.histograms.lock().expect("obsv registry poisoned");
        map.entry(name.to_string()).or_default().clone()
    }

    /// The span aggregate registered under `name`, creating it on first
    /// use.
    pub fn span(&self, name: &str) -> SpanStat {
        let mut map = self.spans.lock().expect("obsv registry poisoned");
        map.entry(name.to_string()).or_default().clone()
    }

    /// Runs `f` inside the span named `name`.
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        self.span(name).time(f)
    }

    /// Removes every metric. Used by tests and by `reproduce` between
    /// commands so each export reflects one command only.
    pub fn clear(&self) {
        self.counters
            .lock()
            .expect("obsv registry poisoned")
            .clear();
        self.gauges.lock().expect("obsv registry poisoned").clear();
        self.histograms
            .lock()
            .expect("obsv registry poisoned")
            .clear();
        self.spans.lock().expect("obsv registry poisoned").clear();
    }

    /// Snapshots every metric into a JSON tree.
    ///
    /// The top level has one key per metric kind (`counters`, `gauges`,
    /// `histograms`, `spans`); under each, `/`-separated metric names
    /// become nested objects. If a name is both a leaf and a prefix of
    /// other names (`a` and `a/b`), the leaf value appears under a
    /// `"self"` key inside the subtree.
    pub fn snapshot(&self) -> Json {
        let mut root = Json::obj();
        root.set(
            "counters",
            nest(
                self.counters
                    .lock()
                    .expect("obsv registry poisoned")
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::UInt(v.get()))),
            ),
        );
        root.set(
            "gauges",
            nest(
                self.gauges
                    .lock()
                    .expect("obsv registry poisoned")
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::UInt(v.get()))),
            ),
        );
        root.set(
            "histograms",
            nest(
                self.histograms
                    .lock()
                    .expect("obsv registry poisoned")
                    .iter()
                    .map(|(k, v)| (k.clone(), v.snapshot())),
            ),
        );
        root.set(
            "spans",
            nest(
                self.spans
                    .lock()
                    .expect("obsv registry poisoned")
                    .iter()
                    .map(|(k, v)| (k.clone(), v.snapshot())),
            ),
        );
        root
    }
}

/// Nests `/`-separated names into an object tree. Input must be sorted
/// by name (it comes out of a `BTreeMap`), which keeps output order
/// deterministic.
///
/// The result is exactly that of inserting each name in turn into a
/// [`Json`] tree with [`Json::set`]; building it in a [`Tree`], whose
/// nodes index their keys, makes each step of a path O(1) instead of a
/// scan of that node's siblings.
fn nest(entries: impl Iterator<Item = (String, Json)>) -> Json {
    let mut root = Tree::default();
    for (name, value) in entries {
        root.insert_path(&name, value);
    }
    root.into_json()
}

/// A [`Json`] object under construction, with an index from each key to
/// its first entry (the one [`Json::get`] finds).
#[derive(Default)]
struct Tree {
    entries: Vec<(String, Slot)>,
    index: HashMap<String, usize>,
}

/// One entry of a [`Tree`]: a value as inserted, or an object that a
/// path has descended into.
enum Slot {
    Value(Json),
    Tree(Tree),
}

impl Slot {
    /// Whether the [`Json`] tree holds an object here.
    fn is_obj(&self) -> bool {
        matches!(self, Slot::Tree(_) | Slot::Value(Json::Obj(_)))
    }

    /// The object here as a [`Tree`], indexing an object value on first
    /// use.
    ///
    /// # Panics
    ///
    /// Panics if the slot holds no object.
    fn tree(&mut self) -> &mut Tree {
        if let Slot::Value(Json::Obj(entries)) = self {
            let mut tree = Tree::default();
            for (key, value) in std::mem::take(entries) {
                tree.push(key, Slot::Value(value));
            }
            *self = Slot::Tree(tree);
        }
        match self {
            Slot::Tree(tree) => tree,
            Slot::Value(_) => panic!("descending into a non-object"),
        }
    }
}

impl Tree {
    /// Appends an entry and returns its position.
    fn push(&mut self, key: String, slot: Slot) -> usize {
        let i = self.entries.len();
        self.index.entry(key.clone()).or_insert(i);
        self.entries.push((key, slot));
        i
    }

    /// [`Json::set`]: replaces the entry for `key` in place, or appends
    /// one.
    fn set(&mut self, key: &str, slot: Slot) {
        match self.index.get(key) {
            Some(&i) => self.entries[i].1 = slot,
            None => {
                self.push(key.to_string(), slot);
            }
        }
    }

    fn insert_path(&mut self, path: &str, value: Json) {
        match path.split_once('/') {
            None => {
                // Leaf. If a subtree already grew here (sorted order
                // means "a" sorts before "a/b", so normally the leaf
                // lands first), tuck the leaf under "self".
                if let Some(&i) = self.index.get(path) {
                    let existing = &mut self.entries[i].1;
                    if existing.is_obj() && !matches!(value, Json::Obj(_)) {
                        existing.tree().set("self", Slot::Value(value));
                        return;
                    }
                }
                self.set(path, Slot::Value(value));
            }
            Some((head, rest)) => {
                let i = match self.index.get(head) {
                    Some(&i) => i,
                    None => self.push(head.to_string(), Slot::Tree(Tree::default())),
                };
                let sub = &mut self.entries[i].1;
                // A leaf already named `head`: demote it to "self".
                if !sub.is_obj() {
                    let leaf = std::mem::replace(sub, Slot::Tree(Tree::default()));
                    sub.tree().set("self", leaf);
                }
                sub.tree().insert_path(rest, value);
            }
        }
    }

    fn into_json(self) -> Json {
        Json::Obj(
            self.entries
                .into_iter()
                .map(|(key, slot)| match slot {
                    Slot::Value(value) => (key, value),
                    Slot::Tree(tree) => (key, tree.into_json()),
                })
                .collect(),
        )
    }
}

/// The process-wide registry.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let r = Registry::new();
        r.counter("a").add(2);
        r.counter("a").inc();
        assert_eq!(r.counter("a").get(), 3);
        assert_eq!(r.counter("b").get(), 0);
    }

    #[test]
    fn gauges_set_and_max() {
        let r = Registry::new();
        let g = r.gauge("depth");
        g.set(5);
        g.set_max(3);
        assert_eq!(g.get(), 5);
        g.set_max(9);
        assert_eq!(r.gauge("depth").get(), 9);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let h = Histogram::default();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1030);
        assert!((h.mean() - 206.0).abs() < 1e-9);
        let snap = h.snapshot();
        let buckets = snap.get("buckets").unwrap();
        assert_eq!(buckets.get("0").unwrap().as_u64(), Some(1)); // the 0
        assert_eq!(buckets.get("1").unwrap().as_u64(), Some(1)); // [1,2)
        assert_eq!(buckets.get("2").unwrap().as_u64(), Some(2)); // [2,4)
        assert_eq!(buckets.get("1024").unwrap().as_u64(), Some(1));
        assert_eq!(snap.get("min").unwrap().as_u64(), Some(0));
        assert_eq!(snap.get("max").unwrap().as_u64(), Some(1024));
    }

    #[test]
    fn empty_histogram_has_finite_mean() {
        let h = Histogram::default();
        assert_eq!(h.mean(), 0.0);
        let snap = h.snapshot();
        assert_eq!(snap.get("count").unwrap().as_u64(), Some(0));
        assert!(snap.get("min").is_none());
    }

    #[test]
    fn spans_time_closures() {
        let r = Registry::new();
        let out = r.time("work", || 7);
        assert_eq!(out, 7);
        let s = r.span("work");
        assert_eq!(s.count(), 1);
        assert!(s.total() >= Duration::ZERO);
        assert!(s.max() <= s.total() || s.count() > 1);
    }

    #[test]
    fn snapshot_nests_paths() {
        let r = Registry::new();
        r.counter("sim/tpcc/invalidations").add(4);
        r.counter("sim/tpcc/writebacks").add(2);
        r.counter("sim/web/invalidations").add(1);
        let snap = r.snapshot();
        let sim = snap.get("counters").unwrap().get("sim").unwrap();
        assert_eq!(
            sim.get("tpcc")
                .unwrap()
                .get("invalidations")
                .unwrap()
                .as_u64(),
            Some(4)
        );
        assert_eq!(
            sim.get("web")
                .unwrap()
                .get("invalidations")
                .unwrap()
                .as_u64(),
            Some(1)
        );
    }

    #[test]
    fn snapshot_handles_leaf_and_subtree_conflicts() {
        let r = Registry::new();
        r.counter("a").add(1);
        r.counter("a/b").add(2);
        let snap = r.snapshot();
        let a = snap.get("counters").unwrap().get("a").unwrap();
        assert_eq!(a.get("self").unwrap().as_u64(), Some(1));
        assert_eq!(a.get("b").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn snapshot_is_deterministically_ordered() {
        let r = Registry::new();
        r.counter("z").inc();
        r.counter("a").inc();
        r.gauge("m").set(1);
        let first = r.snapshot().render();
        let second = r.snapshot().render();
        assert_eq!(first, second);
        assert!(first.find("\"a\"").unwrap() < first.find("\"z\"").unwrap());
    }

    #[test]
    fn clear_empties_everything() {
        let r = Registry::new();
        r.counter("c").inc();
        r.gauge("g").set(1);
        r.histogram("h").record(1);
        r.span("s").record(Duration::from_nanos(1));
        r.clear();
        let snap = r.snapshot();
        assert_eq!(snap.get("counters").unwrap(), &Json::obj());
        assert_eq!(snap.get("spans").unwrap(), &Json::obj());
    }

    #[test]
    fn global_registry_is_shared() {
        let g = global();
        g.counter("obsv_test/global").add(5);
        assert_eq!(global().counter("obsv_test/global").get(), 5);
        g.clear();
    }

    #[test]
    fn nest_keeps_sorted_order_and_demotes_leaves_under_self() {
        // `a-x` and `a.y/z` sort between the leaf `a` and the subtree
        // `a/b` (`-` and `.` sort before `/`), so the leaf `a` is not the
        // last sibling when `a/b` demotes it under "self"; `a/b` is
        // demoted in turn by `a/b/c`.
        let names = ["a", "a-x", "a.y/z", "a/b", "a/b/c", "a/b/d/e", "a/c", "b"];
        assert!(names.windows(2).all(|w| w[0] < w[1]), "input is sorted");
        let tree = nest(
            names
                .iter()
                .zip(0u64..)
                .map(|(name, i)| ((*name).to_string(), Json::UInt(i))),
        );
        assert_eq!(
            tree.render(),
            r#"{"a":{"self":0,"b":{"self":3,"c":4,"d":{"e":5}},"c":6},"a-x":1,"a.y":{"z":2},"b":7}"#
        );
    }

    #[test]
    fn snapshot_render_of_a_fixed_registry_is_pinned() {
        // Recorded with the sibling-scanning nesting this one replaced.
        // Histograms and spans are objects themselves, so `streams/len`
        // nests inside the `streams` histogram's own object.
        let r = Registry::new();
        for (name, n) in [
            ("sim/web/apache/reads", 5),
            ("sim/web/apache", 1),
            ("sim/db/oltp/writes", 2),
            ("a", 1),
            ("a-x", 2),
            ("a/b", 3),
            ("a/b/c", 4),
        ] {
            r.counter(name).add(n);
        }
        r.gauge("sequitur/rules").set(9);
        r.gauge("sequitur").set(1);
        r.gauge("z.q/r").set(3);
        r.histogram("streams").record(1);
        for v in [0, 3, 1024] {
            r.histogram("streams/len").record(v);
        }
        r.histogram("streams/len/tail").record(7);
        r.span("stage/simulate").record(Duration::from_nanos(1500));
        r.span("stage").record(Duration::from_micros(2));
        assert_eq!(
            r.snapshot().render(),
            concat!(
                r#"{"counters":{"a":{"self":1,"b":{"self":3,"c":4}},"a-x":2,"#,
                r#""sim":{"db":{"oltp":{"writes":2}},"web":{"apache":{"self":1,"reads":5}}}},"#,
                r#""gauges":{"sequitur":{"self":1,"rules":9},"z.q":{"r":3}},"#,
                r#""histograms":{"streams":{"count":1,"sum":1,"min":1,"max":1,"mean":1,"#,
                r#""buckets":{"1":1},"len":{"count":3,"sum":1027,"min":0,"max":1024,"#,
                r#""mean":342.3333333333333,"buckets":{"0":1,"2":1,"1024":1},"#,
                r#""tail":{"count":1,"sum":7,"min":7,"max":7,"mean":7,"buckets":{"4":1}}}}},"#,
                r#""spans":{"stage":{"count":1,"total_nanos":2000,"max_nanos":2000,"#,
                r#""simulate":{"count":1,"total_nanos":1500,"max_nanos":1500}}}}"#,
            )
        );
    }
}
