//! Process-wide observability: monotone counters, gauges and
//! fixed-bucket histograms — hermetic, `std`-only, and built so that
//! *enabling it never changes results*.
//!
//! # Determinism contract
//!
//! The registry is designed around two invariants, both pinned by the
//! workspace regression suite (`tests/tests/obs_determinism.rs` and
//! `tests/tests/golden_reports.rs`):
//!
//! 1. **Non-perturbation.** Recording a metric never branches the code
//!    under measurement: every canonical `SessionReport` is byte-identical
//!    with observability enabled or disabled. Instruments only ever
//!    *add* to atomics (or thread-local shards); they never feed back
//!    into solver or controller decisions.
//! 2. **Thread-count determinism.** Counter and histogram totals are
//!    sums of commutative additions, and [`crate::pool::par_map`] gives
//!    each worker a private [`Shard`] that is merged back **in worker
//!    index order** once all workers have joined. A run at
//!    `WOLT_THREADS=8` therefore reports exactly the totals of the same
//!    run at `WOLT_THREADS=1`.
//!
//! # Enabling and disabling
//!
//! Observability is on by default. Set the `WOLT_OBS` environment
//! variable to `0`, `off`, `false`, or `no` before first use — or call
//! [`set_enabled`] — to turn recording off; [`snapshot`] still works and
//! simply reports whatever was recorded while enabled.
//!
//! # Example
//!
//! ```
//! use wolt_support::obs;
//!
//! let solves = obs::counter("example.solves");
//! solves.inc();
//! obs::observe_us("example.solve_us", 1_250);
//! let snap = obs::snapshot();
//! assert!(snap.counters["example.solves"] >= 1);
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Duration;

use crate::json::{FromJson, Json, JsonError, ToJson};

/// Environment variable consulted once, at first registry use: values
/// `0`, `off`, `false`, or `no` (case-insensitive) start the process
/// with recording disabled.
pub const OBS_ENV: &str = "WOLT_OBS";

/// Default histogram bucket upper bounds, in microseconds: a coarse
/// latency ladder from 50µs to 5s. Values above the last bound land in
/// the overflow bucket. The bounds are compile-time constants so every
/// process — any thread count, any machine — buckets identically.
pub const DEFAULT_TIME_BUCKETS_US: &[u64] = &[
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 2_500_000, 5_000_000,
];

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

struct HistCells {
    bounds: &'static [u64],
    /// One cell per bound plus a final overflow cell.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistCells {
    fn new(bounds: &'static [u64]) -> Self {
        Self {
            bounds,
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    fn bucket_index(&self, value: u64) -> usize {
        self.bounds.partition_point(|&b| b < value)
    }

    fn record(&self, value: u64) {
        self.buckets[self.bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    fn reset(&self) {
        for cell in &self.buckets {
            cell.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

struct Registry {
    enabled: AtomicBool,
    counters: RwLock<BTreeMap<&'static str, Arc<AtomicU64>>>,
    gauges: RwLock<BTreeMap<&'static str, Arc<AtomicI64>>>,
    histograms: RwLock<BTreeMap<&'static str, Arc<HistCells>>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let enabled = match std::env::var(OBS_ENV) {
            Ok(raw) => !matches!(
                raw.trim().to_ascii_lowercase().as_str(),
                "0" | "off" | "false" | "no"
            ),
            Err(_) => true,
        };
        Registry {
            enabled: AtomicBool::new(enabled),
            counters: RwLock::new(BTreeMap::new()),
            gauges: RwLock::new(BTreeMap::new()),
            histograms: RwLock::new(BTreeMap::new()),
        }
    })
}

/// Whether recording is currently enabled.
pub fn enabled() -> bool {
    registry().enabled.load(Ordering::Relaxed)
}

/// Turns recording on or off process-wide. Registration and snapshots
/// work either way; only the record operations become no-ops.
pub fn set_enabled(on: bool) {
    registry().enabled.store(on, Ordering::Relaxed);
}

/// Zeroes every registered counter, gauge, and histogram, leaving
/// registrations and the enabled flag untouched.
/// Intended for tests that assert exact totals.
pub fn reset() {
    let reg = registry();
    for cell in reg.counters.read().expect("obs lock").values() {
        cell.store(0, Ordering::Relaxed);
    }
    for cell in reg.gauges.read().expect("obs lock").values() {
        cell.store(0, Ordering::Relaxed);
    }
    for cells in reg.histograms.read().expect("obs lock").values() {
        cells.reset();
    }
}

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

/// A monotone counter handle. Cheap to clone; all clones share one cell.
///
/// Obtain with [`counter`]; hot paths should cache the handle (e.g. in a
/// `OnceLock`) instead of re-looking it up by name on every increment.
#[derive(Clone)]
pub struct Counter {
    name: &'static str,
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds `n` to the counter (no-op while recording is disabled).
    ///
    /// If the calling thread has an installed [`Shard`] the addition is
    /// buffered there and becomes globally visible only when the shard
    /// is merged — [`Counter::get`] on another thread will not see it
    /// until then.
    pub fn add(&self, n: u64) {
        if n == 0 || !enabled() {
            return;
        }
        let buffered = SHARD.with(|slot| {
            if let Some(data) = slot.borrow_mut().as_mut() {
                let entry = data
                    .counters
                    .entry(self.name)
                    .or_insert((Arc::clone(&self.cell), 0));
                entry.1 += n;
                true
            } else {
                false
            }
        });
        if !buffered {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current merged global total (excludes unmerged shard buffers).
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    /// The counter's registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// A gauge handle: a signed last-write-wins level (queue depths,
/// connection counts). Gauges write through to the global cell directly
/// — they are *not* sharded, so their value under parallel writers is
/// scheduling-dependent and excluded from the determinism contract.
#[derive(Clone)]
pub struct Gauge {
    name: &'static str,
    cell: Arc<AtomicI64>,
}

impl Gauge {
    /// Sets the gauge (no-op while recording is disabled).
    pub fn set(&self, value: i64) {
        if enabled() {
            self.cell.store(value, Ordering::Relaxed);
        }
    }

    /// Adds `delta` (may be negative; no-op while recording is disabled).
    pub fn add(&self, delta: i64) {
        if enabled() {
            self.cell.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }

    /// The gauge's registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// A fixed-bucket histogram handle. Bucket bounds are `&'static` and
/// fixed at registration, so bucketing is identical in every process.
#[derive(Clone)]
pub struct Histogram {
    name: &'static str,
    cells: Arc<HistCells>,
}

impl Histogram {
    /// Records one observation (no-op while recording is disabled).
    /// Shard-buffered like [`Counter::add`] when a shard is installed.
    pub fn observe(&self, value: u64) {
        if !enabled() {
            return;
        }
        let buffered = SHARD.with(|slot| {
            if let Some(data) = slot.borrow_mut().as_mut() {
                let entry = data
                    .histograms
                    .entry(self.name)
                    .or_insert_with(|| ShardHist::new(Arc::clone(&self.cells)));
                entry.record(value);
                true
            } else {
                false
            }
        });
        if !buffered {
            self.cells.record(value);
        }
    }

    /// Records a duration in whole microseconds.
    pub fn observe_duration(&self, d: Duration) {
        self.observe(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }

    /// The histogram's registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// Returns (registering on first use) the counter called `name`.
pub fn counter(name: &'static str) -> Counter {
    let reg = registry();
    if let Some(cell) = reg.counters.read().expect("obs lock").get(name) {
        return Counter {
            name,
            cell: Arc::clone(cell),
        };
    }
    let mut map = reg.counters.write().expect("obs lock");
    let cell = map
        .entry(name)
        .or_insert_with(|| Arc::new(AtomicU64::new(0)));
    Counter {
        name,
        cell: Arc::clone(cell),
    }
}

/// Returns (registering on first use) the gauge called `name`.
pub fn gauge(name: &'static str) -> Gauge {
    let reg = registry();
    if let Some(cell) = reg.gauges.read().expect("obs lock").get(name) {
        return Gauge {
            name,
            cell: Arc::clone(cell),
        };
    }
    let mut map = reg.gauges.write().expect("obs lock");
    let cell = map
        .entry(name)
        .or_insert_with(|| Arc::new(AtomicI64::new(0)));
    Gauge {
        name,
        cell: Arc::clone(cell),
    }
}

/// Returns (registering on first use) the histogram called `name` with
/// the [`DEFAULT_TIME_BUCKETS_US`] bounds.
pub fn histogram(name: &'static str) -> Histogram {
    histogram_with(name, DEFAULT_TIME_BUCKETS_US)
}

/// Returns (registering on first use) the histogram called `name` with
/// explicit bucket upper bounds. Bounds must be strictly increasing; a
/// histogram keeps the bounds it was *first* registered with, so every
/// call site for one name must agree.
pub fn histogram_with(name: &'static str, bounds: &'static [u64]) -> Histogram {
    debug_assert!(
        bounds.windows(2).all(|w| w[0] < w[1]),
        "histogram bounds must be strictly increasing"
    );
    let reg = registry();
    if let Some(cells) = reg.histograms.read().expect("obs lock").get(name) {
        return Histogram {
            name,
            cells: Arc::clone(cells),
        };
    }
    let mut map = reg.histograms.write().expect("obs lock");
    let cells = map
        .entry(name)
        .or_insert_with(|| Arc::new(HistCells::new(bounds)));
    Histogram {
        name,
        cells: Arc::clone(cells),
    }
}

/// Interns a dynamically-built instrument name, so runtime-composed
/// labels (a fleet's per-site counters) can use the `&'static str`-keyed
/// registry. Each distinct name leaks exactly once, however many times
/// it is interned; the set of names in one process is small and bounded
/// by the configuration (sites × metrics), so the leak is a registration,
/// not a growth path.
fn intern(name: &str) -> &'static str {
    use std::collections::BTreeSet;
    static INTERNED: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    let mut set = INTERNED
        .get_or_init(|| Mutex::new(BTreeSet::new()))
        .lock()
        .expect("obs intern lock");
    if let Some(existing) = set.get(name) {
        return existing;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    set.insert(leaked);
    leaked
}

/// Returns (registering on first use) the counter `site.<site>.<name>` —
/// one site's deterministic per-segment metric in a multi-site process.
/// Site labels merge shard-order-invariantly for free: every counter
/// lives in the same [`BTreeMap`]-backed registry, keyed by its full
/// name, so [`snapshot`] renders identical output however sites were
/// partitioned across shards.
pub fn site_counter(site: &str, name: &str) -> Counter {
    counter(intern(&format!("site.{site}.{name}")))
}

/// Convenience: `counter(name).add(n)`. Cold paths only — hot paths
/// should cache the [`Counter`] handle.
pub fn counter_add(name: &'static str, n: u64) {
    if enabled() {
        counter(name).add(n);
    }
}

/// Convenience: `counter(name).inc()`.
pub fn counter_inc(name: &'static str) {
    counter_add(name, 1);
}

/// Convenience: `gauge(name).set(value)`.
pub fn gauge_set(name: &'static str, value: i64) {
    if enabled() {
        gauge(name).set(value);
    }
}

/// Convenience: records `value` (microseconds) into the default-bucket
/// histogram `name`.
pub fn observe_us(name: &'static str, value: u64) {
    if enabled() {
        histogram(name).observe(value);
    }
}

/// Convenience: records a [`Duration`] into the default-bucket histogram
/// `name`, in whole microseconds.
pub fn observe_duration(name: &'static str, d: Duration) {
    if enabled() {
        histogram(name).observe_duration(d);
    }
}

// ---------------------------------------------------------------------------
// Shards
// ---------------------------------------------------------------------------

struct ShardHist {
    cells: Arc<HistCells>,
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl ShardHist {
    fn new(cells: Arc<HistCells>) -> Self {
        let buckets = vec![0; cells.buckets.len()];
        Self {
            cells,
            buckets,
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    fn record(&mut self, value: u64) {
        let idx = self.cells.bucket_index(value);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }
}

#[derive(Default)]
struct ShardData {
    counters: BTreeMap<&'static str, (Arc<AtomicU64>, u64)>,
    histograms: BTreeMap<&'static str, ShardHist>,
}

thread_local! {
    static SHARD: RefCell<Option<ShardData>> = const { RefCell::new(None) };
}

/// A detached buffer of counter and histogram increments recorded by one
/// worker thread between [`shard_install`] and [`shard_take`]. Merge it
/// into the global registry with [`shard_merge`]; [`crate::pool::par_map`]
/// merges its workers' shards in worker index order.
#[must_use = "a dropped shard silently discards its recorded metrics"]
pub struct Shard(ShardData);

/// Installs a fresh shard on the calling thread: subsequent counter and
/// histogram records are buffered locally instead of hitting the shared
/// atomics. No-op (returns `false`) if a shard is already installed —
/// the existing shard keeps collecting.
pub fn shard_install() -> bool {
    SHARD.with(|slot| {
        let mut slot = slot.borrow_mut();
        if slot.is_some() {
            return false;
        }
        *slot = Some(ShardData::default());
        true
    })
}

/// Removes and returns the calling thread's shard (an empty shard if
/// none was installed, so take/merge is always safe to pair).
pub fn shard_take() -> Shard {
    Shard(
        SHARD
            .with(|slot| slot.borrow_mut().take())
            .unwrap_or_default(),
    )
}

/// Folds a shard's buffered totals into the global registry. Additions
/// are commutative, so totals are independent of merge order; callers
/// that promise determinism (the pool) still merge in a fixed order.
pub fn shard_merge(shard: Shard) {
    let Shard(data) = shard;
    for (_, (cell, n)) in data.counters {
        cell.fetch_add(n, Ordering::Relaxed);
    }
    for (_, hist) in data.histograms {
        for (idx, n) in hist.buckets.iter().enumerate() {
            if *n > 0 {
                hist.cells.buckets[idx].fetch_add(*n, Ordering::Relaxed);
            }
        }
        hist.cells.count.fetch_add(hist.count, Ordering::Relaxed);
        hist.cells.sum.fetch_add(hist.sum, Ordering::Relaxed);
        hist.cells.max.fetch_max(hist.max, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

/// Point-in-time state of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds (inclusive), strictly increasing.
    pub bounds: Vec<u64>,
    /// Per-bucket observation counts; one entry per bound plus a final
    /// overflow bucket, so `counts.len() == bounds.len() + 1`.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Nearest-rank quantile estimate from the bucket counts.
    ///
    /// Returns `None` when the histogram is empty. Otherwise `q` is
    /// clamped to `[0, 1]` and the estimate is the upper bound of the
    /// bucket containing the nearest-rank sample — except the overflow
    /// bucket, which reports the recorded [`HistogramSnapshot::max`].
    /// Well-defined for every edge case: a single sample (every `q`
    /// yields its bucket's bound) and all-equal samples (every `q`
    /// yields the same bound) produce no NaN and never panic.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        // Nearest rank: smallest k >= 1 with k >= q * count.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(if idx < self.bounds.len() {
                    self.bounds[idx]
                } else {
                    self.max
                });
            }
        }
        // count > 0 guarantees the loop returned; keep a defensive value.
        Some(self.max)
    }

    /// Mean of observed values (`None` when empty); never NaN.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }
}

/// A deterministic point-in-time dump of every registered instrument:
/// names are sorted, values are merged global totals. Serializes to the
/// same JSON bytes whenever the recorded totals are equal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObsSnapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl ObsSnapshot {
    /// Counter total by name (0 when the counter was never registered).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Captures a snapshot of all registered instruments. Unmerged shards
/// (workers still running) are not included; at a quiescent point —
/// after `par_map` returns, after a session completes — the snapshot is
/// the exact deterministic total.
pub fn snapshot() -> ObsSnapshot {
    let reg = registry();
    let counters = reg
        .counters
        .read()
        .expect("obs lock")
        .iter()
        .map(|(name, cell)| (name.to_string(), cell.load(Ordering::Relaxed)))
        .collect();
    let gauges = reg
        .gauges
        .read()
        .expect("obs lock")
        .iter()
        .map(|(name, cell)| (name.to_string(), cell.load(Ordering::Relaxed)))
        .collect();
    let histograms = reg
        .histograms
        .read()
        .expect("obs lock")
        .iter()
        .map(|(name, cells)| {
            (
                name.to_string(),
                HistogramSnapshot {
                    bounds: cells.bounds.to_vec(),
                    counts: cells
                        .buckets
                        .iter()
                        .map(|c| c.load(Ordering::Relaxed))
                        .collect(),
                    count: cells.count.load(Ordering::Relaxed),
                    sum: cells.sum.load(Ordering::Relaxed),
                    max: cells.max.load(Ordering::Relaxed),
                },
            )
        })
        .collect();
    ObsSnapshot {
        counters,
        gauges,
        histograms,
    }
}

fn u64_json(v: u64) -> Json {
    Json::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

fn u64_from(value: &Json, what: &str) -> Result<u64, JsonError> {
    value
        .as_i64()
        .and_then(|n| u64::try_from(n).ok())
        .ok_or_else(|| JsonError::shape(format!("{what}: expected a non-negative integer")))
}

impl ToJson for HistogramSnapshot {
    fn to_json(&self) -> Json {
        Json::obj([
            (
                "bounds",
                Json::Arr(self.bounds.iter().map(|&b| u64_json(b)).collect()),
            ),
            (
                "counts",
                Json::Arr(self.counts.iter().map(|&c| u64_json(c)).collect()),
            ),
            ("count", u64_json(self.count)),
            ("sum", u64_json(self.sum)),
            ("max", u64_json(self.max)),
        ])
    }
}

impl FromJson for HistogramSnapshot {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let arr_u64 = |key: &str| -> Result<Vec<u64>, JsonError> {
            value
                .field(key)?
                .as_arr()
                .ok_or_else(|| JsonError::shape(format!("histogram {key}: expected an array")))?
                .iter()
                .map(|v| u64_from(v, key))
                .collect()
        };
        let bounds = arr_u64("bounds")?;
        let counts = arr_u64("counts")?;
        if counts.len() != bounds.len() + 1 {
            return Err(JsonError::shape(
                "histogram: counts must have one entry per bound plus overflow",
            ));
        }
        Ok(Self {
            bounds,
            counts,
            count: u64_from(value.field("count")?, "count")?,
            sum: u64_from(value.field("sum")?, "sum")?,
            max: u64_from(value.field("max")?, "max")?,
        })
    }
}

impl ToJson for ObsSnapshot {
    fn to_json(&self) -> Json {
        // BTreeMap iteration is name-sorted, so the serialized key order
        // — and therefore the byte output — is deterministic.
        Json::obj([
            (
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, &v)| (k.clone(), u64_json(v)))
                        .collect(),
                ),
            ),
            (
                "gauges",
                Json::Obj(
                    self.gauges
                        .iter()
                        .map(|(k, &v)| (k.clone(), Json::Int(v)))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

impl FromJson for ObsSnapshot {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let obj_pairs = |key: &str| -> Result<Vec<(String, Json)>, JsonError> {
            match value.field(key)? {
                Json::Obj(pairs) => Ok(pairs.clone()),
                _ => Err(JsonError::shape(format!(
                    "metrics {key}: expected an object"
                ))),
            }
        };
        let mut counters = BTreeMap::new();
        for (k, v) in obj_pairs("counters")? {
            counters.insert(k, u64_from(&v, "counter")?);
        }
        let mut gauges = BTreeMap::new();
        for (k, v) in obj_pairs("gauges")? {
            let n = v
                .as_i64()
                .ok_or_else(|| JsonError::shape("gauge: expected an integer"))?;
            gauges.insert(k, n);
        }
        let mut histograms = BTreeMap::new();
        for (k, v) in obj_pairs("histograms")? {
            histograms.insert(k, HistogramSnapshot::from_json(&v)?);
        }
        Ok(Self {
            counters,
            gauges,
            histograms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global; serialize tests that depend on
    /// exact totals so parallel test threads cannot interleave.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn counter_accumulates_and_snapshots() {
        let _g = lock();
        let c = counter("test.obs.counter_basic");
        let before = c.get();
        c.add(3);
        c.inc();
        assert_eq!(c.get(), before + 4);
        let snap = snapshot();
        assert_eq!(snap.counter("test.obs.counter_basic"), before + 4);
        assert_eq!(snap.counter("test.obs.never_registered"), 0);
    }

    #[test]
    fn disabled_recording_is_a_no_op() {
        let _g = lock();
        let was = enabled();
        set_enabled(false);
        let c = counter("test.obs.disabled");
        let before = c.get();
        c.add(10);
        counter_add("test.obs.disabled", 5);
        observe_us("test.obs.disabled_hist", 42);
        assert_eq!(c.get(), before);
        set_enabled(was);
    }

    #[test]
    fn gauge_is_last_write_wins() {
        let _g = lock();
        let gauge = super::gauge("test.obs.gauge");
        gauge.set(7);
        gauge.add(-3);
        assert_eq!(gauge.get(), 4);
        gauge.set(0);
    }

    #[test]
    fn histogram_buckets_deterministically() {
        let _g = lock();
        let h = histogram_with("test.obs.hist_buckets", &[10, 100, 1000]);
        for v in [5, 10, 11, 100, 5000] {
            h.observe(v);
        }
        let snap = snapshot();
        let hist = &snap.histograms["test.obs.hist_buckets"];
        // Upper-inclusive bounds: 5 and 10 land in the first bucket.
        assert_eq!(&hist.counts[..], &[2, 2, 0, 1]);
        assert_eq!(hist.count, 5);
        assert_eq!(hist.sum, 5 + 10 + 11 + 100 + 5000);
        assert_eq!(hist.max, 5000);
    }

    #[test]
    fn quantile_zero_samples() {
        let hist = HistogramSnapshot {
            bounds: vec![10, 100],
            counts: vec![0, 0, 0],
            count: 0,
            sum: 0,
            max: 0,
        };
        assert_eq!(hist.quantile(0.5), None);
        assert_eq!(hist.mean(), None);
    }

    #[test]
    fn quantile_single_sample() {
        let hist = HistogramSnapshot {
            bounds: vec![10, 100],
            counts: vec![0, 1, 0],
            count: 1,
            sum: 42,
            max: 42,
        };
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(hist.quantile(q), Some(100), "q={q}");
        }
        assert_eq!(hist.mean(), Some(42.0));
    }

    #[test]
    fn quantile_all_equal_samples() {
        let hist = HistogramSnapshot {
            bounds: vec![10, 100],
            counts: vec![9, 0, 0],
            count: 9,
            sum: 63,
            max: 7,
        };
        for q in [0.0, 0.25, 0.5, 1.0] {
            assert_eq!(hist.quantile(q), Some(10), "q={q}");
        }
    }

    #[test]
    fn quantile_overflow_bucket_reports_max() {
        let hist = HistogramSnapshot {
            bounds: vec![10],
            counts: vec![1, 3],
            count: 4,
            sum: 3010,
            max: 2_000,
        };
        assert_eq!(hist.quantile(1.0), Some(2_000));
        assert_eq!(hist.quantile(0.0), Some(10));
        // NaN quantile is clamped, not propagated.
        assert_eq!(hist.quantile(f64::NAN), Some(10));
    }

    #[test]
    fn shard_buffers_then_merges_exact_totals() {
        let _g = lock();
        let c = counter("test.obs.shard_counter");
        let h = histogram_with("test.obs.shard_hist", &[100, 1000]);
        let c0 = c.get();
        assert!(shard_install());
        // A second install is a no-op and must not lose the first shard.
        assert!(!shard_install());
        c.add(5);
        h.observe(50);
        h.observe(500);
        // Buffered: not yet visible globally.
        assert_eq!(c.get(), c0);
        shard_merge(shard_take());
        assert_eq!(c.get(), c0 + 5);
        let snap = snapshot();
        let hist = &snap.histograms["test.obs.shard_hist"];
        assert!(hist.count >= 2);
        // After take, recording goes straight to the atomics again.
        c.inc();
        assert_eq!(c.get(), c0 + 6);
    }

    #[test]
    fn shard_take_without_install_is_empty() {
        let shard = shard_take();
        shard_merge(shard); // merging an empty shard is a no-op
    }

    #[test]
    fn reset_zeroes_but_keeps_registrations() {
        let _g = lock();
        let c = counter("test.obs.reset");
        c.add(9);
        reset();
        assert_eq!(c.get(), 0);
        let snap = snapshot();
        assert!(snap.counters.contains_key("test.obs.reset"));
        assert_eq!(snap.counter("test.obs.reset"), 0);
    }

    #[test]
    fn snapshot_json_round_trips_and_is_deterministic() {
        let mut snap = ObsSnapshot::default();
        snap.counters.insert("b.two".into(), 2);
        snap.counters.insert("a.one".into(), 1);
        snap.gauges.insert("g.depth".into(), -4);
        snap.histograms.insert(
            "h.lat".into(),
            HistogramSnapshot {
                bounds: vec![10, 100],
                counts: vec![1, 2, 3],
                count: 6,
                sum: 700,
                max: 650,
            },
        );
        let json = snap.to_json();
        let text = json.to_compact();
        // Sorted keys: "a.one" serializes before "b.two".
        assert!(text.find("a.one").unwrap() < text.find("b.two").unwrap());
        let back = ObsSnapshot::from_json(&crate::json::Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.to_json().to_compact(), text);
    }

    #[test]
    fn snapshot_rejects_malformed_histograms() {
        let bad = Json::parse(
            r#"{"counters":{},"gauges":{},"histograms":{"h":{"bounds":[10],"counts":[1],"count":1,"sum":1,"max":1}}}"#,
        )
        .unwrap();
        assert!(ObsSnapshot::from_json(&bad).is_err());
        let neg = Json::parse(r#"{"counters":{"c":-1},"gauges":{},"histograms":{}}"#).unwrap();
        assert!(ObsSnapshot::from_json(&neg).is_err());
    }
}
