//! The benchmark's arithmetic: percentiles under the tail rule, medians,
//! per-event ratios from counter deltas, and peak-RSS parsing.

use wolt_support::obs::ObsSnapshot;

/// A tail percentile is reported only when at least this many samples
/// lie beyond it.
pub const MIN_BEYOND: usize = 10;

/// The percentiles a tail may be reported at, highest first.
const LADDER: [f64; 7] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 50.0];

/// Nearest rank of the `p`-th percentile among `n` samples: the smallest
/// `k >= 1` with `k >= p/100 * n` (1-based). A product within rounding
/// error of a whole number counts as that number, since `p` (e.g. 99.9)
/// is not exact in binary.
pub fn rank(n: usize, p: f64) -> usize {
    let exact = p * n as f64 / 100.0;
    let whole = exact.round();
    let k = if (exact - whole).abs() < 1e-6 {
        whole
    } else {
        exact.ceil()
    };
    (k as usize).clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank `p`-th percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Whether `n` samples support reporting the `p`-th percentile.
pub fn supports(n: usize, p: f64) -> bool {
    beyond(n, p) >= MIN_BEYOND
}

/// The highest percentile of the ladder that `n` samples support, if any.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER.into_iter().find(|&p| supports(n, p))
}

/// Nearest-rank `p`-th percentile of ascending `sorted` samples.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        None
    } else {
        Some(sorted[rank(sorted.len(), p) - 1])
    }
}

/// A latency tail: the `want`-th percentile when the samples support it,
/// else the highest percentile they do support (the value is then
/// labelled with that percentile).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported.
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples it was taken over.
    pub samples: usize,
}

/// Reports the `want`-th percentile of `samples` under the tail rule.
/// `None` when there are too few samples for any percentile.
pub fn tail(samples: &[f64], want: f64) -> Option<Tail> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let p = if supports(n, want) {
        want
    } else {
        tail_percentile(n)?
    };
    Some(Tail {
        percentile: p,
        value: percentile(&sorted, p)?,
        samples: n,
    })
}

/// The timings of one block of events.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Events in the block.
    pub events: u64,
    /// Driving time the block took.
    pub driving: std::time::Duration,
    /// Directives the block's events issued.
    pub moves: u64,
    /// Median event latency, in microseconds.
    pub p50_us: f64,
    /// Tail event latency under the tail rule, in microseconds.
    pub p99: Option<Tail>,
}

impl Block {
    /// Summarises a block's latencies (in microseconds), driving time
    /// and directives.
    pub fn new(latencies_us: &[f64], driving: std::time::Duration, moves: u64) -> Self {
        let mut sorted = latencies_us.to_vec();
        sorted.sort_by(f64::total_cmp);
        Self {
            events: sorted.len() as u64,
            driving,
            moves,
            p50_us: percentile(&sorted, 50.0).unwrap_or(f64::NAN),
            p99: tail(&sorted, 99.0),
        }
    }

    /// Events per second of driving time.
    pub fn events_per_s(&self) -> f64 {
        ratio(self.events as f64, self.driving.as_secs_f64())
    }
}

/// Median (mean of the middle pair for an even count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Arithmetic mean; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// `part / base`, or 0 when the base is 0 (the layer did no work).
pub fn ratio(part: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        part / base
    }
}

/// Counter movement between two observability snapshots.
#[derive(Debug, Clone)]
pub struct Deltas {
    before: ObsSnapshot,
    after: ObsSnapshot,
}

impl Deltas {
    /// Deltas from `before` to `after`.
    pub fn new(before: ObsSnapshot, after: ObsSnapshot) -> Self {
        Self { before, after }
    }

    /// How much counter `name` grew (0 for a counter that never moved).
    pub fn counter(&self, name: &str) -> u64 {
        self.after
            .counter(name)
            .saturating_sub(self.before.counter(name))
    }

    /// `counter(part) / counter(base)`, 0 when the base did not move.
    pub fn per(&self, part: &str, base: &str) -> f64 {
        ratio(self.counter(part) as f64, self.counter(base) as f64)
    }

    /// `counter(part) / events`, 0 for no events.
    pub fn per_event(&self, part: &str, events: u64) -> f64 {
        ratio(self.counter(part) as f64, events as f64)
    }

    /// Mean of the observations histogram `name` received in between;
    /// 0 when it received none.
    pub fn histogram_mean(&self, name: &str) -> f64 {
        let totals = |s: &ObsSnapshot| s.histograms.get(name).map_or((0, 0), |h| (h.sum, h.count));
        let (sum0, n0) = totals(&self.before);
        let (sum1, n1) = totals(&self.after);
        ratio(
            sum1.saturating_sub(sum0) as f64,
            n1.saturating_sub(n0) as f64,
        )
    }
}

/// Peak resident set size in KiB (`VmHWM`) from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value: u64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(value),
        _ => None,
    }
}

/// This process's peak resident set size in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    parse_vm_hwm_kib(&status)
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use wolt_support::obs::HistogramSnapshot;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert!(supports(1000, 99.0));
        assert_eq!(beyond(999, 99.0), 9);
        assert!(!supports(999, 99.0));
        assert!(supports(10_000, 99.9));
        assert!(!supports(9_999, 99.9));
    }

    #[test]
    fn tail_falls_back_to_the_highest_supported_percentile() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(98.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);

        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&samples, 99.0).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (99.0, 990.0, 1000));
        let t = tail(&samples[..500], 99.0).unwrap();
        assert_eq!((t.percentile, t.value), (98.0, 490.0));
        assert!(tail(&samples[..19], 99.0).is_none());
    }

    #[test]
    fn percentile_is_nearest_rank_on_unsorted_input() {
        let t = tail(&[5.0, 1.0, 4.0, 2.0, 3.0].repeat(10), 50.0).unwrap();
        assert_eq!(t.value, 3.0);
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn blocks_summarise_their_events() {
        let latencies: Vec<f64> = (1..=1000).map(f64::from).collect();
        let b = Block::new(&latencies, std::time::Duration::from_millis(500), 750);
        assert_eq!(b.events, 1000);
        assert_eq!(b.events_per_s(), 2000.0);
        assert_eq!(b.p50_us, 500.0);
        assert_eq!(b.p99.map(|t| (t.percentile, t.value)), Some((99.0, 990.0)));
        // Too few samples for a tail: the median stands alone.
        let b = Block::new(&[5.0, 1.0, 4.0, 2.0, 3.0], std::time::Duration::ZERO, 0);
        assert_eq!((b.p50_us, b.p99), (3.0, None));
        assert_eq!(b.events_per_s(), 0.0);
        assert!(Block::new(&[], std::time::Duration::ZERO, 0)
            .p50_us
            .is_nan());
    }

    #[test]
    fn medians_and_means() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    fn snap(counters: &[(&str, u64)], hist: Option<(u64, u64)>) -> ObsSnapshot {
        let mut s = ObsSnapshot {
            counters: counters.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
            ..ObsSnapshot::default()
        };
        if let Some((sum, count)) = hist {
            let h = HistogramSnapshot {
                bounds: vec![],
                counts: vec![count],
                count,
                sum,
                max: 0,
            };
            s.histograms = BTreeMap::from([("h".to_string(), h)]);
        }
        s
    }

    #[test]
    fn per_event_ratios_come_from_counter_deltas() {
        let d = Deltas::new(
            snap(
                &[("core.solves", 100), ("core.phase2_iterations", 5_000)],
                Some((40, 4)),
            ),
            snap(
                &[
                    ("core.solves", 150),
                    ("core.phase2_iterations", 8_000),
                    ("cc.view_builds", 50),
                ],
                Some((340, 7)),
            ),
        );
        assert_eq!(d.counter("core.solves"), 50);
        // A counter first registered in between counts from zero.
        assert_eq!(d.counter("cc.view_builds"), 50);
        assert_eq!(d.counter("never.registered"), 0);
        assert_eq!(d.per("core.phase2_iterations", "core.solves"), 60.0);
        assert_eq!(d.per_event("core.solves", 25), 2.0);
        // A base that did not move gives 0, not NaN.
        assert_eq!(d.per("core.solves", "core.warm_solves"), 0.0);
        assert_eq!(d.per_event("core.solves", 0), 0.0);
        assert_eq!(d.histogram_mean("h"), 100.0);
        assert_eq!(d.histogram_mean("absent"), 0.0);
    }

    #[test]
    fn peak_rss_parses_vm_hwm() {
        let status =
            "Name:\twolt-perfbench\nVmPeak:\t  123456 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(20480));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t 1024 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t 12 MB\n"), None);
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
