//! Shared helpers for the figure-regeneration binaries.
//!
//! Every table and figure of the WOLT paper has a binary under
//! `src/bin/` that regenerates it (`cargo run -p wolt-bench --bin figXY`).
//! Binaries print machine-readable CSV rows followed by a
//! `paper:`/`measured:` summary so `EXPERIMENTS.md` can record the
//! comparison. These helpers keep the output format consistent.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;

/// Prints a figure header: id, paper claim, and our setup in one place.
pub fn header(figure: &str, claim: &str, setup: &str) {
    println!("# {figure}");
    println!("# paper: {claim}");
    println!("# setup: {setup}");
}

/// Prints one CSV row.
pub fn row(cells: &[String]) {
    println!("{}", cells.join(","));
}

/// Prints a CSV header row.
pub fn columns(names: &[&str]) {
    println!("{}", names.join(","));
}

/// Formats a float with 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Arithmetic mean of a non-empty slice.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of empty slice");
    values.iter().sum::<f64>() / values.len() as f64
}

/// Prints the closing `measured:` summary line.
pub fn measured(summary: &str) {
    println!("# measured: {summary}");
}

/// A `(key, metric)` slice handed to [`sort_by_metric`] contained a NaN
/// metric at `index` — the caller's spec or model produced an unusable
/// value, which deserves a diagnostic, not a comparator panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NanMetric {
    /// Position of the offending entry in the input slice.
    pub index: usize,
}

impl std::fmt::Display for NanMetric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "metric at index {} is NaN", self.index)
    }
}

impl std::error::Error for NanMetric {}

/// Sorts `(key, metric)` pairs ascending by metric, using the
/// workspace's `f64::total_cmp` convention after rejecting NaN with a
/// typed error (the first offender's index). Stable, so equal metrics —
/// including `-0.0` vs `0.0`, which `total_cmp` distinguishes but keeps
/// adjacent — preserve their input order deterministically.
///
/// # Errors
///
/// [`NanMetric`] when any metric is NaN; the slice is left unsorted.
pub fn sort_by_metric<T>(items: &mut [(T, f64)]) -> Result<(), NanMetric> {
    if let Some(index) = items.iter().position(|(_, m)| m.is_nan()) {
        return Err(NanMetric { index });
    }
    items.sort_by(|a, b| a.1.total_cmp(&b.1));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_works() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn mean_rejects_empty() {
        let _ = mean(&[]);
    }

    #[test]
    fn f2_formats() {
        assert_eq!(f2(1.2345), "1.23");
    }

    #[test]
    fn sort_by_metric_orders_ascending() {
        let mut items = vec![("c", 3.0), ("a", 1.0), ("b", 2.0)];
        sort_by_metric(&mut items).unwrap();
        assert_eq!(items, vec![("a", 1.0), ("b", 2.0), ("c", 3.0)]);
    }

    #[test]
    fn sort_by_metric_rejects_nan_with_index() {
        let mut items = vec![("a", 1.0), ("bad", f64::NAN), ("c", 3.0)];
        assert_eq!(sort_by_metric(&mut items), Err(NanMetric { index: 1 }));
        // The slice is untouched on rejection.
        assert_eq!(items[0], ("a", 1.0));
        assert_eq!(items[2], ("c", 3.0));
        assert_eq!(
            NanMetric { index: 1 }.to_string(),
            "metric at index 1 is NaN"
        );
    }

    #[test]
    fn sort_by_metric_totally_orders_edge_floats() {
        // total_cmp puts -0.0 before 0.0 and handles infinities without
        // a comparator panic; equal keys keep input order (stable sort).
        let mut items = vec![
            ("pinf", f64::INFINITY),
            ("zero", 0.0),
            ("first", 1.0),
            ("negzero", -0.0),
            ("second", 1.0),
            ("ninf", f64::NEG_INFINITY),
        ];
        sort_by_metric(&mut items).unwrap();
        let keys: Vec<&str> = items.iter().map(|(k, _)| *k).collect();
        assert_eq!(
            keys,
            vec!["ninf", "negzero", "zero", "first", "second", "pinf"]
        );
    }
}
