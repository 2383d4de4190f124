//! Small helpers the workloads share: the median, bag comparison of tables and
//! the tally of attempted and failed operations.

use mitra_dsl::{Table, Value};
use std::collections::HashMap;

/// Median of `values`; the mean of the two middle values for an even count,
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The Harrell–Davis estimate of the median of `values`: a weighted mean of
/// all order statistics, the weight of the `i`-th of `n` being the mass that a
/// Beta((n+1)/2, (n+1)/2) distribution puts on `[(i-1)/n, i/n]`.
///
/// Operation times cluster (a workload mixes cheap and costly operations),
/// and the plain median jumps from one cluster to the next when two
/// operations near the middle swap places.  This estimate moves smoothly.
/// It equals the plain median for one or two values and for symmetric data.
/// `NaN` for an empty slice.
pub fn hd_median(values: &[f64]) -> f64 {
    let n = values.len();
    if n == 0 {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    // Density of Beta(a, a), a = (n+1)/2, scaled to 1 at its mode x = 1/2 so
    // that it cannot underflow; the weights are normalised below, so the Beta
    // function is not needed.
    let a = (n as f64 + 1.0) / 2.0;
    let density = |x: f64| {
        if x <= 0.0 || x >= 1.0 {
            0.0
        } else {
            ((a - 1.0) * (x.ln() + (1.0 - x).ln() + 4f64.ln())).exp()
        }
    };
    // Simpson's rule on each interval [(i-1)/n, i/n].
    const STEPS: usize = 32;
    let weights: Vec<f64> = (0..n)
        .map(|i| {
            let (lo, hi) = (i as f64 / n as f64, (i + 1) as f64 / n as f64);
            let h = (hi - lo) / STEPS as f64;
            let inner: f64 = (1..STEPS)
                .map(|k| density(lo + k as f64 * h) * if k % 2 == 1 { 4.0 } else { 2.0 })
                .sum();
            (density(lo) + inner + density(hi)) * h / 3.0
        })
        .collect();
    let total: f64 = weights.iter().sum();
    sorted.iter().zip(&weights).map(|(v, w)| v * w).sum::<f64>() / total
}

/// A row rendered cell by cell, the key of a bag comparison.
fn row_key(row: &[Value]) -> Vec<String> {
    row.iter().map(Value::render).collect()
}

/// Rows of `a` and `b` that the other lacks, counting multiplicity:
/// `(missing from b, missing from a)`.  Both zero means `a` and `b` are the
/// same bag of rows; row order and column names are ignored.
pub fn bag_diff(a: &[Vec<Value>], b: &[Vec<Value>]) -> (usize, usize) {
    let mut counts: HashMap<Vec<String>, i64> = HashMap::with_capacity(a.len());
    for row in a {
        *counts.entry(row_key(row)).or_insert(0) += 1;
    }
    for row in b {
        *counts.entry(row_key(row)).or_insert(0) -= 1;
    }
    let only_a = counts
        .values()
        .filter(|&&c| c > 0)
        .map(|&c| c as usize)
        .sum();
    let only_b = counts
        .values()
        .filter(|&&c| c < 0)
        .map(|&c| (-c) as usize)
        .sum();
    (only_a, only_b)
}

/// True when the two tables hold the same bag of rows.
pub fn same_bag(a: &Table, b: &Table) -> bool {
    a.rows.len() == b.rows.len() && bag_diff(&a.rows, &b.rows) == (0, 0)
}

/// Operations attempted and failed over a run, with the first few failure
/// messages kept for the log.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: usize,
    /// Operations whose output check failed.
    pub failed: usize,
    /// Distinct failure messages, first occurrence order.
    pub messages: Vec<String>,
}

impl Tally {
    /// Records one operation: `Ok` passed its checks, `Err` holds why not.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = outcome {
            self.failed += 1;
            if !self.messages.contains(&message) {
                self.messages.push(message);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(rows: &[&[&str]]) -> Table {
        let mut t = Table::anonymous(rows.first().map_or(0, |r| r.len()));
        for r in rows {
            t.push(r.iter().map(|v| Value::from_data(v)).collect());
        }
        t
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn hd_median_matches_the_median_where_it_should() {
        assert!(hd_median(&[]).is_nan());
        assert_eq!(hd_median(&[4.0]), 4.0);
        assert!((hd_median(&[1.0, 3.0]) - 2.0).abs() < 1e-9);
        assert!((hd_median(&[5.0, 1.0, 2.0, 4.0, 3.0]) - 3.0).abs() < 1e-9);
        assert!((hd_median(&[2.5; 49]) - 2.5).abs() < 1e-9);
        assert!((hd_median(&[0.5; 5000]) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn hd_median_moves_smoothly_across_a_gap() {
        // 24 cheap and 25 costly operations: the plain median is the cheapest
        // costly one and jumps to the costliest cheap one when a single
        // operation crosses over; the estimate moves far less.
        let mut ops: Vec<f64> = (0..24).map(|i| 0.02 + i as f64 * 1e-4).collect();
        ops.extend((0..25).map(|i| 0.06 + i as f64 * 1e-4));
        let before = hd_median(&ops);
        let mut crossed = ops.clone();
        crossed[30] = 0.021;
        let after = hd_median(&crossed);
        let plain = (median(&ops) - median(&crossed)) / median(&ops);
        let smooth = (before - after) / before;
        assert!(plain > 0.5, "plain median moved {plain}");
        assert!(
            smooth < plain / 2.0,
            "estimate moved {smooth}, plain {plain}"
        );
        assert!(before > 0.02 && before < 0.0625);
    }

    #[test]
    fn bag_comparison_ignores_order_but_counts_duplicates() {
        let a = table(&[&["1", "x"], &["2", "y"], &["1", "x"]]);
        let b = table(&[&["2", "y"], &["1", "x"], &["1", "x"]]);
        assert!(same_bag(&a, &b));
        let c = table(&[&["2", "y"], &["2", "y"], &["1", "x"]]);
        assert!(!same_bag(&a, &c));
        assert_eq!(bag_diff(&a.rows, &c.rows), (1, 1));
        let d = table(&[&["1", "x"], &["2", "y"]]);
        assert!(!same_bag(&a, &d));
        assert_eq!(bag_diff(&a.rows, &d.rows), (1, 0));
    }

    #[test]
    fn bag_comparison_uses_rendered_values() {
        // The executor yields typed values; expected tables are built from
        // text.  Both sides render the same way.
        let mut typed = Table::anonymous(1);
        typed.push(vec![Value::Int(42)]);
        assert!(same_bag(&typed, &table(&[&["42"]])));
    }

    #[test]
    fn tally_counts_failures_and_keeps_distinct_messages() {
        let mut t = Tally::default();
        t.record(Ok(()));
        t.record(Err("dblp.article: 180 rows".into()));
        t.record(Err("dblp.article: 180 rows".into()));
        t.record(Ok(()));
        assert_eq!((t.attempted, t.failed), (4, 2));
        assert_eq!(t.messages.len(), 1);
    }
}
