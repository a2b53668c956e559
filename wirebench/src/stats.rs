//! Sample summaries and the result line.
//!
//! The quantile rule: a timing is reported as its median plus the
//! highest tail percentile that still has at least [`TAIL_SAMPLES`]
//! samples beyond it. With fewer than [`MIN_TAIL_SAMPLES`] samples no
//! tail exists and only the median is reported.

/// Samples a tail percentile needs beyond it before it is reported.
pub const TAIL_SAMPLES: usize = 10;
/// Fewer samples than this report the median alone.
pub const MIN_TAIL_SAMPLES: usize = 40;

/// Nearest-rank quantile of an ascending slice: the smallest sample with
/// at least `q·n` samples at or below it. `None` on an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of an ascending slice (nearest-rank, so always a real sample).
pub fn median(sorted: &[f64]) -> Option<f64> {
    quantile(sorted, 0.5)
}

/// The `q` tail quantile when the rule allows it: at least
/// [`MIN_TAIL_SAMPLES`] samples, and at least [`TAIL_SAMPLES`] of them
/// strictly beyond the quantile's rank.
pub fn tail(sorted: &[f64], q: f64) -> Option<f64> {
    if tail_allowed(sorted.len(), q) {
        quantile(sorted, q)
    } else {
        None
    }
}

/// Samples needed before [`tail`] reports quantile `q`.
pub fn samples_for_tail(q: f64) -> usize {
    (MIN_TAIL_SAMPLES..)
        .find(|&n| tail_allowed(n, q))
        .expect("some sample count allows any q < 1")
}

fn tail_allowed(n: usize, q: f64) -> bool {
    n >= MIN_TAIL_SAMPLES && n - ((q * n as f64).ceil() as usize).min(n) >= TAIL_SAMPLES
}

/// Sorts in place (total order, NaN last) and returns the slice.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// One named metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` declares it.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// The benchmark's final stdout line: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A JSON number with all its digits (Rust's shortest round-trip form);
/// non-finite values, which JSON cannot carry, become 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fewer_than_forty_samples_report_the_median_only() {
        let s = sorted((1..=39).map(f64::from).collect());
        assert_eq!(median(&s), Some(20.0));
        assert_eq!(tail(&s, 0.5), None);
        assert_eq!(tail(&s, 0.75), None);
        let s = sorted((1..=40).map(f64::from).collect());
        assert_eq!(tail(&s, 0.5), Some(20.0));
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        let s = sorted((1..=999).map(f64::from).collect());
        assert_eq!(tail(&s, 0.99), None, "999 samples leave 9 beyond p99");
        let s = sorted((1..=1000).map(f64::from).collect());
        assert_eq!(tail(&s, 0.99), Some(990.0));
        assert_eq!(samples_for_tail(0.99), 1000);
        assert_eq!(samples_for_tail(0.5), 40);
        assert_eq!(samples_for_tail(0.9), 100);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let s = sorted(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(quantile(&s, 0.0), Some(1.0));
        assert_eq!(median(&s), Some(3.0));
        assert_eq!(quantile(&s, 1.0), Some(5.0));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            true,
            40,
            0,
            &[Metric {
                name: "qps",
                unit: "1/s",
                value: 812.125,
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 40, \"failed\": 0, \
             \"metrics\": {\"qps\": {\"value\": 812.125, \"unit\": \"1/s\"}}}"
        );
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(f64::NAN), "0");
        assert_eq!(json_number(1e-7), "1e-7");
    }
}
