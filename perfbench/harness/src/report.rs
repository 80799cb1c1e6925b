//! Result bookkeeping: the failure tally, the statistics the metrics are
//! reduced with, and the one-line JSON result the benchmark prints last.

use std::collections::BTreeMap;

/// How one attempted operation ended. Everything but `Ok` counts toward
/// `failed` and `failed_frac`.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Exit 0 / job `clean`, and output byte-identical to the reference.
    Ok,
    /// A child process exited with a non-zero code (`None` = killed).
    NonZeroExit(Option<i32>),
    /// A daemon job ended in a state other than `clean`.
    JobState(String),
    /// The daemon shed a submission with `429`.
    Shed,
    /// Output differed from its reference, or a consistency check failed.
    Mismatch(String),
    /// The operation could not be carried out at all (I/O, protocol).
    Error(String),
}

/// Attempted and failed operations of one run.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure descriptions, for stderr.
    pub notes: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, what: &str, outcome: Outcome) {
        self.attempted += 1;
        if outcome != Outcome::Ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(format!("{what}: {outcome:?}"));
            }
        }
    }

    /// Record a boolean check as one operation.
    pub fn check(&mut self, what: &str, ok: bool) {
        let outcome = if ok {
            Outcome::Ok
        } else {
            Outcome::Mismatch(what.to_string())
        };
        self.record(what, outcome);
    }

    pub fn failed_frac(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median of the values (0 for none).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linearly interpolated quantile `q` in `[0, 1]` (0 for no values).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if sorted.is_empty() {
        return 0.0;
    }
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Percentiles a tail latency may be reported at, highest first.
const TAIL_PERCENTILES: [f64; 4] = [0.999, 0.99, 0.9, 0.5];

/// The highest percentile that keeps at least ten samples beyond it when
/// `n` samples are taken, or `None` when even the median does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .into_iter()
        .find(|p| samples_beyond(n, *p) >= 10)
}

/// Samples strictly beyond percentile `p` among `n` (tolerating the
/// rounding of `1 - p`).
fn samples_beyond(n: usize, p: f64) -> usize {
    (n as f64 * (1.0 - p) + 1e-9).floor() as usize
}

#[cfg(test)]
/// A metric name is made of letters, digits, `_`, `.` and `-`, starts with
/// a letter or digit, and is at most 64 characters long.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The metrics of one run, by name, with their units.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, (f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.values.insert(name, (value, unit));
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        self.values.iter().map(|(n, (v, u))| (*n, *v, *u))
    }
}

/// Render the result line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(tally: &Tally, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::PER_LAYER;
    use crate::END_TO_END;

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_metric_name(name), "bad metric name {name:?}");
            assert!(!unit.is_empty() && unit.len() <= 16, "bad unit {unit:?}");
            assert!(seen.insert(*name), "metric {name} listed twice");
        }
        assert!(!valid_metric_name("bad name"));
        assert!(!valid_metric_name(".leading-dot"));
        assert!(!valid_metric_name("per/second"));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(0.5));
        assert_eq!(tail_percentile(99), Some(0.5));
        assert_eq!(tail_percentile(100), Some(0.9));
        assert_eq!(tail_percentile(120), Some(0.9));
        assert_eq!(tail_percentile(999), Some(0.9));
        assert_eq!(tail_percentile(1000), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
        for n in 0..20_000 {
            if let Some(p) = tail_percentile(n) {
                assert!(samples_beyond(n, p) >= 10, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn failed_frac_counts_every_kind_of_failure() {
        let mut tally = Tally::default();
        tally.record("clean audit", Outcome::Ok);
        tally.record("audit", Outcome::NonZeroExit(Some(2)));
        tally.record("job", Outcome::JobState("salvaged".into()));
        tally.record("submit", Outcome::Shed);
        tally.record("stdout", Outcome::Mismatch("differs".into()));
        tally.check("keys.unique", true);
        tally.check("conserved", false);
        assert_eq!(tally.attempted, 7);
        assert_eq!(tally.failed, 5);
        assert!((tally.failed_frac() - 5.0 / 7.0).abs() < 1e-12);
        assert_eq!(Tally::default().failed_frac(), 0.0);
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert!((quantile(&[0.0, 10.0], 0.9) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut tally = Tally::default();
        tally.record("op", Outcome::Ok);
        let mut metrics = Metrics::default();
        metrics.set("setup_s", 1.25, "s");
        assert_eq!(
            result_line(&tally, &metrics),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
