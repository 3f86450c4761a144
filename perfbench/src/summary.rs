//! Summary statistics shared by every workload: medians, quartiles, the
//! tail-percentile rule and failure accounting.

/// Median of `v` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles with the same rule as Python's
/// `statistics.quantiles(v, n=4)` (the default "exclusive" method), so
/// spreads reported here match the ones computed over run results.
/// With one sample both quartiles are that sample.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    assert!(!v.is_empty(), "quartiles of no samples");
    let s = sorted(v);
    let ld = s.len();
    if ld == 1 {
        return (s[0], s[0]);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// A tail latency: the highest percentile that still has at least
/// [`TAIL_BEYOND`] samples beyond it, with the sample count it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (50 when the sample is too small for a
    /// tail above the median).
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Number of samples.
    pub samples: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile reported. Above it the closed-loop serving
/// tail does not repeat within a tenth from run to run on a shared
/// 2-core host (p99 spread 0.37 over five seeds, where p90 holds).
pub const TAIL_CAP: f64 = 90.0;

/// The tail rule: the highest percentile, up to [`TAIL_CAP`], with at
/// least ten samples beyond it. With `n` samples that is the sample of
/// rank `min(⌈n · cap⌉, n - 10)`, at percentile `100 · rank / n`. Below
/// 21 samples it would fall under the median, so the median is reported.
///
/// Failed operations are passed as `f64::INFINITY`: they miss every
/// latency limit and so push the tail up rather than vanish from it.
pub fn tail(v: &[f64]) -> Tail {
    assert!(!v.is_empty(), "tail of no samples");
    let n = v.len();
    if n < 2 * TAIL_BEYOND + 1 {
        return Tail {
            percentile: 50.0,
            value: median(v),
            samples: n,
        };
    }
    let s = sorted(v);
    // 1-based rank of the reported sample.
    let rank = ((n as f64 * TAIL_CAP / 100.0).ceil() as usize).min(n - TAIL_BEYOND);
    Tail {
        percentile: 100.0 * rank as f64 / n as f64,
        value: s[rank - 1],
        samples: n,
    }
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// How one attempted operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Completed and every output check passed.
    Ok,
    /// Completed, but an output check failed.
    BadOutput,
    /// Refused with 429 (queue full).
    Shed429,
    /// Refused with 504 (deadline).
    Deadline504,
    /// The client gave up waiting.
    Timeout,
    /// Connection or protocol error, or any other status.
    Transport,
}

/// Attempted/failed accounting plus the latency sample a failure feeds
/// into: every failure counts as a miss of any latency limit.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations attempted inside the measured window.
    pub attempted: u64,
    /// Operations that did not end in [`Outcome::Ok`].
    pub failed: u64,
    /// Latency per attempt in milliseconds (`INFINITY` for a failure).
    pub latency_ms: Vec<f64>,
    /// First few failure descriptions, for the report.
    pub notes: Vec<String>,
}

impl Tally {
    /// Records one attempt.
    pub fn record(&mut self, outcome: Outcome, latency_ms: f64) {
        self.attempted += 1;
        if outcome == Outcome::Ok {
            self.latency_ms.push(latency_ms);
        } else {
            self.failed += 1;
            self.latency_ms.push(f64::INFINITY);
        }
    }

    /// Records a failed check that is not tied to one operation (an end
    /// of run reconciliation, a reference mismatch).
    pub fn fail_check(&mut self, note: String) {
        self.attempted += 1;
        self.failed += 1;
        self.note(note);
    }

    /// Keeps a failure description (the first eight are kept).
    pub fn note(&mut self, note: String) {
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.latency_ms.extend(other.latency_ms);
        for n in other.notes {
            self.note(n);
        }
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), (1.25, 3.75));
        // statistics.quantiles([5, 9], n=4) == [4.0, 7.0, 10.0]: the
        // exclusive method extrapolates beyond two samples.
        assert_eq!(quartiles(&[9.0, 5.0]), (4.0, 10.0));
        assert_eq!(quartiles(&[2.0]), (2.0, 2.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.samples, 100);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        let beyond = v.iter().filter(|&&x| x > t.value).count();
        assert_eq!(beyond, TAIL_BEYOND);

        // Between 21 and 100 samples the ten-beyond rule binds.
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.value, t.percentile), (30.0, 75.0));

        // Above 100 samples the percentile is capped.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 900.0);
        assert_eq!(t.percentile, TAIL_CAP);
    }

    #[test]
    fn tail_falls_back_to_median_on_small_samples() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(
            tail(&v),
            Tail {
                percentile: 50.0,
                value: 10.5,
                samples: 20
            }
        );
        let v: Vec<f64> = (1..=21).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 11.0);
        assert!(t.percentile > 50.0);
    }

    #[test]
    fn refusals_and_timeouts_are_failures_and_latency_misses() {
        let mut t = Tally::default();
        for _ in 0..88 {
            t.record(Outcome::Ok, 1.0);
        }
        t.record(Outcome::Shed429, 0.2);
        t.record(Outcome::Deadline504, 0.3);
        t.record(Outcome::Timeout, 50.0);
        t.record(Outcome::BadOutput, 1.0);
        for _ in 0..8 {
            t.record(Outcome::Ok, 2.0);
        }
        assert_eq!(t.attempted, 100);
        assert_eq!(t.failed, 4);
        assert!((t.fail_frac() - 0.04).abs() < 1e-12);
        // A refusal answered in 0.2 ms must not improve the latency
        // picture: failures sit beyond every successful sample.
        let tl = tail(&t.latency_ms);
        assert_eq!(tl.value, 2.0);
        assert_eq!(t.latency_ms.iter().filter(|x| x.is_infinite()).count(), 4);
        let mut all_failed = Tally::default();
        for _ in 0..30 {
            all_failed.record(Outcome::Timeout, 1.0);
        }
        assert!(tail(&all_failed.latency_ms).value.is_infinite());
    }

    #[test]
    fn fail_check_counts_as_attempt() {
        let mut t = Tally::default();
        t.record(Outcome::Ok, 1.0);
        t.fail_check("reconciliation".into());
        assert_eq!((t.attempted, t.failed), (2, 1));
        assert_eq!(t.notes, vec!["reconciliation".to_string()]);
    }
}
