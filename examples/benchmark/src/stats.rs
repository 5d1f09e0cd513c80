//! Order statistics used by every report: medians and quartiles the way
//! Python's `statistics.quantiles(values, n=4)` computes them (the driver's
//! repeatability check uses that function, so `--compare` must agree with it),
//! and nearest-rank percentiles for latency samples.

/// First quartile, median and third quartile of `values`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Quartiles {
    /// Distance between the quartiles as a share of the median — the spread
    /// the driver holds against a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quartiles by the "exclusive" method (`statistics.quantiles` default). A
/// single value is its own three quartiles; an empty slice yields zeros.
pub fn quartiles(values: &[f64]) -> Quartiles {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    match len {
        0 => {
            return Quartiles {
                q1: 0.0,
                median: 0.0,
                q3: 0.0,
            }
        }
        1 => {
            return Quartiles {
                q1: data[0],
                median: data[0],
                q3: data[0],
            }
        }
        _ => {}
    }
    // As in CPython: the index is clamped first and `delta` taken against the
    // clamped index, so it may fall outside 0..4 and extrapolate.
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Quartiles {
        q1: cut(1),
        median: cut(2),
        q3: cut(3),
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).median
}

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`); 0 when
/// empty.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&ten);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = quartiles(&[1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let data: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&data, 0.5), 50);
        assert_eq!(percentile(&data, 0.99), 99);
        assert_eq!(percentile(&data, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
    }
}
