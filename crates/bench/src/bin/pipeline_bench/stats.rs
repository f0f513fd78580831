//! Order statistics over timing samples.

/// Median, minimum, maximum and sample count of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// No samples: the workload does not measure the metric.
    pub const ABSENT: Summary = Summary {
        median: 0.0,
        min: 0.0,
        max: 0.0,
        n: 0,
    };
}

/// Median of `samples` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice: a metric without samples is a bug in the
/// benchmark, not a measurement.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

pub fn summarize(samples: &[f64]) -> Summary {
    Summary {
        median: median(samples),
        min: samples.iter().copied().fold(f64::INFINITY, f64::min),
        max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        n: samples.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn summary_min_max_count() {
        let s = summarize(&[2.0, 9.0, 4.0, 1.0]);
        assert_eq!(
            s,
            Summary {
                median: 3.0,
                min: 1.0,
                max: 9.0,
                n: 4
            }
        );
    }
}
