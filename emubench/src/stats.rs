//! Small order statistics.

/// The median of `xs` (mean of the middle two for even lengths).
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Host seconds of one emulation from its repetitions in a run, each a
/// list of per-chunk seconds; a chunk holds the same simulated work on
/// every repetition. Interference from other work on the host only ever
/// adds time and rarely hits the same chunk twice in a row, so each chunk
/// is taken as the median, over consecutive pairs of repetitions, of the
/// faster of the pair. Unlike the fastest of all repetitions, this does
/// not fall as a faster host fits more repetitions into the run. When the
/// repetitions' chunk counts differ, the median total stands in.
pub fn chunked_seconds(reps: &[Vec<f32>]) -> f64 {
    let Some(first) = reps.first() else {
        return 0.0;
    };
    if reps.len() == 1 || reps.iter().any(|r| r.len() != first.len()) {
        let totals: Vec<f64> = reps
            .iter()
            .map(|r| r.iter().map(|&c| f64::from(c)).sum())
            .collect();
        return median(&totals);
    }
    (0..first.len())
        .map(|c| {
            let pair_mins: Vec<f64> = reps
                .windows(2)
                .map(|w| f64::from(w[0][c].min(w[1][c])))
                .collect();
            median(&pair_mins)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn chunks_take_the_median_faster_of_consecutive_pairs() {
        // One repetition: its total.
        assert_eq!(chunked_seconds(&[vec![1.0, 2.0]]), 3.0);
        // Two: each chunk at the faster of the pair.
        let two = vec![vec![1.0, 5.0, 1.0], vec![2.0, 1.0, 3.0]];
        assert_eq!(chunked_seconds(&two), 3.0);
        // Three: pair minima of chunk 0 are (1, 1), of chunk 1 (1, 1).
        let three = vec![vec![1.0, 4.0], vec![3.0, 1.0], vec![1.0, 2.0]];
        assert_eq!(chunked_seconds(&three), 2.0);
        // A slow outlier in one repetition does not move the result, and
        // a lucky extra repetition does not pull it down.
        let four = vec![vec![2.0], vec![9.0], vec![2.0], vec![1.0]];
        assert_eq!(chunked_seconds(&four), 2.0);
        // Mismatched chunk counts: the median total.
        assert_eq!(chunked_seconds(&[vec![1.0, 4.0], vec![3.0]]), 4.0);
        assert_eq!(chunked_seconds(&[]), 0.0);
    }
}
