//! Order statistics with sample floors.
//!
//! A percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! beyond it: a p99 read from 48 samples is just the maximum, and two runs
//! of the same code would disagree on it for no reason but chance.
//!
//! Other work on the host slows whole stretches of a run, so a run's
//! percentiles are read per consecutive stretch and then combined
//! ([`chunked_percentile`]). A tail percentile takes the median over the
//! stretches, so one disturbed stretch moves one chunk, not the reported
//! value. A middle percentile takes their mean: the host switches between
//! a fast and a slow speed level for seconds at a time, and a median over
//! stretches jumps from one level to the other as the share of slow
//! stretches passes a half, where a mean moves in proportion to it.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile together with the sample it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile, in the unit of the samples.
    pub value: f64,
    /// Number of samples it was read from.
    pub samples: usize,
    /// Samples ranked beyond it (in every chunk, for a chunked
    /// percentile).
    pub beyond: usize,
    /// Consecutive chunks it is combined over (1 for a plain percentile).
    pub chunks: usize,
    /// How the chunks were combined: `"mean"` or `"median"`.
    pub across: &'static str,
}

/// Fewest samples that put [`MIN_BEYOND`] beyond the `p`-th percentile.
fn min_samples(p: f64) -> usize {
    let mut n = (MIN_BEYOND as f64 / (1.0 - p / 100.0)).floor() as usize;
    while n - (((p / 100.0) * n as f64).ceil() as usize) < MIN_BEYOND {
        n += 1;
    }
    n
}

/// The `p`-th percentile (0 < p < 100) of `samples` by the nearest-rank
/// rule, or an error naming the shortfall when fewer than [`MIN_BEYOND`]
/// samples would lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Result<Percentile, String> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} out of (0, 100)");
    let n = samples.len();
    // Nearest rank: the smallest value with at least p% of the sample at or
    // below it.
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let beyond = n.saturating_sub(rank.max(1));
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} needs at least {MIN_BEYOND} samples beyond it; have {n} samples, {beyond} beyond"
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond,
        chunks: 1,
        across: "median",
    })
}

/// The `p`-th percentile over consecutive chunks of `samples` (taken in
/// time order): as many chunks as possible, at most `max_chunks`, each
/// still holding [`MIN_BEYOND`] samples beyond its own percentile. The
/// median (p = 50) is the mean of the chunks' medians, each read from many
/// samples; a tail percentile is the median of the chunks' values, each
/// read from few samples beyond it. Refuses when not even one chunk can.
pub fn chunked_percentile(
    samples: &[f64],
    p: f64,
    max_chunks: usize,
) -> Result<Percentile, String> {
    let n = samples.len();
    let chunks = (n / min_samples(p)).min(max_chunks);
    if chunks <= 1 {
        return percentile(samples, p);
    }
    let mut values = Vec::with_capacity(chunks);
    let mut beyond = usize::MAX;
    for i in 0..chunks {
        let chunk = percentile(&samples[i * n / chunks..(i + 1) * n / chunks], p)?;
        values.push(chunk.value);
        beyond = beyond.min(chunk.beyond);
    }
    let (value, across) = if p == 50.0 {
        (mean(&values), "mean")
    } else {
        (median(&values), "median")
    };
    Ok(Percentile {
        value: value.expect("at least two chunks"),
        samples: n,
        beyond,
        chunks,
        across,
    })
}

/// The median (mean of the two middle values for an even count), or `None`
/// for an empty sample.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// The mean of the middle half of the sample (the interquartile mean), or
/// `None` for an empty sample. Unlike the median it does not jump between
/// the modes of a two-mode sample, and unlike the mean it ignores a stray
/// outlier.
pub fn interquartile_mean(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quarter = sorted.len() / 4;
    mean(&sorted[quarter..sorted.len() - quarter])
}

/// The arithmetic mean, or `None` for an empty sample.
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        None
    } else {
        Some(samples.iter().sum::<f64>() / samples.len() as f64)
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the helper has to sort.
        (0..n).map(|i| ((i * 7919) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs = ramp(1000);
        let p50 = percentile(&xs, 50.0).unwrap();
        assert_eq!(p50.value, 500.0);
        assert_eq!(p50.samples, 1000);
        assert_eq!(p50.beyond, 500);
        let p99 = percentile(&xs, 99.0).unwrap();
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.beyond, 10);
    }

    #[test]
    fn refuses_percentiles_without_ten_samples_beyond() {
        // 999 samples put only 9 beyond p99: the floor refuses it.
        let err = percentile(&ramp(999), 99.0).unwrap_err();
        assert!(err.contains("9 beyond"), "{err}");
        // The same sample still supports p90.
        assert_eq!(percentile(&ramp(999), 90.0).unwrap().beyond, 99);
        assert!(percentile(&[], 50.0).is_err());
        // 20 samples support p50 (10 beyond) but not p60 (8 beyond).
        assert_eq!(percentile(&ramp(20), 50.0).unwrap().value, 10.0);
        assert!(percentile(&ramp(20), 60.0).is_err());
    }

    #[test]
    fn chunk_floor_sizes() {
        assert_eq!(min_samples(50.0), 20);
        assert_eq!(min_samples(90.0), 100);
        assert_eq!(min_samples(99.0), 1000);
    }

    #[test]
    fn chunked_percentile_is_the_median_of_chunk_percentiles() {
        // Three chunks of 1000; the middle one is disturbed (every value
        // +1000). Each chunk's p99 is its 990th value.
        let mut xs = ramp(1000);
        xs.extend(ramp(1000).iter().map(|x| x + 1000.0));
        xs.extend(ramp(1000).iter().map(|x| x + 1.0));
        let p = chunked_percentile(&xs, 99.0, 15).unwrap();
        assert_eq!((p.chunks, p.samples, p.beyond), (3, 3000, 10));
        assert_eq!(p.value, 991.0);
        // Capped chunk count, and the plain percentile below two chunks.
        assert_eq!(chunked_percentile(&xs, 50.0, 4).unwrap().chunks, 4);
        let single = chunked_percentile(&ramp(1500), 99.0, 15).unwrap();
        assert_eq!((single.chunks, single.value), (1, 1485.0));
        assert!(chunked_percentile(&ramp(999), 99.0, 15).is_err());
    }

    #[test]
    fn chunked_median_is_the_mean_of_chunk_medians() {
        // Four chunks of 100, the first one to three at a slow level (every
        // value doubled): each chunk's p50 is 50 or 100, its p90 90 or 180.
        let fast = ramp(100);
        let slow: Vec<f64> = fast.iter().map(|x| x * 2.0).collect();
        let run = |slow_chunks: usize| {
            let mut xs = Vec::new();
            for i in 0..4 {
                xs.extend(if i < slow_chunks { &slow } else { &fast });
            }
            xs
        };
        // The median moves by a quarter step per slow chunk...
        let p50 = [1, 2, 3].map(|k| chunked_percentile(&run(k), 50.0, 4).unwrap());
        assert_eq!(p50.map(|p| p.value), [62.5, 75.0, 87.5]);
        assert_eq!(p50[0].across, "mean");
        // ...where a tail percentile, the median over chunks, jumps between
        // the levels.
        let p90 = [1, 3].map(|k| chunked_percentile(&run(k), 90.0, 4).unwrap());
        assert_eq!(p90.map(|p| (p.value, p.chunks)), [(90.0, 4), (180.0, 4)]);
        assert_eq!(p90[0].across, "median");
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        // Nine reopens in two modes plus an outlier: the middle five count.
        let reopens = [80.0, 105.0, 81.0, 104.0, 500.0, 79.0, 106.0, 82.0, 103.0];
        assert_eq!(
            interquartile_mean(&reopens),
            Some((81.0 + 82.0 + 103.0 + 104.0 + 105.0) / 5.0)
        );
        assert_eq!(interquartile_mean(&[2.0, 1.0]), Some(1.5));
        assert_eq!(interquartile_mean(&[]), None);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
