//! Evaluation metrics (paper Section VI-C): AUC over the test labels, and
//! Recall / Precision / F1 in the practical top-p% screening setting — the
//! test-fold labeled regions are ranked by predicted probability and the top
//! p% are treated as predicted urban villages.
//!
//! Non-finite scores are a first-class, recoverable outcome: every metric
//! returns a typed [`MetricError`] instead of panicking, and all internal
//! ordering uses `f32::total_cmp`, which is total even over NaN/±inf.

use std::fmt;

/// A typed metric-evaluation failure. Produced instead of a panic so the
/// eval runner can degrade a single (seed, fold) unit and keep going.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricError {
    /// A predicted score was NaN or infinite.
    NonFiniteScore {
        /// Index of the first offending score.
        index: usize,
        /// Total count of non-finite scores in the slice.
        count: usize,
    },
    /// A label was NaN or infinite.
    NonFiniteLabel {
        /// Index of the first offending label.
        index: usize,
    },
    /// `scores` and `labels` have different lengths.
    LengthMismatch { scores: usize, labels: usize },
}

impl fmt::Display for MetricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricError::NonFiniteScore { index, count } => write!(
                f,
                "non-finite score at index {index} ({count} non-finite total)"
            ),
            MetricError::NonFiniteLabel { index } => {
                write!(f, "non-finite label at index {index}")
            }
            MetricError::LengthMismatch { scores, labels } => write!(
                f,
                "scores/labels length mismatch: {scores} scores vs {labels} labels"
            ),
        }
    }
}

impl std::error::Error for MetricError {}

/// Validate a scores/labels pair before ranking. NaN and ±inf scores are
/// data corruption for ranking metrics — they have no meaningful rank.
pub fn check_inputs(scores: &[f32], labels: &[f32]) -> Result<(), MetricError> {
    if scores.len() != labels.len() {
        return Err(MetricError::LengthMismatch {
            scores: scores.len(),
            labels: labels.len(),
        });
    }
    let mut first = None;
    let mut count = 0;
    for (i, s) in scores.iter().enumerate() {
        if !s.is_finite() {
            if first.is_none() {
                first = Some(i);
            }
            count += 1;
        }
    }
    if let Some(index) = first {
        return Err(MetricError::NonFiniteScore { index, count });
    }
    if let Some(index) = labels.iter().position(|y| !y.is_finite()) {
        return Err(MetricError::NonFiniteLabel { index });
    }
    Ok(())
}

/// Precision / recall / F1 triple.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Prf {
    pub precision: f64,
    pub recall: f64,
    pub f1: f64,
}

/// Area under the ROC curve via the rank-sum (Mann–Whitney) formula with
/// average ranks for ties. Returns 0.5 when either class is absent, and a
/// typed [`MetricError`] for non-finite or mismatched inputs.
pub fn auc(scores: &[f32], labels: &[f32]) -> Result<f64, MetricError> {
    check_inputs(scores, labels)?;
    let n_pos = labels.iter().filter(|&&y| y > 0.5).count();
    let n_neg = labels.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return Ok(0.5);
    }
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
    // Average ranks over tie groups (1-based ranks).
    let mut rank_sum_pos = 0.0f64;
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && scores[idx[j + 1]].total_cmp(&scores[idx[i]]).is_eq() {
            j += 1;
        }
        let avg_rank = (i + j + 2) as f64 / 2.0; // 1-based average rank
        for &k in &idx[i..=j] {
            if labels[k] > 0.5 {
                rank_sum_pos += avg_rank;
            }
        }
        i = j + 1;
    }
    Ok((rank_sum_pos - (n_pos * (n_pos + 1)) as f64 / 2.0) / (n_pos * n_neg) as f64)
}

/// Top-p% screening metrics: rank the test items by score, mark the top
/// `ceil(p% * n)` as predicted positives, compare with labels. Non-finite or
/// mismatched inputs yield a typed [`MetricError`].
pub fn prf_at_top_percent(scores: &[f32], labels: &[f32], p: usize) -> Result<Prf, MetricError> {
    check_inputs(scores, labels)?;
    let n = scores.len();
    let n_pos = labels.iter().filter(|&&y| y > 0.5).count();
    if n == 0 || n_pos == 0 {
        return Ok(Prf::default());
    }
    let k = ((n as f64 * p as f64 / 100.0).ceil() as usize).clamp(1, n);
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));
    let hits = idx[..k].iter().filter(|&&i| labels[i] > 0.5).count();
    let precision = hits as f64 / k as f64;
    let recall = hits as f64 / n_pos as f64;
    let f1 = if precision + recall > 0.0 {
        2.0 * precision * recall / (precision + recall)
    } else {
        0.0
    };
    Ok(Prf {
        precision,
        recall,
        f1,
    })
}

/// Mean and sample standard deviation (Bessel's correction, `n - 1`) of a
/// set of per-seed metric values. A single sample has zero deviation.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    if xs.len() < 2 {
        return (mean, 0.0);
    }
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (xs.len() - 1) as f64;
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    // Exact float equality is intended in these tests: they assert
    // exact constants and bit-reproducible results, not tolerances.
    #![allow(clippy::float_cmp)]

    use super::*;

    #[test]
    fn auc_perfect_ranking() {
        let scores = [0.9, 0.8, 0.2, 0.1];
        let labels = [1.0, 1.0, 0.0, 0.0];
        assert!((auc(&scores, &labels).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn auc_inverted_ranking() {
        let scores = [0.1, 0.2, 0.8, 0.9];
        let labels = [1.0, 1.0, 0.0, 0.0];
        assert!(auc(&scores, &labels).unwrap().abs() < 1e-9);
    }

    #[test]
    fn auc_all_ties_is_half() {
        let scores = [0.5, 0.5, 0.5, 0.5];
        let labels = [1.0, 0.0, 1.0, 0.0];
        assert!((auc(&scores, &labels).unwrap() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn auc_single_class_is_half() {
        assert_eq!(auc(&[0.1, 0.9], &[1.0, 1.0]).unwrap(), 0.5);
        assert_eq!(auc(&[0.1, 0.9], &[0.0, 0.0]).unwrap(), 0.5);
    }

    #[test]
    fn auc_matches_pair_counting() {
        // Brute-force pair counting on a small random-ish example.
        let scores = [0.3f32, 0.7, 0.7, 0.1, 0.5, 0.9];
        let labels = [0.0f32, 1.0, 0.0, 0.0, 1.0, 1.0];
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        for i in 0..6 {
            for j in 0..6 {
                if labels[i] > 0.5 && labels[j] < 0.5 {
                    den += 1.0;
                    match scores[i].total_cmp(&scores[j]) {
                        std::cmp::Ordering::Greater => num += 1.0,
                        std::cmp::Ordering::Equal => num += 0.5,
                        std::cmp::Ordering::Less => {}
                    }
                }
            }
        }
        assert!((auc(&scores, &labels).unwrap() - num / den).abs() < 1e-9);
    }

    #[test]
    fn auc_nan_score_is_a_typed_error() {
        let scores = [0.9, f32::NAN, 0.2, f32::INFINITY];
        let labels = [1.0, 1.0, 0.0, 0.0];
        assert_eq!(
            auc(&scores, &labels),
            Err(MetricError::NonFiniteScore { index: 1, count: 2 })
        );
    }

    #[test]
    fn auc_length_mismatch_is_a_typed_error() {
        assert_eq!(
            auc(&[0.1, 0.2], &[1.0]),
            Err(MetricError::LengthMismatch {
                scores: 2,
                labels: 1
            })
        );
    }

    #[test]
    fn auc_nan_label_is_a_typed_error() {
        assert_eq!(
            auc(&[0.1, 0.2], &[1.0, f32::NAN]),
            Err(MetricError::NonFiniteLabel { index: 1 })
        );
    }

    #[test]
    fn prf_top_percent_counts_hits() {
        // 10 items, top 30% = 3 items; 2 of them positive; 4 positives total.
        let scores = [0.95, 0.9, 0.85, 0.5, 0.4, 0.3, 0.2, 0.15, 0.1, 0.05];
        let labels = [1.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let prf = prf_at_top_percent(&scores, &labels, 30).unwrap();
        assert!((prf.precision - 2.0 / 3.0).abs() < 1e-9);
        assert!((prf.recall - 2.0 / 4.0).abs() < 1e-9);
        let expect_f1 = 2.0 * (2.0 / 3.0) * 0.5 / (2.0 / 3.0 + 0.5);
        assert!((prf.f1 - expect_f1).abs() < 1e-9);
    }

    #[test]
    fn prf_at_least_one_predicted() {
        // Tiny test sets still predict at least one region.
        let prf = prf_at_top_percent(&[0.9, 0.1], &[1.0, 0.0], 3).unwrap();
        assert_eq!(prf.precision, 1.0);
        assert_eq!(prf.recall, 1.0);
    }

    #[test]
    fn prf_no_positives_is_zero() {
        let prf = prf_at_top_percent(&[0.9, 0.1], &[0.0, 0.0], 50).unwrap();
        assert_eq!(prf, Prf::default());
    }

    #[test]
    fn prf_nan_score_is_a_typed_error() {
        let r = prf_at_top_percent(&[f32::NEG_INFINITY, 0.1], &[1.0, 0.0], 50);
        assert_eq!(r, Err(MetricError::NonFiniteScore { index: 0, count: 1 }));
    }

    #[test]
    fn mean_std_basic() {
        // Sample (n−1) standard deviation: [1,2,3] → 1.0 exactly.
        let (m, s) = mean_std(&[1.0, 2.0, 3.0]);
        assert!((m - 2.0).abs() < 1e-12);
        assert!((s - 1.0).abs() < 1e-12);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
        // A single sample carries no spread information.
        assert_eq!(mean_std(&[7.0]), (7.0, 0.0));
    }

    #[test]
    fn metric_error_displays() {
        let e = MetricError::NonFiniteScore { index: 3, count: 2 };
        assert!(e.to_string().contains("index 3"));
        assert!(MetricError::NonFiniteLabel { index: 0 }
            .to_string()
            .contains("label"));
    }
}
