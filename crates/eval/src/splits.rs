//! Coarse block-level cross-validation splits (paper Section VI-A): to avoid
//! information leakage between spatially adjacent grids, every `B×B` block of
//! regions is treated as an atomic unit and whole blocks are assigned to
//! folds. Fold assignment greedily balances positive and total label counts.

use rand::seq::SliceRandom;
use rand::Rng;
use uvd_tensor::{seeded_rng, Rng64};
use uvd_urg::Urg;

/// Block side in regions (paper: 10×10 at 93k-region scale; 8×8 here).
pub const DEFAULT_BLOCK: usize = 8;

/// Assign each labeled sample (index into `urg.labeled`) to one of `k` folds
/// at block granularity. Returns `folds[f]` = labeled-sample indices of fold
/// `f`. Every returned fold is non-empty and (when possible) contains
/// positives: when the labeled blocks are fewer than `k` (e.g. one oversized
/// block swallows the whole city), `k` is clamped to the labeled-sample
/// count and any fold left empty by block-atomic assignment is filled by
/// splitting the largest fold — block atomicity is sacrificed only in that
/// degenerate case, never when enough blocks exist.
pub fn block_folds(urg: &Urg, k: usize, block: usize, seed: u64) -> Vec<Vec<usize>> {
    assert!(k >= 2, "need at least 2 folds");
    // Never ask for more folds than there are labeled samples.
    let n_labeled = urg.labeled.len();
    let k = k.min(n_labeled).max(2);
    let blocks_w = urg.width.div_ceil(block);
    let block_of = |region: u32| -> usize {
        let x = region as usize % urg.width;
        let y = region as usize / urg.width;
        (y / block) * blocks_w + (x / block)
    };

    // Group labeled samples by block, in block order: the seeded shuffle
    // below must start from the same sequence on every call.
    let mut groups: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for (i, &r) in urg.labeled.iter().enumerate() {
        groups.entry(block_of(r)).or_default().push(i);
    }
    let mut blocks: Vec<(usize, Vec<usize>)> = groups.into_iter().collect();
    // Shuffle for randomness, then order by positive count (desc) so the
    // greedy balancer distributes positives first.
    let mut rng = seeded_rng(seed);
    blocks.shuffle(&mut rng);
    let pos_count = |members: &[usize]| members.iter().filter(|&&i| urg.y[i] > 0.5).count();
    blocks.sort_by_key(|(_, members)| std::cmp::Reverse((pos_count(members), members.len())));

    let mut folds: Vec<Vec<usize>> = vec![Vec::new(); k];
    let mut fold_pos = vec![0usize; k];
    for (_, members) in blocks {
        // Assign to the fold with fewest positives, tie-broken by size.
        let f = (0..k)
            .min_by_key(|&f| (fold_pos[f], folds[f].len()))
            .expect("k >= 2");
        fold_pos[f] += pos_count(&members);
        folds[f].extend(members);
    }

    // Degenerate rebalance: with fewer labeled blocks than folds, some folds
    // come out empty (and would produce empty test splits downstream). Move
    // half of the largest fold into each empty one.
    while folds.iter().any(Vec::is_empty) {
        let (largest, _) = folds
            .iter()
            .enumerate()
            .max_by_key(|(_, f)| f.len())
            .expect("k >= 2");
        if folds[largest].len() < 2 {
            // Cannot split further (fewer labeled samples than folds even
            // after clamping — unreachable, but avoid looping forever).
            break;
        }
        let empty = folds
            .iter()
            .position(Vec::is_empty)
            .expect("an empty fold exists");
        let len = folds[largest].len();
        let moved = folds[largest].split_off(len - len / 2);
        folds[empty] = moved;
    }

    for fold in &mut folds {
        fold.sort_unstable();
    }
    folds
}

/// Train/test index pairs for k-fold CV from precomputed folds.
pub fn train_test_pairs(folds: &[Vec<usize>]) -> Vec<(Vec<usize>, Vec<usize>)> {
    (0..folds.len())
        .map(|f| {
            let test = folds[f].clone();
            let train: Vec<usize> = folds
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != f)
                .flat_map(|(_, v)| v.iter().copied())
                .collect();
            (train, test)
        })
        .collect()
}

/// Random mask keeping `ratio` of the training indices (Figure 6(c)):
/// guarantees at least one positive and one negative survive when present.
pub fn mask_ratio(urg: &Urg, train_idx: &[usize], ratio: f64, rng: &mut Rng64) -> Vec<usize> {
    let mut kept: Vec<usize> = train_idx
        .iter()
        .copied()
        .filter(|_| rng.gen::<f64>() < ratio)
        .collect();
    let has = |v: &[usize], positive: bool| v.iter().any(|&i| (urg.y[i] > 0.5) == positive);
    for positive in [true, false] {
        if !has(&kept, positive) {
            if let Some(&i) = train_idx.iter().find(|&&i| (urg.y[i] > 0.5) == positive) {
                kept.push(i);
            }
        }
    }
    kept.sort_unstable();
    kept.dedup();
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvd_citysim::{City, CityPreset};
    use uvd_urg::UrgOptions;

    fn urg(seed: u64) -> Urg {
        let city = City::from_config(CityPreset::tiny(), seed);
        Urg::build(&city, UrgOptions::no_image())
    }

    #[test]
    fn folds_partition_labeled_set() {
        let u = urg(1);
        let folds = block_folds(&u, 3, 4, 7);
        let mut all: Vec<usize> = folds.iter().flatten().copied().collect();
        all.sort_unstable();
        let expect: Vec<usize> = (0..u.labeled.len()).collect();
        assert_eq!(all, expect, "folds must partition the labeled set");
    }

    #[test]
    fn folds_do_not_split_blocks() {
        let u = urg(2);
        let block = 4;
        let folds = block_folds(&u, 3, block, 3);
        let blocks_w = u.width.div_ceil(block);
        let block_of = |region: u32| {
            let x = region as usize % u.width;
            let y = region as usize / u.width;
            (y / block) * blocks_w + (x / block)
        };
        // A block's samples must all live in one fold.
        let mut owner: std::collections::HashMap<usize, usize> = Default::default();
        for (f, fold) in folds.iter().enumerate() {
            for &i in fold {
                let b = block_of(u.labeled[i]);
                if let Some(&prev) = owner.get(&b) {
                    assert_eq!(prev, f, "block {b} split across folds");
                } else {
                    owner.insert(b, f);
                }
            }
        }
    }

    #[test]
    fn folds_repeat_for_a_seed() {
        // Small blocks give many blocks with equal (positives, size) keys,
        // whose relative order only the seeded shuffle may decide.
        let u = urg(8);
        for block in [2, 4] {
            for seed in 0..10 {
                assert_eq!(
                    block_folds(&u, 5, block, seed),
                    block_folds(&u, 5, block, seed),
                    "block {block} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn folds_balance_positives() {
        let u = urg(3);
        let folds = block_folds(&u, 3, 4, 11);
        let pos: Vec<usize> = folds
            .iter()
            .map(|f| f.iter().filter(|&&i| u.y[i] > 0.5).count())
            .collect();
        let max = *pos.iter().max().expect("3 folds");
        let min = *pos.iter().min().expect("3 folds");
        // Block granularity limits balance; allow slack but forbid
        // a fold with no positives when there are plenty.
        assert!(min > 0, "every fold should hold positives: {pos:?}");
        assert!(max - min <= u.y.iter().filter(|&&v| v > 0.5).count() / 2);
    }

    #[test]
    fn oversized_block_still_yields_nonempty_folds() {
        // Regression: a block size covering the whole city collapses every
        // labeled sample into one block; the greedy assigner used to leave
        // k-1 folds empty (and downstream test splits empty with them).
        let u = urg(6);
        let huge = u.width.max(u.n / u.width) * 2;
        for k in [2, 3, 5] {
            let folds = block_folds(&u, k, huge, 7);
            assert_eq!(folds.len(), k);
            assert!(
                folds.iter().all(|f| !f.is_empty()),
                "k={k}: every fold must be non-empty, got sizes {:?}",
                folds.iter().map(Vec::len).collect::<Vec<_>>()
            );
            // Still a partition of the labeled set.
            let mut all: Vec<usize> = folds.iter().flatten().copied().collect();
            all.sort_unstable();
            let expect: Vec<usize> = (0..u.labeled.len()).collect();
            assert_eq!(all, expect);
        }
    }

    #[test]
    fn more_folds_than_labeled_samples_clamps() {
        let u = urg(7);
        // Ask for far more folds than labeled samples; the clamp keeps the
        // split well-defined instead of producing empty test folds.
        let folds = block_folds(&u, u.labeled.len() + 10, 4, 3);
        assert_eq!(folds.len(), u.labeled.len());
        assert!(folds.iter().all(|f| !f.is_empty()));
    }

    #[test]
    fn train_test_pairs_are_complementary() {
        let u = urg(4);
        let folds = block_folds(&u, 3, 4, 5);
        for (train, test) in train_test_pairs(&folds) {
            assert_eq!(train.len() + test.len(), u.labeled.len());
            let t: std::collections::HashSet<_> = test.iter().collect();
            assert!(train.iter().all(|i| !t.contains(i)));
        }
    }

    #[test]
    fn mask_ratio_reduces_and_keeps_classes() {
        let u = urg(5);
        let train: Vec<usize> = (0..u.labeled.len()).collect();
        let mut rng = seeded_rng(9);
        let kept = mask_ratio(&u, &train, 0.25, &mut rng);
        assert!(kept.len() < train.len());
        assert!(kept.iter().any(|&i| u.y[i] > 0.5));
        assert!(kept.iter().any(|&i| u.y[i] < 0.5));
        // Deterministic given the RNG state.
        let mut rng2 = seeded_rng(9);
        assert_eq!(kept, mask_ratio(&u, &train, 0.25, &mut rng2));
    }
}
