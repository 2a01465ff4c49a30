//! Block-level cross-validation folds that repeat exactly for a seed.
//!
//! This is `uvd_eval::block_folds`' algorithm (whole `B×B` blocks assigned
//! greedily to the fold with the fewest positives) with the blocks
//! enumerated in block-id order. `uvd_eval::block_folds` collects the
//! blocks from a `HashMap` before its seeded shuffle, so its folds change
//! from process to process; a benchmark whose AUC must repeat for a seed
//! cannot use it until that is fixed.

use rand::seq::SliceRandom;
use std::collections::BTreeMap;
use uvd_tensor::seeded_rng;
use uvd_urg::Urg;

/// `k` folds of indices into `urg.labeled`, each sorted. Assumes enough
/// labelled blocks that no fold comes out empty (true of every workload
/// city; checked by the callers' fold-count checks).
pub fn block_folds(urg: &Urg, k: usize, block: usize, seed: u64) -> Vec<Vec<usize>> {
    let blocks_w = urg.width.div_ceil(block);
    let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, &r) in urg.labeled.iter().enumerate() {
        let (x, y) = (r as usize % urg.width, r as usize / urg.width);
        groups
            .entry((y / block) * blocks_w + x / block)
            .or_default()
            .push(i);
    }
    let mut blocks: Vec<Vec<usize>> = groups.into_values().collect();
    blocks.shuffle(&mut seeded_rng(seed));
    let positives = |members: &[usize]| members.iter().filter(|&&i| urg.y[i] > 0.5).count();
    blocks.sort_by_key(|m| std::cmp::Reverse((positives(m), m.len())));
    let mut folds: Vec<Vec<usize>> = vec![Vec::new(); k];
    let mut fold_pos = vec![0usize; k];
    for members in blocks {
        let f = (0..k)
            .min_by_key(|&f| (fold_pos[f], folds[f].len()))
            .expect("k >= 1");
        fold_pos[f] += positives(&members);
        folds[f].extend(members);
    }
    for fold in &mut folds {
        fold.sort_unstable();
    }
    folds
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvd_citysim::{City, CityPreset};
    use uvd_urg::UrgOptions;

    #[test]
    fn folds_repeat_and_partition_the_labelled_set() {
        let city = City::from_config(CityPreset::tiny(), 3);
        let urg = Urg::build(&city, UrgOptions::no_image());
        let a = block_folds(&urg, 3, 4, 9);
        assert_eq!(a, block_folds(&urg, 3, 4, 9), "same seed, same folds");
        let mut all: Vec<usize> = a.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..urg.labeled.len()).collect::<Vec<_>>());
        assert!(a.iter().all(|f| !f.is_empty()));
    }
}
