//! POI feature construction (paper Section IV-B and Table IV).
//!
//! The full POI feature vector has 64 dimensions:
//!
//! | slice    | content                                                    |
//! |----------|------------------------------------------------------------|
//! | `0..23`  | category distribution inside the region (proportions)      |
//! | `23`     | total POI count in the region (log-normalized)              |
//! | `24..47` | category distribution over the surrounding 3×3 grids        |
//! | `47`     | total POI count over the 3×3 grids (log-normalized)         |
//! | `48..63` | 15 POI-radius features, bucketized (<0.5 / 0.5–1.5 / 1.5–3 / >3 km) |
//! | `63`     | index of basic living facility (all 9 classes within 1 km)  |
//!
//! Feature groups can be ablated independently (Figure 5(b) variants
//! `noCate`, `noRad`, `noIndex`).

use uvd_citysim::{City, FacilityClass, PoiCategory, RadiusType, CELL_METERS};
use uvd_tensor::{par, Matrix};

/// Estimated scalar ops of one region's POI feature row — the per-row work
/// estimate fed to the parallel dispatch threshold. The row is 15 + 9
/// count-pruned nearest-POI searches, each a few summed-area lookups plus
/// the POIs of its first few rings (~24 × 150 ops), and the 48-dim category
/// block (~500 ops). That matches the ~4 µs per row measured on one core of
/// a 2-vCPU x86-64 VM over a 50k-region city, and puts the parallel cut-off
/// at a few dozen rows, far below a tile.
const POI_ROW_WORK: usize = 4_000;

/// Which POI feature groups to include.
#[derive(Clone, Copy, Debug)]
pub struct PoiFeatureOptions {
    /// Category distribution + counts (48 dims).
    pub cate: bool,
    /// POI radius buckets (15 dims).
    pub radius: bool,
    /// Basic-living-facility index (1 dim).
    pub facility: bool,
}

impl Default for PoiFeatureOptions {
    fn default() -> Self {
        PoiFeatureOptions {
            cate: true,
            radius: true,
            facility: true,
        }
    }
}

impl PoiFeatureOptions {
    /// Output dimensionality under these options.
    pub fn dim(&self) -> usize {
        (if self.cate { 48 } else { 0 })
            + (if self.radius { RadiusType::COUNT } else { 0 })
            + (if self.facility { 1 } else { 0 })
    }
}

/// Spatial index over the city's POIs, bucketed per region, supporting the
/// bounded nearest-POI queries that the radius/facility features need.
pub struct PoiSpatialIndex {
    width: usize,
    height: usize,
    /// One layer per radius type (`0..15`), then one per facility class
    /// (`15..24`).
    layers: Vec<PoiLayer>,
    /// Per region: POI count per top-level category.
    category_counts: Vec<[f32; PoiCategory::COUNT]>,
    /// City-wide normalizer of the count features: the largest per-region
    /// POI total, at least 1.
    max_count: f32,
}

/// The POIs of one radius type or facility class, bucketed by region.
struct PoiLayer {
    /// CSR offsets (`n + 1` entries): region `r`'s POIs are
    /// `points[offsets[r]..offsets[r + 1]]`. Regions are row-major, so a
    /// horizontal run of cells is one contiguous slice of `points`.
    offsets: Vec<u32>,
    /// POI positions (meters), grouped by region.
    points: Vec<(f64, f64)>,
    /// Summed-area table of per-cell counts, `(w + 1) × (h + 1)` row-major:
    /// entry `(x, y)` counts the POIs in cells `[0, x) × [0, y)`.
    sat: Vec<u32>,
}

impl PoiLayer {
    /// POIs in the cell rectangle `[x0, x1) × [y0, y1)` (`w` = grid width).
    fn count(&self, w: usize, x0: usize, y0: usize, x1: usize, y1: usize) -> u32 {
        // POIs in cells `[x0, x1) × [0, y)`.
        let strip = |y: usize| self.sat[y * (w + 1) + x1] - self.sat[y * (w + 1) + x0];
        strip(y1) - strip(y0)
    }

    /// POIs of the cell run `x0..=x1` on row `y`.
    fn row_run(&self, w: usize, y: usize, x0: usize, x1: usize) -> &[(f64, f64)] {
        let (a, b) = (y * w + x0, y * w + x1 + 1);
        &self.points[self.offsets[a] as usize..self.offsets[b] as usize]
    }
}

/// Lower `best` to the distance from `(px, py)` to the nearest of `points`.
fn scan_min(points: &[(f64, f64)], px: f64, py: f64, best: &mut f64) {
    for &(x, y) in points {
        let d = ((x - px).powi(2) + (y - py).powi(2)).sqrt();
        if d < *best {
            *best = d;
        }
    }
}

impl PoiSpatialIndex {
    pub fn build(city: &City) -> Self {
        Self::from_parts(city.width, city.height, &city.pois)
    }

    /// As [`PoiSpatialIndex::build`] but from the POI list and grid
    /// dimensions alone — usable on the streaming path where no monolithic
    /// [`City`] ever exists.
    pub fn from_parts(width: usize, height: usize, pois: &[uvd_citysim::Poi]) -> Self {
        let n = width * height;
        let n_layers = RadiusType::COUNT + FacilityClass::COUNT;
        let layers_of = |p: &uvd_citysim::Poi| {
            let rt = p.kind.radius_type().map(|rt| rt.index());
            let fc = p
                .kind
                .facility_class()
                .map(|fc| RadiusType::COUNT + fc.index());
            rt.into_iter().chain(fc)
        };
        let mut category_counts = vec![[0.0f32; PoiCategory::COUNT]; n];
        // Counting sort into CSR: per-region counts, prefix sums, then fill
        // (POIs keep their input order within a region).
        let mut offsets = vec![vec![0u32; n + 1]; n_layers];
        for p in pois {
            let r = p.region(width);
            category_counts[r][p.kind.category().index()] += 1.0;
            for l in layers_of(p) {
                offsets[l][r + 1] += 1;
            }
        }
        for off in &mut offsets {
            for r in 0..n {
                off[r + 1] += off[r];
            }
        }
        let mut points: Vec<Vec<(f64, f64)>> = offsets
            .iter()
            .map(|off| vec![(0.0, 0.0); off[n] as usize])
            .collect();
        let mut cursor: Vec<Vec<u32>> = offsets.iter().map(|off| off[..n].to_vec()).collect();
        for p in pois {
            let r = p.region(width);
            for l in layers_of(p) {
                points[l][cursor[l][r] as usize] = (p.x, p.y);
                cursor[l][r] += 1;
            }
        }
        let layers = offsets
            .into_iter()
            .zip(points)
            .map(|(offsets, points)| {
                let mut sat = vec![0u32; (width + 1) * (height + 1)];
                for y in 0..height {
                    let mut row_sum = 0u32;
                    for x in 0..width {
                        let r = y * width + x;
                        row_sum += offsets[r + 1] - offsets[r];
                        sat[(y + 1) * (width + 1) + x + 1] = sat[y * (width + 1) + x + 1] + row_sum;
                    }
                }
                PoiLayer {
                    offsets,
                    points,
                    sat,
                }
            })
            .collect();
        let max_count = category_counts
            .iter()
            .map(|c| c.iter().sum::<f32>())
            .fold(0.0f32, f32::max)
            .max(1.0);
        PoiSpatialIndex {
            width,
            height,
            layers,
            category_counts,
            max_count,
        }
    }

    /// Per-region category count table.
    pub fn category_counts(&self) -> &[[f32; PoiCategory::COUNT]] {
        &self.category_counts
    }

    /// Distance in meters from the center of `region` to the nearest POI of
    /// the given radius type, capped at `cap_m` (returns `None` if nothing is
    /// within the cap).
    pub fn nearest_radius_poi(&self, region: usize, rt: RadiusType, cap_m: f64) -> Option<f64> {
        self.nearest_in(&self.layers[rt.index()], region, cap_m)
    }

    /// Nearest facility of a class, capped.
    pub fn nearest_facility(&self, region: usize, fc: FacilityClass, cap_m: f64) -> Option<f64> {
        self.nearest_in(&self.layers[RadiusType::COUNT + fc.index()], region, cap_m)
    }

    /// Count-pruned expanding ring search over region cells. Exact nearest
    /// distance as long as it is below the cap.
    ///
    /// The rings, their order and the early break are those of a plain ring
    /// walk out to the cap box; the summed-area table only skips work that
    /// cannot change the answer — an empty cap box, empty rings and sides,
    /// and every ring after the last POI of the cap box has been scanned.
    /// The scanned points are the same, each distance is computed by the
    /// same expression, and a minimum does not depend on visit order, so the
    /// result is bit-identical to the exhaustive walk.
    fn nearest_in(&self, layer: &PoiLayer, region: usize, cap_m: f64) -> Option<f64> {
        let (w, h) = (self.width, self.height);
        let (cx, cy) = (region % w, region / w);
        let (px, py) = (
            (cx as f64 + 0.5) * CELL_METERS,
            (cy as f64 + 0.5) * CELL_METERS,
        );
        let max_ring = (cap_m / CELL_METERS).ceil() as usize + 1;
        // Cells at Chebyshev distance <= ring, clipped to the grid, as the
        // half-open rectangle `[x0, x1) × [y0, y1)`.
        let square = |ring: usize| {
            (
                cx.saturating_sub(ring),
                cy.saturating_sub(ring),
                (cx + ring + 1).min(w),
                (cy + ring + 1).min(h),
            )
        };
        let total = {
            let (x0, y0, x1, y1) = square(max_ring);
            layer.count(w, x0, y0, x1, y1)
        };
        let mut best = f64::INFINITY;
        // POIs inside the squares scanned so far.
        let mut seen = 0u32;
        for ring in 0..=max_ring {
            // Cells in this ring cannot contain anything closer than
            // (ring-1) cells away; stop once the current best beats that.
            let ring_floor = ring.saturating_sub(1) as f64 * CELL_METERS;
            if best <= ring_floor || seen == total {
                break;
            }
            let (x0, y0, x1, y1) = square(ring);
            let inside = layer.count(w, x0, y0, x1, y1);
            if inside == seen {
                continue; // empty ring
            }
            seen = inside;
            if ring == 0 {
                scan_min(layer.row_run(w, cy, cx, cx), px, py, &mut best);
                continue;
            }
            // Top and bottom rows of the ring are contiguous runs of cells.
            if ring <= cy {
                scan_min(layer.row_run(w, cy - ring, x0, x1 - 1), px, py, &mut best);
            }
            if cy + ring < h {
                scan_min(layer.row_run(w, cy + ring, x0, x1 - 1), px, py, &mut best);
            }
            // Left and right columns, strictly between those rows.
            let (ya, yb) = (cy.saturating_sub(ring - 1), (cy + ring).min(h));
            let columns = [cx.checked_sub(ring), Some(cx + ring).filter(|&x| x < w)];
            for x in columns.into_iter().flatten() {
                if layer.count(w, x, ya, x + 1, yb) == 0 {
                    continue;
                }
                for y in ya..yb {
                    scan_min(layer.row_run(w, y, x, x), px, py, &mut best);
                }
            }
        }
        if best <= cap_m {
            Some(best)
        } else {
            None
        }
    }
}

/// Bucketize a radius distance per the paper: `<0.5 km`, `0.5–1.5 km`,
/// `1.5–3 km`, `>3 km` → `{0, 1, 2, 3}`.
pub fn radius_bucket(dist_m: Option<f64>) -> u8 {
    match dist_m {
        Some(d) if d < 500.0 => 0,
        Some(d) if d < 1500.0 => 1,
        Some(d) if d < 3000.0 => 2,
        _ => 3,
    }
}

/// Build the POI feature matrix (`n_regions × opts.dim()`).
pub fn poi_features(city: &City, opts: PoiFeatureOptions) -> Matrix {
    let index = PoiSpatialIndex::build(city);
    poi_features_with_index(city, &index, opts)
}

/// As [`poi_features`] but reusing a prebuilt spatial index.
pub fn poi_features_with_index(
    city: &City,
    index: &PoiSpatialIndex,
    opts: PoiFeatureOptions,
) -> Matrix {
    poi_features_rows(index, opts, 0..city.n_regions())
}

/// Compute the POI feature rows for a contiguous region range against a
/// prebuilt (full-city) spatial index. Each region's features depend only
/// on the index (including its city-wide count normalizer), so a row block
/// is bitwise identical to the same rows of the full matrix — the tile
/// builder relies on this, and it is also what makes the row loop safe to
/// partition across threads (each worker writes disjoint rows from shared
/// read-only state; no accumulation order exists to perturb).
pub fn poi_features_rows(
    index: &PoiSpatialIndex,
    opts: PoiFeatureOptions,
    regions: std::ops::Range<usize>,
) -> Matrix {
    let mut out = Matrix::zeros(regions.len(), opts.dim());
    poi_features_into(index, opts, regions.start, out.as_mut_slice());
    out
}

/// As [`poi_features_rows`], written into `out`: the row-major feature
/// rows of regions `start..start + out.len() / opts.dim()`.
pub(crate) fn poi_features_into(
    index: &PoiSpatialIndex,
    opts: PoiFeatureOptions,
    start: usize,
    out: &mut [f32],
) {
    let d = opts.dim();
    if d == 0 || out.is_empty() {
        return;
    }
    let n_rows = out.len() / d;
    par::for_each_row_block(out, d, n_rows * POI_ROW_WORK, |rows, chunk| {
        for (ri, local) in rows.enumerate() {
            poi_feature_row(index, opts, start + local, &mut chunk[ri * d..(ri + 1) * d]);
        }
    });
}

/// One region's feature row, written into `row` (length `opts.dim()`).
fn poi_feature_row(index: &PoiSpatialIndex, opts: PoiFeatureOptions, r: usize, row: &mut [f32]) {
    let (w, h) = (index.width, index.height);
    let counts = index.category_counts();
    let max_count = index.max_count;
    let max_count_9 = max_count * 9.0;
    let mut col = 0usize;
    if opts.cate {
        // Region-level distribution + count.
        let total: f32 = counts[r].iter().sum();
        if total > 0.0 {
            for (i, &c) in counts[r].iter().enumerate() {
                row[col + i] = c / total;
            }
        }
        row[col + PoiCategory::COUNT] = (1.0 + total).ln() / (1.0 + max_count).ln();
        col += PoiCategory::COUNT + 1;

        // 3×3 neighbourhood distribution + count.
        let (cx, cy) = (r % w, r / w);
        let mut nb = [0.0f32; PoiCategory::COUNT];
        for dy in -1i64..=1 {
            for dx in -1i64..=1 {
                let (x, y) = (cx as i64 + dx, cy as i64 + dy);
                if x < 0 || y < 0 || x >= w as i64 || y >= h as i64 {
                    continue;
                }
                let q = y as usize * w + x as usize;
                for (i, &c) in counts[q].iter().enumerate() {
                    nb[i] += c;
                }
            }
        }
        let nb_total: f32 = nb.iter().sum();
        if nb_total > 0.0 {
            for (i, &c) in nb.iter().enumerate() {
                row[col + i] = c / nb_total;
            }
        }
        row[col + PoiCategory::COUNT] = (1.0 + nb_total).ln() / (1.0 + max_count_9).ln();
        col += PoiCategory::COUNT + 1;
    }
    if opts.radius {
        for i in 0..RadiusType::COUNT {
            let rt = radius_type_by_index(i);
            let d = index.nearest_radius_poi(r, rt, 3000.0);
            row[col + i] = radius_bucket(d) as f32 / 3.0;
        }
        col += RadiusType::COUNT;
    }
    if opts.facility {
        let all_within = (0..FacilityClass::COUNT).all(|i| {
            index
                .nearest_facility(r, facility_class_by_index(i), 1000.0)
                .is_some()
        });
        row[col] = if all_within { 1.0 } else { 0.0 };
    }
}

fn radius_type_by_index(i: usize) -> RadiusType {
    use RadiusType::*;
    [
        Hospital,
        Clinic,
        College,
        School,
        BusStop,
        SubwayStation,
        Airport,
        TrainStation,
        CoachStation,
        ShoppingMall,
        Supermarket,
        Market,
        Shop,
        PoliceStation,
        ScenicSpot,
    ][i]
}

fn facility_class_by_index(i: usize) -> FacilityClass {
    use FacilityClass::*;
    [
        MedicalService,
        ShoppingPlace,
        SportsVenue,
        EducationService,
        FoodService,
        FinancialService,
        CommunicationService,
        PublicSecurityOrgan,
        TransportationFacility,
    ][i]
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvd_citysim::CityPreset;

    fn tiny(seed: u64) -> City {
        City::from_config(CityPreset::tiny(), seed)
    }

    #[test]
    fn full_feature_dim_is_64() {
        assert_eq!(PoiFeatureOptions::default().dim(), 64);
    }

    #[test]
    fn ablated_dims() {
        let no_cate = PoiFeatureOptions {
            cate: false,
            ..Default::default()
        };
        assert_eq!(no_cate.dim(), 16);
        let no_rad = PoiFeatureOptions {
            radius: false,
            ..Default::default()
        };
        assert_eq!(no_rad.dim(), 49);
        let no_idx = PoiFeatureOptions {
            facility: false,
            ..Default::default()
        };
        assert_eq!(no_idx.dim(), 63);
    }

    #[test]
    fn category_distribution_sums_to_one_or_zero() {
        let city = tiny(1);
        let x = poi_features(&city, PoiFeatureOptions::default());
        for r in 0..city.n_regions() {
            let s: f32 = x.row(r)[..23].iter().sum();
            assert!(
                s.abs() < 1e-5 || (s - 1.0).abs() < 1e-4,
                "region {r} sum {s}"
            );
        }
    }

    #[test]
    fn features_in_unit_range() {
        let city = tiny(2);
        let x = poi_features(&city, PoiFeatureOptions::default());
        for v in x.as_slice() {
            assert!((0.0..=1.0).contains(v), "feature {v} out of range");
        }
    }

    #[test]
    fn radius_bucket_thresholds() {
        assert_eq!(radius_bucket(Some(100.0)), 0);
        assert_eq!(radius_bucket(Some(500.0)), 1);
        assert_eq!(radius_bucket(Some(1499.0)), 1);
        assert_eq!(radius_bucket(Some(2999.0)), 2);
        assert_eq!(radius_bucket(Some(3000.0)), 3);
        assert_eq!(radius_bucket(None), 3);
    }

    /// One generated POI: kind index, position fractions, placement mode.
    type PoiSpec = (usize, f64, f64, u8);

    /// Place generated POIs on a `w × h` grid. Modes: uniform; on a cell's
    /// lower-left corner (both coordinates on cell borders); exactly 1000 m
    /// or 3000 m from a region center, along an axis or a 3-4-5 diagonal
    /// (so the distance is exact and lands on a cap); clustered in the grid's
    /// first cell. Every POI stays inside the grid.
    fn place_pois(w: usize, h: usize, specs: &[PoiSpec]) -> Vec<uvd_citysim::Poi> {
        let (wm, hm) = (w as f64 * CELL_METERS, h as f64 * CELL_METERS);
        specs
            .iter()
            .map(|&(k, fx, fy, mode)| {
                let kind = uvd_citysim::PoiKind::ALL[k];
                let (mut x, mut y) = (fx * wm, fy * hm);
                match mode {
                    1 => {
                        x = (fx * w as f64).floor() * CELL_METERS;
                        y = (fy * h as f64).floor() * CELL_METERS;
                    }
                    2..=5 => {
                        let (cx, cy) = ((fx * w as f64).floor(), (fy * h as f64).floor());
                        let (px, py) = ((cx + 0.5) * CELL_METERS, (cy + 0.5) * CELL_METERS);
                        let (dx, dy) = [
                            (1000.0, 0.0),
                            (600.0, 800.0),
                            (3000.0, 0.0),
                            (1800.0, 2400.0),
                        ][mode as usize - 2];
                        let flip =
                            |p: f64, d: f64, max: f64| if p + d < max { p + d } else { p - d };
                        let (qx, qy) = (flip(px, dx, wm), flip(py, dy, hm));
                        if (0.0..wm).contains(&qx) && (0.0..hm).contains(&qy) {
                            (x, y) = (qx, qy);
                        }
                    }
                    6 => (x, y) = (fx * CELL_METERS, fy * CELL_METERS),
                    _ => {}
                }
                uvd_citysim::Poi { kind, x, y }
            })
            .collect()
    }

    /// Brute-force capped minimum over the whole POI list, computed with
    /// the search's own distance expression.
    fn brute_nearest(
        pois: &[uvd_citysim::Poi],
        keep: impl Fn(&uvd_citysim::Poi) -> bool,
        (px, py): (f64, f64),
        cap_m: f64,
    ) -> Option<f64> {
        let best = pois
            .iter()
            .filter(|p| keep(p))
            .map(|p| ((p.x - px).powi(2) + (p.y - py).powi(2)).sqrt())
            .fold(f64::INFINITY, f64::min);
        (best <= cap_m).then_some(best)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(40))]

        /// The count-pruned search returns exactly — bit for bit — the
        /// capped brute-force minimum, for every region, every radius type
        /// and facility class, and both caps the features use.
        #[test]
        fn nearest_search_matches_brute_force(
            w in 1usize..40,
            h in 1usize..40,
            specs in proptest::collection::vec(
                (0usize..uvd_citysim::PoiKind::COUNT, 0.0f64..1.0, 0.0f64..1.0, 0u8..8),
                0..300,
            ),
        ) {
            let pois = place_pois(w, h, &specs);
            let index = PoiSpatialIndex::from_parts(w, h, &pois);
            let bits = |d: Option<f64>| d.map(f64::to_bits);
            for r in 0..w * h {
                let center = (
                    ((r % w) as f64 + 0.5) * CELL_METERS,
                    ((r / w) as f64 + 0.5) * CELL_METERS,
                );
                for cap in [1000.0, 3000.0] {
                    for i in 0..RadiusType::COUNT {
                        let rt = radius_type_by_index(i);
                        let brute =
                            brute_nearest(&pois, |p| p.kind.radius_type() == Some(rt), center, cap);
                        let fast = index.nearest_radius_poi(r, rt, cap);
                        proptest::prop_assert_eq!(bits(fast), bits(brute), "{w}x{h} r={r} {rt:?} cap={cap}");
                    }
                    for i in 0..FacilityClass::COUNT {
                        let fc = facility_class_by_index(i);
                        let brute =
                            brute_nearest(&pois, |p| p.kind.facility_class() == Some(fc), center, cap);
                        let fast = index.nearest_facility(r, fc, cap);
                        proptest::prop_assert_eq!(bits(fast), bits(brute), "{w}x{h} r={r} {fc:?} cap={cap}");
                    }
                }
            }
        }
    }

    #[test]
    fn search_hits_exact_cap_and_cell_borders() {
        // A 30×1 strip, long enough to hold a POI 3000 m from region 0.
        let nearest = |x: f64, cap: f64| {
            let shop = uvd_citysim::Poi {
                kind: uvd_citysim::PoiKind::Shop,
                x,
                y: 64.0,
            };
            let index = PoiSpatialIndex::from_parts(30, 1, &[shop]);
            index
                .nearest_radius_poi(0, RadiusType::Shop, cap)
                .map(f64::to_bits)
        };
        // Region 0's center is (64, 64): a POI at x = 3064 is exactly 3000 m
        // away, inside the inclusive cap; the next float out is not.
        assert_eq!(nearest(3064.0, 3000.0), Some(3000.0f64.to_bits()));
        assert_eq!(nearest(3064.0f64.next_up(), 3000.0), None);
        // A POI on the left border of cell 2 belongs to cell 2 and is 192 m
        // from region 0's center.
        assert_eq!(nearest(2.0 * CELL_METERS, 1000.0), Some(192.0f64.to_bits()));
    }

    #[test]
    fn uv_category_profile_differs_from_residential() {
        // The generator plants UVs with a higher share of food-service POIs
        // and a lower share of financial-service POIs than formal
        // residential regions; the category-distribution features should
        // carry that signal (averaged over regions to damp Poisson noise).
        let city = City::from_preset(CityPreset::FuzhouLike, 7);
        let x = poi_features(&city, PoiFeatureOptions::default());
        let food = PoiCategory::FoodService.index();
        let finance = PoiCategory::FinancialService.index();
        let mean_share = |pred: &dyn Fn(usize) -> bool, col: usize| {
            let (mut s, mut c) = (0.0f32, 0usize);
            for r in 0..city.n_regions() {
                if pred(r) {
                    s += x.row(r)[col];
                    c += 1;
                }
            }
            s / c.max(1) as f32
        };
        let is_uv = |r: usize| city.is_uv(r);
        let is_res = |r: usize| city.land_use[r] == uvd_citysim::LandUse::Residential;
        assert!(mean_share(&is_uv, food) > mean_share(&is_res, food));
        assert!(mean_share(&is_uv, finance) < mean_share(&is_res, finance));
    }
}
