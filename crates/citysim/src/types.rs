//! Core domain types for the synthetic city: land use, POIs, roads, and the
//! assembled [`City`].

use serde::{Deserialize, Serialize};

/// Side length (pixels) of each region's synthetic satellite image.
pub const IMG_SIZE: usize = 32;
/// Channels of each region image (RGB).
pub const IMG_CHANNELS: usize = 3;
/// Flattened length of one region image.
pub const IMG_LEN: usize = IMG_CHANNELS * IMG_SIZE * IMG_SIZE;
/// Side length in meters of one region grid cell (paper: 128 m × 128 m).
pub const CELL_METERS: f64 = 128.0;

/// Latent land use of a region grid. `UrbanVillage` is the positive class of
/// the detection task; everything else is background urban fabric.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LandUse {
    /// Dense central business district.
    DowntownCore,
    /// Commercial strip / mixed retail.
    Commercial,
    /// Formal residential blocks.
    Residential,
    /// Informal settlement — the positive class.
    UrbanVillage,
    /// Industrial / logistics.
    Industrial,
    /// Low-density periphery.
    Suburb,
    /// Parks and vegetation.
    GreenSpace,
    /// Rivers and lakes.
    Water,
}

impl LandUse {
    pub const ALL: [LandUse; 8] = [
        LandUse::DowntownCore,
        LandUse::Commercial,
        LandUse::Residential,
        LandUse::UrbanVillage,
        LandUse::Industrial,
        LandUse::Suburb,
        LandUse::GreenSpace,
        LandUse::Water,
    ];

    pub fn is_urban_village(self) -> bool {
        self == LandUse::UrbanVillage
    }
}

/// The 23 top-level POI categories used for the category-distribution
/// features (paper Table IV).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum PoiCategory {
    FoodService,
    Hotel,
    ShoppingPlace,
    LifeService,
    BeautyIndustry,
    ScenicSpot,
    LeisureEntertainment,
    SportsFitness,
    Education,
    CulturalMedia,
    Medicine,
    AutoService,
    TransportationFacility,
    FinancialService,
    RealEstate,
    Company,
    GovernmentApparatus,
    EntranceExit,
    TopographicalObject,
    Road,
    Railway,
    Greenland,
    BusRoute,
}

impl PoiCategory {
    pub const COUNT: usize = 23;

    pub fn index(self) -> usize {
        self as usize
    }
}

/// The 15 POI types used for the shortest-distance "POI radius" features
/// (paper Table IV).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum RadiusType {
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
}

impl RadiusType {
    pub const COUNT: usize = 15;

    pub fn index(self) -> usize {
        self as usize
    }
}

/// The 9 facility classes whose joint presence within 1 km defines the
/// binary "index of basic living facility" feature (paper Table IV).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum FacilityClass {
    MedicalService,
    ShoppingPlace,
    SportsVenue,
    EducationService,
    FoodService,
    FinancialService,
    CommunicationService,
    PublicSecurityOrgan,
    TransportationFacility,
}

impl FacilityClass {
    pub const COUNT: usize = 9;

    pub fn index(self) -> usize {
        self as usize
    }
}

/// Fine-grained POI kind ("multi-level categories" in the paper's POI basic
/// property data). Each kind maps to a top-level [`PoiCategory`], optionally
/// to a [`RadiusType`], and optionally to a [`FacilityClass`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum PoiKind {
    Restaurant,
    FastFood,
    Teahouse,
    Hotel,
    Hostel,
    ShoppingMall,
    Supermarket,
    Market,
    Shop,
    Laundry,
    TelecomOffice,
    Housekeeping,
    BeautySalon,
    ScenicSpot,
    Cinema,
    Ktv,
    InternetCafe,
    Gym,
    Stadium,
    School,
    College,
    Kindergarten,
    Library,
    Museum,
    Hospital,
    Clinic,
    Pharmacy,
    GasStation,
    CarRepair,
    Parking,
    BusStop,
    SubwayStation,
    Airport,
    TrainStation,
    CoachStation,
    Bank,
    Atm,
    ResidentialEstate,
    OfficeBuilding,
    Factory,
    GovernmentOffice,
    PoliceStation,
    Gate,
    Hill,
    RoadFacility,
    RailwayFacility,
    Park,
    BusRouteStop,
}

impl PoiKind {
    pub const COUNT: usize = 48;

    pub const ALL: [PoiKind; 48] = [
        PoiKind::Restaurant,
        PoiKind::FastFood,
        PoiKind::Teahouse,
        PoiKind::Hotel,
        PoiKind::Hostel,
        PoiKind::ShoppingMall,
        PoiKind::Supermarket,
        PoiKind::Market,
        PoiKind::Shop,
        PoiKind::Laundry,
        PoiKind::TelecomOffice,
        PoiKind::Housekeeping,
        PoiKind::BeautySalon,
        PoiKind::ScenicSpot,
        PoiKind::Cinema,
        PoiKind::Ktv,
        PoiKind::InternetCafe,
        PoiKind::Gym,
        PoiKind::Stadium,
        PoiKind::School,
        PoiKind::College,
        PoiKind::Kindergarten,
        PoiKind::Library,
        PoiKind::Museum,
        PoiKind::Hospital,
        PoiKind::Clinic,
        PoiKind::Pharmacy,
        PoiKind::GasStation,
        PoiKind::CarRepair,
        PoiKind::Parking,
        PoiKind::BusStop,
        PoiKind::SubwayStation,
        PoiKind::Airport,
        PoiKind::TrainStation,
        PoiKind::CoachStation,
        PoiKind::Bank,
        PoiKind::Atm,
        PoiKind::ResidentialEstate,
        PoiKind::OfficeBuilding,
        PoiKind::Factory,
        PoiKind::GovernmentOffice,
        PoiKind::PoliceStation,
        PoiKind::Gate,
        PoiKind::Hill,
        PoiKind::RoadFacility,
        PoiKind::RailwayFacility,
        PoiKind::Park,
        PoiKind::BusRouteStop,
    ];

    pub fn index(self) -> usize {
        self as usize
    }

    /// Top-level category of this kind.
    pub fn category(self) -> PoiCategory {
        use PoiCategory as C;
        use PoiKind::*;
        match self {
            Restaurant | FastFood | Teahouse => C::FoodService,
            Hotel | Hostel => C::Hotel,
            ShoppingMall | Supermarket | Market | Shop => C::ShoppingPlace,
            Laundry | TelecomOffice | Housekeeping => C::LifeService,
            BeautySalon => C::BeautyIndustry,
            ScenicSpot => C::ScenicSpot,
            Cinema | Ktv | InternetCafe => C::LeisureEntertainment,
            Gym | Stadium => C::SportsFitness,
            School | College | Kindergarten => C::Education,
            Library | Museum => C::CulturalMedia,
            Hospital | Clinic | Pharmacy => C::Medicine,
            GasStation | CarRepair | Parking => C::AutoService,
            BusStop | SubwayStation | Airport | TrainStation | CoachStation => {
                C::TransportationFacility
            }
            Bank | Atm => C::FinancialService,
            ResidentialEstate => C::RealEstate,
            OfficeBuilding | Factory => C::Company,
            GovernmentOffice | PoliceStation => C::GovernmentApparatus,
            Gate => C::EntranceExit,
            Hill => C::TopographicalObject,
            RoadFacility => C::Road,
            RailwayFacility => C::Railway,
            Park => C::Greenland,
            BusRouteStop => C::BusRoute,
        }
    }

    /// Radius feature type of this kind, if any.
    pub fn radius_type(self) -> Option<RadiusType> {
        use PoiKind::*;
        use RadiusType as R;
        Some(match self {
            Hospital => R::Hospital,
            Clinic => R::Clinic,
            College => R::College,
            School => R::School,
            BusStop => R::BusStop,
            SubwayStation => R::SubwayStation,
            Airport => R::Airport,
            TrainStation => R::TrainStation,
            CoachStation => R::CoachStation,
            ShoppingMall => R::ShoppingMall,
            Supermarket => R::Supermarket,
            Market => R::Market,
            Shop => R::Shop,
            PoliceStation => R::PoliceStation,
            ScenicSpot => R::ScenicSpot,
            _ => return None,
        })
    }

    /// Basic-living-facility class of this kind, if any.
    pub fn facility_class(self) -> Option<FacilityClass> {
        use FacilityClass as F;
        use PoiKind::*;
        Some(match self {
            Hospital | Clinic | Pharmacy => F::MedicalService,
            ShoppingMall | Supermarket | Market | Shop => F::ShoppingPlace,
            Gym | Stadium => F::SportsVenue,
            School | College | Kindergarten => F::EducationService,
            Restaurant | FastFood => F::FoodService,
            Bank | Atm => F::FinancialService,
            TelecomOffice => F::CommunicationService,
            PoliceStation => F::PublicSecurityOrgan,
            BusStop | SubwayStation | TrainStation | CoachStation => F::TransportationFacility,
            _ => return None,
        })
    }
}

/// Observable generation profile of a region. Distinct from [`LandUse`]
/// (which carries the ground-truth label): several profiles deliberately
/// overlap across the label boundary so the detection task has irreducible
/// feature ambiguity, and urban villages split into two archetypes so a
/// single global model cannot fit both (the "diverse urban patterns"
/// challenge of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RegionProfile {
    Downtown,
    Commercial,
    Residential,
    /// Aging formal housing: POI mix and appearance *between* residential
    /// and urban village — the main source of false positives.
    OldResidential,
    /// Inner-city urban village: extremely dense small commerce and housing.
    UvInner,
    /// Peripheral urban village: sparse services, workshop mix — reads like
    /// suburb/industrial to feature-only models.
    UvOuter,
    Industrial,
    Suburb,
    Green,
    Water,
}

/// A Point of Interest with its kind and location in meters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Poi {
    pub kind: PoiKind,
    /// East coordinate in meters.
    pub x: f64,
    /// North coordinate in meters.
    pub y: f64,
}

impl Poi {
    /// Region grid cell containing this POI.
    pub fn region(&self, width: usize) -> usize {
        let gx = (self.x / CELL_METERS) as usize;
        let gy = (self.y / CELL_METERS) as usize;
        gy * width + gx
    }
}

/// Road network: intersections (nodes, geolocated in meters) and undirected
/// road segments (edges). Mirrors the protocol of Karduni et al. [34].
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RoadNetwork {
    /// Intersection coordinates in meters.
    pub nodes: Vec<(f64, f64)>,
    /// Undirected road segments between intersections.
    pub edges: Vec<(u32, u32)>,
}

impl RoadNetwork {
    /// Region grid cell containing intersection `i`.
    pub fn node_region(&self, i: usize, width: usize) -> usize {
        let (x, y) = self.nodes[i];
        let gx = (x / CELL_METERS) as usize;
        let gy = (y / CELL_METERS) as usize;
        gy * width + gx
    }

    /// Adjacency list over intersections.
    pub fn adjacency(&self) -> Vec<Vec<u32>> {
        let mut adj = vec![Vec::new(); self.nodes.len()];
        for &(a, b) in &self.edges {
            adj[a as usize].push(b);
            adj[b as usize].push(a);
        }
        adj
    }
}

/// Survey outcome: the labeled subset of regions. Ground truth for all
/// regions remains in [`City::land_use`]; these are the labels a detector may
/// train on (paper Section VI-A "ground-truth collection").
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct SurveyLabels {
    /// Region ids labeled as urban villages.
    pub uv_regions: Vec<u32>,
    /// Region ids labeled as non-urban-villages.
    pub non_uv_regions: Vec<u32>,
}

impl SurveyLabels {
    pub fn num_labeled(&self) -> usize {
        self.uv_regions.len() + self.non_uv_regions.len()
    }
}

/// A fully generated synthetic city.
#[derive(Clone, Debug)]
pub struct City {
    pub height: usize,
    pub width: usize,
    /// Latent land use per region (row-major, `height*width`) — the ground
    /// truth labels derive from this.
    pub land_use: Vec<LandUse>,
    /// Observable generation profile per region — POIs and imagery derive
    /// from this (see [`RegionProfile`]).
    pub profiles: Vec<RegionProfile>,
    /// All POIs in the city.
    pub pois: Vec<Poi>,
    pub roads: RoadNetwork,
    /// Flattened region images, `n_regions * IMG_LEN`, values in [0, 1].
    pub images: Vec<f32>,
    pub labels: SurveyLabels,
    /// Seed used for generation (for reproducibility records).
    pub seed: u64,
    /// Human-readable preset name.
    pub name: String,
}

impl City {
    pub fn n_regions(&self) -> usize {
        self.height * self.width
    }

    /// Grid coordinates of a region id.
    pub fn region_xy(&self, r: usize) -> (usize, usize) {
        (r % self.width, r / self.width)
    }

    /// Region id from grid coordinates.
    pub fn region_at(&self, x: usize, y: usize) -> usize {
        y * self.width + x
    }

    /// Center of a region in meters.
    pub fn region_center(&self, r: usize) -> (f64, f64) {
        let (x, y) = self.region_xy(r);
        (
            (x as f64 + 0.5) * CELL_METERS,
            (y as f64 + 0.5) * CELL_METERS,
        )
    }

    /// True iff the region's latent land use is an urban village.
    pub fn is_uv(&self, r: usize) -> bool {
        self.land_use[r].is_urban_village()
    }

    /// Total number of true urban-village regions in the city.
    pub fn n_true_uvs(&self) -> usize {
        self.land_use
            .iter()
            .filter(|l| l.is_urban_village())
            .count()
    }

    /// Image of region `r` as a flat `[f32; IMG_LEN]` slice.
    pub fn image(&self, r: usize) -> &[f32] {
        &self.images[r * IMG_LEN..(r + 1) * IMG_LEN]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poi_kind_mappings_cover_all_categories() {
        let mut seen = [false; PoiCategory::COUNT];
        for k in PoiKind::ALL {
            seen[k.category().index()] = true;
        }
        assert!(seen.iter().all(|&s| s), "every category must have a kind");
    }

    #[test]
    fn poi_kind_mappings_cover_all_radius_types() {
        let mut seen = [false; RadiusType::COUNT];
        for k in PoiKind::ALL {
            if let Some(r) = k.radius_type() {
                seen[r.index()] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn poi_kind_mappings_cover_all_facility_classes() {
        let mut seen = [false; FacilityClass::COUNT];
        for k in PoiKind::ALL {
            if let Some(f) = k.facility_class() {
                seen[f.index()] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn poi_region_assignment() {
        let p = Poi {
            kind: PoiKind::Restaurant,
            x: 130.0,
            y: 260.0,
        };
        // x in cell 1, y in cell 2 of a width-10 grid -> region 21.
        assert_eq!(p.region(10), 21);
    }

    #[test]
    fn all_kinds_distinct_indices() {
        let mut idx: Vec<usize> = PoiKind::ALL.iter().map(|k| k.index()).collect();
        idx.sort_unstable();
        idx.dedup();
        assert_eq!(idx.len(), PoiKind::COUNT);
    }
}
