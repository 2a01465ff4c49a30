//! # uvd-bench
//!
//! Benchmark harness: one binary per table/figure of the paper's evaluation
//! (Section VI), plus criterion micro-benches validating the complexity
//! analysis of Section V-D. Each binary prints the paper-style rows and
//! writes a JSON record under `results/`.
//!
//! | binary   | reproduces            |
//! |----------|-----------------------|
//! | `table1` | dataset statistics    |
//! | `table2` | detection performance |
//! | `fig5a`  | component ablation    |
//! | `fig5b`  | data ablation         |
//! | `fig6a`  | sensitivity to K      |
//! | `fig6b`  | sensitivity to λ      |
//! | `fig6c`  | label-ratio sweep     |
//! | `table3` | efficiency            |
//! | `fig7`   | case-study maps       |

use std::path::{Path, PathBuf};
use uvd_citysim::CityConfig;
use uvd_eval::{MethodSummary, RunSpec};

/// Where experiment records are written.
pub const RESULTS_DIR: &str = "results";

/// A scaling-family city: same structural densities at every grid side, so
/// curves over `side` isolate region count. Patch/center/nature counts scale
/// with area. Shared by the `scaling` harness (memory/throughput curve) and
/// `perfsnap` (build-path thread sweep) so both tools measure the same city.
pub fn scale_city(side: usize) -> CityConfig {
    let area = side * side;
    CityConfig {
        name: format!("scale-{side}x{side}"),
        height: side,
        width: side,
        n_centers: (area / 40_000 + 1).min(6),
        n_uv_patches: (area / 400).max(8),
        uv_patch_size: (4, 10),
        uv_discovery_rate: 0.85,
        non_uv_label_ratio: 4.0,
        road_spacing: 2,
        road_keep_prob: 0.85,
        poi_density: 0.3,
        n_nature_patches: (area / 10_000).max(2),
    }
}

/// Resolve `name` against the repository root: the nearest ancestor of the
/// current directory whose `Cargo.toml` declares `[workspace]`. It is found
/// at run time, so a binary copied out of one checkout and run in another
/// writes into the checkout it runs in.
///
/// # Panics
///
/// If no ancestor of the current directory holds a workspace manifest.
pub fn repo_root_path(name: &str) -> PathBuf {
    let cwd = std::env::current_dir().expect("current directory is readable");
    workspace_root(&cwd)
        .unwrap_or_else(|| {
            panic!(
                "no Cargo.toml with a [workspace] table in {} or any parent; \
                 run this binary from inside the repository",
                cwd.display()
            )
        })
        .join(name)
}

/// The nearest of `start` and its ancestors whose `Cargo.toml` has a
/// `[workspace]` table.
fn workspace_root(start: &Path) -> Option<PathBuf> {
    start
        .ancestors()
        .find(|dir| {
            std::fs::read_to_string(dir.join("Cargo.toml"))
                .is_ok_and(|toml| toml.lines().any(|l| l.trim() == "[workspace]"))
        })
        .map(Path::to_path_buf)
}

/// Scale of an experiment run, from CLI flags.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Smoke-test: reduced epochs, one seed.
    Quick,
    /// Default: full epochs, two seeds.
    Standard,
    /// Paper-style: full epochs, five seeds.
    Full,
}

impl Scale {
    /// Parse from process args: `--quick` or `--full` (default standard).
    pub fn from_args() -> Scale {
        let args: Vec<String> = std::env::args().collect();
        if args.iter().any(|a| a == "--quick") {
            Scale::Quick
        } else if args.iter().any(|a| a == "--full") {
            Scale::Full
        } else {
            Scale::Standard
        }
    }

    /// The run protocol for this scale.
    pub fn spec(self) -> RunSpec {
        match self {
            Scale::Quick => RunSpec {
                quick: true,
                seeds: vec![0],
                ..Default::default()
            },
            Scale::Standard => RunSpec {
                seeds: vec![0, 1],
                ..Default::default()
            },
            Scale::Full => RunSpec {
                seeds: vec![0, 1, 2, 3, 4],
                ..Default::default()
            },
        }
    }

    /// A lighter protocol for hyper-parameter sweeps (one seed, two folds;
    /// sweeps show relative shape, not absolute level).
    pub fn sweep_spec(self) -> RunSpec {
        let mut s = self.spec();
        s.folds = 2;
        s.seeds = match self {
            Scale::Full => vec![0, 1],
            _ => vec![0],
        };
        s
    }

    /// Reduced training budget for sweep points (shape, not level).
    pub fn sweep_epochs(self) -> (usize, usize) {
        match self {
            Scale::Quick => (20, 6),
            _ => (50, 10),
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Standard => "standard",
            Scale::Full => "full",
        }
    }
}

/// Format a `MethodSummary` as a paper-style table row.
pub fn format_row(s: &MethodSummary) -> String {
    let p3 = s.at(3).expect("p=3 metrics");
    let p5 = s.at(5).expect("p=5 metrics");
    let mut row = format!(
        "{:10} | {} | {} {} {} | {} {} {}",
        s.method, s.auc, p3.recall, p3.precision, p3.f1, p5.recall, p5.precision, p5.f1
    );
    if s.failed > 0 {
        row.push_str(&format!(
            "  [{}/{} folds failed]",
            s.failed,
            s.runs + s.failed
        ));
    }
    // Stage timings from the instrumented runner (absent — all zero — when
    // re-rendering records written before the telemetry fields existed).
    if s.fit_secs > 0.0 {
        row.push_str(&format!(
            "  [fit {:.2}s | infer {:.3}s | eval {:.3}s]",
            s.fit_secs, s.inference_secs, s.evaluate_secs
        ));
    }
    row
}

/// Table II/ablation header matching [`format_row`].
pub fn header() -> String {
    format!(
        "{:10} | {:12} | {:^38} | {:^38}\n{:10} | {:12} | {:12} {:12} {:12} | {:12} {:12} {:12}",
        "",
        "AUC",
        "p=3",
        "p=5",
        "method",
        "",
        "Recall",
        "Precision",
        "F1",
        "Recall",
        "Precision",
        "F1"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvd_eval::{MeanStd, PSummary};

    #[test]
    fn scale_specs_are_graded() {
        assert!(Scale::Quick.spec().quick);
        assert_eq!(Scale::Standard.spec().seeds.len(), 2);
        assert_eq!(Scale::Full.spec().seeds.len(), 5);
        assert!(Scale::Full.sweep_spec().seeds.len() <= 2);
    }

    #[test]
    fn format_row_contains_all_metrics() {
        let ms = MeanStd {
            mean: 0.5,
            std: 0.001,
        };
        let p = |p| PSummary {
            p,
            recall: ms,
            precision: ms,
            f1: ms,
        };
        let s = MethodSummary {
            method: "X".into(),
            city: "c".into(),
            auc: ms,
            at_p: vec![p(3), p(5)],
            train_secs_per_epoch: 0.0,
            fit_secs: 0.0,
            inference_secs: 0.0,
            evaluate_secs: 0.0,
            model_mbytes: 0.0,
            runs: 1,
            failed: 0,
            fold_outcomes: vec![],
        };
        let row = format_row(&s);
        assert!(row.contains("0.500"));
        assert_eq!(row.matches("0.500").count(), 7);
        assert!(
            !row.contains("[fit"),
            "timings hidden when the record has none"
        );

        let timed = MethodSummary {
            fit_secs: 0.25,
            inference_secs: 0.011,
            evaluate_secs: 0.002,
            ..s
        };
        let row = format_row(&timed);
        assert!(row.contains("[fit 0.25s | infer 0.011s | eval 0.002s]"));
    }

    #[test]
    fn workspace_root_is_the_nearest_workspace_manifest() {
        let tmp = std::env::temp_dir().join(format!("uvd-root-walk-{}", std::process::id()));
        let member = tmp.join("ws/crates/member");
        std::fs::create_dir_all(member.join("src")).unwrap();
        std::fs::write(
            tmp.join("ws/Cargo.toml"),
            "[workspace]\nmembers = [\"crates/*\"]\n",
        )
        .unwrap();
        // A member manifest that only inherits workspace keys is not a root.
        std::fs::write(
            member.join("Cargo.toml"),
            "[package]\nname = \"member\"\nversion.workspace = true\n",
        )
        .unwrap();
        std::fs::create_dir_all(tmp.join("outside")).unwrap();

        let root = workspace_root(&member.join("src"));
        let outside = workspace_root(&tmp.join("outside"));
        std::fs::remove_dir_all(&tmp).unwrap();
        assert_eq!(root, Some(tmp.join("ws")));
        assert_eq!(outside, None);
    }
}
