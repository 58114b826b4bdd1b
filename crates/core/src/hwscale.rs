//! Hardware-scaling *scope* sweep across the GPU zoo.
//!
//! The paper's §6.2 transfers a model from one source GPU to one target.
//! With a zoo of configurations spanning five architecture generations, a
//! new question opens up: how far away may the training hardware be before
//! transfer accuracy degrades? This module answers it empirically. For
//! every target GPU it trains three transfer models from progressively
//! wider source pools — same architecture only, neighbouring generations,
//! the whole zoo — always holding the target's own sweep out of the pool,
//! and evaluates each on the target's test split. Aggregating per scope
//! yields a *scope-vs-error curve*: the wider the pool, the more rows and
//! machine-metric variation the forest sees, but the more foreign the
//! counter semantics become.
//!
//! Pooling across architectures is only possible on the schema
//! intersection: counter availability differs per generation (Fermi has L1
//! hit/miss, Kepler has replay counters, Maxwell renames them, Pascal adds
//! `global_hit_rate`), so the pooled dataset keeps exactly the columns
//! every source produces, and [`HardwareScalingPredictor::fit`] further
//! intersects with the target's schema.

use crate::collect::CollectOptions;
use crate::dataset::Dataset;
use crate::model::ModelConfig;
use crate::predict::{summarize, HardwareScalingPredictor, HwFeatureStrategy};
use crate::toolchain::{BlackForest, Workload};
use crate::{BfError, Result};
use gpu_sim::GpuConfig;
use serde::{Deserialize, Serialize};

/// How far from the target architecture the training pool may reach.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scope {
    /// Only GPUs of the target's own architecture (the target itself is
    /// always held out).
    PerArch,
    /// GPUs whose architecture generation is at most one ordinal step away
    /// (Kepler targets may train on Fermi, Kepler, and Maxwell sources).
    PerGeneration,
    /// Every other GPU in the zoo.
    AllZoo,
}

impl Scope {
    /// All scopes, narrowest first — the x-axis of the curve.
    pub fn all() -> [Scope; 3] {
        [Scope::PerArch, Scope::PerGeneration, Scope::AllZoo]
    }

    /// Stable name used in reports and JSON artifacts.
    pub fn name(&self) -> &'static str {
        match self {
            Scope::PerArch => "per-arch",
            Scope::PerGeneration => "per-generation",
            Scope::AllZoo => "all-zoo",
        }
    }

    /// Whether `source` may train a model for `target` under this scope.
    /// The target itself is never admitted.
    pub fn admits(&self, target: &GpuConfig, source: &GpuConfig) -> bool {
        if source.name == target.name {
            return false;
        }
        match self {
            Scope::PerArch => source.arch == target.arch,
            Scope::PerGeneration => {
                let d = source.arch.ordinal() as i64 - target.arch.ordinal() as i64;
                d.abs() <= 1
            }
            Scope::AllZoo => true,
        }
    }
}

/// One fitted-and-evaluated (target, scope) cell of the sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScopeEvaluation {
    /// Scope name (see [`Scope::name`]).
    pub scope: String,
    /// Target GPU held out of the training pool.
    pub target: String,
    /// Target architecture name.
    pub target_arch: String,
    /// Names of the pooled source GPUs.
    pub sources: Vec<String>,
    /// Rows in the pooled training dataset.
    pub pooled_rows: usize,
    /// Columns shared by every source (before intersecting with the
    /// target's schema).
    pub common_features: usize,
    /// Top-k importance-ranking overlap between pool and target.
    pub similarity: f64,
    /// Spearman correlation of the full importance rankings.
    pub rank_correlation: f64,
    /// Mean absolute percentage error on the target's test split.
    pub mape: f64,
    /// R² of predicted vs measured times on the target's test split.
    pub r_squared: f64,
}

/// One point of the scope-vs-error curve: a scope aggregated over all
/// targets it could serve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScopeCurvePoint {
    /// Scope name.
    pub scope: String,
    /// Number of targets this scope produced a model for.
    pub targets: usize,
    /// Mean number of source GPUs pooled per target.
    pub mean_sources: f64,
    /// Mean MAPE over targets.
    pub mean_mape: f64,
    /// Median MAPE over targets (robust to one badly-transferring GPU).
    pub median_mape: f64,
    /// Mean R² over targets.
    pub mean_r_squared: f64,
    /// Mean importance-ranking similarity over targets.
    pub mean_similarity: f64,
}

/// The full sweep result: every (target, scope) evaluation plus the
/// aggregated curve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HwScaleReport {
    /// Workload the sweep ran.
    pub workload: String,
    /// Problem sizes swept on every GPU.
    pub sizes: Vec<usize>,
    /// Zoo GPU names, in sweep order.
    pub zoo: Vec<String>,
    /// Distinct architecture names covered by the zoo.
    pub architectures: Vec<String>,
    /// All per-(target, scope) evaluations.
    pub evaluations: Vec<ScopeEvaluation>,
    /// The scope-vs-error curve, narrowest scope first.
    pub curve: Vec<ScopeCurvePoint>,
}

/// Pools source datasets on their feature-name intersection (order taken
/// from the first source).
fn pool(sources: &[&Dataset]) -> Result<Dataset> {
    let first = sources
        .first()
        .ok_or_else(|| BfError::Data("empty source pool".into()))?;
    let mut common: Vec<String> = first.feature_names.clone();
    for s in &sources[1..] {
        common.retain(|n| s.feature_index(n).is_some());
    }
    if common.is_empty() {
        return Err(BfError::Data(
            "no common features across pooled sources".into(),
        ));
    }
    let mut pooled = first.select(&common)?;
    for s in &sources[1..] {
        pooled.append(&s.select(&common)?)?;
    }
    Ok(pooled)
}

/// Collects one sweep per zoo GPU with the hardware-scaling options
/// (machine metrics injected, constant columns kept so schemas stay
/// intersectable).
pub fn collect_zoo(workload: Workload, sizes: &[usize], zoo: &[GpuConfig]) -> Result<Vec<Dataset>> {
    let opts = CollectOptions {
        include_machine_metrics: true,
        drop_constant: false,
        ..CollectOptions::default()
    };
    zoo.iter()
        .map(|gpu| {
            let mut bf = BlackForest::new(gpu.clone());
            bf.collect = opts.clone();
            bf.collect(workload, sizes)
        })
        .collect()
}

/// Runs the scope sweep: every zoo GPU takes a turn as the held-out
/// target, every scope that admits at least one source is fitted and
/// evaluated, and the per-scope aggregates become the curve.
pub fn sweep_scopes(
    workload: Workload,
    sizes: &[usize],
    zoo: &[GpuConfig],
    config: &ModelConfig,
    strategy: HwFeatureStrategy,
) -> Result<HwScaleReport> {
    if zoo.len() < 2 {
        return Err(BfError::Data(
            "hardware-scaling sweep needs at least two GPUs".into(),
        ));
    }
    let datasets = collect_zoo(workload, sizes, zoo)?;
    sweep_scopes_with(workload, sizes, zoo, &datasets, config, strategy)
}

/// Like [`sweep_scopes`] but over pre-collected per-GPU datasets (must be
/// index-aligned with `zoo`). Lets callers reuse one collection pass for
/// several experiments.
pub fn sweep_scopes_with(
    workload: Workload,
    sizes: &[usize],
    zoo: &[GpuConfig],
    datasets: &[Dataset],
    config: &ModelConfig,
    strategy: HwFeatureStrategy,
) -> Result<HwScaleReport> {
    if datasets.len() != zoo.len() {
        return Err(BfError::Data(format!(
            "zoo has {} GPUs but {} datasets supplied",
            zoo.len(),
            datasets.len()
        )));
    }
    let characteristic = workload.characteristics()[0];
    let mut evaluations = Vec::new();
    for (ti, target) in zoo.iter().enumerate() {
        let (tgt_train, tgt_test) = datasets[ti].split(0.8, config.seed);
        for scope in Scope::all() {
            let source_idx: Vec<usize> = zoo
                .iter()
                .enumerate()
                .filter(|(si, g)| *si != ti && scope.admits(target, g))
                .map(|(si, _)| si)
                .collect();
            if source_idx.is_empty() {
                continue;
            }
            let pooled = pool(
                &source_idx
                    .iter()
                    .map(|&si| &datasets[si])
                    .collect::<Vec<_>>(),
            )?;
            let hw = HardwareScalingPredictor::fit(&pooled, &tgt_train, config, strategy)?;
            let points = hw.evaluate(&tgt_test, characteristic)?;
            let summary = summarize(&points);
            evaluations.push(ScopeEvaluation {
                scope: scope.name().to_string(),
                target: target.name.clone(),
                target_arch: target.arch.name().to_string(),
                sources: source_idx.iter().map(|&si| zoo[si].name.clone()).collect(),
                pooled_rows: pooled.len(),
                common_features: pooled.n_features(),
                similarity: hw.similarity,
                rank_correlation: hw.rank_correlation,
                mape: summary.mape,
                r_squared: summary.r_squared,
            });
        }
    }
    let curve = Scope::all()
        .iter()
        .filter_map(|scope| curve_point(scope.name(), &evaluations))
        .collect();
    let mut architectures: Vec<String> = Vec::new();
    for g in zoo {
        let name = g.arch.name().to_string();
        if !architectures.contains(&name) {
            architectures.push(name);
        }
    }
    Ok(HwScaleReport {
        workload: workload.name(),
        sizes: sizes.to_vec(),
        zoo: zoo.iter().map(|g| g.name.clone()).collect(),
        architectures,
        evaluations,
        curve,
    })
}

fn curve_point(scope: &str, evaluations: &[ScopeEvaluation]) -> Option<ScopeCurvePoint> {
    let cells: Vec<&ScopeEvaluation> = evaluations.iter().filter(|e| e.scope == scope).collect();
    if cells.is_empty() {
        return None;
    }
    let n = cells.len() as f64;
    let mut mapes: Vec<f64> = cells.iter().map(|e| e.mape).collect();
    mapes.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median_mape = if mapes.len() % 2 == 1 {
        mapes[mapes.len() / 2]
    } else {
        0.5 * (mapes[mapes.len() / 2 - 1] + mapes[mapes.len() / 2])
    };
    Some(ScopeCurvePoint {
        scope: scope.to_string(),
        targets: cells.len(),
        mean_sources: cells.iter().map(|e| e.sources.len() as f64).sum::<f64>() / n,
        mean_mape: cells.iter().map(|e| e.mape).sum::<f64>() / n,
        median_mape,
        mean_r_squared: cells.iter().map(|e| e.r_squared).sum::<f64>() / n,
        mean_similarity: cells.iter().map(|e| e.similarity).sum::<f64>() / n,
    })
}

/// Renders a sweep as text: the zoo and sweep header, the scope-vs-error
/// curve, and every (target, scope) cell — optionally only one target's
/// cells (matched case-insensitively). `n_trees` is the forest size the
/// sweep fitted with.
pub fn render(report: &HwScaleReport, n_trees: usize, target: Option<&str>) -> String {
    format!(
        "zoo: {}\narchitectures: {}\nworkload {}, {} sizes, {n_trees} trees\n\n{}\n{}",
        report.zoo.join(", "),
        report.architectures.join(", "),
        report.workload,
        report.sizes.len(),
        curve_table(report),
        cells_table(report, target)
    )
}

/// Renders the curve as an aligned text table.
fn curve_table(report: &HwScaleReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<16} {:>8} {:>10} {:>10} {:>12} {:>8} {:>12}\n",
        "scope", "targets", "sources", "MAPE%", "median MAPE%", "R2", "similarity"
    ));
    for p in &report.curve {
        out.push_str(&format!(
            "{:<16} {:>8} {:>10.1} {:>10.2} {:>12.2} {:>8.3} {:>12.2}\n",
            p.scope,
            p.targets,
            p.mean_sources,
            p.mean_mape,
            p.median_mape,
            p.mean_r_squared,
            p.mean_similarity
        ));
    }
    out
}

/// Formats every (target, scope) cell of the sweep as a plain-text table,
/// optionally restricted to one target (matched case-insensitively).
fn cells_table(report: &HwScaleReport, target: Option<&str>) -> String {
    let mut out = format!(
        "{:<16} {:<10} {:<9} {:>8} {:>8} {:>8}  sources\n",
        "scope", "target", "arch", "MAPE%", "R2", "overlap"
    );
    for e in report
        .evaluations
        .iter()
        .filter(|e| target.is_none_or(|t| e.target.eq_ignore_ascii_case(t)))
    {
        out.push_str(&format!(
            "{:<16} {:<10} {:<9} {:>8.2} {:>8.3} {:>8.2}  {}\n",
            e.scope,
            e.target,
            e.target_arch,
            e.mape,
            e.r_squared,
            e.similarity,
            e.sources.join(",")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_nest_from_narrow_to_wide() {
        let zoo = GpuConfig::presets();
        for target in &zoo {
            for source in &zoo {
                if Scope::PerArch.admits(target, source) {
                    assert!(Scope::PerGeneration.admits(target, source));
                }
                if Scope::PerGeneration.admits(target, source) {
                    assert!(Scope::AllZoo.admits(target, source));
                }
                assert!(!Scope::AllZoo.admits(target, target));
            }
        }
    }

    #[test]
    fn pooling_intersects_schemas_and_stacks_rows() {
        let mut a = Dataset::new(vec!["size".into(), "only_a".into()], "time_ms");
        a.push(vec![1.0, 2.0], 0.5).unwrap();
        let mut b = Dataset::new(vec!["size".into(), "only_b".into()], "time_ms");
        b.push(vec![3.0, 4.0], 0.7).unwrap();
        b.push(vec![5.0, 6.0], 0.9).unwrap();
        let pooled = pool(&[&a, &b]).unwrap();
        assert_eq!(pooled.feature_names, vec!["size".to_string()]);
        assert_eq!(pooled.len(), 3);
        assert_eq!(pooled.response, vec![0.5, 0.7, 0.9]);
    }

    #[test]
    fn sweep_produces_a_curve_over_all_three_scopes() {
        let zoo = GpuConfig::presets();
        let sizes: Vec<usize> = (2..=10).map(|k| k * 16).collect();
        let config = ModelConfig::quick(2016);
        let report = sweep_scopes(
            Workload::MatMul,
            &sizes,
            &zoo,
            &config,
            HwFeatureStrategy::MixedImportance,
        )
        .unwrap();
        assert_eq!(
            report.architectures,
            vec!["fermi", "kepler", "maxwell", "pascal", "volta"]
        );
        let scopes: Vec<&str> = report.curve.iter().map(|p| p.scope.as_str()).collect();
        assert_eq!(scopes, vec!["per-arch", "per-generation", "all-zoo"]);
        // Every architecture has two presets, so even the narrowest scope
        // serves every target.
        for p in &report.curve {
            assert_eq!(p.targets, zoo.len(), "{} skipped a target", p.scope);
            assert!(p.mean_mape.is_finite() && p.mean_r_squared.is_finite());
        }
        for pair in report.curve.windows(2) {
            assert!(
                pair[0].mean_sources <= pair[1].mean_sources,
                "pool width must widen with scope"
            );
        }
        assert_eq!(report.curve[2].mean_sources, (zoo.len() - 1) as f64);
        for e in &report.evaluations {
            assert!(e.mape.is_finite(), "{}/{} mape", e.scope, e.target);
            assert!(!e.sources.contains(&e.target), "target leaked into pool");
            assert!(e.pooled_rows > 0);
        }
        let table = curve_table(&report);
        assert!(table.contains("per-arch") && table.contains("all-zoo"));
        let cells = cells_table(&report, Some("V100"));
        assert_eq!(cells.lines().count(), 1 + Scope::all().len());
        let text = render(&report, 500, None);
        assert!(text.starts_with("zoo: GTX480, GTX580, GTX680, K20m, GTX750Ti,"));
        assert!(text.contains("\narchitectures: fermi, kepler, maxwell, pascal, volta\n"));
        let header = format!("\nworkload matrixMul, {} sizes, 500 trees\n\n", sizes.len());
        assert!(text.contains(&header));
    }

    #[test]
    fn a_target_with_no_admissible_source_is_skipped_only_in_that_scope() {
        // k20m is the zoo's only Kepler GPU, so per-arch has no source for
        // it; its Fermi neighbours still train it in the wider scopes.
        let zoo = vec![GpuConfig::gtx480(), GpuConfig::gtx580(), GpuConfig::k20m()];
        let sizes: Vec<usize> = (2..=10).map(|k| k * 16).collect();
        let report = sweep_scopes(
            Workload::MatMul,
            &sizes,
            &zoo,
            &ModelConfig::quick(2016),
            HwFeatureStrategy::MixedImportance,
        )
        .unwrap();
        let targets: Vec<(&str, usize)> = report
            .curve
            .iter()
            .map(|p| (p.scope.as_str(), p.targets))
            .collect();
        assert_eq!(
            targets,
            vec![("per-arch", 2), ("per-generation", 3), ("all-zoo", 3)]
        );
        assert!(!report
            .evaluations
            .iter()
            .any(|e| e.scope == "per-arch" && e.target == "K20m"));
    }
}
