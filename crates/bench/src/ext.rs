//! The extensions: experiments the paper proposes in §7 or that grow its
//! method past the two GPUs and three kernels it studies.

use crate::{banner, figure_collect_options, figure_model_config, hw_collect_options};
use bf_forest::ForestParams;
use bf_kernels::matmul::matmul_application_tiled;
use bf_kernels::reduce::{reduce_application, ReduceVariant};
use blackforest::bottleneck::BottleneckReport;
use blackforest::collect::{
    collect_matmul, collect_matmul_tiles, collect_nw, collect_reduce, paper_matmul_sizes,
    paper_nw_lengths, paper_reduce_sweep, CollectOptions, ResponseMetric,
};
use blackforest::countermodel::ModelStrategy;
use blackforest::cv::learning_curve;
use blackforest::model::{BlackForestModel, ModelConfig};
use blackforest::predict::{
    summarize, HardwareScalingPredictor, HwFeatureStrategy, ProblemScalingPredictor,
};
use blackforest::{hwscale, report, Dataset, Workload};
use gpu_sim::GpuConfig;

/// Paper §7: power draw as the response variable.
///
/// "We also note that our method is not limited to predicting execution
/// time — one could use other metrics of interest, such as power, as
/// response variable. ... one can then both assess the power consumption
/// behavior of the different functional units and of the application, and
/// predict that for unseen problem sizes."
///
/// Runs the full BlackForest pipeline with average power (from the
/// simulator's event-energy model, standing in for the Kepler SMI reading)
/// as the response, for both MM and NW on the K20m.
pub fn power(out: &mut String) {
    banner(
        out,
        "Extension",
        "Power draw as the response variable (paper §7)",
    );
    let gpu = GpuConfig::k20m(); // §7 names Kepler's SMI power readout
    let opts = CollectOptions {
        response: ResponseMetric::AvgPowerW,
        ..figure_collect_options()
    };
    let nw_lengths: Vec<usize> = (1..=64).map(|k| k * 64).collect();
    for (i, (label, ds, strategy, unseen)) in [
        (
            "matrixMul",
            collect_matmul(&gpu, &paper_matmul_sizes(), &opts).expect("collect mm"),
            ModelStrategy::Auto,
            "sizes",
        ),
        (
            "needle (NW)",
            collect_nw(&gpu, &nw_lengths, &opts).expect("collect nw"),
            ModelStrategy::Mars,
            "lengths",
        ),
    ]
    .into_iter()
    .enumerate()
    {
        if i > 0 {
            outln!(out);
        }
        outln!(out, "--- {label}, power response ---");
        let p = ProblemScalingPredictor::fit(&ds, &figure_model_config(), &["size"], strategy)
            .expect("fit");
        outln!(
            out,
            "power range: {:.1}..{:.1} W; forest OOB explained variance {:.1}%",
            ds.response.iter().cloned().fold(f64::INFINITY, f64::min),
            ds.response
                .iter()
                .cloned()
                .fold(f64::NEG_INFINITY, f64::max),
            p.model.validation.oob_r_squared * 100.0
        );
        outln!(out, "{}", report::importance_chart(&p.model, 8));
        let s = summarize(&p.evaluate_holdout().expect("holdout"));
        outln!(
            out,
            "power prediction on unseen {unseen}: R^2 {:.3}, MAPE {:.1}%",
            s.r_squared,
            s.mape
        );
    }
}

/// Paper §7: the hardware-similarity test.
///
/// "We plan to tackle this problem by designing a 'similarity' test to
/// determine platforms that can be used for hardware scalability."
///
/// For every ordered GPU pair, computes the top-k importance overlap (the
/// [`HardwareScalingPredictor::similarity`] score) for MM and NW and
/// reports the resulting similarity matrices. Expectation, matching §6.2:
/// same-generation pairs (GTX480↔GTX580, GTX680↔K20m) score high;
/// cross-generation NW pairs score lower than cross-generation MM pairs
/// (caching counters shift on Kepler).
pub fn similarity(out: &mut String) {
    banner(
        out,
        "Extension",
        "Hardware-similarity test across GPU pairs (paper §7)",
    );
    let gpus = GpuConfig::presets();
    let opts = hw_collect_options();
    let nw_lengths: Vec<usize> = (1..=40).map(|k| k * 64).collect();
    for workload in ["matmul", "nw"] {
        outln!(
            out,
            "\n--- {workload}: top-{} importance-ranking overlap ---",
            figure_model_config().top_k
        );
        let datasets: Vec<Dataset> = gpus
            .iter()
            .map(|g| match workload {
                "matmul" => collect_matmul(g, &paper_matmul_sizes(), &opts),
                _ => collect_nw(g, &nw_lengths, &opts),
            })
            .collect::<Result<_, _>>()
            .expect("collect");
        let m = similarity_matrix(&datasets);
        out!(out, "{:>10}", "");
        for g in &gpus {
            out!(out, "{:>9}", g.name);
        }
        outln!(out);
        for (g, row) in gpus.iter().zip(&m) {
            out!(out, "{:>10}", g.name);
            for v in row {
                out!(out, "{v:>9.2}");
            }
            outln!(out);
        }
        // Aggregate the §6.2 expectation: same-generation overlap should
        // beat cross-generation overlap.
        let mut same = (0.0, 0usize);
        let mut cross = (0.0, 0usize);
        for i in 0..gpus.len() {
            for j in 0..gpus.len() {
                if i == j {
                    continue;
                }
                let acc = if gpus[i].arch == gpus[j].arch {
                    &mut same
                } else {
                    &mut cross
                };
                *acc = (acc.0 + m[i][j], acc.1 + 1);
            }
        }
        outln!(
            out,
            "mean same-generation similarity {:.2}, cross-generation {:.2}",
            same.0 / same.1 as f64,
            cross.0 / cross.1 as f64
        );
    }
}

/// Pairwise similarity of per-GPU datasets: row = source, column = target,
/// 1.0 on the diagonal.
fn similarity_matrix(datasets: &[Dataset]) -> Vec<Vec<f64>> {
    let cfg = figure_model_config();
    let mut m = vec![vec![1.0; datasets.len()]; datasets.len()];
    for (i, src) in datasets.iter().enumerate() {
        for (j, tgt) in datasets.iter().enumerate() {
            if i == j {
                continue;
            }
            let (tgt_train, _) = tgt.split(0.8, cfg.seed);
            let hw = HardwareScalingPredictor::fit(
                src,
                &tgt_train,
                &cfg,
                HwFeatureStrategy::SourceImportance,
            )
            .expect("fit");
            // Average the two views: top-k overlap and Spearman of the
            // full ranking (mapped from [-1,1] to [0,1]).
            m[i][j] = 0.5 * hw.similarity + 0.5 * (0.5 + 0.5 * hw.rank_correlation);
        }
    }
    m
}

/// The full reduction optimisation ladder.
///
/// The paper analyses three of the CUDA SDK's seven reduction kernels; this
/// runs BlackForest over *all seven*, reproducing the tutorial's famous
/// speedup ladder and showing how the primary bottleneck category shifts at
/// each optimisation step — the §5 narrative, end to end.
pub fn ladder(out: &mut String) {
    banner(out, "Extension", "The reduce0..reduce6 optimisation ladder");
    let gpu = GpuConfig::gtx580();

    // Part 1: the speedup ladder at a fixed large size (the tutorial's
    // headline table).
    let n = 1 << 22;
    outln!(out, "timing ladder at {n} elements, 256 threads/block:\n");
    outln!(
        out,
        "  {:<8} {:>12} {:>9} {:>12}",
        "kernel",
        "time (ms)",
        "speedup",
        "bandwidth"
    );
    let mut t0 = None;
    for v in ReduceVariant::ALL {
        let run = reduce_application(v, n, 256)
            .profile(&gpu)
            .expect("profile");
        let t = run.time_ms;
        let base = *t0.get_or_insert(t);
        let gbps = (n * 4) as f64 / (t / 1e3) / 1e9;
        outln!(
            out,
            "  {:<8} {:>12.4} {:>8.2}x {:>9.1} GB/s",
            v.name(),
            t,
            base / t,
            gbps
        );
    }

    // Part 2: the dominant bottleneck per variant from full BlackForest
    // analyses.
    outln!(
        out,
        "\nprimary bottleneck per variant (BlackForest analysis):\n"
    );
    let (sizes, threads) = paper_reduce_sweep();
    for v in ReduceVariant::ALL {
        let ds =
            collect_reduce(&gpu, v, &sizes, &threads, &figure_collect_options()).expect("collect");
        let model = BlackForestModel::fit(&ds, &figure_model_config()).expect("fit");
        let report = BottleneckReport::analyze(&model, 8);
        let conflicts = ds
            .feature_names
            .iter()
            .any(|f| f == "l1_shared_bank_conflict");
        let divergence = ds
            .column("divergent_branch")
            .map(|c| c.iter().sum::<f64>() > 0.0)
            .unwrap_or(false);
        outln!(
            out,
            "  {:<8} top counter: {:<26} primary pattern: {:<38} conflicts: {:<3} divergence: {}",
            v.name(),
            report.findings[0].counter,
            report.primary().map(|f| f.category.label()).unwrap_or("-"),
            if conflicts { "yes" } else { "no" },
            if divergence { "yes" } else { "no" },
        );
    }
}

/// Paper §7: the minimal-training-set study.
///
/// "Its overhead is as large as the size of the training set. Additional
/// studies need to be made to determine the minimal training set, thus
/// limiting the overhead to a minimum."
///
/// k-fold cross-validated learning curves for MM and NW, reporting how
/// held-out accuracy grows with the number of profiled runs — i.e. how few
/// `nvprof` invocations BlackForest actually needs.
pub fn training_size(out: &mut String) {
    banner(out, "Extension", "Minimal-training-set study (paper §7)");
    let gpu = GpuConfig::gtx580();
    let params = ForestParams::default().with_trees(300).with_seed(2016);
    let fractions = [0.15, 0.3, 0.5, 0.7, 1.0];

    for (name, data) in [
        (
            "matmul",
            collect_matmul(&gpu, &paper_matmul_sizes(), &figure_collect_options()).unwrap(),
        ),
        (
            "nw",
            collect_nw(&gpu, &paper_nw_lengths(), &figure_collect_options()).unwrap(),
        ),
    ] {
        outln!(out, "\n--- {name}: {} profiled runs total ---", data.len());
        outln!(
            out,
            "  {:>10} {:>12} {:>12}",
            "train runs",
            "CV R^2",
            "CV MSE"
        );
        let curve = learning_curve(&data, &fractions, 5, &params, 2016).expect("curve");
        for p in &curve {
            outln!(
                out,
                "  {:>10} {:>12.4} {:>12.4}",
                p.train_size,
                p.r_squared,
                p.mse
            );
        }
        // The paper's empirical rule of thumb: "100 samples are more than
        // sufficient for 1-D problems". Check where the curve saturates.
        if let Some(knee) = curve.windows(2).find(|w| {
            w[1].train_size > w[0].train_size
                && w[0].r_squared > 0.5
                && w[1].r_squared - w[0].r_squared < 0.01
        }) {
            outln!(
                out,
                "accuracy saturates near {} runs (ΔR^2 < 0.01 beyond that)",
                knee[0].train_size
            );
        }
    }
}

/// Block-size tuning via BlackForest.
///
/// The tile edge of `matrixMul` is a *tunable* problem characteristic. This
/// sweeps (size, tile) pairs, lets the forest learn the joint surface, and
/// asks the practical tuning questions: which tile is fastest at large
/// sizes, and which counters explain the difference?
pub fn tiles(out: &mut String) {
    banner(
        out,
        "Extension",
        "matrixMul block-size tuning (tile as characteristic)",
    );
    let gpu = GpuConfig::gtx580();
    let tiles = [8usize, 16, 32];

    // Direct timing table.
    outln!(out, "time (ms) by size and tile:\n");
    out!(out, "  {:>6}", "size");
    for t in tiles {
        out!(out, " {:>10}", format!("tile {t}"));
    }
    outln!(out);
    for n in [128, 512, 1024, 2048] {
        out!(out, "  {n:>6}");
        for &t in &tiles {
            let ms = matmul_application_tiled(n, t)
                .profile(&gpu)
                .unwrap()
                .time_ms;
            out!(out, " {ms:>10.4}");
        }
        outln!(out);
    }

    // BlackForest on the joint sweep.
    let sweep_sizes: Vec<usize> = (2..=32).step_by(2).map(|k| k * 32).collect();
    let ds = collect_matmul_tiles(&gpu, &sweep_sizes, &tiles, &figure_collect_options())
        .expect("collect");
    let model = BlackForestModel::fit(&ds, &figure_model_config()).expect("fit");
    outln!(
        out,
        "\njoint (size, tile) model over {} runs: OOB explained variance {:.1}%\n",
        ds.len(),
        model.validation.oob_r_squared * 100.0
    );
    outln!(out, "{}", report::importance_chart(&model, 10));
    if let Some(pos) = model.ranking.iter().position(|n| n == "tile") {
        outln!(
            out,
            "`tile` ranks {}/{} among predictors",
            pos + 1,
            model.ranking.len()
        );
    }
    if let Some(pd) = model.partial_dependence("tile", 3) {
        outln!(
            out,
            "partial dependence of time on tile: {:?} (corr {:+.2})",
            pd.trend(),
            pd.correlation()
        );
    }
}

/// Hardware-scaling *scope* sweep across the GPU zoo.
///
/// The paper's §6.2 transfers a model between two fixed GPUs. With ten
/// presets spanning five architecture generations, the interesting axis is
/// *scope*: how wide may the training pool reach around the target before
/// (or while) accuracy degrades? Every zoo GPU takes a turn as the held-out
/// target; three pools are fitted per target — same architecture only,
/// neighbouring generations, the whole zoo — and each is evaluated on the
/// target's test split. `blackforest hwscale` renders its sweeps through
/// the same [`hwscale::render`], and `--out` writes the report as JSON.
pub fn hwscale(out: &mut String) {
    banner(
        out,
        "HW-Scale",
        "scope-vs-error curve across the five-generation GPU zoo",
    );
    let config = ModelConfig {
        seed: 2016,
        ..ModelConfig::default()
    };
    let report = hwscale::sweep_scopes(
        Workload::MatMul,
        &paper_matmul_sizes(),
        &GpuConfig::presets(),
        &config,
        HwFeatureStrategy::MixedImportance,
    )
    .expect("scope sweep");
    out.push_str(&hwscale::render(&report, config.n_trees, None));
}
