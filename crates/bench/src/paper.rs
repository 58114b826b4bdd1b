//! The paper's Tables 1–2 and Figures 2–8.

use crate::{
    banner, counter_model_series, figure_collect_options, figure_model_config, hw_collect_options,
    kernel_analysis,
};
use bf_kernels::reduce::ReduceVariant;
use blackforest::bottleneck::{categorize, BottleneckCategory};
use blackforest::collect::{
    collect_matmul, collect_nw, collect_reduce, paper_matmul_sizes, paper_nw_lengths,
    paper_reduce_sweep,
};
use blackforest::countermodel::ModelStrategy;
use blackforest::model::BlackForestModel;
use blackforest::predict::{
    summarize, HardwareScalingPredictor, HwFeatureStrategy, ProblemScalingPredictor,
};
use blackforest::{report, Dataset};
use gpu_sim::counters::COUNTER_CATALOG;
use gpu_sim::{GpuArchitecture, GpuConfig};

/// Table 1: the performance counters used in the study, with their meanings
/// and per-architecture availability across the zoo.
pub fn table1(out: &mut String) {
    banner(out, "Table 1", "Performance counters used in this study");
    let archs = GpuArchitecture::all();
    out!(out, "{:<28}", "counter");
    for a in archs {
        out!(out, " {:<8}", a.name());
    }
    outln!(out, " meaning");
    outln!(out, "{}", "-".repeat(118));
    for c in COUNTER_CATALOG {
        out!(out, "{:<28}", c.name);
        for a in archs {
            out!(out, " {:<8}", if c.on(a) { "yes" } else { "-" });
        }
        outln!(out, " {}", c.meaning);
    }
    outln!(out);
    out!(out, "{} counters total;", COUNTER_CATALOG.len());
    for a in archs {
        let n = COUNTER_CATALOG.iter().filter(|c| c.on(a)).count();
        out!(out, " {} on {},", n, a.name());
    }
    outln!(
        out,
        " {} on every architecture",
        COUNTER_CATALOG
            .iter()
            .filter(|c| archs.iter().all(|&a| c.on(a)))
            .count()
    );
}

/// Table 2: GPU hardware metrics of the training and target cards, exactly
/// the rows the hardware-scaling experiments inject as machine
/// characteristics.
pub fn table2(out: &mut String) {
    banner(out, "Table 2", "GPU hardware metrics");
    let gpus = [GpuConfig::gtx480(), GpuConfig::gtx580(), GpuConfig::k20m()];
    let rows = gpus[0].machine_metrics();
    out!(out, "{:<8} {:<28}", "metric", "meaning");
    for g in &gpus {
        out!(out, " {:>8}", g.name);
    }
    outln!(out);
    outln!(out, "{}", "-".repeat(72));
    for (i, row) in rows.iter().enumerate() {
        out!(out, "{:<8} {:<28}", row.name, row.meaning);
        for g in &gpus {
            out!(out, " {:>8}", g.machine_metrics()[i].value);
        }
        outln!(out);
    }
}

/// Collects the Figures 2–4 reduction sweep on the GTX580 and fits the
/// figure forest to it.
fn reduce_analysis(variant: ReduceVariant) -> (Dataset, BlackForestModel) {
    let (sizes, threads) = paper_reduce_sweep();
    let ds = collect_reduce(
        &GpuConfig::gtx580(),
        variant,
        &sizes,
        &threads,
        &figure_collect_options(),
    )
    .expect("collection");
    let model = BlackForestModel::fit(&ds, &figure_model_config()).expect("fit");
    (ds, model)
}

/// Figure 2: counters affecting the performance of `reduce1` (interleaved
/// addressing with strided indexing — shared-memory bank conflicts).
///
/// Paper result: the top features are replay-related
/// (`shared_replay_overhead`, `inst_replay_overhead`, `l2_read_throughput`);
/// PCA produces four components covering >97% of the variance, with the
/// replay counters loading strongly on the MIMD/ILP component.
pub fn fig2(out: &mut String) {
    banner(
        out,
        "Figure 2",
        "Counters affecting the performance of reduce1",
    );
    let (ds, model) = reduce_analysis(ReduceVariant::Reduce1);
    kernel_analysis(out, &ds, &model);

    // The paper's headline: the bank-conflict replay counters exist and
    // carry signal for reduce1 (they vanish entirely for reduce2).
    for name in [
        "l1_shared_bank_conflict",
        "shared_replay_overhead",
        "inst_replay_overhead",
    ] {
        if let Some(pos) = model.ranking.iter().position(|n| n == name) {
            outln!(
                out,
                "replay counter {:<26} rank {:>2}/{} (importance {:.3e})",
                name,
                pos + 1,
                model.ranking.len(),
                model.importance_of(name).unwrap()
            );
        } else {
            outln!(out, "replay counter {name} absent (constant over sweep)");
        }
    }
}

/// Figure 3: counters affecting the performance of `reduce2` (sequential
/// addressing).
///
/// Paper result: the most relevant counters all pertain to the memory
/// subsystem (`l1_global_load_miss`, `l2_write_transactions`,
/// `l2_read_transactions`); the most important counter for `reduce1`
/// (shared replay) becomes the least important; PCA yields four components
/// covering >96% variance and the bank-conflict metric vanishes.
pub fn fig3(out: &mut String) {
    banner(
        out,
        "Figure 3",
        "Counters affecting the performance of reduce2",
    );
    let (ds, model) = reduce_analysis(ReduceVariant::Reduce2);
    kernel_analysis(out, &ds, &model);

    let missing = !ds
        .feature_names
        .iter()
        .any(|n| n == "l1_shared_bank_conflict");
    outln!(
        out,
        "bank-conflict metric vanished from the analysis: {}",
        if missing {
            "yes (constant zero over the sweep)"
        } else {
            "NO"
        }
    );
    let mem_top = model
        .ranking
        .iter()
        .take(5)
        .filter(|n| {
            matches!(
                categorize(n),
                BottleneckCategory::MemoryAccessPattern | BottleneckCategory::MemoryBandwidth
            )
        })
        .count();
    outln!(out, "memory-subsystem counters among top 5: {mem_top}/5");
}

/// Figure 4: counters affecting the performance of `reduce6` (grid-stride
/// loop, all optimisations applied).
///
/// Paper result: memory counters remain the most influential
/// (`gst_request`, `shared_store`, `shared_load` top the ranking) with a
/// strong positive partial dependence, confirming the bandwidth-bound
/// character of the reduction primitive.
pub fn fig4(out: &mut String) {
    banner(
        out,
        "Figure 4",
        "Counters affecting the performance of reduce6",
    );
    let gpu = GpuConfig::gtx580();
    let (ds, model) = reduce_analysis(ReduceVariant::Reduce6);
    kernel_analysis(out, &ds, &model);

    for name in ["gst_request", "shared_store", "shared_load"] {
        if let Some(pos) = model.ranking.iter().position(|n| n == name) {
            let pd = model.partial_dependence(name, 16).unwrap();
            outln!(
                out,
                "{:<14} rank {:>2}/{}  partial-dependence corr {:+.2} ({:?})",
                name,
                pos + 1,
                model.ranking.len(),
                pd.correlation(),
                pd.trend()
            );
        }
    }
    // Bandwidth-bound check: achieved load throughput at the largest size
    // approaches the device bandwidth.
    let gld = ds.column("gld_throughput").unwrap();
    let max_tp = gld.iter().cloned().fold(0.0f64, f64::max);
    outln!(
        out,
        "peak simulated gld_throughput {:.0} GB/s of {:.0} GB/s device bandwidth ({:.0}%)",
        max_tp,
        gpu.mem_bandwidth_gbps,
        100.0 * max_tp / gpu.mem_bandwidth_gbps
    );
}

/// Figure 5: characterization and prediction of matrix multiply.
///
/// Paper result: (a) global-store-throughput and occupancy counters top the
/// importance ranking; (b) problem-scaling predictions on unseen sizes match
/// measurements (average MSE 3.2, 98% explained variance); (c) GLM counter
/// models have low residual deviance (0–2.7) except `inst_replay_overhead`
/// (≈203), whose poor fit visibly affects predictions.
pub fn fig5(out: &mut String) {
    banner(out, "Figure 5", "Characterization and prediction of MM");
    let gpu = GpuConfig::gtx580();
    let sizes = paper_matmul_sizes();
    outln!(
        out,
        "sweep: {} sizes from {} to {}",
        sizes.len(),
        sizes[0],
        sizes[sizes.len() - 1]
    );
    let ds = collect_matmul(&gpu, &sizes, &figure_collect_options()).expect("collection");
    // The paper prefers GLMs for trivial relations and MARS otherwise
    // (§4.2 "Results interpretation"); Auto applies exactly that rule per
    // counter.
    let predictor =
        ProblemScalingPredictor::fit(&ds, &figure_model_config(), &["size"], ModelStrategy::Auto)
            .expect("fit");
    let model = &predictor.model;

    outln!(out, "\n(a) {}", report::importance_chart(model, 10));

    outln!(out, "(b) prediction of unseen sizes (held-out 20%):");
    let points = predictor.evaluate_holdout().expect("holdout");
    outln!(out, "{}", report::prediction_table(&points, "size"));
    let s = summarize(&points);
    outln!(
        out,
        "forest validation: test MSE {:.3}, OOB explained variance {:.1}%; chain MSE {:.3}, R^2 {:.3}",
        model.validation.mse,
        model.validation.oob_r_squared * 100.0,
        s.mse,
        s.r_squared
    );

    outln!(out, "\n(c) GLM counter models (size -> counter):");
    outln!(
        out,
        "  {:<28} {:<8} {:>10} {:>14}",
        "counter",
        "family",
        "R^2",
        "mean resid dev"
    );
    for m in &predictor.counters.models {
        outln!(
            out,
            "  {:<28} {:<8} {:>10.4} {:>14.4}",
            m.counter,
            m.family(),
            m.r_squared,
            m.mean_residual_deviance
        );
    }
    if let Some(worst) = predictor.counters.worst_fit() {
        outln!(
            out,
            "worst-modelled counter: {} (R^2 {:.3}) — the paper's analogue is inst_replay_overhead",
            worst.counter,
            worst.r_squared
        );
    }

    outln!(
        out,
        "\ncounter-model curves (measured vs model, the 5c series):"
    );
    counter_model_series(out, &predictor, &ds, "size", 8);
}

/// Figure 6: characterization and prediction of Needleman-Wunsch.
///
/// Paper result: (a) `achieved_occupancy` and `size` are the most
/// influential predictors, followed by a band of near-equal memory
/// throughput metrics; (b) predictions of unseen sequence lengths are very
/// accurate (forest MSE ≈ 0, 99% explained variance); (c) the counter models
/// need MARS (`earth`), reaching an average R² of 0.99.
pub fn fig6(out: &mut String) {
    banner(out, "Figure 6", "Characterization and prediction of NW");
    let gpu = GpuConfig::gtx580();
    let lengths = paper_nw_lengths();
    outln!(
        out,
        "sweep: {} sequence lengths from {} to {}",
        lengths.len(),
        lengths[0],
        lengths[lengths.len() - 1]
    );
    let ds = collect_nw(&gpu, &lengths, &figure_collect_options()).expect("collection");
    let predictor = ProblemScalingPredictor::fit(
        &ds,
        &figure_model_config(),
        &["size"],
        ModelStrategy::Mars, // the paper uses earth (MARS) for NW
    )
    .expect("fit");
    let model = &predictor.model;

    outln!(out, "\n(a) {}", report::importance_chart(model, 12));
    for name in ["achieved_occupancy", "size", "l1_global_load_miss"] {
        if let Some(pos) = model.ranking.iter().position(|n| n == name) {
            outln!(out, "  {name}: rank {}/{}", pos + 1, model.ranking.len());
        }
    }

    outln!(
        out,
        "\n(b) prediction of unseen sequence lengths (held-out 20%):"
    );
    let points = predictor.evaluate_holdout().expect("holdout");
    // Print every 4th row to keep the table readable at 129 lengths.
    let thinned: Vec<_> = points
        .iter()
        .step_by(4.max(points.len() / 16))
        .cloned()
        .collect();
    outln!(out, "{}", report::prediction_table(&thinned, "size"));
    let s = summarize(&points);
    outln!(
        out,
        "full holdout: chain MSE {:.4}, R^2 {:.4}; forest OOB explained variance {:.1}%",
        s.mse,
        s.r_squared,
        model.validation.oob_r_squared * 100.0
    );

    outln!(out, "\n(c) MARS counter models (size -> counter):");
    outln!(out, "  {:<28} {:<8} {:>10}", "counter", "family", "R^2");
    for m in &predictor.counters.models {
        outln!(
            out,
            "  {:<28} {:<8} {:>10.4}",
            m.counter,
            m.family(),
            m.r_squared
        );
    }
    outln!(
        out,
        "average counter-model R^2: {:.4} (paper: 0.99 with earth)",
        predictor.counters.mean_r_squared()
    );

    outln!(
        out,
        "\ncounter-model curves (measured vs model, the 6c series):"
    );
    counter_model_series(out, &predictor, &ds, "size", 8);
}

/// Figure 7: K20m predictions for MM from a GTX580-trained forest (hardware
/// scaling, the straightforward case).
///
/// Paper result: predictions mostly match measurements (edge inaccuracies
/// from interpolation); the calibration shows the most important variables
/// are almost the same on both architectures, which is what makes the
/// straightforward transfer work.
pub fn fig7(out: &mut String) {
    banner(out, "Figure 7", "K20m predictions for MM from GTX580");
    let sizes = paper_matmul_sizes();
    let opts = hw_collect_options();
    let src = collect_matmul(&GpuConfig::gtx580(), &sizes, &opts).expect("source collection");
    let tgt = collect_matmul(&GpuConfig::k20m(), &sizes, &opts).expect("target collection");
    let (tgt_train, tgt_test) = tgt.split(0.8, figure_model_config().seed);

    let hw = HardwareScalingPredictor::fit(
        &src,
        &tgt_train,
        &figure_model_config(),
        HwFeatureStrategy::SourceImportance,
    )
    .expect("fit");

    outln!(
        out,
        "top-6 importance on GTX580 : {:?}",
        &hw.source_ranking[..6]
    );
    outln!(
        out,
        "top-6 importance on K20m   : {:?}",
        &hw.target_ranking[..6]
    );
    outln!(
        out,
        "ranking similarity (top-6 overlap): {:.0}% — \"sufficiently similar hardware\"",
        hw.similarity * 100.0
    );
    outln!(out, "transfer features: {:?}\n", hw.features);

    let points = hw.evaluate(&tgt_test, "size").expect("evaluate");
    outln!(out, "{}", report::prediction_table(&points, "size"));
    let s = summarize(&points);
    outln!(
        out,
        "hardware-scaled MM predictions: MSE {:.3}, R^2 {:.3}, MAPE {:.1}%",
        s.mse,
        s.r_squared,
        s.mape
    );
}

/// Figure 8: NW hardware scaling GTX580 → K20m — the case where
/// straightforward transfer breaks.
///
/// Paper result: (a) on the GTX580, caching counters
/// (`l2_read_transactions`, `l1_global_load_miss`) are among the most
/// influential; (b) on the K20m they are less important or absent (Kepler's
/// larger caches and L1-bypassed loads); the straightforward transfer gives
/// poor predictions, and (c) the workaround — training on a *mixture* of the
/// important variables from both architectures — recovers usable
/// predictions, still worse at small sequence lengths.
pub fn fig8(out: &mut String) {
    banner(out, "Figure 8", "NW hardware scaling GTX580 -> K20m");
    let lengths = paper_nw_lengths();
    let opts = hw_collect_options();
    let src = collect_nw(&GpuConfig::gtx580(), &lengths, &opts).expect("source collection");
    let tgt = collect_nw(&GpuConfig::k20m(), &lengths, &opts).expect("target collection");
    let (tgt_train, tgt_test) = tgt.split(0.8, figure_model_config().seed);

    // Fermi-only counters exist in the source schema but not the target's:
    outln!(
        out,
        "counter-set divergence: l1_global_load_miss on GTX580 {}, on K20m {}",
        src.feature_index("l1_global_load_miss").is_some(),
        tgt.feature_index("l1_global_load_miss").is_some(),
    );

    let naive = HardwareScalingPredictor::fit(
        &src,
        &tgt_train,
        &figure_model_config(),
        HwFeatureStrategy::SourceImportance,
    )
    .expect("fit naive");
    outln!(
        out,
        "\n(a) top-8 importance on GTX580 : {:?}",
        &naive.source_ranking[..8]
    );
    outln!(
        out,
        "(b) top-8 importance on K20m   : {:?}",
        &naive.target_ranking[..8]
    );
    outln!(
        out,
        "ranking similarity (top-{} overlap): {:.0}%",
        naive.features.len(),
        naive.similarity * 100.0
    );

    let naive_points = naive.evaluate(&tgt_test, "size").expect("evaluate naive");
    let ns = summarize(&naive_points);
    outln!(
        out,
        "\nstraightforward transfer: MSE {:.3}, R^2 {:.3}, MAPE {:.1}%",
        ns.mse,
        ns.r_squared,
        ns.mape
    );

    let mixed = HardwareScalingPredictor::fit(
        &src,
        &tgt_train,
        &figure_model_config(),
        HwFeatureStrategy::MixedImportance,
    )
    .expect("fit mixed");
    outln!(
        out,
        "\n(c) mixed-importance variable set: {:?}",
        mixed.features
    );
    let points = mixed.evaluate(&tgt_test, "size").expect("evaluate mixed");
    let thinned: Vec<_> = points
        .iter()
        .step_by(1.max(points.len() / 16))
        .cloned()
        .collect();
    outln!(out, "{}", report::prediction_table(&thinned, "size"));
    let ms = summarize(&points);
    outln!(
        out,
        "mixed-variable transfer: MSE {:.3}, R^2 {:.3}, MAPE {:.1}%",
        ms.mse,
        ms.r_squared,
        ms.mape
    );

    // Per-size-band accuracy: the paper sees bad accuracy below ~3700 and
    // improvement with size.
    let mid = 3700.0;
    let (small, large): (Vec<_>, Vec<_>) = points
        .iter()
        .cloned()
        .partition(|p| p.characteristics[0] < mid);
    if !small.is_empty() && !large.is_empty() {
        outln!(
            out,
            "MAPE below size {mid}: {:.1}% | above: {:.1}%",
            summarize(&small).mape,
            summarize(&large).mape
        );
    }
}
