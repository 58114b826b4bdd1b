//! The reproduction table: every table and figure of the paper plus the
//! repo's extensions, each rendered as the text committed under
//! `results/<id>.txt` (see `DESIGN.md` for the experiment index and
//! `EXPERIMENTS.md` for paper-vs-measured values).
//!
//! `blackforest reproduce <id|all>` prints entries; the release-only
//! `tests/reproduce.rs` checks every one byte for byte against its file.

use blackforest::collect::CollectOptions;
use blackforest::model::{BlackForestModel, ModelConfig};
use blackforest::report;
use blackforest::Dataset;

/// `writeln!` into a `String` report (formatting into a `String` cannot
/// fail).
macro_rules! outln {
    ($out:expr) => {
        $out.push('\n')
    };
    ($out:expr, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        writeln!($out, $($arg)*).expect("write to String")
    }};
}

/// `write!` into a `String` report.
macro_rules! out {
    ($out:expr, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        write!($out, $($arg)*).expect("write to String")
    }};
}

mod ext;
mod paper;

/// One reproducible artifact: its id, which is the stem of its results
/// file, and the function that writes its text.
pub type Entry = (&'static str, fn(&mut String));

/// Every reproducible artifact, paper tables and figures first.
pub const ENTRIES: &[Entry] = &[
    ("table1", paper::table1),
    ("table2", paper::table2),
    ("fig2", paper::fig2),
    ("fig3", paper::fig3),
    ("fig4", paper::fig4),
    ("fig5", paper::fig5),
    ("fig6", paper::fig6),
    ("fig7", paper::fig7),
    ("fig8", paper::fig8),
    ("ext_power", ext::power),
    ("ext_similarity", ext::similarity),
    ("ext_ladder", ext::ladder),
    ("ext_training_size", ext::training_size),
    ("ext_tiles", ext::tiles),
    ("hwscale", ext::hwscale),
];

/// The entries `id` names: one entry, or all of them for `all`.
pub fn select(id: &str) -> Result<&'static [Entry], String> {
    if id == "all" {
        return Ok(ENTRIES);
    }
    let known: Vec<&str> = ENTRIES.iter().map(|(id, _)| *id).collect();
    let pos = known.iter().position(|k| *k == id).ok_or_else(|| {
        format!(
            "unknown reproduction id {id}; one of: all, {}",
            known.join(", ")
        )
    })?;
    Ok(&ENTRIES[pos..=pos])
}

/// Runs one entry under a trace span named by its id and returns its text.
pub fn render((id, write): &Entry) -> String {
    let _span = bf_trace::Span::enter(id);
    let mut out = String::new();
    write(&mut out);
    out
}

/// The standard collection options used by all figure experiments:
/// 3 profiler repetitions with ±2% measurement noise, as real `nvprof`
/// collection would exhibit.
fn figure_collect_options() -> CollectOptions {
    CollectOptions::default().with_repetitions(3, 0.02)
}

/// The collection options of the hardware-scaling experiments: machine
/// metrics injected and constant columns kept, so per-GPU schemas line up.
fn hw_collect_options() -> CollectOptions {
    CollectOptions {
        include_machine_metrics: true,
        drop_constant: false,
        ..figure_collect_options()
    }
}

/// The standard model configuration for figures: the paper's 500-tree
/// forest and 80:20 split.
///
/// The seed is chosen so the random 80:20 split keeps every repetition of
/// the smallest and largest sweep size in the training set for both the MM
/// (63-row) and NW (384-row) figure datasets. The paper's prediction
/// protocol is interpolation — unseen sizes *within* the profiled sweep —
/// and a split that drops a boundary size from training would silently turn
/// Figures 5b/7 into an extrapolation test the method never claims to pass.
fn figure_model_config() -> ModelConfig {
    ModelConfig {
        seed: 2121,
        ..ModelConfig::default()
    }
}

/// Writes the figure banner.
fn banner(out: &mut String, id: &str, title: &str) {
    outln!(
        out,
        "=============================================================="
    );
    outln!(out, "{id}: {title}");
    outln!(
        out,
        "=============================================================="
    );
}

/// Writes the standard per-kernel analysis block used by Figures 2–4:
/// importance chart (subfigure a), partial dependence of the top counter
/// (subfigure b), and the PCA component table (the in-text PC analysis).
fn kernel_analysis(out: &mut String, ds: &Dataset, model: &BlackForestModel) {
    outln!(
        out,
        "dataset: {} runs x {} predictors; forest OOB MSE {:.4e}, explained variance {:.1}%",
        ds.len(),
        ds.n_features(),
        model.validation.oob_mse,
        model.validation.oob_r_squared * 100.0
    );
    outln!(out);
    outln!(out, "(a) {}", report::importance_chart(model, 10));
    if let Some(top) = model.ranking.first() {
        outln!(
            out,
            "(b) {}",
            report::partial_dependence_chart(model, top, 32)
        );
    }
    if let Some(pca) = &model.pca {
        outln!(out, "(c) {}", report::pca_table(pca, 5));
    }
}

/// Writes the per-counter model curves of subfigures 5(c)/6(c): for each
/// retained counter, measured (dotted line in the paper) vs model-predicted
/// (solid line) values over the characteristic sweep.
fn counter_model_series(
    out: &mut String,
    predictor: &blackforest::predict::ProblemScalingPredictor,
    ds: &Dataset,
    char_name: &str,
    max_rows: usize,
) {
    let Some(cj) = ds.feature_index(char_name) else {
        outln!(out, "(characteristic {char_name} missing)");
        return;
    };
    // One row per distinct characteristic value (thinned to max_rows).
    let mut order: Vec<usize> = (0..ds.len()).collect();
    order.sort_by(|&a, &b| ds.rows[a][cj].partial_cmp(&ds.rows[b][cj]).unwrap());
    order.dedup_by_key(|&mut i| ds.rows[i][cj].to_bits());
    let step = (order.len() / max_rows.max(1)).max(1);
    let picks: Vec<usize> = order.into_iter().step_by(step).collect();

    for model in &predictor.counters.models {
        if model.family() == "identity" {
            continue;
        }
        let Some(kj) = ds.feature_index(&model.counter) else {
            continue;
        };
        outln!(
            out,
            "  {} ({}; R^2 {:.4}): {:>8}  {:>14}  {:>14}",
            model.counter,
            model.family(),
            model.r_squared,
            char_name,
            "measured",
            "model"
        );
        for &i in &picks {
            let c = ds.rows[i][cj];
            let measured = ds.rows[i][kj];
            let predicted = model.predict(&[c]);
            outln!(out, "      {c:>16.0}  {measured:>14.4}  {predicted:>14.4}");
        }
    }
}
