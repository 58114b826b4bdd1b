//! Extension experiment: hardware-scaling *scope* sweep across the GPU zoo.
//!
//! The paper's §6.2 transfers a model between two fixed GPUs. With ten
//! presets spanning five architecture generations, the interesting axis is
//! *scope*: how wide may the training pool reach around the target before
//! (or while) accuracy degrades? Every zoo GPU takes a turn as the
//! held-out target; three pools are fitted per target — same architecture
//! only, neighbouring generations, the whole zoo — and each is evaluated
//! on the target's test split. The output is the scope-vs-error curve plus
//! every (target, scope) cell; the committed snapshot is
//! `results/hwscale.txt`, and `blackforest hwscale --out` writes the same
//! report as JSON.
//!
//! Pass `--quick` (or set `BF_QUICK=1`) to shrink the sweep and forest for
//! smoke runs. The curve's structure (five architectures, three scopes,
//! every target served, no target in its own pool) is pinned by
//! `blackforest::hwscale`'s unit tests.

use blackforest::hwscale::{cells_table, curve_table, sweep_scopes};
use blackforest::model::ModelConfig;
use blackforest::predict::HwFeatureStrategy;
use blackforest::Workload;
use gpu_sim::GpuConfig;

fn main() {
    if std::env::args().any(|a| a == "--quick") {
        std::env::set_var("BF_QUICK", "1");
    }
    let quick = bf_bench::quick_mode();
    bf_bench::banner(
        "HW-Scale",
        "scope-vs-error curve across the five-generation GPU zoo",
    );
    let zoo = GpuConfig::presets();
    let sizes = bf_bench::matmul_sweep();
    let config = if quick {
        ModelConfig::quick(2016)
    } else {
        ModelConfig {
            seed: 2016,
            ..ModelConfig::default()
        }
    };
    println!(
        "zoo: {}",
        zoo.iter()
            .map(|g| format!("{} ({})", g.name, g.arch.name()))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "workload matrixMul, {} sizes, {} trees, quick: {quick}\n",
        sizes.len(),
        config.n_trees
    );

    let report = sweep_scopes(
        Workload::MatMul,
        &sizes,
        &zoo,
        &config,
        HwFeatureStrategy::MixedImportance,
    )
    .expect("scope sweep");

    print!("{}", curve_table(&report));
    println!();
    print!("{}", cells_table(&report, None));
}
