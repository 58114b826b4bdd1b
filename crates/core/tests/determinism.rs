//! Determinism of the parallel collection path.
//!
//! Launch-level parallel simulation accumulates per-application events in
//! issue order, so the profiled datasets must be *bit-identical* no matter
//! how many worker threads run. This test pins that contract for all three
//! collection drivers the paper uses. (That memoized replay matches
//! uncached simulation is pinned in `gpu-sim/tests/cache_equivalence.rs`.)
//!
//! The thread knob is the process-global `RAYON_NUM_THREADS`, so every
//! scenario runs inside one `#[test]` — integration-test binaries are
//! separate processes, but tests within a binary share an environment.
//! Flipping the knob mid-process is harmless to any concurrently running
//! test precisely because of the property asserted here: it changes
//! scheduling, never values.

use bf_kernels::reduce::ReduceVariant;
use blackforest::collect::{
    collect_nw, collect_reduce, collect_stencil, CollectOptions, ResponseMetric,
};
use blackforest::Dataset;
use gpu_sim::GpuConfig;

/// Exact bit pattern of every feature cell and response value.
fn fingerprint(ds: &Dataset) -> Vec<u64> {
    let mut bits = Vec::with_capacity(ds.len() * (ds.n_features() + 1));
    for row in &ds.rows {
        bits.extend(row.iter().map(|v| v.to_bits()));
    }
    bits.extend(ds.response.iter().map(|v| v.to_bits()));
    bits
}

fn set_threads(threads: &str) {
    std::env::set_var("RAYON_NUM_THREADS", threads);
}

#[test]
fn thread_count_never_changes_collected_values() {
    let gpu = GpuConfig::gtx580();
    // Repetitions + noise on, so the expansion path (and its RNG stream) is
    // covered too.
    let opts = CollectOptions::default().with_repetitions(2, 0.02);
    type Scenario<'a> = (&'a str, Box<dyn Fn() -> Dataset>);
    let scenarios: Vec<Scenario> = vec![
        (
            "reduce",
            Box::new({
                let gpu = gpu.clone();
                let opts = opts.clone();
                move || {
                    collect_reduce(
                        &gpu,
                        ReduceVariant::Reduce6,
                        &[1 << 12, 1 << 13],
                        &[64, 128],
                        &opts,
                    )
                    .unwrap()
                }
            }),
        ),
        (
            "nw",
            Box::new({
                let gpu = gpu.clone();
                let opts = opts.clone();
                move || collect_nw(&gpu, &[64, 128], &opts).unwrap()
            }),
        ),
        (
            "stencil",
            Box::new({
                let gpu = gpu.clone();
                let opts = opts.clone();
                move || collect_stencil(&gpu, &[32, 48], &[1, 3], &opts).unwrap()
            }),
        ),
    ];

    let saved_threads = std::env::var("RAYON_NUM_THREADS").ok();

    for (name, collectfn) in &scenarios {
        set_threads("1");
        let sequential = collectfn();
        let reference = fingerprint(&sequential);

        for threads in ["2", "4", "16"] {
            set_threads(threads);
            let ds = collectfn();
            assert_eq!(
                ds.feature_names, sequential.feature_names,
                "{name}: schema drifted at threads={threads}"
            );
            assert_eq!(
                fingerprint(&ds),
                reference,
                "{name}: values drifted at threads={threads}"
            );
        }
    }

    // Also pin the power response through the same machinery.
    set_threads("1");
    let power_opts = CollectOptions {
        response: ResponseMetric::AvgPowerW,
        ..opts.clone()
    };
    let seq = collect_nw(&gpu, &[64], &power_opts).unwrap();
    set_threads("8");
    let par = collect_nw(&gpu, &[64], &power_opts).unwrap();
    assert_eq!(fingerprint(&par), fingerprint(&seq));

    match saved_threads {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
}
