//! Micro-benchmarks of the random-forest substrate: fit, predict, OOB,
//! permutation importance, partial dependence.

use bf_forest::{ForestParams, PartialDependence, RandomForest, SplitStrategy};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn synthetic(n: usize, p: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let x: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..p)
                .map(|j| (((i + 1) * (j + 3) * 2654435761) % 1009) as f64)
                .collect()
        })
        .collect();
    let y: Vec<f64> = x.iter().map(|r| r[0] * 2.0 + r[1].sqrt() * 10.0).collect();
    (x, y)
}

fn bench_fit(c: &mut Criterion) {
    let mut g = c.benchmark_group("forest_fit");
    for &trees in &[50usize, 200, 500] {
        let (x, y) = synthetic(100, 25);
        g.bench_with_input(BenchmarkId::new("n_trees", trees), &trees, |b, &t| {
            let params = ForestParams::default().with_trees(t).with_seed(1);
            b.iter(|| RandomForest::fit(black_box(&x), black_box(&y), &params).unwrap());
        });
    }
    g.finish();
}

fn bench_predict(c: &mut Criterion) {
    let (x, y) = synthetic(100, 25);
    let forest = RandomForest::fit(
        &x,
        &y,
        &ForestParams::default().with_trees(500).with_seed(2),
    )
    .unwrap();
    c.bench_function("forest_predict_row", |b| {
        b.iter(|| forest.predict_row(black_box(&x[17])).unwrap());
    });
    c.bench_function("forest_oob_mse", |b| {
        b.iter(|| black_box(forest.oob_mse()));
    });
}

fn bench_importance(c: &mut Criterion) {
    let (x, y) = synthetic(100, 25);
    let forest = RandomForest::fit(
        &x,
        &y,
        &ForestParams::default().with_trees(200).with_seed(3),
    )
    .unwrap();
    c.bench_function("permutation_importance_200t_25f", |b| {
        b.iter(|| black_box(forest.permutation_importance()));
    });
    c.bench_function("partial_dependence_16pt", |b| {
        b.iter(|| black_box(PartialDependence::compute(&forest, 0, 16)));
    });
}

/// Exact vs histogram split search across training-set sizes — the headline
/// comparison of the binned pipeline.
fn bench_split_strategies(c: &mut Criterion) {
    let mut g = c.benchmark_group("forest_fit_strategy");
    g.sample_size(10);
    for &n in &[1_000usize, 10_000, 100_000] {
        let (x, y) = synthetic(n, 20);
        let trees = 10;
        for (label, strategy) in [
            ("exact", SplitStrategy::Exact),
            ("histogram", SplitStrategy::Histogram { max_bins: 256 }),
        ] {
            let params = ForestParams::default()
                .with_trees(trees)
                .with_seed(4)
                .with_split_strategy(strategy);
            g.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
                b.iter(|| RandomForest::fit(black_box(&x), black_box(&y), &params).unwrap());
            });
        }
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_fit,
    bench_predict,
    bench_importance,
    bench_split_strategies
);
criterion_main!(benches);
