//! `train-nw` and `train-stencil`: the full offline `train` of the CLI —
//! collect → forest fit → counter models → bottleneck analysis → bundle
//! save — timed call by call.
//!
//! The two workloads are mirror images. NW's launches are structurally
//! unique, so the in-memory memo never hits and simulation is most of the
//! time; the stencil's sweeps repeat the same grids, so the memo answers
//! most launches and the modelling layers do the work.

use crate::stats::{self, Interval};
use crate::{Ctx, Outcome};
use bf_kernels::nw::nw_application;
use bf_kernels::stencil::stencil_application;
use bf_kernels::Application;
use bf_registry::ModelBundle;
use blackforest::countermodel::{CounterModelSet, ModelStrategy};
use blackforest::predict::{summarize, PredictionPoint, ProblemScalingPredictor};
use blackforest::{
    AnalysisReport, BlackForest, BlackForestModel, BottleneckReport, CollectOptions, Dataset,
    ModelConfig, Workload,
};
use gpu_sim::GpuConfig;
use std::time::Instant;

/// Launches of the sweep checked against the static oracle per set-up.
const ORACLE_SAMPLE: usize = 64;

/// Seeded 80:20 splits whose held-out errors are pooled into `error_pct`.
/// One split's MAPE is no gate: on NW it ranges from 2% to 13% with the
/// seed, depending on whether the smallest size (error above 100%) lands
/// in the test set. The median error pooled over this many splits moves
/// by about 5% between seeds.
const ACCURACY_SPLITS: u64 = 16;

#[derive(Clone, Copy)]
pub enum Family {
    Nw,
    Stencil,
}

impl Family {
    fn workload(self) -> Workload {
        match self {
            Family::Nw => Workload::Nw,
            Family::Stencil => Workload::Stencil,
        }
    }

    /// The CLI's default (full) sweep.
    fn sizes(self) -> Vec<usize> {
        match self {
            Family::Nw => (1..=64).map(|k| k * 64).collect(),
            Family::Stencil => (2..=48).step_by(2).map(|k| k * 16).collect(),
        }
    }

    /// The applications the sweep profiles, as `collect` builds them.
    fn applications(self, sizes: &[usize]) -> Vec<Application> {
        match self {
            Family::Nw => sizes.iter().map(|&n| nw_application(n, 10)).collect(),
            Family::Stencil => sizes
                .iter()
                .flat_map(|&n| [1, 2, 4].map(|s| stencil_application(n, s)))
                .collect(),
        }
    }
}

/// splitmix64: the benchmark's own seeded stream.
pub struct Rng(pub u64);

impl Rng {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Runs the differential oracle (static walk vs cycle engine) on `n`
/// launches of the sweep; any divergence is a simulator bug. The sample is
/// systematic — every (N/n)-th launch from a seeded offset — so every
/// size is covered and its cost hardly depends on the seed.
pub fn oracle_sample(
    gpu: &GpuConfig,
    apps: &[Application],
    n: usize,
    seed: u64,
    out: &mut Outcome,
) {
    let launches: Vec<(usize, usize)> = apps
        .iter()
        .enumerate()
        .flat_map(|(a, app)| (0..app.launches.len()).map(move |l| (a, l)))
        .collect();
    let stride = (launches.len() / n).max(1);
    let offset = Rng(seed).below(stride);
    for &(a, l) in launches.iter().skip(offset).step_by(stride).take(n) {
        let kernel = apps[a].launches[l].as_ref();
        let verdict = bf_analyze::check_launch(gpu, kernel, l);
        out.check(
            matches!(&verdict, Ok(r) if !r.divergent()),
            || match &verdict {
                Ok(r) => format!(
                    "oracle diverged on {} launch {l}: {:?}",
                    apps[a].name,
                    r.failures()
                ),
                Err(e) => format!("oracle failed on {} launch {l}: {e}", apps[a].name),
            },
        );
    }
}

/// Runs `f` and returns its result with its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64())
}

/// Converts a drained trace into the intervals coverage needs.
pub fn intervals(trace: &bf_trace::Trace) -> Vec<(&'static str, Interval)> {
    trace
        .spans
        .iter()
        .map(|s| {
            (
                s.name,
                Interval {
                    id: s.id,
                    parent: s.parent,
                    start: s.start_ns,
                    end: s.end_ns,
                },
            )
        })
        .collect()
}

/// Total seconds and count of the spans called `name`.
pub fn span_total(spans: &[(&str, Interval)], name: &str) -> (f64, usize) {
    spans
        .iter()
        .filter(|(n, _)| *n == name)
        .fold((0.0, 0), |(t, c), (_, s)| {
            (t + s.end.saturating_sub(s.start) as f64 * 1e-9, c + 1)
        })
}

/// Share of the time of the spans called `name` that no child span covers
/// (1 when the program records no such span: all of it is dark).
pub fn unattributed_ratio(spans: &[(&str, Interval)], name: &str) -> f64 {
    match stats::unattributed(spans, name) {
        (0, _) => 1.0,
        (total, dark) => dark as f64 / total as f64,
    }
}

/// One train's timings and outputs.
struct Iteration {
    wall_s: f64,
    collect_s: f64,
    model_fit_s: f64,
    regress_s: f64,
    bottleneck_s: f64,
    save_s: f64,
    digest: u64,
    rows: usize,
    /// `inst_executed` summed over one repetition of the sweep.
    sweep_inst: f64,
    memo: gpu_sim::CacheStats,
    holdout_mape: f64,
    holdout: Vec<PredictionPoint>,
    mean_r2: f64,
    bundle_bytes: u64,
    predictor: ProblemScalingPredictor,
    dataset: Dataset,
}

fn train_once(
    bf: &BlackForest,
    family: Family,
    sizes: &[usize],
    bundle_path: &std::path::Path,
) -> Result<Iteration, String> {
    let workload = family.workload();
    let t0 = Instant::now();
    gpu_sim::reset_global_cache_stats();
    let (dataset, collect_s) = timed(|| bf.collect(workload, sizes));
    let dataset = dataset.map_err(|e| format!("collect: {e}"))?;
    let memo = gpu_sim::global_cache_stats();
    let (model, model_fit_s) = timed(|| BlackForestModel::fit(&dataset, &bf.config));
    let model = model.map_err(|e| format!("fit: {e}"))?;
    let chars: Vec<String> = workload
        .characteristics()
        .iter()
        .map(|c| c.to_string())
        .collect();
    let (counters, regress_s) =
        timed(|| CounterModelSet::fit(&model.train, &model.selected, &chars, ModelStrategy::Auto));
    let counters = counters.map_err(|e| format!("counter models: {e}"))?;
    let predictor = ProblemScalingPredictor { model, counters };
    let (bottlenecks, bottleneck_s) =
        timed(|| BottleneckReport::analyze(&predictor.model, 10.min(dataset.n_features())));
    let report = AnalysisReport {
        workload,
        gpu: bf.gpu.name.clone(),
        dataset,
        predictor,
        bottlenecks,
    };
    let (saved, save_s) =
        timed(|| ModelBundle::from_report(&report, &bf.gpu, sizes, false).save(bundle_path));
    saved.map_err(|e| format!("save bundle: {e}"))?;
    let wall_s = t0.elapsed().as_secs_f64();

    let ds = &report.dataset;
    let holdout = report
        .predictor
        .evaluate_holdout()
        .map_err(|e| format!("holdout: {e}"))?;
    let inst_col = ds.feature_index("inst_executed");
    let sweep_inst = inst_col.map_or(0.0, |j| ds.rows.iter().map(|r| r[j]).sum::<f64>())
        / bf.collect.repetitions as f64;
    Ok(Iteration {
        wall_s,
        collect_s,
        model_fit_s,
        regress_s,
        bottleneck_s,
        save_s,
        digest: stats::digest(&ds.feature_names, &ds.rows, &ds.response),
        rows: ds.len(),
        sweep_inst,
        memo,
        holdout_mape: summarize(&holdout).mape,
        holdout,
        mean_r2: report.predictor.counters.mean_r_squared(),
        bundle_bytes: std::fs::metadata(bundle_path).map_or(0, |m| m.len()),
        predictor: report.predictor,
        dataset: report.dataset,
    })
}

/// Absolute percentage errors of held-out predictions.
pub fn apes(points: &[PredictionPoint]) -> Vec<f64> {
    points
        .iter()
        .filter(|p| p.measured_ms != 0.0)
        .map(|p| 100.0 * ((p.predicted_ms - p.measured_ms) / p.measured_ms).abs())
        .collect()
}

/// Held-out absolute percentage errors of the chained predictor, as
/// `train` fits it, pooled over `ACCURACY_SPLITS` seeded splits of one
/// dataset: the run's own split (`first`, already measured) and splits
/// from seeds derived from the run's.
fn pooled_apes(
    dataset: &Dataset,
    workload: Workload,
    seed: u64,
    first: &[PredictionPoint],
) -> Result<Vec<f64>, String> {
    let chars: Vec<String> = workload
        .characteristics()
        .iter()
        .map(|c| c.to_string())
        .collect();
    let mut rng = Rng(seed);
    let mut pooled = apes(first);
    for _ in 1..ACCURACY_SPLITS {
        let config = ModelConfig {
            seed: rng.next_u64(),
            ..ModelConfig::default()
        };
        let model = BlackForestModel::fit(dataset, &config).map_err(|e| e.to_string())?;
        let counters =
            CounterModelSet::fit(&model.train, &model.selected, &chars, ModelStrategy::Auto)
                .map_err(|e| e.to_string())?;
        let holdout = ProblemScalingPredictor { model, counters }
            .evaluate_holdout()
            .map_err(|e| e.to_string())?;
        pooled.extend(apes(&holdout));
    }
    Ok(pooled)
}

/// Per-layer values of the simulator and the forest that both the train
/// and the hwscale workloads read from one traced unit of work: memo
/// counts from `gpu_sim`'s totals, everything else from the program's
/// spans.
pub fn sim_and_forest_layers(
    spans: &[(&str, Interval)],
    memo: gpu_sim::CacheStats,
    collect_s: f64,
    inst_executed: f64,
) -> Vec<(&'static str, f64)> {
    let simulated = memo.misses as f64;
    vec![
        ("gpu_sim.launches_simulated", simulated),
        ("gpu_sim.launches_per_s", simulated / collect_s),
        ("gpu_sim.sim_inst_per_s", inst_executed / collect_s),
        ("gpu_sim.memo_hits", memo.hits as f64),
        ("gpu_sim.memo_lookups", (memo.hits + memo.misses) as f64),
        ("gpu_sim.memo_hit_ratio", memo.hit_rate()),
        ("gpu_sim.launch_cpu_s", span_total(spans, "launch").0),
        ("gpu_sim.banks_cpu_s", span_total(spans, "banks").0),
        (
            "gpu_sim.issue_loop_cpu_s",
            span_total(spans, "issue_loop").0,
        ),
        ("gpu_sim.coalesce_cpu_s", span_total(spans, "coalesce").0),
        (
            "gpu_sim.trace_walk_cpu_s",
            span_total(spans, "trace_walk").0,
        ),
        (
            "gpu_sim.launch_unattributed_ratio",
            unattributed_ratio(spans, "launch"),
        ),
        ("forest.fit_forest_s", span_total(spans, "fit_forest").0),
        (
            "forest.fit_tree_count",
            span_total(spans, "fit_tree").1 as f64,
        ),
        ("forest.importance_s", span_total(spans, "importance").0),
        (
            "forest.fit_forest_unattributed_ratio",
            unattributed_ratio(spans, "fit_forest"),
        ),
    ]
}

/// Sets each per-layer metric to its median over the traced units (every
/// unit lists the same metrics in the same order).
pub fn set_median_layers(per: &[&[(&'static str, f64)]], out: &mut Outcome) {
    for (i, (name, _)) in per[0].iter().enumerate() {
        let values: Vec<f64> = per.iter().map(|l| l[i].1).collect();
        out.set(name, stats::median(&values));
    }
}

/// Per-layer values of one traced train.
fn layers(it: &Iteration, trace: &bf_trace::Trace) -> Vec<(&'static str, f64)> {
    let spans = intervals(trace);
    let timed_calls = it.collect_s + it.model_fit_s + it.regress_s + it.bottleneck_s + it.save_s;
    let mut layers = sim_and_forest_layers(&spans, it.memo, it.collect_s, it.sweep_inst);
    layers.extend([
        ("core.collect_s", it.collect_s),
        (
            "core.collect_unattributed_ratio",
            unattributed_ratio(&spans, "collect"),
        ),
        ("core.model_fit_s", it.model_fit_s),
        (
            "core.model_fit_unattributed_ratio",
            unattributed_ratio(&spans, "fit_model"),
        ),
        ("core.bottleneck_s", it.bottleneck_s),
        ("regress.fit_s", it.regress_s),
        ("regress.mean_r2", it.mean_r2),
        (
            "regress.fit_unattributed_ratio",
            unattributed_ratio(&spans, "fit_counter_models"),
        ),
        ("registry.bundle_save_s", it.save_s),
        ("registry.bundle_bytes", it.bundle_bytes as f64),
        ("trace.timed_calls_share", timed_calls / it.wall_s),
    ]);
    layers
}

pub fn run(ctx: &Ctx, family: Family) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let gpu = GpuConfig::gtx580();
    let sizes = family.sizes();
    // The CLI's `train`: 3 repetitions with 2% measurement noise and the
    // default (500-tree) model; the run's seed drives split and forests.
    let mut bf = BlackForest::new(gpu.clone()).with_config(ModelConfig {
        seed: ctx.seed,
        ..ModelConfig::default()
    });
    bf.collect = CollectOptions::default().with_repetitions(3, 0.02);
    let bundle_path = ctx.work.join("bundle.json");

    let measure = Instant::now();
    let mut setups = Vec::new();
    let mut untraced: Vec<Iteration> = Vec::new();
    let mut traced: Vec<(Iteration, Vec<(&'static str, f64)>)> = Vec::new();
    loop {
        // Set-up, once before every timed train so its median spans the
        // run: build the sweep's applications and check a fresh oracle
        // sample of their launches.
        let k = setups.len() as u64;
        let ((), setup_s) = timed(|| {
            let apps = family.applications(&sizes);
            oracle_sample(
                &gpu,
                &apps,
                ORACLE_SAMPLE,
                ctx.seed.wrapping_add(k),
                &mut out,
            );
        });
        setups.push(setup_s);
        // With --trace 1, traced and untraced iterations alternate so the
        // tracing overhead is measured under the same conditions.
        let trace_this = ctx.trace && untraced.len() > traced.len();
        if trace_this {
            bf_trace::enable();
        }
        out.attempted += 1;
        let it = train_once(&bf, family, &sizes, &bundle_path);
        if trace_this {
            bf_trace::disable();
        }
        let trace = trace_this.then(bf_trace::drain);
        let it = it.map_err(|e| format!("train failed: {e}"))?;
        let last = it.wall_s;
        match trace {
            Some(t) => {
                let l = layers(&it, &t);
                traced.push((it, l));
            }
            None => untraced.push(it),
        }
        // Two trains at least, for the determinism checks.
        let enough = if ctx.trace {
            !traced.is_empty()
        } else {
            untraced.len() >= 2
        };
        if enough && measure.elapsed().as_secs_f64() + last > ctx.seconds {
            break;
        }
    }

    // Checks, outside the timed region.
    let all: Vec<&Iteration> = untraced
        .iter()
        .chain(traced.iter().map(|(i, _)| i))
        .collect();
    let first = all[0];
    for it in &all[1..] {
        out.check(it.digest == first.digest, || {
            format!(
                "dataset digest {:016x} differs from the first iteration's {:016x}",
                it.digest, first.digest
            )
        });
        out.check(
            it.holdout_mape.to_bits() == first.holdout_mape.to_bits(),
            || "holdout MAPE differs between iterations of one seed".into(),
        );
    }
    let last = all[all.len() - 1];
    let (loaded, load_s) = timed(|| ModelBundle::load(&bundle_path));
    match loaded {
        Ok(bundle) => {
            out.check(!last.holdout.is_empty(), || "empty holdout split".into());
            for p in &last.holdout {
                let want = last.predictor.predict(&p.characteristics).map(f64::to_bits);
                let got = bundle
                    .predict(&p.characteristics)
                    .map(|r| r.predicted_ms.to_bits());
                out.check(matches!((&want, &got), (Ok(w), Ok(g)) if w == g), || {
                    format!(
                        "saved bundle predicts {got:?} at {:?}, in-memory {want:?}",
                        p.characteristics
                    )
                });
            }
        }
        Err(e) => out.check(false, || format!("load saved bundle: {e}")),
    }

    // Accuracy is an end-to-end metric only; the traced run skips it.
    let pooled = if ctx.trace {
        apes(&first.holdout)
    } else {
        pooled_apes(&first.dataset, family.workload(), ctx.seed, &first.holdout)
            .map_err(|e| format!("accuracy refit: {e}"))?
    };
    let walls: Vec<f64> = untraced.iter().map(|i| i.wall_s).collect();
    let train_s = stats::median(&walls);
    out.note(format!(
        "train: {} untraced + {} traced iterations, median {train_s:.4} s, dataset {} rows, \
         digest {:016x}; untraced trains {walls:.3?} s (the first one cold); set-ups \
         {setups:.4?} s, {ORACLE_SAMPLE} oracle launches each",
        untraced.len(),
        traced.len(),
        first.rows,
        first.digest
    ));
    out.note(
        "metric names on this workload: latency_ms = train_s (median), \
         throughput_per_s = dataset rows trained per second, error_pct = median \
         absolute percentage error of held-out predictions"
            .into(),
    );
    let splits = if ctx.trace { 1 } else { ACCURACY_SPLITS };
    out.note(format!(
        "holdout: {} predictions pooled over {splits} seeded splits: median APE {:.3}%, \
         MAPE {:.3}% (the run's own split: MAPE {:.3}%)",
        pooled.len(),
        stats::median(&pooled),
        pooled.iter().sum::<f64>() / pooled.len() as f64,
        first.holdout_mape
    ));
    out.set("setup_s", stats::median(&setups));
    out.set("latency_ms", train_s * 1e3);
    out.set("throughput_per_s", first.rows as f64 / train_s);
    out.set("error_pct", stats::median(&pooled));
    out.set("peak_rss_mb", crate::peak_rss_mb());
    if ctx.trace {
        let per: Vec<&[(&'static str, f64)]> = traced.iter().map(|(_, l)| l.as_slice()).collect();
        set_median_layers(&per, &mut out);
        let traced_walls: Vec<f64> = traced.iter().map(|(i, _)| i.wall_s).collect();
        out.set(
            "trace.overhead_ratio",
            stats::median(&traced_walls) / train_s,
        );
        out.set("registry.bundle_load_s", load_s);
    }
    Ok(out)
}
