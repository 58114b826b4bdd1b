//! End-to-end and per-layer benchmark of BlackForest's three user-facing
//! paths: an offline `train`, the `hwscale` scope sweep and a served
//! `POST /predict`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload train-nw --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One process runs one workload. It drives the system only through the
//! public API, times each call from here, checks the outputs, and prints
//! every metric by name and unit. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end set, measured with tracing
//! off; with `--trace 1` they are the per-layer set, taken from a traced
//! run (plus untraced iterations, for the tracing overhead). Every
//! workload prints every metric of the set; a layer a workload does not
//! use reads 0. `perfbench/METRICS.md` maps each layer metric to the
//! end-to-end metric it should move. A failed check counts as a failed
//! operation and makes the process exit with code 1.

mod hwscale;
mod serve;
mod stats;
mod train;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// End-to-end metrics, reported by every workload with `--trace 0`.
/// What a "unit of work" is depends on the workload: one full `train`,
/// one `sweep_scopes`, or one open-loop `/predict` request. No tail metric
/// gates: a run holds too few trains or sweeps for a percentile, and on a
/// shared host the open loop's p99 follows the hypervisor (one run in five
/// read 3.4 ms against 0.8 ms), so it is the per-layer `serve.p99_us`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("error_pct", "%"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("gpu_sim.launches_simulated", "count"),
    ("gpu_sim.launches_per_s", "1/s"),
    ("gpu_sim.sim_inst_per_s", "1/s"),
    ("gpu_sim.memo_hits", "count"),
    ("gpu_sim.memo_lookups", "count"),
    ("gpu_sim.memo_hit_ratio", "ratio"),
    ("gpu_sim.launch_cpu_s", "s"),
    ("gpu_sim.banks_cpu_s", "s"),
    ("gpu_sim.issue_loop_cpu_s", "s"),
    ("gpu_sim.coalesce_cpu_s", "s"),
    ("gpu_sim.trace_walk_cpu_s", "s"),
    ("gpu_sim.launch_unattributed_ratio", "ratio"),
    ("core.collect_s", "s"),
    ("core.collect_unattributed_ratio", "ratio"),
    ("core.model_fit_s", "s"),
    ("core.model_fit_unattributed_ratio", "ratio"),
    ("core.bottleneck_s", "s"),
    ("forest.fit_forest_s", "s"),
    ("forest.fit_tree_count", "count"),
    ("forest.importance_s", "s"),
    ("forest.fit_forest_unattributed_ratio", "ratio"),
    ("forest.predict_batch_rows_per_s", "1/s"),
    ("regress.fit_s", "s"),
    ("regress.mean_r2", "ratio"),
    ("regress.fit_unattributed_ratio", "ratio"),
    ("registry.bundle_save_s", "s"),
    ("registry.bundle_bytes", "bytes"),
    ("registry.bundle_load_s", "s"),
    ("hwscale.collect_zoo_s", "s"),
    ("hwscale.sweep_fit_s", "s"),
    ("hwscale.evaluations", "count"),
    ("serve.p99_us", "us"),
    ("serve.server_p50_us", "us"),
    ("serve.parse_p50_us", "us"),
    ("serve.predict_p50_us", "us"),
    ("serve.serialize_p50_us", "us"),
    ("serve.transport_p50_us", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.batch_rows_mean", "rows"),
    ("serve.queue_rejections", "count"),
    ("loadgen.late_p99_us", "us"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.timed_calls_share", "ratio"),
];

/// The workloads, with the seed each uses when none is given.
pub const WORKLOADS: [(&str, u64); 4] = [
    ("train-nw", 2016),
    ("train-stencil", 2016),
    ("serve-predict", 1),
    ("hwscale-reduce1", 2016),
];

/// What one run is asked to do.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Worker threads for the simulator/forest pool and for the server.
    pub threads: usize,
    /// Scratch directory for bundles, inside the checkout.
    pub work: PathBuf,
}

/// A run's result: operations, checks and metrics.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Lines printed above the result: sample counts, the per-workload
    /// names of the generic metrics, and check failures.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records one correctness check; the first few failures are described.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                self.notes.push(format!("CHECK FAILED: {}", what()));
            }
        }
    }
}

struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: None,
        seconds: 20.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => {
                let v = value()?;
                args.seed = Some(v.parse().map_err(|_| format!("bad --seed {v:?}"))?);
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v:?}: expected 0 or 1")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.iter().any(|(w, _)| *w == args.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|(w, _)| *w).collect();
        return Err(format!(
            "--workload {:?}: expected one of {}",
            args.workload,
            names.join(", ")
        ));
    }
    Ok(args)
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The commit the checkout was made from, when it is a git work tree.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let rev = match head.trim().strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r)).unwrap_or_default(),
        None => head,
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".into()
    } else {
        rev.chars().take(12).collect()
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Hermetic runs: no persistent simulation cache (a warm one skips
    // simulation entirely), the in-memory memo at its default, and the
    // simulator/forest pool pinned to the host's cores.
    std::env::remove_var("BF_SIM_CACHE_DIR");
    std::env::remove_var("BF_SIM_CACHE");
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    let seed = args.seed.unwrap_or_else(|| {
        WORKLOADS
            .iter()
            .find(|(w, _)| *w == args.workload)
            .map(|(_, s)| *s)
            .expect("workload validated")
    });
    let work = std::env::current_dir()
        .map_err(|e| format!("cwd: {e}"))?
        .join(".bench_work")
        .join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    println!(
        "context: workload={} seed={seed} seconds={} trace={} host_cores={threads} \
         rayon_threads={threads} server_threads={threads} git_rev={}",
        args.workload,
        args.seconds,
        args.trace as u8,
        git_rev()
    );
    let ctx = Ctx {
        seed,
        seconds: args.seconds,
        trace: args.trace,
        threads,
        work: work.clone(),
    };
    let ticks = stats::cpu_ticks();
    let result = match args.workload.as_str() {
        "train-nw" => train::run(&ctx, train::Family::Nw),
        "train-stencil" => train::run(&ctx, train::Family::Stencil),
        "serve-predict" => serve::run(&ctx),
        "hwscale-reduce1" => hwscale::run(&ctx),
        _ => unreachable!("workload validated"),
    };
    let _ = std::fs::remove_dir_all(&work);
    // Time the hypervisor gave to other guests inflates every wall time;
    // recorded so a slow run on a shared host can be told from a slow
    // program.
    result.map(|mut o| {
        o.note(format!(
            "host: {:.1}% of the CPU time this run wanted was stolen by the hypervisor",
            100.0 * stats::steal_share(ticks, stats::cpu_ticks())
        ));
        o
    })
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("error: refusing to measure a debug build; run with --release");
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    let set: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for line in &outcome.notes {
        println!("{line}");
    }
    let mut fields = Vec::with_capacity(set.len());
    for (name, unit) in set {
        match outcome.metrics.get(name).copied() {
            Some(v) if v.is_finite() => {
                println!("{name:<38} {v:>16.6} {unit}");
                fields.push(format!(
                    "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
                ));
            }
            // A layer this workload does not use reads 0.
            None if args.trace => {
                println!("{name:<38} {:>16} {unit}  (layer not used)", 0);
                fields.push(format!(
                    "\"{name}\": {{\"value\": 0.0, \"unit\": \"{unit}\"}}"
                ));
            }
            // A missing or non-finite end-to-end metric is a defect of
            // the run, never a zero.
            _ => {
                outcome.attempted += 1;
                outcome.failed += 1;
                println!("{name:<38} {:>16} {unit}  MISSING OR NOT FINITE", "-");
                fields.push(format!(
                    "\"{name}\": {{\"value\": 0.0, \"unit\": \"{unit}\"}}"
                ));
            }
        }
    }
    let correct = outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
