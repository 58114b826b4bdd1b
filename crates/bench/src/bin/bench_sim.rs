//! Simulation-throughput trajectory: sequential vs parallel vs memoized vs
//! disk-persistent.
//!
//! Profiles the paper's three sweeps (NW lengths, Reduce6 sizes x block
//! sizes, stencil sizes x sweep counts) through
//! [`gpu_sim::profile_applications`] five ways — single-threaded with no
//! cache, launch-parallel with no cache, launch-parallel with a fresh
//! in-memory [`SimCache`], and twice against a fresh on-disk cache
//! directory (cold, then warm; each pass opens its own [`DiskCache`], as a
//! separate process would) — timing each and reading the process-wide
//! cache counters. A per-phase hot-path breakdown (trace walk, coalesce,
//! banks, issue loop) is additionally measured from bf-trace spans, off the
//! clock. Results land in `BENCH_sim.json` so the speedups, hit rates, and
//! phase profile are tracked as first-class artifacts.
//!
//! Pass `--quick` (or set `BF_QUICK=1`) to shrink the sweeps for smoke
//! runs. Parallel speedup scales with host cores; the report records the
//! host's thread count so a 1-core CI box reporting ~1.0x is legible.

use bf_kernels::nw::nw_application;
use bf_kernels::reduce::{reduce_application, ReduceVariant};
use bf_kernels::stencil::stencil_application;
use bf_kernels::Application;
use blackforest::collect::{paper_nw_lengths, paper_reduce_sweep};
use gpu_sim::{profile_applications, DiskCache, GpuConfig, KernelTrace, ProfiledRun, SimCache};
use serde::Serialize;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Hot-path span names whose totals form the per-phase breakdown. The
/// compile passes (`trace_walk`, `coalesce`, `banks`) and the dynamic
/// `issue_loop` live in `gpu_sim::soa`; `launch` wraps one whole launch.
const HOT_PHASES: [&str; 5] = ["trace_walk", "coalesce", "banks", "issue_loop", "launch"];

#[derive(Debug, Serialize)]
struct SweepPoint {
    sweep: String,
    /// Applications profiled per pass.
    rows: usize,
    sequential_seconds: f64,
    parallel_seconds: f64,
    cached_seconds: f64,
    parallel_speedup: f64,
    cached_speedup: f64,
    /// Memoized run against the parallel (cache-off) baseline. On sweeps
    /// with ~0% hit rate (NW: every launch structurally unique) this is the
    /// pure cost of key hashing, asserted to stay near 1.0.
    cached_vs_parallel: f64,
    cache_hits: u64,
    cache_misses: u64,
    cache_hit_rate: f64,
    /// First run against a fresh cache directory (simulates + persists).
    disk_cold_seconds: f64,
    /// Re-run against the now-populated directory (replays from disk).
    disk_warm_seconds: f64,
    disk_warm_speedup: f64,
    disk_warm_hits: u64,
    disk_warm_hit_rate: f64,
    /// Wall-clock totals per hot-path span, summed over a traced sequential
    /// run (seconds; measured off the clock, see `HOT_PHASES`).
    phase_seconds: BTreeMap<String, f64>,
    /// Spans this sweep would record with tracing on (counted off the clock).
    trace_spans: u64,
    /// Counter increments this sweep would record with tracing on.
    trace_counter_incs: u64,
    /// Estimated fraction of the sequential wall-clock spent on *disabled*
    /// tracing probes: `ops x per-op cost / sequential_seconds`. Must stay
    /// under 1% — the instrumentation is free when off.
    disabled_trace_overhead: f64,
}

/// Measured per-operation cost of tracing probes while the recorder is off.
struct ProbeCosts {
    span_ns: f64,
    counter_ns: f64,
}

/// Times a disabled `span!` and a disabled `counter!` — each should be one
/// relaxed atomic load. `black_box` keeps the loop from being deleted.
fn measure_probe_costs() -> ProbeCosts {
    assert!(
        !bf_trace::enabled(),
        "probes must be timed with tracing off"
    );
    const ITERS: u64 = 2_000_000;
    let t0 = Instant::now();
    for _ in 0..ITERS {
        std::hint::black_box(bf_trace::span!("overhead_probe"));
    }
    let span_ns = t0.elapsed().as_nanos() as f64 / ITERS as f64;
    let t0 = Instant::now();
    for i in 0..ITERS {
        bf_trace::counter!("overhead_probe", std::hint::black_box(i % 2));
    }
    let counter_ns = t0.elapsed().as_nanos() as f64 / ITERS as f64;
    ProbeCosts {
        span_ns,
        counter_ns,
    }
}

#[derive(Debug, Serialize)]
struct BenchReport {
    benchmark: String,
    host_threads: usize,
    quick: bool,
    points: Vec<SweepPoint>,
}

type Pass<'a> = &'a dyn Fn() -> Vec<ProfiledRun>;

/// Times every mode `passes` times. Each pass runs the first mode, then the
/// others forward on even passes and backward on odd ones, so every later
/// mode follows each of the others equally often and load drift on the
/// host favours none of them. Returns each mode's median wall-clock time
/// and its last output.
fn race<const N: usize>(passes: usize, modes: [Pass; N]) -> [(f64, Vec<ProfiledRun>); N] {
    let passes = passes.max(1);
    let mut times: [Vec<f64>; N] = std::array::from_fn(|_| Vec::with_capacity(passes));
    let mut outs: [Vec<ProfiledRun>; N] = std::array::from_fn(|_| Vec::new());
    for pass in 0..passes {
        let order = (0..N).map(|k| if pass % 2 == 0 || k == 0 { k } else { N - k });
        for m in order {
            let t0 = Instant::now();
            outs[m] = modes[m]();
            times[m].push(t0.elapsed().as_secs_f64());
        }
    }
    let medians = times.map(|mut t| {
        t.sort_by(f64::total_cmp);
        t[t.len() / 2]
    });
    std::array::from_fn(|m| (medians[m], std::mem::take(&mut outs[m])))
}

/// Exact bit pattern of every profiled time and counter value.
fn fingerprint(runs: &[ProfiledRun]) -> Vec<u64> {
    let mut bits = Vec::new();
    for r in runs {
        bits.push(r.time_ms.to_bits());
        bits.extend(
            r.counters
                .names()
                .iter()
                .map(|n| r.counters.get(n).unwrap().to_bits()),
        );
    }
    bits
}

/// A throwaway per-sweep cache directory (fresh every invocation).
fn fresh_cache_dir(sweep: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("bf-bench-simcache-{}-{sweep}", std::process::id()));
    drop(std::fs::remove_dir_all(&dir));
    dir
}

fn run_sweep(
    name: &str,
    gpu: &GpuConfig,
    apps: &[Application],
    probes: &ProbeCosts,
    quick: bool,
) -> SweepPoint {
    let batch: Vec<(&str, &[Box<dyn KernelTrace>])> = apps
        .iter()
        .map(|a| (a.name.as_str(), a.launches.as_slice()))
        .collect();
    let profile = |cache: Option<&SimCache>| {
        profile_applications(gpu, &batch, cache).unwrap_or_else(|e| panic!("{name}: {e}"))
    };
    let rows = apps.len();
    // Quick sweeps take milliseconds: each mode reports its median over
    // several passes so scheduler noise does not decide the overhead gate
    // below.
    let passes = if quick { 21 } else { 1 };

    // Sequential baseline (one worker, no memoization, no disk),
    // launch-parallel still cold every launch, and launch-parallel with the
    // content-addressed memo cache (a fresh one per pass; the counters
    // report the last pass).
    let stats = Cell::new(None);
    let [(sequential_seconds, sequential), (parallel_seconds, _), (cached_seconds, _)] = race(
        passes,
        [
            &|| {
                std::env::set_var("RAYON_NUM_THREADS", "1");
                let runs = profile(None);
                std::env::remove_var("RAYON_NUM_THREADS");
                runs
            },
            &|| profile(None),
            &|| {
                let cache = SimCache::new();
                let runs = profile(Some(&cache));
                stats.set(Some(cache.stats()));
                runs
            },
        ],
    );
    let stats = stats.get().expect("the memoized mode ran");

    // Count (off the clock) what the sweep would record with tracing on,
    // then price the disabled probes against the sequential baseline. The
    // same capture yields the per-phase hot-path breakdown.
    let (_, trace) = bf_trace::capture(|| profile(Some(&SimCache::new())));
    let trace_spans = trace.spans.len() as u64;
    let trace_counter_incs: u64 = trace.counters.values().sum();
    let mut phase_seconds: BTreeMap<String, f64> =
        HOT_PHASES.iter().map(|p| (p.to_string(), 0.0)).collect();
    for span in &trace.spans {
        if let Some(total) = phase_seconds.get_mut(span.name) {
            *total += span.duration_ns() as f64 / 1e9;
        }
    }
    let probe_ns =
        trace_spans as f64 * probes.span_ns + trace_counter_incs as f64 * probes.counter_ns;
    let disabled_trace_overhead = probe_ns / (sequential_seconds * 1e9);
    assert!(
        disabled_trace_overhead < 0.01,
        "disabled tracing must cost < 1% of the {name} sweep: \
         {trace_spans} spans x {:.2}ns + {trace_counter_incs} counters x {:.2}ns \
         = {:.4}% of {sequential_seconds:.3}s",
        probes.span_ns,
        probes.counter_ns,
        disabled_trace_overhead * 100.0,
    );

    // Persistent disk tier: cold against a fresh directory (simulate +
    // persist), then warm against the same one (replay). The warm pass is
    // where cross-run reuse shows up — including NW, whose launches are
    // structurally unique *within* a run and so never hit the memory tier.
    let dir = fresh_cache_dir(name);
    let disk_pass = || {
        let cache = SimCache::with_disk(Arc::new(DiskCache::open(&dir).expect("open the cache")));
        gpu_sim::reset_global_cache_stats();
        let runs = profile(Some(&cache));
        (runs, cache.stats(), gpu_sim::global_disk_cache_stats())
    };
    let warm_stats = Cell::new(None);
    let [(disk_cold_seconds, _), (disk_warm_seconds, warm_runs)] = race(
        passes,
        [
            &|| {
                drop(std::fs::remove_dir_all(&dir));
                disk_pass().0
            },
            &|| {
                let (runs, warm, warm_disk) = disk_pass();
                warm_stats.set(Some((warm, warm_disk)));
                runs
            },
        ],
    );
    let (warm, warm_disk) = warm_stats.get().expect("the warm mode ran");
    drop(std::fs::remove_dir_all(&dir));
    assert_eq!(
        fingerprint(&sequential),
        fingerprint(&warm_runs),
        "{name}: disk-warm run changed the profiled values"
    );
    assert!(
        warm.hits > 0,
        "{name}: warm disk-cache run must hit ({warm:?})"
    );
    assert!(
        warm_disk.hits > 0,
        "{name}: warm hits must come from the disk tier ({warm_disk:?})"
    );

    // At ~0% hit rate the memoized run pays key hashing for nothing; the
    // incremental hasher keeps that under a few percent of the parallel
    // baseline. Quick sweeps are sub-second, so give timing noise room.
    let cached_vs_parallel = parallel_seconds / cached_seconds;
    let floor = if quick { 0.90 } else { 0.98 };
    if stats.hit_rate() < 0.05 {
        assert!(
            cached_vs_parallel >= floor,
            "{name}: memoization overhead too high at {:.1}% hit rate: \
             cached {cached_seconds:.3}s vs parallel {parallel_seconds:.3}s \
             ({cached_vs_parallel:.3}x < {floor:.2}x)",
            stats.hit_rate() * 100.0,
        );
    }

    let point = SweepPoint {
        sweep: name.to_string(),
        rows,
        sequential_seconds,
        parallel_seconds,
        cached_seconds,
        parallel_speedup: sequential_seconds / parallel_seconds,
        cached_speedup: sequential_seconds / cached_seconds,
        cached_vs_parallel,
        cache_hits: stats.hits,
        cache_misses: stats.misses,
        cache_hit_rate: stats.hit_rate(),
        disk_cold_seconds,
        disk_warm_seconds,
        disk_warm_speedup: disk_cold_seconds / disk_warm_seconds,
        disk_warm_hits: warm.hits,
        disk_warm_hit_rate: warm.hit_rate(),
        phase_seconds,
        trace_spans,
        trace_counter_incs,
        disabled_trace_overhead,
    };
    println!(
        "{name:>9}: seq {sequential_seconds:>7.3}s  par {parallel_seconds:>7.3}s \
         ({:>5.2}x)  cached {cached_seconds:>7.3}s ({:>5.2}x)  \
         hits {}/{} ({:.1}%)  disk cold {disk_cold_seconds:>7.3}s \
         warm {disk_warm_seconds:>7.3}s ({:>5.2}x, {:.1}% hits)  \
         trace-off overhead {:.4}%",
        point.parallel_speedup,
        point.cached_speedup,
        stats.hits,
        stats.hits + stats.misses,
        point.cache_hit_rate * 100.0,
        point.disk_warm_speedup,
        point.disk_warm_hit_rate * 100.0,
        point.disabled_trace_overhead * 100.0,
    );
    println!(
        "           phases: {}",
        point
            .phase_seconds
            .iter()
            .map(|(p, s)| format!("{p} {s:.3}s"))
            .collect::<Vec<_>>()
            .join("  "),
    );
    point
}

fn main() {
    if std::env::args().any(|a| a == "--quick") {
        std::env::set_var("BF_QUICK", "1");
    }
    let quick = bf_bench::quick_mode();
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    bf_bench::banner(
        "Bench",
        "Profiling sweep wall-clock: sequential vs parallel vs memoized",
    );
    println!("host threads: {host_threads}  quick: {quick}");

    let gpu = GpuConfig::gtx580();

    let nw_lengths: Vec<usize> = if quick {
        (1..=8).map(|k| k * 64).collect()
    } else {
        paper_nw_lengths()
    };
    let (reduce_sizes, reduce_threads) = if quick {
        ((14..=16).map(|e| 1usize << e).collect(), vec![64, 256])
    } else {
        paper_reduce_sweep()
    };
    let (stencil_sizes, stencil_sweeps): (Vec<usize>, Vec<usize>) = if quick {
        (vec![64, 128], vec![1, 2, 4])
    } else {
        (vec![64, 128, 256, 512], vec![1, 2, 4, 8])
    };
    // The same applications `collect_nw`, `collect_reduce` and
    // `collect_stencil` profile for these sweeps.
    let nw: Vec<Application> = nw_lengths.iter().map(|&n| nw_application(n, 10)).collect();
    let reduce: Vec<Application> = reduce_sizes
        .iter()
        .flat_map(|&n| {
            reduce_threads
                .iter()
                .map(move |&t| reduce_application(ReduceVariant::Reduce6, n, t))
        })
        .collect();
    let stencil: Vec<Application> = stencil_sizes
        .iter()
        .flat_map(|&n| {
            stencil_sweeps
                .iter()
                .map(move |&s| stencil_application(n, s))
        })
        .collect();

    let probes = measure_probe_costs();
    println!(
        "disabled probe costs: span {:.2}ns  counter {:.2}ns",
        probes.span_ns, probes.counter_ns
    );

    let points = vec![
        run_sweep("nw", &gpu, &nw, &probes, quick),
        run_sweep("reduce", &gpu, &reduce, &probes, quick),
        run_sweep("stencil", &gpu, &stencil, &probes, quick),
    ];

    let report = BenchReport {
        benchmark: "sim_sequential_vs_parallel_vs_memoized".to_string(),
        host_threads,
        quick,
        points,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize");
    std::fs::write("BENCH_sim.json", &json).expect("write BENCH_sim.json");
    println!("wrote BENCH_sim.json");
}
