//! Timing budgets of the simulator's always-on machinery.
//!
//! Two pieces of code run on every profiled launch whether or not anyone
//! asked for them, and each must stay close to free:
//!
//! * **Disabled tracing.** Every launch enters bf-trace spans and bumps
//!   counters; with the recorder off each probe is one relaxed atomic load.
//!   The probes a sweep would record, priced at their measured per-op cost,
//!   must stay under 1% of the sweep's single-threaded wall-clock time.
//! * **Memoization at a 0% hit rate.** On sweeps whose launches are all
//!   structurally unique (NW), a fresh [`SimCache`] pays key hashing for
//!   nothing. The memoized run must keep ≥ 0.90× the throughput of the
//!   uncached parallel run.
//!
//! The sweeps are small versions of the paper's three (NW lengths, Reduce6
//! sizes x block sizes, stencil sizes x sweep counts) on the GTX580. They
//! take milliseconds, so each mode's time is its median over 21 passes in
//! alternating order (see [`race`]). Timings mean nothing in a debug build;
//! run with
//!
//! ```text
//! cargo test --release -p bf-bench --test overhead_budget -- --include-ignored
//! ```
//!
//! The thread knob is the process-global `RAYON_NUM_THREADS`, so every
//! sweep runs inside one `#[test]`.

use bf_kernels::nw::nw_application;
use bf_kernels::reduce::{reduce_application, ReduceVariant};
use bf_kernels::stencil::stencil_application;
use bf_kernels::Application;
use gpu_sim::{profile_applications, GpuConfig, KernelTrace, ProfiledRun, SimCache};
use std::cell::Cell;
use std::time::Instant;

/// Passes per mode; each mode reports its median.
const PASSES: usize = 21;
/// Largest share of a sweep's sequential time disabled probes may cost.
const TRACE_OVERHEAD_CEILING: f64 = 0.01;
/// Smallest memoized-vs-parallel speed ratio allowed at a < 5% hit rate.
const MEMO_SPEED_FLOOR: f64 = 0.90;

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

type Pass<'a> = &'a dyn Fn() -> Vec<ProfiledRun>;

/// Times every mode `passes` times. Each pass runs the first mode, then the
/// others forward on even passes and backward on odd ones, so every later
/// mode follows each of the others equally often and load drift on the
/// host favours none of them. Returns each mode's median wall-clock time.
fn race<const N: usize>(passes: usize, modes: [Pass; N]) -> [f64; N] {
    let mut times: [Vec<f64>; N] = std::array::from_fn(|_| Vec::with_capacity(passes));
    for pass in 0..passes {
        let order = (0..N).map(|k| if pass % 2 == 0 || k == 0 { k } else { N - k });
        for m in order {
            let t0 = Instant::now();
            std::hint::black_box(modes[m]());
            times[m].push(t0.elapsed().as_secs_f64());
        }
    }
    times.map(|mut t| {
        t.sort_by(f64::total_cmp);
        t[t.len() / 2]
    })
}

fn check_sweep(name: &str, gpu: &GpuConfig, apps: &[Application], probes: &ProbeCosts) {
    let batch: Vec<(&str, &[Box<dyn KernelTrace>])> = apps
        .iter()
        .map(|a| (a.name.as_str(), a.launches.as_slice()))
        .collect();
    let profile = |cache: Option<&SimCache>| {
        profile_applications(gpu, &batch, cache).unwrap_or_else(|e| panic!("{name}: {e}"))
    };

    // Sequential baseline (one worker, no memoization), launch-parallel
    // with no cache, and launch-parallel with a fresh memo cache per pass
    // (its hit rate is read from the last pass).
    let hit_rate = Cell::new(0.0);
    let [sequential_seconds, parallel_seconds, cached_seconds] = race(
        PASSES,
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
                hit_rate.set(cache.stats().hit_rate());
                runs
            },
        ],
    );

    // Count (off the clock) what the sweep would record with tracing on,
    // then price the disabled probes against the sequential baseline.
    let (_, trace) = bf_trace::capture(|| profile(Some(&SimCache::new())));
    let spans = trace.spans.len() as f64;
    let counter_incs = trace.counters.values().sum::<u64>() as f64;
    let overhead =
        (spans * probes.span_ns + counter_incs * probes.counter_ns) / (sequential_seconds * 1e9);
    assert!(
        overhead < TRACE_OVERHEAD_CEILING,
        "disabled tracing must cost < 1% of the {name} sweep: \
         {spans} spans x {:.2}ns + {counter_incs} counters x {:.2}ns \
         = {:.4}% of {sequential_seconds:.4}s",
        probes.span_ns,
        probes.counter_ns,
        overhead * 100.0,
    );

    // At ~0% hit rate the memoized run pays key hashing for nothing.
    let cached_vs_parallel = parallel_seconds / cached_seconds;
    if hit_rate.get() < 0.05 {
        assert!(
            cached_vs_parallel >= MEMO_SPEED_FLOOR,
            "{name}: memoization overhead too high at {:.1}% hit rate: \
             cached {cached_seconds:.4}s vs parallel {parallel_seconds:.4}s \
             ({cached_vs_parallel:.3}x < {MEMO_SPEED_FLOOR:.2}x)",
            hit_rate.get() * 100.0,
        );
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing budgets only hold in release builds"
)]
fn disabled_tracing_and_zero_hit_memoization_stay_within_budget() {
    let gpu = GpuConfig::gtx580();
    let nw: Vec<Application> = (1..=8).map(|k| nw_application(k * 64, 10)).collect();
    let reduce: Vec<Application> = (14..=16)
        .flat_map(|e| {
            [64, 256]
                .into_iter()
                .map(move |t| reduce_application(ReduceVariant::Reduce6, 1 << e, t))
        })
        .collect();
    let stencil: Vec<Application> = [64, 128]
        .into_iter()
        .flat_map(|n| {
            [1, 2, 4]
                .into_iter()
                .map(move |s| stencil_application(n, s))
        })
        .collect();

    let probes = measure_probe_costs();
    for (name, apps) in [("nw", &nw), ("reduce", &reduce), ("stencil", &stencil)] {
        check_sweep(name, &gpu, apps, &probes);
    }
}
