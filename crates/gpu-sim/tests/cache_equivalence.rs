//! Memoized replay is bit-identical to uncached simulation.
//!
//! [`profile_applications`] takes the memo cache as an argument: `None`
//! simulates every launch, a [`SimCache`] replays structurally identical
//! launches from memory, and a disk-backed one also replays launches an
//! earlier process persisted. Launch simulation is pure, so all three must
//! produce the same `ProfiledRun`s bit for bit — at any worker-thread
//! count, because accumulation walks the results in issue order. The
//! workloads cover the memo's three regimes: reduce6 (shared tail passes
//! hit), NW (every launch unique, 0% hit rate) and the stencil (repeated
//! sweeps hit). A second pass through a warm memory cache, and the warm
//! disk pass, must be answered from the cache, not re-simulated.
//!
//! The thread knob is the process-global `RAYON_NUM_THREADS`, so every
//! scenario runs inside one `#[test]`.

use bf_kernels::nw::nw_application;
use bf_kernels::reduce::{reduce_application, ReduceVariant};
use bf_kernels::stencil::stencil_application;
use bf_kernels::Application;
use gpu_sim::{profile_applications, DiskCache, GpuConfig, KernelTrace, ProfiledRun, SimCache};
use std::sync::Arc;

/// Exact bit pattern of every name, time, power and counter value.
fn fingerprint(runs: &[ProfiledRun]) -> Vec<(String, Vec<u64>)> {
    runs.iter()
        .map(|r| {
            let mut bits = vec![r.time_ms.to_bits(), r.avg_power_w.to_bits()];
            for name in r.counters.names() {
                bits.push(r.counters.get(name).unwrap().to_bits());
            }
            (r.kernel.clone(), bits)
        })
        .collect()
}

fn profile(gpu: &GpuConfig, apps: &[Application], cache: Option<&SimCache>) -> Vec<ProfiledRun> {
    let apps: Vec<(&str, &[Box<dyn KernelTrace>])> = apps
        .iter()
        .map(|a| (a.name.as_str(), a.launches.as_slice()))
        .collect();
    profile_applications(gpu, &apps, cache).unwrap()
}

#[test]
fn uncached_memory_and_disk_caches_agree_bit_for_bit_at_any_thread_count() {
    let gpu = GpuConfig::gtx580();
    let mut reduce = Vec::new();
    for size in [1 << 14, 1 << 16] {
        for threads in [64, 256] {
            reduce.push(reduce_application(ReduceVariant::Reduce6, size, threads));
        }
    }
    let nw = vec![nw_application(64, 10), nw_application(128, 10)];
    let mut stencil = Vec::new();
    for size in [32, 48] {
        for sweeps in [1, 3] {
            stencil.push(stencil_application(size, sweeps));
        }
    }
    let dir = std::env::temp_dir().join(format!("bf-cache-equivalence-{}", std::process::id()));
    let saved_threads = std::env::var("RAYON_NUM_THREADS").ok();

    for (name, apps) in [("reduce6", &reduce), ("nw", &nw), ("stencil", &stencil)] {
        std::env::set_var("RAYON_NUM_THREADS", "1");
        let reference = fingerprint(&profile(&gpu, apps, None));
        for threads in ["1", "4"] {
            std::env::set_var("RAYON_NUM_THREADS", threads);
            let check = |mode: &str, runs: &[ProfiledRun]| {
                assert_eq!(
                    fingerprint(runs),
                    reference,
                    "{name}: {mode} drifted at threads={threads}"
                );
            };
            check("uncached", &profile(&gpu, apps, None));

            let memory = SimCache::new();
            check("memory cache", &profile(&gpu, apps, Some(&memory)));
            // With several workers, two copies of a launch may simulate at
            // once and both miss; one worker must replay the second copy.
            if name != "nw" && threads == "1" {
                assert!(memory.stats().hits > 0, "{name}: memory cache never hit");
            }
            // A second pass through the same cache must replay every launch
            // at any thread count, NW included.
            let first = memory.stats();
            check(
                "memory cache (second pass)",
                &profile(&gpu, apps, Some(&memory)),
            );
            let second = memory.stats();
            assert_eq!(
                second.misses, first.misses,
                "{name}: second memory pass re-simulated at threads={threads}"
            );
            assert!(
                second.hits > first.hits,
                "{name}: second memory pass never hit at threads={threads}"
            );

            drop(std::fs::remove_dir_all(&dir));
            let cold = SimCache::with_disk(Arc::new(DiskCache::open(&dir).unwrap()));
            check("disk cache (cold)", &profile(&gpu, apps, Some(&cold)));
            drop(cold);
            // A fresh handle reloads the log, as a second process would.
            let warm = SimCache::with_disk(Arc::new(DiskCache::open(&dir).unwrap()));
            gpu_sim::reset_global_cache_stats();
            check("disk cache (warm)", &profile(&gpu, apps, Some(&warm)));
            assert_eq!(warm.stats().misses, 0, "{name}: warm disk run re-simulated");
            let disk = gpu_sim::global_disk_cache_stats();
            assert!(
                disk.hits > 0,
                "{name}: warm hits must come from the disk tier ({disk:?})"
            );
        }
    }

    drop(std::fs::remove_dir_all(&dir));
    match saved_threads {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
}
