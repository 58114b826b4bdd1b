//! NW cache regression: repeated collections must hit the persistent
//! simulation cache, and a corrupted cache file must degrade to a clean
//! re-simulation — never to a crash or a changed dataset.
//!
//! Background: within one collection run, every NW launch is structurally
//! unique (one launch per anti-diagonal, each with a different grid), so
//! the in-memory memo tier legitimately scores a 0% hit rate on NW — the
//! repetitions knob clones one profiled run, it does not re-simulate. The
//! reuse that *is* available is **across runs**: sweeping the same lengths
//! again re-simulates identical launches. The disk tier
//! ([`gpu_sim::DiskCache`], enabled via `BF_SIM_CACHE_DIR`) captures
//! exactly that, and this test pins it: a second `collect_nw` over the same
//! lengths answers from disk, bit-identically.
//!
//! All scenarios share one `#[test]` because the cache-dir knob is a
//! process-global environment variable (same pattern as `determinism.rs`).

use blackforest::collect::{collect_nw, CollectOptions};
use blackforest::Dataset;
use gpu_sim::GpuConfig;
use std::io::{Read, Seek, SeekFrom, Write};

/// Exact bit pattern of every feature cell and response value.
fn fingerprint(ds: &Dataset) -> Vec<u64> {
    let mut bits = Vec::with_capacity(ds.len() * (ds.n_features() + 1));
    for row in &ds.rows {
        bits.extend(row.iter().map(|v| v.to_bits()));
    }
    bits.extend(ds.response.iter().map(|v| v.to_bits()));
    bits
}

#[test]
fn nw_collection_reuses_the_disk_cache_across_runs() {
    let dir = std::env::temp_dir().join(format!("bf-nw-diskcache-{}", std::process::id()));
    drop(std::fs::remove_dir_all(&dir));
    std::env::set_var("BF_SIM_CACHE_DIR", &dir);

    let gpu = GpuConfig::gtx580();
    // Repetitions + noise on: the expanded observations must replay the
    // same noise stream regardless of where the simulation came from.
    let opts = CollectOptions::default().with_repetitions(3, 0.02);
    let lengths = [64, 128];

    // Cold run: nothing on disk, everything simulates and is persisted.
    gpu_sim::reset_global_cache_stats();
    let cold = collect_nw(&gpu, &lengths, &opts).unwrap();
    let cold_disk = gpu_sim::global_disk_cache_stats().misses;
    assert!(
        cold_disk > 0,
        "cold run must register disk misses (disk tier not wired?)"
    );

    // Warm run: a fresh process would build fresh SimCaches over the same
    // directory; a second collect in this process does exactly that (each
    // collect constructs its own cache via SimCache::from_env).
    gpu_sim::reset_global_cache_stats();
    let warm = collect_nw(&gpu, &lengths, &opts).unwrap();
    let warm_hits = gpu_sim::global_disk_cache_stats().hits;
    let stats = gpu_sim::global_cache_stats();
    assert!(
        warm_hits > 0,
        "NW re-collection must hit the disk cache (got {stats:?})"
    );
    assert_eq!(
        stats.misses, 0,
        "every NW launch was already cached, nothing should re-simulate"
    );
    assert_eq!(
        fingerprint(&warm),
        fingerprint(&cold),
        "disk-cached collection drifted from the simulated one"
    );

    // Corruption smoke test. The already-open cache serves from its
    // in-memory index, so to exercise the *loader* the way a fresh process
    // would, copy the cache file into a second directory, flip bytes in
    // the middle of the copy, and point the collection at it: the loader
    // must quarantine the damaged records, re-simulate the holes, and the
    // dataset must come out bit-identical.
    let corrupt_dir =
        std::env::temp_dir().join(format!("bf-nw-diskcache-corrupt-{}", std::process::id()));
    drop(std::fs::remove_dir_all(&corrupt_dir));
    std::fs::create_dir_all(&corrupt_dir).unwrap();
    let file = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "bin"))
        .expect("cache file must exist after a cold run");
    let copy = corrupt_dir.join(file.file_name().unwrap());
    std::fs::copy(&file, &copy).unwrap();
    {
        let mut f = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&copy)
            .unwrap();
        let len = f.metadata().unwrap().len();
        let mut buf = [0u8; 64];
        f.seek(SeekFrom::Start(len / 2)).unwrap();
        f.read_exact(&mut buf).unwrap();
        for b in &mut buf {
            *b ^= 0xFF;
        }
        f.seek(SeekFrom::Start(len / 2)).unwrap();
        f.write_all(&buf).unwrap();
    }
    std::env::set_var("BF_SIM_CACHE_DIR", &corrupt_dir);
    gpu_sim::reset_global_cache_stats();
    let after_corruption = collect_nw(&gpu, &lengths, &opts).unwrap();
    let disk_after = gpu_sim::global_disk_cache_stats();
    let (surviving_hits, resimulated) = (disk_after.hits, disk_after.misses);
    assert!(
        surviving_hits > 0,
        "records before the corrupted region must still be served"
    );
    assert!(
        resimulated > 0,
        "the corrupted region must have cost some records (else the flip hit nothing)"
    );
    assert_eq!(
        fingerprint(&after_corruption),
        fingerprint(&cold),
        "corrupted cache changed collected values instead of degrading"
    );

    // The holes were re-simulated and appended; a final pass over the
    // repaired directory is all-hits again.
    gpu_sim::reset_global_cache_stats();
    collect_nw(&gpu, &lengths, &opts).unwrap();
    let repaired = gpu_sim::global_cache_stats();
    assert_eq!(
        repaired.misses, 0,
        "cache should serve everything again after corruption recovery"
    );

    std::env::remove_var("BF_SIM_CACHE_DIR");
    drop(std::fs::remove_dir_all(&dir));
    drop(std::fs::remove_dir_all(&corrupt_dir));
}
