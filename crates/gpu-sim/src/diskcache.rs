//! Persistent, cross-process launch-result cache.
//!
//! The in-memory [`crate::memo::SimCache`] dies with its process, so every
//! `train` run, `hwscale` sweep, and bf-serve instance re-simulates
//! launches the previous run already paid for. This module adds the disk
//! tier: a content-addressed, append-only log keyed by the same 128-bit
//! launch digest, shared by every process pointed at the same directory.
//!
//! ## Format
//!
//! One file per schema version, `simcache-v{N}.bin`:
//!
//! ```text
//! header:  "BFSC" magic + u32 LE schema version
//! record:  u32 LE record marker (0xBF5C_C0DE)
//!          u32 LE payload length
//!          u64 LE FNV-1a checksum of the payload
//!          payload: u128 key + LaunchResult (all f64 stored as to_bits u64)
//! ```
//!
//! Floats are stored as raw IEEE bits, so a round-trip is bit-exact — the
//! same determinism contract the in-memory cache honours. The schema
//! version lives in both the filename (so incompatible processes never
//! fight over one file) and the header (corruption guard); bump
//! [`SCHEMA_VERSION`] whenever the payload layout or the meaning of any
//! field changes.
//!
//! ## Corruption tolerance
//!
//! Loading never panics and never fails the simulation: a bad header
//! quarantines the whole file (fresh cache), and a bad record (truncated
//! tail from a killed process, torn concurrent append, flipped bit) is
//! skipped by scanning forward to the next record marker. Skipped bytes are
//! counted and exposed via [`DiskCache::skipped_bytes`].
//!
//! ## Eviction
//!
//! Appends grow the log; when it exceeds the size cap
//! (`BF_SIM_CACHE_MAX_MB`, default 512) the file is compacted in place:
//! newest entries are kept up to half the cap, written to a temp file and
//! atomically renamed over the log. Concurrent writers holding the old
//! inode lose their subsequent appends — acceptable for a cache, where a
//! lost entry only costs a future re-simulation.

use crate::counters::{RawEvents, RAW_EVENT_FIELDS};
use crate::engine::LaunchResult;
use crate::occupancy::{Occupancy, OccupancyLimiter};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Bump whenever the record layout *or* simulator semantics change (the
/// launch key also folds in `memo::SIM_CONTENT_VERSION`, so either bump
/// invalidates stale results).
pub const SCHEMA_VERSION: u32 = 1;

const FILE_MAGIC: &[u8; 4] = b"BFSC";
const RECORD_MARKER: u32 = 0xBF5C_C0DE;
/// Fixed payload size: key + time + events + occupancy + waves + blocks.
const PAYLOAD_LEN: usize = 16 + 8 + RAW_EVENT_FIELDS * 8 + (8 + 8 + 8 + 1) + 8 + 8;
const RECORD_HEADER_LEN: usize = 4 + 4 + 8;
const HEADER_LEN: usize = 8;

/// Default size cap in megabytes (override with `BF_SIM_CACHE_MAX_MB`).
const DEFAULT_MAX_MB: u64 = 512;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn limiter_code(l: OccupancyLimiter) -> u8 {
    match l {
        OccupancyLimiter::BlockSlots => 0,
        OccupancyLimiter::WarpSlots => 1,
        OccupancyLimiter::Registers => 2,
        OccupancyLimiter::SharedMemory => 3,
        OccupancyLimiter::GridSize => 4,
    }
}

fn limiter_from(code: u8) -> Option<OccupancyLimiter> {
    Some(match code {
        0 => OccupancyLimiter::BlockSlots,
        1 => OccupancyLimiter::WarpSlots,
        2 => OccupancyLimiter::Registers,
        3 => OccupancyLimiter::SharedMemory,
        4 => OccupancyLimiter::GridSize,
        _ => return None,
    })
}

fn encode_payload(key: u128, r: &LaunchResult, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&r.time_seconds.to_bits().to_le_bytes());
    for v in r.events.as_array() {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    out.extend_from_slice(&(r.occupancy.blocks_per_sm as u64).to_le_bytes());
    out.extend_from_slice(&(r.occupancy.warps_per_sm as u64).to_le_bytes());
    out.extend_from_slice(&r.occupancy.theoretical.to_bits().to_le_bytes());
    out.push(limiter_code(r.occupancy.limiter));
    out.extend_from_slice(&(r.waves as u64).to_le_bytes());
    out.extend_from_slice(&(r.sampled_blocks as u64).to_le_bytes());
    debug_assert_eq!(out.len(), PAYLOAD_LEN);
}

fn decode_payload(p: &[u8]) -> Option<(u128, LaunchResult)> {
    if p.len() != PAYLOAD_LEN {
        return None;
    }
    let mut pos = 0usize;
    let mut take = |n: usize| {
        let s = &p[pos..pos + n];
        pos += n;
        s
    };
    let key = u128::from_le_bytes(take(16).try_into().ok()?);
    let f64_at = |s: &[u8]| f64::from_bits(u64::from_le_bytes(s.try_into().unwrap()));
    let time_seconds = f64_at(take(8));
    let mut events = [0.0f64; RAW_EVENT_FIELDS];
    for e in &mut events {
        *e = f64_at(take(8));
    }
    let blocks_per_sm = u64::from_le_bytes(take(8).try_into().ok()?) as usize;
    let warps_per_sm = u64::from_le_bytes(take(8).try_into().ok()?) as usize;
    let theoretical = f64_at(take(8));
    let limiter = limiter_from(take(1)[0])?;
    let waves = u64::from_le_bytes(take(8).try_into().ok()?) as usize;
    let sampled_blocks = u64::from_le_bytes(take(8).try_into().ok()?) as usize;
    Some((
        key,
        LaunchResult {
            time_seconds,
            events: RawEvents::from_array(events),
            occupancy: Occupancy {
                blocks_per_sm,
                warps_per_sm,
                theoretical,
                limiter,
            },
            waves,
            sampled_blocks,
        },
    ))
}

fn encode_record(key: u128, r: &LaunchResult, out: &mut Vec<u8>) {
    let mut payload = Vec::with_capacity(PAYLOAD_LEN);
    encode_payload(key, r, &mut payload);
    out.clear();
    out.extend_from_slice(&RECORD_MARKER.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
}

struct DiskInner {
    file: File,
    index: HashMap<u128, LaunchResult>,
    /// Keys in append order (newest last); drives eviction.
    order: Vec<u128>,
    file_bytes: u64,
}

/// A shared handle to one on-disk cache directory. Thread-safe; typically
/// held as `Arc` inside every [`crate::memo::SimCache`] of the process via
/// the [`from_env`] registry.
pub struct DiskCache {
    path: PathBuf,
    max_bytes: u64,
    skipped: AtomicU64,
    inner: Mutex<DiskInner>,
}

impl DiskCache {
    /// Opens (creating if needed) the cache in `dir` and loads its index.
    /// Corrupt content is skipped, never fatal.
    pub fn open(dir: &Path) -> std::io::Result<DiskCache> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("simcache-v{SCHEMA_VERSION}.bin"));
        let max_bytes = max_cache_bytes();
        let cache = DiskCache {
            path: path.clone(),
            max_bytes,
            skipped: AtomicU64::new(0),
            inner: Mutex::new(DiskInner {
                file: OpenOptions::new().create(true).append(true).open(&path)?,
                index: HashMap::new(),
                order: Vec::new(),
                file_bytes: 0,
            }),
        };
        cache.load()?;
        Ok(cache)
    }

    fn load(&self) -> std::io::Result<()> {
        let mut inner = self.inner.lock().unwrap();
        let mut bytes = Vec::new();
        File::open(&self.path)?.read_to_end(&mut bytes)?;
        if bytes.is_empty() {
            inner.file.write_all(FILE_MAGIC)?;
            inner.file.write_all(&SCHEMA_VERSION.to_le_bytes())?;
            inner.file_bytes = HEADER_LEN as u64;
            return Ok(());
        }
        if bytes.len() < HEADER_LEN
            || &bytes[..4] != FILE_MAGIC
            || bytes[4..8] != SCHEMA_VERSION.to_le_bytes()
        {
            // Quarantine: a foreign or mangled file starts over — never an
            // error, never a panic.
            self.skipped
                .fetch_add(bytes.len() as u64, Ordering::Relaxed);
            drop(std::fs::remove_file(&self.path));
            inner.file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(&self.path)?;
            inner.file.write_all(FILE_MAGIC)?;
            inner.file.write_all(&SCHEMA_VERSION.to_le_bytes())?;
            inner.file_bytes = HEADER_LEN as u64;
            return Ok(());
        }
        let mut pos = HEADER_LEN;
        let mut skipped = 0u64;
        while pos + RECORD_HEADER_LEN <= bytes.len() {
            let marker = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
            if marker != RECORD_MARKER {
                pos += 1;
                skipped += 1;
                continue;
            }
            let len = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap()) as usize;
            let cksum = u64::from_le_bytes(bytes[pos + 8..pos + 16].try_into().unwrap());
            let start = pos + RECORD_HEADER_LEN;
            let decoded = (len == PAYLOAD_LEN && start + len <= bytes.len())
                .then(|| &bytes[start..start + len])
                .filter(|payload| fnv1a(payload) == cksum)
                .and_then(decode_payload);
            match decoded {
                Some((key, result)) => {
                    if inner.index.insert(key, result).is_none() {
                        inner.order.push(key);
                    }
                    pos = start + len;
                }
                None => {
                    // Resync: scan forward for the next plausible record.
                    pos += 1;
                    skipped += 1;
                }
            }
        }
        skipped += (bytes.len() - pos.min(bytes.len())) as u64;
        self.skipped.fetch_add(skipped, Ordering::Relaxed);
        inner.file_bytes = bytes.len() as u64;
        Ok(())
    }

    /// Number of distinct cached launches.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().index.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of corrupt content skipped during loads (diagnostics).
    pub fn skipped_bytes(&self) -> u64 {
        self.skipped.load(Ordering::Relaxed)
    }

    /// The log file backing this cache.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Looks up a launch result. Pure index read — no I/O.
    pub fn get(&self, key: u128) -> Option<LaunchResult> {
        self.inner.lock().unwrap().index.get(&key).cloned()
    }

    /// Stores a launch result: updates the index and appends one record.
    /// I/O failure degrades to in-memory-only behaviour (callers ignore the
    /// error beyond optional logging).
    pub fn put(&self, key: u128, result: &LaunchResult) -> std::io::Result<()> {
        let mut inner = self.inner.lock().unwrap();
        if inner.index.insert(key, result.clone()).is_none() {
            inner.order.push(key);
        }
        let mut record = Vec::with_capacity(RECORD_HEADER_LEN + PAYLOAD_LEN);
        encode_record(key, result, &mut record);
        inner.file.write_all(&record)?;
        inner.file_bytes += record.len() as u64;
        if inner.file_bytes > self.max_bytes {
            self.compact(&mut inner)?;
        }
        Ok(())
    }

    /// Rewrites the log keeping the newest entries up to half the size cap,
    /// then atomically replaces it.
    fn compact(&self, inner: &mut DiskInner) -> std::io::Result<()> {
        let record_len = (RECORD_HEADER_LEN + PAYLOAD_LEN) as u64;
        let budget = (self.max_bytes / 2).max(record_len);
        let keep_n = ((budget.saturating_sub(HEADER_LEN as u64)) / record_len) as usize;
        let start = inner.order.len().saturating_sub(keep_n);
        let keep: Vec<u128> = inner.order[start..].to_vec();
        let tmp = self.path.with_extension("tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(FILE_MAGIC)?;
            f.write_all(&SCHEMA_VERSION.to_le_bytes())?;
            let mut record = Vec::with_capacity(RECORD_HEADER_LEN + PAYLOAD_LEN);
            for &key in &keep {
                let result = inner.index[&key].clone();
                encode_record(key, &result, &mut record);
                f.write_all(&record)?;
            }
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        let kept: std::collections::HashSet<u128> = keep.iter().copied().collect();
        inner.index.retain(|k, _| kept.contains(k));
        inner.order = keep;
        inner.file = OpenOptions::new().append(true).open(&self.path)?;
        inner.file_bytes = HEADER_LEN as u64 + record_len * inner.order.len() as u64;
        Ok(())
    }
}

fn max_cache_bytes() -> u64 {
    std::env::var("BF_SIM_CACHE_MAX_MB")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(DEFAULT_MAX_MB)
        .max(1)
        * 1024
        * 1024
}

/// Resolves `BF_SIM_CACHE_DIR`: unset or empty disables the disk tier;
/// `auto`/`default` picks `$XDG_CACHE_HOME/blackforest/simcache` (falling
/// back to `$HOME/.cache/...`); anything else is used as the directory.
pub fn resolve_cache_dir() -> Option<PathBuf> {
    let raw = std::env::var("BF_SIM_CACHE_DIR").ok()?;
    if raw.is_empty() {
        return None;
    }
    if raw == "auto" || raw == "default" {
        let base = std::env::var("XDG_CACHE_HOME")
            .ok()
            .filter(|v| !v.is_empty())
            .map(PathBuf::from)
            .or_else(|| {
                std::env::var("HOME")
                    .ok()
                    .map(|h| PathBuf::from(h).join(".cache"))
            })?;
        return Some(base.join("blackforest").join("simcache"));
    }
    Some(PathBuf::from(raw))
}

/// Per-directory registry so every `SimCache` in the process shares one
/// handle (one index, one append stream) per cache directory.
fn registry() -> &'static Mutex<HashMap<PathBuf, Arc<DiskCache>>> {
    static REGISTRY: OnceLock<Mutex<HashMap<PathBuf, Arc<DiskCache>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Opens (or reuses) the disk cache selected by `BF_SIM_CACHE_DIR`.
/// Returns `None` when the env var is unset or the directory cannot be
/// opened — the caller silently stays memory-only.
pub fn from_env() -> Option<Arc<DiskCache>> {
    let dir = resolve_cache_dir()?;
    let mut reg = registry().lock().unwrap();
    if let Some(c) = reg.get(&dir) {
        return Some(Arc::clone(c));
    }
    match DiskCache::open(&dir) {
        Ok(c) => {
            let c = Arc::new(c);
            reg.insert(dir, Arc::clone(&c));
            Some(c)
        }
        Err(e) => {
            eprintln!("bf: disk sim-cache disabled ({}: {e})", dir.display());
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::GpuConfig;
    use crate::engine::simulate_launch;
    use crate::memo::{simulate_cached, SimCache};
    use crate::trace::{BlockTrace, KernelTrace, LaunchConfig, WarpInstruction, FULL_MASK};

    struct Tiny(u64);

    impl KernelTrace for Tiny {
        fn name(&self) -> String {
            "tiny".into()
        }

        fn launch_config(&self) -> LaunchConfig {
            LaunchConfig {
                grid_blocks: 8,
                threads_per_block: 64,
                regs_per_thread: 16,
                shared_mem_per_block: 0,
            }
        }

        fn block_trace(&self, block_id: usize, _gpu: &GpuConfig) -> BlockTrace {
            let mut t = BlockTrace::with_warps(2);
            for (w, stream) in t.warps.iter_mut().enumerate() {
                let base = self.0 + (block_id * 2 + w) as u64 * 256;
                stream.push(WarpInstruction::LoadGlobal {
                    addrs: (0..32).map(|i| base + i * 4).collect(),
                    width: 4,
                    mask: FULL_MASK,
                });
            }
            t
        }
    }

    fn sample_result(seed: u64) -> LaunchResult {
        simulate_launch(&GpuConfig::gtx580(), &Tiny(seed)).unwrap()
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("bf-diskcache-{tag}-{}", std::process::id()));
        drop(std::fs::remove_dir_all(&d));
        d
    }

    fn assert_bit_identical(a: &LaunchResult, b: &LaunchResult) {
        assert_eq!(a.time_seconds.to_bits(), b.time_seconds.to_bits());
        let (ea, eb) = (a.events.as_array(), b.events.as_array());
        for (x, y) in ea.iter().zip(eb.iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(a.occupancy.blocks_per_sm, b.occupancy.blocks_per_sm);
        assert_eq!(a.occupancy.warps_per_sm, b.occupancy.warps_per_sm);
        assert_eq!(
            a.occupancy.theoretical.to_bits(),
            b.occupancy.theoretical.to_bits()
        );
        assert_eq!(a.occupancy.limiter, b.occupancy.limiter);
        assert_eq!(a.waves, b.waves);
        assert_eq!(a.sampled_blocks, b.sampled_blocks);
    }

    #[test]
    fn roundtrip_is_bit_exact_across_reopen() {
        let dir = tmpdir("roundtrip");
        let r = sample_result(0x1000);
        {
            let c = DiskCache::open(&dir).unwrap();
            c.put(7, &r).unwrap();
            assert_bit_identical(&c.get(7).unwrap(), &r);
        }
        let c = DiskCache::open(&dir).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c.skipped_bytes(), 0);
        assert_bit_identical(&c.get(7).unwrap(), &r);
        drop(std::fs::remove_dir_all(&dir));
    }

    #[test]
    fn truncated_tail_is_skipped_cleanly() {
        let dir = tmpdir("truncated");
        let (ra, rb) = (sample_result(0x1000), sample_result(0x2000));
        let path = {
            let c = DiskCache::open(&dir).unwrap();
            c.put(1, &ra).unwrap();
            c.put(2, &rb).unwrap();
            c.path().to_path_buf()
        };
        // Chop the last record in half: the survivor must still load.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - PAYLOAD_LEN / 2]).unwrap();
        let c = DiskCache::open(&dir).unwrap();
        assert_eq!(c.len(), 1);
        assert!(c.skipped_bytes() > 0);
        assert_bit_identical(&c.get(1).unwrap(), &ra);
        assert!(c.get(2).is_none());
        drop(std::fs::remove_dir_all(&dir));
    }

    #[test]
    fn flipped_bit_mid_file_resyncs_to_next_record() {
        let dir = tmpdir("bitflip");
        let (ra, rb) = (sample_result(0x1000), sample_result(0x2000));
        let path = {
            let c = DiskCache::open(&dir).unwrap();
            c.put(1, &ra).unwrap();
            c.put(2, &rb).unwrap();
            c.path().to_path_buf()
        };
        let mut bytes = std::fs::read(&path).unwrap();
        // Corrupt a payload byte of the first record.
        bytes[HEADER_LEN + RECORD_HEADER_LEN + 20] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let c = DiskCache::open(&dir).unwrap();
        assert_eq!(c.len(), 1, "second record should survive the resync");
        assert!(c.get(1).is_none());
        assert_bit_identical(&c.get(2).unwrap(), &rb);
        drop(std::fs::remove_dir_all(&dir));
    }

    #[test]
    fn foreign_file_is_quarantined_not_fatal() {
        let dir = tmpdir("foreign");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("simcache-v{SCHEMA_VERSION}.bin"));
        std::fs::write(&path, b"definitely not a cache").unwrap();
        let c = DiskCache::open(&dir).unwrap();
        assert_eq!(c.len(), 0);
        assert!(c.skipped_bytes() > 0);
        let r = sample_result(0x1000);
        c.put(9, &r).unwrap();
        drop(c);
        let c = DiskCache::open(&dir).unwrap();
        assert_eq!(c.len(), 1);
        drop(std::fs::remove_dir_all(&dir));
    }

    #[test]
    fn size_cap_evicts_oldest() {
        let dir = tmpdir("evict");
        std::env::set_var("BF_SIM_CACHE_MAX_MB", "1");
        let c = DiskCache::open(&dir).unwrap();
        std::env::remove_var("BF_SIM_CACHE_MAX_MB");
        let r = sample_result(0x1000);
        let record = (RECORD_HEADER_LEN + PAYLOAD_LEN) as u64;
        let n = (2 * 1024 * 1024 / record) as u128; // ~2x the cap
        for key in 0..n {
            c.put(key, &r).unwrap();
        }
        let size = std::fs::metadata(c.path()).unwrap().len();
        assert!(size <= 1024 * 1024, "log not compacted: {size} bytes");
        // Newest keys survive, oldest evicted.
        assert!(c.get(n - 1).is_some());
        assert!(c.get(0).is_none());
        drop(std::fs::remove_dir_all(&dir));
    }

    /// Names the cache directory when this test binary runs as the second
    /// writer of [`two_processes_appending_at_once_leave_a_verifiable_log`].
    const WRITER_DIR_ENV: &str = "BF_DISKCACHE_TEST_WRITER_DIR";
    /// Launches each writer simulates; the two ranges overlap by half.
    const WRITER_LAUNCHES: u64 = 200;

    /// Simulates `Tiny` launches `first..first + WRITER_LAUNCHES` through a
    /// cache over `disk`, appending one record per launch.
    fn write_launches(disk: DiskCache, first: u64) {
        let gpu = GpuConfig::gtx580();
        let cache = SimCache::with_disk(Arc::new(disk));
        for seed in first..first + WRITER_LAUNCHES {
            simulate_cached(&gpu, gpu.fingerprint(), &Tiny(seed << 16), &cache).unwrap();
        }
        assert_eq!(cache.stats().hits, 0, "a writer saw the other's records");
    }

    #[test]
    fn two_processes_appending_at_once_leave_a_verifiable_log() {
        if let Some(dir) = std::env::var_os(WRITER_DIR_ENV) {
            // Second writer: load the log, signal readiness, then append the
            // upper range.
            let dir = PathBuf::from(dir);
            let disk = DiskCache::open(&dir).unwrap();
            std::fs::write(dir.join("ready"), b"").unwrap();
            write_launches(disk, WRITER_LAUNCHES / 2);
            return;
        }
        // Both writers load the log before either appends, so each simulates
        // and appends all of its launches, the shared half included. Opening
        // here first also writes the file header exactly once.
        let dir = tmpdir("two-writers");
        let disk = DiskCache::open(&dir).unwrap();
        let mut second = std::process::Command::new(std::env::current_exe().unwrap())
            .args([
                "--exact",
                "diskcache::tests::two_processes_appending_at_once_leave_a_verifiable_log",
                "--test-threads=1",
                "--quiet",
            ])
            .env(WRITER_DIR_ENV, &dir)
            .stdout(std::process::Stdio::null())
            .spawn()
            .unwrap();
        let ready = dir.join("ready");
        let t0 = std::time::Instant::now();
        while !ready.exists() {
            if let Some(status) = second.try_wait().unwrap() {
                panic!("second writer exited before writing: {status}");
            }
            assert!(t0.elapsed().as_secs() < 60, "second writer never started");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        write_launches(disk, 0);
        assert!(second.wait().unwrap().success(), "second writer failed");

        // No append was lost or torn: the log holds every record of both
        // writers (the overlap twice), and a fresh open verifies them all
        // and indexes exactly the union.
        let record = (RECORD_HEADER_LEN + PAYLOAD_LEN) as u64;
        let log_bytes = std::fs::metadata(dir.join(format!("simcache-v{SCHEMA_VERSION}.bin")))
            .unwrap()
            .len();
        assert_eq!(log_bytes, HEADER_LEN as u64 + 2 * WRITER_LAUNCHES * record);
        let reopened = Arc::new(DiskCache::open(&dir).unwrap());
        assert_eq!(reopened.skipped_bytes(), 0, "a record failed to verify");
        let total = WRITER_LAUNCHES * 3 / 2;
        assert_eq!(reopened.len() as u64, total);
        // Every cached result is the uncached simulation, bit for bit.
        let gpu = GpuConfig::gtx580();
        let cache = SimCache::with_disk(reopened);
        for seed in 0..total {
            let kernel = Tiny(seed << 16);
            let cached = simulate_cached(&gpu, gpu.fingerprint(), &kernel, &cache).unwrap();
            assert_bit_identical(&cached, &simulate_launch(&gpu, &kernel).unwrap());
        }
        assert_eq!(cache.stats().misses, 0, "every launch came from the log");
        drop(std::fs::remove_dir_all(&dir));
    }

    #[test]
    fn resolve_dir_auto_uses_cache_home() {
        // Direct path passes through untouched.
        std::env::set_var("BF_SIM_CACHE_DIR", "/tmp/bf-explicit");
        assert_eq!(resolve_cache_dir(), Some(PathBuf::from("/tmp/bf-explicit")));
        std::env::set_var("BF_SIM_CACHE_DIR", "");
        assert_eq!(resolve_cache_dir(), None);
        std::env::remove_var("BF_SIM_CACHE_DIR");
        assert_eq!(resolve_cache_dir(), None);
    }
}
