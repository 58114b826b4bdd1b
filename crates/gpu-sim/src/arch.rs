//! GPU architecture descriptors.
//!
//! Five generations are modelled. Fermi (GTX480/GTX580, compute capability
//! 2.0) and Kepler (Tesla K20m, CC 3.5) match the paper's experimental
//! setup; Maxwell, Pascal and Volta extend the zoo for the
//! hardware-scaling scope experiments (`blackforest hwscale`). The fields
//! of [`GpuConfig`] are a superset of the paper's Table 2 machine metrics
//! (`wsched`, `freq`, `smp`, `rco`, `mbw`, registers, L2 size), which
//! [`GpuConfig::machine_metrics`] exposes verbatim for the
//! hardware-scaling experiments.
//!
//! Three global-memory paths exist, selected by `l1_caches_globals` and
//! `l1_sectored`:
//!
//! * Fermi: globals cached in L1 at full 128-byte lines; an L1 miss
//!   refills the whole line from L2 (4 × 32B sectors).
//! * Kepler/Maxwell: globals bypass L1 and are serviced in 32-byte
//!   sectors straight from L2.
//! * Pascal/Volta: globals cached in L1 again, but *sectored* — the L1
//!   tags 32-byte sectors inside its 128-byte lines, so both the
//!   coalescing granularity and the per-miss L2 refill are one sector.

use serde::{Deserialize, Serialize};

/// GPU micro-architecture generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GpuArchitecture {
    /// Compute capability 2.x (GTX480/GTX580 era). Global loads are cached
    /// in L1 (128-byte lines).
    Fermi,
    /// Compute capability 3.x (K20m era). Global loads bypass L1 and are
    /// serviced in 32-byte sectors from L2.
    Kepler,
    /// Compute capability 5.x (GTX750Ti/GTX980 era). Unified L1/texture
    /// cache that still bypasses global loads; dual-dispatch schedulers.
    Maxwell,
    /// Compute capability 6.x (GTX1080/P100 era). Global loads return to
    /// L1, now sector-tagged at 32 bytes.
    Pascal,
    /// Compute capability 7.0 (TitanV/V100 era). Unified L1/shared
    /// storage, sectored L1, single-dispatch schedulers again.
    Volta,
}

impl GpuArchitecture {
    /// Every modelled generation, oldest first.
    pub fn all() -> [GpuArchitecture; 5] {
        [
            GpuArchitecture::Fermi,
            GpuArchitecture::Kepler,
            GpuArchitecture::Maxwell,
            GpuArchitecture::Pascal,
            GpuArchitecture::Volta,
        ]
    }

    /// Stable lowercase name (matches the serde representation, lowered).
    pub fn name(self) -> &'static str {
        match self {
            GpuArchitecture::Fermi => "fermi",
            GpuArchitecture::Kepler => "kepler",
            GpuArchitecture::Maxwell => "maxwell",
            GpuArchitecture::Pascal => "pascal",
            GpuArchitecture::Volta => "volta",
        }
    }

    /// Release-order ordinal (Fermi = 0 … Volta = 4). The hardware-scaling
    /// "per-generation" scope pools GPUs within ordinal distance 1.
    pub fn ordinal(self) -> usize {
        match self {
            GpuArchitecture::Fermi => 0,
            GpuArchitecture::Kepler => 1,
            GpuArchitecture::Maxwell => 2,
            GpuArchitecture::Pascal => 3,
            GpuArchitecture::Volta => 4,
        }
    }

    /// This architecture's bit in a counter-availability mask
    /// (see [`crate::counters::CounterInfo::available`]).
    pub fn bit(self) -> u8 {
        1 << self.ordinal()
    }

    /// Parses a (case-insensitive) architecture name.
    pub fn by_name(name: &str) -> Option<GpuArchitecture> {
        GpuArchitecture::all()
            .into_iter()
            .find(|a| a.name().eq_ignore_ascii_case(name))
    }
}

/// A machine metric row of the paper's Table 2.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MachineMetric {
    /// Short metric name (`wsched`, `freq`, ...), as used in the paper.
    pub name: &'static str,
    /// Human-readable meaning.
    pub meaning: &'static str,
    /// Value on this GPU.
    pub value: f64,
}

/// Full configuration of a simulated GPU.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GpuConfig {
    /// Marketing name, e.g. "GTX580".
    pub name: String,
    /// Architecture generation.
    pub arch: GpuArchitecture,
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// CUDA cores per SM (`rco` in Table 2).
    pub cores_per_sm: usize,
    /// Warp schedulers per SM (`wsched`).
    pub warp_schedulers: usize,
    /// Instructions each scheduler can dispatch per cycle (1 on Fermi and
    /// Volta, 2 on the dual-dispatch Kepler-through-Pascal schedulers; the
    /// Fermi/Kepler presets keep 1 to preserve the paper's calibration).
    pub dispatch_per_scheduler: usize,
    /// Core clock in GHz (`freq`).
    pub clock_ghz: f64,
    /// Peak DRAM bandwidth in GB/s (`mbw`).
    pub mem_bandwidth_gbps: f64,
    /// Warp width in threads (32 on all NVIDIA parts).
    pub warp_size: usize,
    /// Maximum resident warps per SM.
    pub max_warps_per_sm: usize,
    /// Maximum resident thread blocks per SM.
    pub max_blocks_per_sm: usize,
    /// Maximum threads per block.
    pub max_threads_per_block: usize,
    /// 32-bit registers per SM.
    pub registers_per_sm: usize,
    /// Maximum registers addressable per thread (Table 2's register row).
    pub max_registers_per_thread: usize,
    /// Shared memory per SM in bytes.
    pub shared_mem_per_sm: usize,
    /// Number of shared-memory banks.
    pub shared_banks: usize,
    /// Shared-memory bank width in bytes.
    pub bank_width: usize,
    /// L1 data cache size in bytes (per SM).
    pub l1_size: usize,
    /// L1 line size in bytes.
    pub l1_line: usize,
    /// L1 associativity.
    pub l1_assoc: usize,
    /// Whether global loads are cached in L1 (true on Fermi and
    /// Pascal/Volta, false on Kepler/Maxwell where L1 is reserved for
    /// local/register spills).
    pub l1_caches_globals: bool,
    /// Whether the L1 tags 32-byte sectors instead of whole lines
    /// (Pascal/Volta). Only meaningful when `l1_caches_globals` is set:
    /// a sectored L1 coalesces and refills at 32 bytes.
    pub l1_sectored: bool,
    /// Total L2 size in bytes (`l2c` in Table 2, there reported in KB).
    pub l2_size: usize,
    /// L2 line size in bytes.
    pub l2_line: usize,
    /// L2 associativity.
    pub l2_assoc: usize,
    /// Arithmetic (ALU) dependent-issue latency in cycles.
    pub alu_latency: u64,
    /// Special-function-unit latency in cycles.
    pub sfu_latency: u64,
    /// Shared-memory access latency in cycles.
    pub smem_latency: u64,
    /// L1 hit latency in cycles.
    pub l1_latency: u64,
    /// L2 hit latency in cycles.
    pub l2_latency: u64,
    /// DRAM access latency in cycles.
    pub dram_latency: u64,
    /// Warp-instructions per cycle the ALU pipeline sustains per SM
    /// (= cores_per_sm / warp_size, precomputed for clarity).
    pub alu_throughput: f64,
    /// Memory (LDST) instructions issued per cycle per SM.
    pub ldst_units: f64,
    /// SFU instructions per cycle per SM.
    pub sfu_throughput: f64,
}

impl GpuConfig {
    /// The GTX580 (Fermi GF110) — the paper's training GPU.
    pub fn gtx580() -> GpuConfig {
        GpuConfig {
            name: "GTX580".into(),
            arch: GpuArchitecture::Fermi,
            num_sms: 16,
            cores_per_sm: 32,
            warp_schedulers: 2,
            dispatch_per_scheduler: 1,
            clock_ghz: 1.544,
            mem_bandwidth_gbps: 192.4,
            warp_size: 32,
            max_warps_per_sm: 48,
            max_blocks_per_sm: 8,
            max_threads_per_block: 1024,
            registers_per_sm: 32768,
            max_registers_per_thread: 63,
            shared_mem_per_sm: 48 * 1024,
            shared_banks: 32,
            bank_width: 4,
            l1_size: 16 * 1024,
            l1_line: 128,
            l1_assoc: 4,
            l1_caches_globals: true,
            l1_sectored: false,
            l2_size: 768 * 1024,
            // The L2 is modelled sectored at DRAM-transaction granularity
            // (32B) so miss traffic equals DRAM traffic exactly.
            l2_line: 32,
            l2_assoc: 16,
            alu_latency: 18,
            sfu_latency: 30,
            smem_latency: 26,
            l1_latency: 40,
            l2_latency: 180,
            dram_latency: 440,
            alu_throughput: 1.0,
            ldst_units: 0.5,
            sfu_throughput: 0.125,
        }
    }

    /// The GTX480 (Fermi GF100) — the card in the paper's Table 2.
    pub fn gtx480() -> GpuConfig {
        GpuConfig {
            name: "GTX480".into(),
            num_sms: 15,
            clock_ghz: 1.4,
            mem_bandwidth_gbps: 177.4,
            ..GpuConfig::gtx580()
        }
    }

    /// The Tesla K20m (Kepler GK110) — the paper's hardware-scaling target.
    pub fn k20m() -> GpuConfig {
        GpuConfig {
            name: "K20m".into(),
            arch: GpuArchitecture::Kepler,
            num_sms: 13,
            cores_per_sm: 192,
            warp_schedulers: 4,
            dispatch_per_scheduler: 1,
            clock_ghz: 0.71,
            mem_bandwidth_gbps: 208.0,
            warp_size: 32,
            max_warps_per_sm: 64,
            max_blocks_per_sm: 16,
            max_threads_per_block: 1024,
            registers_per_sm: 65536,
            max_registers_per_thread: 255,
            shared_mem_per_sm: 48 * 1024,
            shared_banks: 32,
            bank_width: 4,
            l1_size: 16 * 1024,
            l1_line: 128,
            l1_assoc: 4,
            l1_caches_globals: false,
            l1_sectored: false,
            l2_size: 1280 * 1024,
            l2_line: 32,
            l2_assoc: 16,
            alu_latency: 10,
            sfu_latency: 20,
            smem_latency: 24,
            l1_latency: 35,
            l2_latency: 200,
            dram_latency: 460,
            alu_throughput: 4.0,
            ldst_units: 1.0,
            sfu_throughput: 1.0,
        }
    }

    /// The GTX680 (Kepler GK104) — a second Kepler part with the *same*
    /// architecture as the K20m but different resource ratios (fewer SMX,
    /// higher clock, smaller L2), for "sufficiently similar hardware"
    /// scaling experiments within one generation (§6.2's easy case).
    pub fn gtx680() -> GpuConfig {
        GpuConfig {
            name: "GTX680".into(),
            num_sms: 8,
            clock_ghz: 1.006,
            mem_bandwidth_gbps: 192.2,
            l2_size: 512 * 1024,
            ..GpuConfig::k20m()
        }
    }

    /// The GTX750Ti (Maxwell GM107) — the small first-generation Maxwell
    /// part. Like Kepler its L1 bypasses globals (32B sectors straight
    /// from a much larger L2), but the SMM is reorganised: 128 cores
    /// split over 4 dual-dispatch schedulers.
    pub fn gtx750ti() -> GpuConfig {
        GpuConfig {
            name: "GTX750Ti".into(),
            arch: GpuArchitecture::Maxwell,
            num_sms: 5,
            cores_per_sm: 128,
            warp_schedulers: 4,
            dispatch_per_scheduler: 2,
            clock_ghz: 1.020,
            mem_bandwidth_gbps: 86.4,
            warp_size: 32,
            max_warps_per_sm: 64,
            max_blocks_per_sm: 32,
            max_threads_per_block: 1024,
            registers_per_sm: 65536,
            max_registers_per_thread: 255,
            shared_mem_per_sm: 64 * 1024,
            shared_banks: 32,
            bank_width: 4,
            l1_size: 24 * 1024,
            l1_line: 128,
            l1_assoc: 4,
            l1_caches_globals: false,
            l1_sectored: false,
            l2_size: 2048 * 1024,
            l2_line: 32,
            l2_assoc: 16,
            alu_latency: 6,
            sfu_latency: 14,
            smem_latency: 23,
            l1_latency: 32,
            l2_latency: 194,
            dram_latency: 420,
            alu_throughput: 4.0,
            ldst_units: 1.0,
            sfu_throughput: 1.0,
        }
    }

    /// The GTX980 (Maxwell GM204) — big Maxwell: same SMM organisation as
    /// the GTX750Ti, scaled to 16 SMs and a 224 GB/s memory system.
    pub fn gtx980() -> GpuConfig {
        GpuConfig {
            name: "GTX980".into(),
            num_sms: 16,
            clock_ghz: 1.126,
            mem_bandwidth_gbps: 224.0,
            shared_mem_per_sm: 96 * 1024,
            ..GpuConfig::gtx750ti()
        }
    }

    /// The GTX1080 (Pascal GP104). Global loads are cached in L1 again,
    /// now sector-tagged at 32 bytes (`l1_sectored`), so coalescing and
    /// L2 refills both happen at sector granularity.
    pub fn gtx1080() -> GpuConfig {
        GpuConfig {
            name: "GTX1080".into(),
            arch: GpuArchitecture::Pascal,
            num_sms: 20,
            cores_per_sm: 128,
            warp_schedulers: 4,
            dispatch_per_scheduler: 2,
            clock_ghz: 1.607,
            mem_bandwidth_gbps: 320.0,
            warp_size: 32,
            max_warps_per_sm: 64,
            max_blocks_per_sm: 32,
            max_threads_per_block: 1024,
            registers_per_sm: 65536,
            max_registers_per_thread: 255,
            shared_mem_per_sm: 96 * 1024,
            shared_banks: 32,
            bank_width: 4,
            l1_size: 48 * 1024,
            l1_line: 128,
            l1_assoc: 4,
            l1_caches_globals: true,
            l1_sectored: true,
            l2_size: 2048 * 1024,
            l2_line: 32,
            l2_assoc: 16,
            alu_latency: 6,
            sfu_latency: 14,
            smem_latency: 24,
            l1_latency: 28,
            l2_latency: 216,
            dram_latency: 434,
            alu_throughput: 4.0,
            ldst_units: 1.0,
            sfu_throughput: 1.0,
        }
    }

    /// The Tesla P100 (Pascal GP100) — HBM2 Pascal: many narrow SMs
    /// (64 cores, 2 schedulers) in front of a 732 GB/s memory system.
    pub fn p100() -> GpuConfig {
        GpuConfig {
            name: "P100".into(),
            num_sms: 56,
            cores_per_sm: 64,
            warp_schedulers: 2,
            clock_ghz: 1.328,
            mem_bandwidth_gbps: 732.0,
            shared_mem_per_sm: 64 * 1024,
            l1_size: 24 * 1024,
            l2_size: 4096 * 1024,
            dram_latency: 400,
            alu_throughput: 2.0,
            ..GpuConfig::gtx1080()
        }
    }

    /// The Titan V (Volta GV100) — Volta returns to single-dispatch
    /// schedulers and unifies L1 with shared storage; the L1 stays
    /// sector-tagged.
    pub fn titanv() -> GpuConfig {
        GpuConfig {
            name: "TitanV".into(),
            arch: GpuArchitecture::Volta,
            num_sms: 80,
            cores_per_sm: 64,
            warp_schedulers: 4,
            dispatch_per_scheduler: 1,
            clock_ghz: 1.2,
            mem_bandwidth_gbps: 652.8,
            warp_size: 32,
            max_warps_per_sm: 64,
            max_blocks_per_sm: 32,
            max_threads_per_block: 1024,
            registers_per_sm: 65536,
            max_registers_per_thread: 255,
            shared_mem_per_sm: 96 * 1024,
            shared_banks: 32,
            bank_width: 4,
            l1_size: 32 * 1024,
            l1_line: 128,
            l1_assoc: 4,
            l1_caches_globals: true,
            l1_sectored: true,
            l2_size: 4608 * 1024,
            l2_line: 32,
            l2_assoc: 16,
            alu_latency: 4,
            sfu_latency: 12,
            smem_latency: 19,
            l1_latency: 28,
            l2_latency: 193,
            dram_latency: 400,
            alu_throughput: 2.0,
            ldst_units: 1.0,
            sfu_throughput: 0.5,
        }
    }

    /// The Tesla V100 (Volta GV100, HBM2) — same SM as the Titan V at a
    /// higher clock, in front of a 900 GB/s memory system and 6 MB L2.
    pub fn v100() -> GpuConfig {
        GpuConfig {
            name: "V100".into(),
            clock_ghz: 1.38,
            mem_bandwidth_gbps: 900.0,
            l2_size: 6144 * 1024,
            ..GpuConfig::titanv()
        }
    }

    /// All built-in presets — two parts per generation so every
    /// hardware-scaling scope (per-arch, per-generation, all-zoo) is
    /// populated for every target.
    pub fn presets() -> Vec<GpuConfig> {
        vec![
            GpuConfig::gtx480(),
            GpuConfig::gtx580(),
            GpuConfig::gtx680(),
            GpuConfig::k20m(),
            GpuConfig::gtx750ti(),
            GpuConfig::gtx980(),
            GpuConfig::gtx1080(),
            GpuConfig::p100(),
            GpuConfig::titanv(),
            GpuConfig::v100(),
        ]
    }

    /// One representative preset per generation, oldest first — the
    /// default zoo for cross-architecture sweeps where simulating every
    /// part would be redundant.
    pub fn arch_representatives() -> Vec<GpuConfig> {
        vec![
            GpuConfig::gtx580(),
            GpuConfig::k20m(),
            GpuConfig::gtx980(),
            GpuConfig::gtx1080(),
            GpuConfig::v100(),
        ]
    }

    /// Looks up a preset by (case-insensitive) name.
    pub fn by_name(name: &str) -> Option<GpuConfig> {
        GpuConfig::presets()
            .into_iter()
            .find(|g| g.name.eq_ignore_ascii_case(name))
    }

    /// Peak DRAM bandwidth in bytes per core-clock cycle.
    pub fn bytes_per_cycle(&self) -> f64 {
        // GB/s / (Gcycles/s) = bytes/cycle.
        self.mem_bandwidth_gbps / self.clock_ghz
    }

    /// The granularity at which global loads coalesce and the L1 path is
    /// looked up: a whole L1 line on line-tagged Fermi, one 32-byte
    /// sector everywhere else (L1-bypassing Kepler/Maxwell and the
    /// sector-tagged Pascal/Volta L1s).
    pub fn load_segment_bytes(&self) -> u32 {
        if self.l1_caches_globals && !self.l1_sectored {
            self.l1_line as u32
        } else {
            32
        }
    }

    /// Warp instructions the SM front end can issue per cycle
    /// (schedulers × dispatch ports per scheduler).
    pub fn issue_width(&self) -> usize {
        self.warp_schedulers * self.dispatch_per_scheduler
    }

    /// Tag granularity of the L1 data cache: 32-byte sectors on the
    /// sector-tagged Pascal/Volta L1s, whole lines everywhere else. This
    /// is the line size the simulator's L1 tag store is built with.
    pub fn l1_tag_line(&self) -> usize {
        if self.l1_sectored {
            32
        } else {
            self.l1_line
        }
    }

    /// A 64-bit digest of every simulation-relevant field, used to key the
    /// launch-memoization cache ([`crate::memo`]): two configs with equal
    /// fingerprints simulate any launch identically. Every field of the
    /// struct participates (floats via their IEEE bit patterns), so editing a
    /// preset or constructing a custom config can never alias a cached entry.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.name.hash(&mut h);
        self.arch.hash(&mut h);
        self.num_sms.hash(&mut h);
        self.cores_per_sm.hash(&mut h);
        self.warp_schedulers.hash(&mut h);
        self.dispatch_per_scheduler.hash(&mut h);
        self.clock_ghz.to_bits().hash(&mut h);
        self.mem_bandwidth_gbps.to_bits().hash(&mut h);
        self.warp_size.hash(&mut h);
        self.max_warps_per_sm.hash(&mut h);
        self.max_blocks_per_sm.hash(&mut h);
        self.max_threads_per_block.hash(&mut h);
        self.registers_per_sm.hash(&mut h);
        self.max_registers_per_thread.hash(&mut h);
        self.shared_mem_per_sm.hash(&mut h);
        self.shared_banks.hash(&mut h);
        self.bank_width.hash(&mut h);
        self.l1_size.hash(&mut h);
        self.l1_line.hash(&mut h);
        self.l1_assoc.hash(&mut h);
        self.l1_caches_globals.hash(&mut h);
        self.l1_sectored.hash(&mut h);
        self.l2_size.hash(&mut h);
        self.l2_line.hash(&mut h);
        self.l2_assoc.hash(&mut h);
        self.alu_latency.hash(&mut h);
        self.sfu_latency.hash(&mut h);
        self.smem_latency.hash(&mut h);
        self.l1_latency.hash(&mut h);
        self.l2_latency.hash(&mut h);
        self.dram_latency.hash(&mut h);
        self.alu_throughput.to_bits().hash(&mut h);
        self.ldst_units.to_bits().hash(&mut h);
        self.sfu_throughput.to_bits().hash(&mut h);
        h.finish()
    }

    /// The machine-characteristic rows of the paper's Table 2 for this GPU,
    /// injected as extra predictors in the hardware-scaling experiments.
    pub fn machine_metrics(&self) -> Vec<MachineMetric> {
        vec![
            MachineMetric {
                name: "wsched",
                meaning: "number of warp schedulers",
                value: self.warp_schedulers as f64,
            },
            MachineMetric {
                name: "freq",
                meaning: "clock rate (GHz)",
                value: self.clock_ghz,
            },
            MachineMetric {
                name: "smp",
                meaning: "number of MPs",
                value: self.num_sms as f64,
            },
            MachineMetric {
                name: "rco",
                meaning: "cores per MP",
                value: self.cores_per_sm as f64,
            },
            MachineMetric {
                name: "mbw",
                meaning: "memory bandwidth (GB/s)",
                value: self.mem_bandwidth_gbps,
            },
            MachineMetric {
                name: "l1c",
                meaning: "registers",
                value: self.max_registers_per_thread as f64,
            },
            MachineMetric {
                name: "l2c",
                meaning: "L2 size (KB)",
                value: (self.l2_size / 1024) as f64,
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_values_match_paper_gtx480() {
        let g = GpuConfig::gtx480();
        let m: std::collections::HashMap<_, _> = g
            .machine_metrics()
            .into_iter()
            .map(|m| (m.name, m.value))
            .collect();
        assert_eq!(m["wsched"], 2.0);
        assert!((m["freq"] - 1.4).abs() < 1e-12);
        assert_eq!(m["smp"], 15.0);
        assert_eq!(m["rco"], 32.0);
        assert!((m["mbw"] - 177.4).abs() < 1e-12);
        assert_eq!(m["l1c"], 63.0);
        assert_eq!(m["l2c"], 768.0);
    }

    #[test]
    fn table2_values_match_paper_k20m() {
        let g = GpuConfig::k20m();
        let m: std::collections::HashMap<_, _> = g
            .machine_metrics()
            .into_iter()
            .map(|m| (m.name, m.value))
            .collect();
        assert_eq!(m["wsched"], 4.0);
        assert!((m["freq"] - 0.71).abs() < 1e-12);
        assert_eq!(m["smp"], 13.0);
        assert_eq!(m["rco"], 192.0);
        assert!((m["mbw"] - 208.0).abs() < 1e-12);
        assert_eq!(m["l1c"], 255.0);
        assert_eq!(m["l2c"], 1280.0);
    }

    #[test]
    fn fermi_caches_globals_kepler_does_not() {
        assert!(GpuConfig::gtx580().l1_caches_globals);
        assert!(!GpuConfig::k20m().l1_caches_globals);
        assert!(!GpuConfig::gtx680().l1_caches_globals);
    }

    #[test]
    fn memory_paths_per_generation() {
        // Fermi: line-tagged L1 → coalesce at the full 128B line.
        assert_eq!(GpuConfig::gtx580().load_segment_bytes(), 128);
        // Kepler/Maxwell: L1 bypass → 32B sectors from L2.
        assert_eq!(GpuConfig::k20m().load_segment_bytes(), 32);
        assert!(!GpuConfig::gtx980().l1_caches_globals);
        assert_eq!(GpuConfig::gtx980().load_segment_bytes(), 32);
        // Pascal/Volta: sector-tagged L1 → cached, but still 32B segments.
        for g in [GpuConfig::gtx1080(), GpuConfig::p100(), GpuConfig::v100()] {
            assert!(g.l1_caches_globals && g.l1_sectored, "{}", g.name);
            assert_eq!(g.load_segment_bytes(), 32, "{}", g.name);
        }
    }

    #[test]
    fn issue_width_reflects_dual_dispatch() {
        // The paper-era presets issue one instruction per scheduler.
        assert_eq!(GpuConfig::gtx580().issue_width(), 2);
        assert_eq!(GpuConfig::k20m().issue_width(), 4);
        // Maxwell/Pascal dual-dispatch; Volta drops back to single.
        assert_eq!(GpuConfig::gtx980().issue_width(), 8);
        assert_eq!(GpuConfig::gtx1080().issue_width(), 8);
        assert_eq!(GpuConfig::v100().issue_width(), 4);
    }

    #[test]
    fn by_name_finds_all_presets_case_insensitively() {
        for g in GpuConfig::presets() {
            for spelling in [g.name.to_lowercase(), g.name.to_uppercase()] {
                assert_eq!(GpuConfig::by_name(&spelling).unwrap().name, g.name);
            }
        }
        assert!(GpuConfig::by_name("rtx9090").is_none());
    }

    #[test]
    fn gtx680_is_kepler_with_smaller_l2_than_k20m() {
        let g = GpuConfig::gtx680();
        assert_eq!(g.arch, GpuArchitecture::Kepler);
        assert!(g.l2_size < GpuConfig::k20m().l2_size);
        assert!(g.clock_ghz > GpuConfig::k20m().clock_ghz);
    }

    #[test]
    fn kepler_has_bigger_l2() {
        assert!(GpuConfig::k20m().l2_size > GpuConfig::gtx580().l2_size);
    }

    #[test]
    fn l2_grows_monotonically_across_generations() {
        let zoo = GpuConfig::arch_representatives();
        for pair in zoo.windows(2) {
            assert!(
                pair[0].l2_size <= pair[1].l2_size,
                "{} L2 ({}) shrank vs {} ({})",
                pair[1].name,
                pair[1].l2_size,
                pair[0].name,
                pair[0].l2_size
            );
        }
    }

    #[test]
    fn zoo_covers_all_five_architectures_twice() {
        let presets = GpuConfig::presets();
        for arch in GpuArchitecture::all() {
            let n = presets.iter().filter(|g| g.arch == arch).count();
            assert_eq!(n, 2, "{} parts found for {}", n, arch.name());
        }
        let reps = GpuConfig::arch_representatives();
        assert_eq!(reps.len(), 5);
        for (rep, arch) in reps.iter().zip(GpuArchitecture::all()) {
            assert_eq!(rep.arch, arch);
        }
    }

    #[test]
    fn arch_helpers_are_consistent() {
        let mut seen = 0u8;
        for (i, arch) in GpuArchitecture::all().into_iter().enumerate() {
            assert_eq!(arch.ordinal(), i);
            assert_eq!(arch.bit(), 1 << i);
            assert_eq!(GpuArchitecture::by_name(arch.name()), Some(arch));
            assert_eq!(
                GpuArchitecture::by_name(&arch.name().to_uppercase()),
                Some(arch)
            );
            seen |= arch.bit();
        }
        assert_eq!(seen, 0b11111);
        assert!(GpuArchitecture::by_name("turing").is_none());
    }

    #[test]
    fn fingerprints_are_unique_across_the_zoo() {
        let presets = GpuConfig::presets();
        for (i, a) in presets.iter().enumerate() {
            for b in presets.iter().skip(i + 1) {
                assert_ne!(
                    a.fingerprint(),
                    b.fingerprint(),
                    "{} and {} collide",
                    a.name,
                    b.name
                );
            }
        }
    }

    #[test]
    fn bytes_per_cycle_is_bandwidth_over_clock() {
        let g = GpuConfig::gtx580();
        assert!((g.bytes_per_cycle() - 192.4 / 1.544).abs() < 1e-9);
    }

    #[test]
    fn alu_throughput_consistent_with_core_counts() {
        let fermi = GpuConfig::gtx580();
        assert!((fermi.alu_throughput - fermi.cores_per_sm as f64 / 32.0).abs() < 1e-12);
        // Kepler: 192 cores / 32 lanes = 6, but only 4 schedulers can issue,
        // so effective ALU issue throughput is capped at 4.
        let kepler = GpuConfig::k20m();
        assert!(kepler.alu_throughput <= kepler.cores_per_sm as f64 / 32.0);
        // Across the zoo the ALU pipe never out-issues lanes or the front
        // end: throughput ≤ min(cores/32, issue width).
        for g in GpuConfig::presets() {
            let lanes = g.cores_per_sm as f64 / g.warp_size as f64;
            assert!(g.alu_throughput <= lanes + 1e-12, "{}", g.name);
            assert!(
                g.alu_throughput <= g.issue_width() as f64 + 1e-12,
                "{}",
                g.name
            );
        }
    }
}
