//! Property tests for the primitives shared by the dynamic simulator and the
//! static analyzer (`bf-analyze`): coalescing, bank conflicts, occupancy.
//!
//! These are the contracts the differential oracle leans on — if a refactor
//! bends any of them, the static and dynamic paths drift apart silently, so
//! they are pinned here independently of either consumer.

use gpu_sim::banks::{conflict_degree, conflict_degree_scratch, replays, BankScratch};
use gpu_sim::coalesce::{coalesce, coalesce_into, requested_bytes};
use gpu_sim::occupancy::{occupancy, OccupancyLimiter};
use gpu_sim::trace::LaunchConfig;
use gpu_sim::GpuConfig;
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::BTreeSet;

thread_local! {
    /// One bank scratch for every case of a property, so per-bank state a
    /// call fails to reset would corrupt a later case and show.
    static BANK_SCRATCH: RefCell<BankScratch> = RefCell::new(BankScratch::new());
    /// One coalescing buffer for every case, refilled by each call.
    static COALESCE_OUT: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Lane masks from dense to a single lane, since the kernels walk set bits.
fn lane_mask() -> impl Strategy<Value = u32> {
    prop_oneof![
        any::<u32>(),
        (any::<u32>(), any::<u32>(), any::<u32>()).prop_map(|(a, b, c)| a & b & c),
        (0u32..32).prop_map(|lane| 1 << lane),
        Just(u32::MAX),
        Just(0u32),
    ]
}

/// The reference set of `segment`-aligned segments the active lanes touch.
fn segments_touched(addrs: &[u64], width: u8, mask: u32, segment: u32) -> Vec<u64> {
    let seg = segment as u64;
    let mut set = BTreeSet::new();
    for (lane, &addr) in addrs.iter().enumerate() {
        if mask & (1 << lane) != 0 {
            let mut s = addr / seg * seg;
            while s < addr + width as u64 {
                set.insert(s);
                s += seg;
            }
        }
    }
    set.into_iter().collect()
}

/// Every preset's bank geometry is a power of two, which the bank kernel's
/// shift-and-mask arithmetic relies on.
#[test]
fn every_preset_has_power_of_two_bank_geometry() {
    for gpu in GpuConfig::presets() {
        assert!(
            gpu.shared_banks.is_power_of_two() && gpu.bank_width.is_power_of_two(),
            "{}: {} banks of {} bytes",
            gpu.name,
            gpu.shared_banks,
            gpu.bank_width
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every byte an active lane requests is covered by exactly one
    /// transaction: transactions are segment-aligned, strictly ascending
    /// (hence unique and non-overlapping), and their union contains every
    /// requested byte range.
    #[test]
    fn coalesce_covers_requests_without_overlap(
        addrs in prop::collection::vec(0u64..(1 << 16), 32),
        width in prop_oneof![Just(1u8), Just(4u8), Just(8u8)],
        mask in any::<u32>(),
        segment in prop_oneof![Just(32u32), Just(128u32)],
    ) {
        let txs = coalesce(&addrs, width, mask, segment);
        for t in &txs {
            prop_assert_eq!(t.addr % segment as u64, 0, "unaligned transaction");
            prop_assert_eq!(t.size, segment);
        }
        for w in txs.windows(2) {
            prop_assert!(w[0].addr < w[1].addr, "transactions overlap or are unsorted");
        }
        for (lane, &addr) in addrs.iter().enumerate() {
            if mask & (1 << lane) == 0 {
                continue;
            }
            for byte in addr..addr + width as u64 {
                let covered = txs
                    .iter()
                    .any(|t| t.addr <= byte && byte < t.addr + t.size as u64);
                prop_assert!(covered, "byte {byte} of lane {lane} not covered");
            }
        }
        if mask == 0 {
            prop_assert!(txs.is_empty());
        }
        // A lane touches at most two segments (boundary straddle), so the
        // transaction count is bounded by the active accesses.
        prop_assert!(txs.len() as u32 <= 2 * mask.count_ones().max(1));
        // Sanity for the throughput counters: requested bytes never exceed
        // the bytes the transactions move.
        prop_assert!(
            requested_bytes(width, mask) <= txs.len() as u64 * segment as u64
                || mask == 0
        );
    }

    /// The conflict degree is at least the pigeonhole lower bound (distinct
    /// words spread over the banks) and at most the total words accessed.
    #[test]
    fn bank_replays_respect_pigeonhole_bounds(
        offsets in prop::collection::vec(0u32..8192, 32),
        width in prop_oneof![Just(4u8), Just(8u8)],
        mask in any::<u32>(),
    ) {
        let (banks, bank_width) = (32u32, 4u32);
        let degree = conflict_degree(&offsets, width, mask, banks, bank_width);
        let words_per_access = (width as u32).div_ceil(bank_width);
        let mut distinct: Vec<u32> = Vec::new();
        for (lane, &off) in offsets.iter().enumerate() {
            if mask & (1 << lane) == 0 {
                continue;
            }
            for w in 0..words_per_access {
                let word = off / bank_width + w;
                if !distinct.contains(&word) {
                    distinct.push(word);
                }
            }
        }
        let lower = (distinct.len() as u32).div_ceil(banks).max(1);
        prop_assert!(degree >= lower, "degree {degree} below pigeonhole bound {lower}");
        let upper = (mask.count_ones() * words_per_access).max(1);
        prop_assert!(degree <= upper, "degree {degree} above access count {upper}");
        prop_assert_eq!(replays(&offsets, width, mask, banks, bank_width), degree - 1);
    }

    /// Broadcast (all lanes read one word) and sequential (each lane its own
    /// bank) patterns are conflict-free for any lane mask.
    #[test]
    fn conflict_free_patterns_have_zero_replays(
        word in 0u32..2048,
        base in 0u32..64,
        mask in any::<u32>(),
    ) {
        let broadcast = vec![word * 4; 32];
        prop_assert_eq!(replays(&broadcast, 4, mask, 32, 4), 0);
        let sequential: Vec<u32> = (0..32).map(|i| (base + i) * 4).collect();
        prop_assert_eq!(replays(&sequential, 4, mask, 32, 4), 0);
    }

    /// The scratch bank kernel returns the allocating reference's degree on
    /// random, broadcast-heavy and short offset vectors, for every access
    /// width and bank geometry, with one scratch reused across all cases.
    #[test]
    fn conflict_degree_scratch_matches_reference(
        pool in prop::collection::vec(0u32..16384, 1..6),
        picks in prop::collection::vec(0usize..12, 1..=32),
        mode in 0u8..3,
        stride in 0u32..40,
        width in prop_oneof![Just(1u8), Just(2u8), Just(4u8), Just(8u8), Just(16u8)],
        mask in lane_mask(),
        banks in prop_oneof![Just(16u32), Just(32u32), Just(64u32)],
        bank_width in prop_oneof![Just(4u32), Just(8u32)],
    ) {
        // Mode 0 repeats pool entries (broadcasts and same-bank conflicts)
        // where a pick falls inside the pool, mode 1 strides from the first
        // pool entry, mode 2 scatters every lane.
        let scatter = |lane: usize, p: usize| {
            (p as u32 * 32 + lane as u32).wrapping_mul(2_654_435_761) % 16384
        };
        let offsets: Vec<u32> = picks
            .iter()
            .enumerate()
            .map(|(lane, &p)| match (mode, pool.get(p)) {
                (0, Some(&o)) => o,
                (1, _) => pool[0] + lane as u32 * stride,
                _ => scatter(lane, p),
            })
            .collect();
        let expected = conflict_degree(&offsets, width, mask, banks, bank_width);
        let got = BANK_SCRATCH.with(|s| {
            conflict_degree_scratch(&offsets, width, mask, banks, bank_width, &mut s.borrow_mut())
        });
        prop_assert_eq!(
            got, expected,
            "offsets {:?} width {} mask {:#x} banks {} bank_width {}",
            offsets, width, mask, banks, bank_width
        );
    }

    /// `coalesce_into` produces the sorted set of segments a `BTreeSet`
    /// reference collects, on ascending, descending and shuffled lanes and
    /// on wide accesses placed to straddle segment boundaries, reusing one
    /// output buffer across all cases.
    #[test]
    fn coalesce_into_matches_set_reference(
        base in 0u64..(1 << 20),
        stride in prop_oneof![Just(0u64), Just(4u64), Just(8u64), Just(16u64), Just(36u64), Just(128u64)],
        order in 0u8..3,
        keys in prop::collection::vec(any::<u64>(), 32),
        straddle in any::<bool>(),
        width in prop_oneof![Just(8u8), Just(16u8)],
        mask in lane_mask(),
        segment in prop_oneof![Just(32u32), Just(128u32)],
    ) {
        let mut addrs: Vec<u64> = (0..32u64)
            .map(|lane| {
                let a = base + lane * stride;
                // Start 4 bytes before a segment end: the access spills over.
                if straddle { (a / segment as u64 + 1) * segment as u64 - 4 } else { a }
            })
            .collect();
        match order {
            0 => {}
            1 => addrs.reverse(),
            _ => {
                let mut idx: Vec<usize> = (0..32).collect();
                idx.sort_by_key(|&i| keys[i]);
                addrs = idx.into_iter().map(|i| addrs[i]).collect();
            }
        }
        let expected = segments_touched(&addrs, width, mask, segment);
        let got = COALESCE_OUT.with(|out| {
            let mut out = out.borrow_mut();
            coalesce_into(&addrs, width, mask, segment, &mut out);
            out.clone()
        });
        prop_assert_eq!(got, expected, "addrs {:?} width {} mask {:#x}", addrs, width, mask);
    }

    /// Residency never exceeds any hardware limit, and the reported limiter
    /// is the binding constraint (its limit equals the resident block count,
    /// which no other limit undercuts).
    #[test]
    fn occupancy_within_limits_and_limiter_is_binding(
        threads in 1usize..=1024,
        regs in 0usize..=63,
        smem_kb in 0usize..=48,
        grid in 1usize..=4096,
    ) {
        for gpu in [GpuConfig::gtx580(), GpuConfig::k20m()] {
            let lc = LaunchConfig {
                grid_blocks: grid,
                threads_per_block: threads,
                regs_per_thread: regs,
                shared_mem_per_block: smem_kb * 1024,
            };
            let Ok(o) = occupancy(&gpu, &lc) else {
                // Impossible blocks are rejected, never mis-reported.
                continue;
            };
            let wpb = lc.warps_per_block(gpu.warp_size);
            let regs_per_block = regs.max(1) * wpb * gpu.warp_size;
            prop_assert!(o.blocks_per_sm >= 1);
            prop_assert!(o.blocks_per_sm <= gpu.max_blocks_per_sm);
            prop_assert!(o.warps_per_sm <= gpu.max_warps_per_sm);
            prop_assert_eq!(o.warps_per_sm, o.blocks_per_sm * wpb);
            prop_assert!(o.blocks_per_sm * regs_per_block <= gpu.registers_per_sm);
            prop_assert!(o.blocks_per_sm * lc.shared_mem_per_block <= gpu.shared_mem_per_sm);
            prop_assert!(o.theoretical <= 1.0 + 1e-12);

            let by_blocks = gpu.max_blocks_per_sm;
            let by_warps = gpu.max_warps_per_sm / wpb;
            let by_regs = gpu.registers_per_sm / regs_per_block;
            let by_smem = gpu
                .shared_mem_per_sm
                .checked_div(lc.shared_mem_per_block)
                .unwrap_or(usize::MAX);
            let resource_min = by_blocks.min(by_warps).min(by_regs).min(by_smem);
            let binding = match o.limiter {
                OccupancyLimiter::BlockSlots => by_blocks,
                OccupancyLimiter::WarpSlots => by_warps,
                OccupancyLimiter::Registers => by_regs,
                OccupancyLimiter::SharedMemory => by_smem,
                OccupancyLimiter::GridSize => grid.div_ceil(gpu.num_sms).max(1),
            };
            prop_assert_eq!(
                o.blocks_per_sm, binding,
                "limiter {:?} not binding", o.limiter
            );
            if o.limiter == OccupancyLimiter::GridSize {
                prop_assert!(o.blocks_per_sm <= resource_min);
            } else {
                prop_assert_eq!(o.blocks_per_sm, resource_min);
            }
        }
    }
}
