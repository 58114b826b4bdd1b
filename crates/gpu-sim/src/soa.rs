//! Structure-of-arrays batch execution engine for one SM's resident set.
//!
//! The reference interpreter ([`crate::sm::simulate_sm`]) walks
//! `Vec<WarpInstruction>` streams and, per instruction, clones lane-address
//! vectors and allocates fresh buffers inside [`crate::coalesce`] and
//! [`crate::banks`]. At sweep scale that allocation traffic dominates the
//! profile. This module splits the work into two stages:
//!
//! 1. **Compile** ([`compile`]): three tight sweeps over the resident set
//!    lay every instruction out as a fixed-size [`Op`] record in one
//!    contiguous array, with all data-independent work — active-lane
//!    counts, requested bytes, coalesced transaction addresses (into a
//!    shared `u64` arena), bank-conflict replay counts — precomputed using
//!    reusable scratch buffers (no per-access allocation). Shared-memory
//!    offsets are block-relative, so the blocks of one launch mostly repeat
//!    each other's shared accesses: a shared access equal to the
//!    instruction at the same (warp, pc) of the first block reuses that
//!    op's replay count, and only the others run the bank kernel.
//! 2. **Execute** ([`execute`]): the event-driven scheduler loop runs over
//!    the `Op` slice. Only genuinely dynamic state remains: the ready
//!    queue, pipeline next-free times, and L1/L2 tag lookups.
//!
//! The execute loop accumulates every `RawEvents` field in **exactly** the
//! same order as the reference interpreter, so results are bit-identical —
//! the contract the memoization layer and the determinism suite rely on,
//! enforced by the `soa_equivalence` proptests.

use crate::arch::GpuConfig;
use crate::banks::{self, BankScratch};
use crate::cache::{Access, Cache};
use crate::coalesce::{coalesce_into, requested_bytes};
use crate::counters::RawEvents;
use crate::sm::{SmResult, Time};
use crate::trace::{BlockTrace, WarpInstruction};
use crate::{Result, SimError};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Instruction class of a compiled [`Op`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Alu,
    Sfu,
    Branch,
    LoadShared,
    StoreShared,
    LoadGlobal,
    StoreGlobal,
    Barrier,
}

/// One compiled warp instruction: every data-independent quantity the
/// scheduler needs, precomputed into a flat `Copy` record. Transaction
/// addresses live in the launch's shared arena, referenced by range.
#[derive(Debug, Clone, Copy)]
struct Op {
    kind: OpKind,
    /// Branch divergence flag.
    divergent: bool,
    /// Active lanes, as the f64 the event accumulation uses.
    lanes: f64,
    /// ALU burst length.
    count: f64,
    /// Shared-memory bank-conflict replays.
    replays: f64,
    /// Global-store transaction count at 128-byte reporting granularity.
    store_trans: f64,
    /// Bytes the active lanes requested (global load/store).
    req_bytes: f64,
    /// Arena range of coalesced transaction addresses, at the load-segment
    /// granularity ([`GpuConfig::load_segment_bytes`]: whole L1 lines on
    /// Fermi, 32-byte sectors everywhere else) for loads and 32-byte
    /// sectors for stores.
    trans_start: u32,
    trans_len: u32,
    /// Arena range of L1 tags a store evicts on global-caching L1s
    /// (whole Fermi lines, Pascal/Volta sectors).
    evict_start: u32,
    evict_len: u32,
}

impl Op {
    fn new(kind: OpKind, lanes: f64) -> Op {
        Op {
            kind,
            divergent: false,
            lanes,
            count: 0.0,
            replays: 0.0,
            store_trans: 0.0,
            req_bytes: 0.0,
            trans_start: 0,
            trans_len: 0,
            evict_start: 0,
            evict_len: 0,
        }
    }
}

/// One warp's slice of the op array, plus its block id.
#[derive(Debug, Clone, Copy)]
struct CompiledWarp {
    block: u32,
    start: u32,
    len: u32,
}

/// A resident set compiled to SoA form: the flat op array, per-warp ranges,
/// and the shared transaction-address arena.
#[derive(Debug)]
pub struct CompiledLaunch {
    ops: Vec<Op>,
    warps: Vec<CompiledWarp>,
    arena: Vec<u64>,
    /// Warps per block, indexed by block id (drives barrier release).
    block_warp_counts: Vec<usize>,
}

fn arena_push(arena: &mut Vec<u64>, addrs: &[u64]) -> Result<(u32, u32)> {
    let start = u32::try_from(arena.len())
        .map_err(|_| SimError::BadTrace("transaction arena exceeds u32 range".into()))?;
    arena.extend_from_slice(addrs);
    Ok((start, addrs.len() as u32))
}

/// Compiles a resident set into SoA form. Validates every block (same
/// structural checks as the reference path) and runs the coalescing and
/// bank-conflict sweeps with reused scratch buffers.
pub fn compile(gpu: &GpuConfig, blocks: &[BlockTrace]) -> Result<CompiledLaunch> {
    // Pass 1 — trace walk: validate the blocks, then assemble the op
    // skeletons (kind, lanes, and the per-kind static costs that need no
    // address analysis).
    let mut cl = {
        let _walk = bf_trace::span!("trace_walk");
        for b in blocks {
            b.validate()?;
        }
        let mut ops: Vec<Op> = Vec::new();
        let mut warps: Vec<CompiledWarp> = Vec::new();
        let mut block_warp_counts = Vec::with_capacity(blocks.len());
        for (bi, b) in blocks.iter().enumerate() {
            block_warp_counts.push(b.warps.len());
            for stream in &b.warps {
                let start = u32::try_from(ops.len())
                    .map_err(|_| SimError::BadTrace("op array exceeds u32 range".into()))?;
                for instr in stream {
                    let lanes = instr.active_lanes() as f64;
                    let op = match instr {
                        WarpInstruction::Alu { count, .. } => {
                            let mut op = Op::new(OpKind::Alu, lanes);
                            op.count = *count as f64;
                            op
                        }
                        WarpInstruction::Sfu { .. } => Op::new(OpKind::Sfu, lanes),
                        WarpInstruction::Branch { divergent, .. } => {
                            let mut op = Op::new(OpKind::Branch, lanes);
                            op.divergent = *divergent;
                            op
                        }
                        WarpInstruction::LoadShared { .. } => Op::new(OpKind::LoadShared, lanes),
                        WarpInstruction::StoreShared { .. } => Op::new(OpKind::StoreShared, lanes),
                        WarpInstruction::LoadGlobal { width, mask, .. } => {
                            let mut op = Op::new(OpKind::LoadGlobal, lanes);
                            op.req_bytes = requested_bytes(*width, *mask) as f64;
                            op
                        }
                        WarpInstruction::StoreGlobal { width, mask, .. } => {
                            let mut op = Op::new(OpKind::StoreGlobal, lanes);
                            op.req_bytes = requested_bytes(*width, *mask) as f64;
                            op
                        }
                        WarpInstruction::Barrier => Op::new(OpKind::Barrier, lanes),
                    };
                    ops.push(op);
                }
                warps.push(CompiledWarp {
                    block: bi as u32,
                    start,
                    len: stream.len() as u32,
                });
            }
        }
        CompiledLaunch {
            ops,
            warps,
            arena: Vec::new(),
            block_warp_counts,
        }
    };

    // Pass 2 — coalescing sweep: fold lane addresses of every global access
    // into segment transactions, appending the addresses to the arena.
    {
        let _coal = bf_trace::span!("coalesce");
        let mut scratch: Vec<u64> = Vec::with_capacity(64);
        let mut cursor = 0usize;
        let load_segment = gpu.load_segment_bytes();
        for b in blocks {
            for stream in &b.warps {
                for instr in stream {
                    let op = &mut cl.ops[cursor];
                    cursor += 1;
                    match instr {
                        WarpInstruction::LoadGlobal { addrs, width, mask } => {
                            coalesce_into(addrs, *width, *mask, load_segment, &mut scratch);
                            (op.trans_start, op.trans_len) = arena_push(&mut cl.arena, &scratch)?;
                        }
                        WarpInstruction::StoreGlobal { addrs, width, mask } => {
                            coalesce_into(addrs, *width, *mask, 32, &mut scratch);
                            (op.trans_start, op.trans_len) = arena_push(&mut cl.arena, &scratch)?;
                            if gpu.l1_caches_globals {
                                coalesce_into(
                                    addrs,
                                    *width,
                                    *mask,
                                    gpu.l1_tag_line() as u32,
                                    &mut scratch,
                                );
                                (op.evict_start, op.evict_len) =
                                    arena_push(&mut cl.arena, &scratch)?;
                            }
                            // Hardware reports stores in up-to-128-byte
                            // transactions regardless of the sector path.
                            coalesce_into(addrs, *width, *mask, 128, &mut scratch);
                            op.store_trans = scratch.len() as f64;
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    // Pass 3 — bank-conflict sweep over the shared-memory accesses. An
    // access equal to block 0's at the same (warp, pc) reuses its replays
    // (module docs); replays depend on nothing but the instruction and the
    // GPU, so the reuse is exact. Every other access runs the bank kernel.
    {
        let _banks = bf_trace::span!("banks");
        let mut scratch = BankScratch::new();
        let mut cursor = 0usize;
        let first = blocks.first().map_or(&[][..], |b| &b.warps[..]);
        for (bi, b) in blocks.iter().enumerate() {
            for (wi, stream) in b.warps.iter().enumerate() {
                let same_warp = if bi == 0 { None } else { first.get(wi) };
                for (pc, instr) in stream.iter().enumerate() {
                    let at = cursor;
                    cursor += 1;
                    if let WarpInstruction::LoadShared {
                        offsets,
                        width,
                        mask,
                    }
                    | WarpInstruction::StoreShared {
                        offsets,
                        width,
                        mask,
                    } = instr
                    {
                        if same_warp.and_then(|s| s.get(pc)) == Some(instr) {
                            // Block 0's warp `wi` starts at op `warps[wi].start`.
                            let reused = cl.ops[cl.warps[wi].start as usize + pc].replays;
                            cl.ops[at].replays = reused;
                            continue;
                        }
                        cl.ops[at].replays = banks::replays_scratch(
                            offsets,
                            *width,
                            *mask,
                            gpu.shared_banks as u32,
                            gpu.bank_width as u32,
                            &mut scratch,
                        ) as f64;
                    }
                }
            }
        }
    }

    Ok(cl)
}

struct BarrierState {
    arrived: usize,
    release_time: f64,
    parked: Vec<usize>,
    total_warps: usize,
}

/// Runs the event-driven scheduler over a compiled resident set. Mirrors
/// [`crate::sm::simulate_sm`]'s accumulation order exactly; see the module
/// docs for the bit-exactness contract.
pub fn execute(gpu: &GpuConfig, cl: &CompiledLaunch, l1: &mut Cache, l2: &mut Cache) -> SmResult {
    let _issue_span = bf_trace::span!("issue_loop");
    let nwarps = cl.warps.len();
    let mut pc: Vec<u32> = vec![0; nwarps];
    let mut finish: Vec<f64> = vec![0.0; nwarps];
    let mut barriers: Vec<BarrierState> = cl
        .block_warp_counts
        .iter()
        .map(|&n| BarrierState {
            arrived: 0,
            release_time: 0.0,
            parked: Vec::new(),
            total_warps: n,
        })
        .collect();
    let mut ev = RawEvents {
        warps_launched: nwarps as f64,
        blocks_launched: cl.block_warp_counts.len() as f64,
        ..RawEvents::default()
    };

    let mut ready: BinaryHeap<Reverse<(Time, usize)>> = BinaryHeap::new();
    for i in 0..nwarps {
        ready.push(Reverse((Time(0.0), i)));
    }

    let mut issue_free = 0.0f64;
    let mut alu_free = 0.0f64;
    let mut ldst_free = 0.0f64;
    let mut sfu_free = 0.0f64;
    let issue_period = 1.0 / gpu.issue_width() as f64;
    let alu_period = 1.0 / gpu.alu_throughput;
    let ldst_period = 1.0 / gpu.ldst_units;
    let sfu_period = 1.0 / gpu.sfu_throughput;

    let mut dram_bytes = 0.0f64;
    let mut makespan = 0.0f64;

    while let Some(Reverse((Time(ready_t), wi))) = ready.pop() {
        let w = cl.warps[wi];
        if pc[wi] >= w.len {
            continue;
        }
        let op = cl.ops[(w.start + pc[wi]) as usize];
        if op.kind == OpKind::Barrier {
            ev.inst_executed += 1.0;
            ev.inst_issued += 1.0;
            let bar = &mut barriers[w.block as usize];
            bar.arrived += 1;
            bar.release_time = bar.release_time.max(ready_t);
            pc[wi] += 1;
            if bar.arrived == bar.total_warps {
                let t = bar.release_time;
                bar.arrived = 0;
                bar.release_time = 0.0;
                let parked = std::mem::take(&mut bar.parked);
                for p in parked {
                    ready.push(Reverse((Time(t), p)));
                }
                ready.push(Reverse((Time(t), wi)));
            } else {
                bar.parked.push(wi);
            }
            continue;
        }

        let t_issue = ready_t.max(issue_free);
        issue_free = t_issue + issue_period;
        let lanes = op.lanes;

        let next_ready = match op.kind {
            OpKind::Alu => {
                let c = op.count;
                let start = t_issue.max(alu_free);
                alu_free = start + c * alu_period;
                ev.inst_executed += c;
                ev.inst_issued += c;
                ev.thread_inst_executed += c * lanes;
                start + (c - 1.0) * alu_period + gpu.alu_latency as f64
            }
            OpKind::Sfu => {
                let start = t_issue.max(sfu_free);
                sfu_free = start + sfu_period;
                ev.inst_executed += 1.0;
                ev.inst_issued += 1.0;
                ev.thread_inst_executed += lanes;
                start + gpu.sfu_latency as f64
            }
            OpKind::Branch => {
                let start = t_issue.max(alu_free);
                alu_free = start + alu_period;
                ev.inst_executed += 1.0;
                ev.branch += 1.0;
                ev.thread_inst_executed += lanes;
                if op.divergent {
                    ev.divergent_branch += 1.0;
                    ev.inst_issued += 2.0;
                    start + 2.0 * gpu.alu_latency as f64
                } else {
                    ev.inst_issued += 1.0;
                    start + gpu.alu_latency as f64
                }
            }
            OpKind::LoadShared => {
                let r = op.replays;
                let start = t_issue.max(ldst_free);
                let busy = (1.0 + r) * ldst_period;
                ldst_free = start + busy;
                ev.ldst_busy_cycles += busy;
                ev.inst_executed += 1.0;
                ev.inst_issued += 1.0 + r;
                ev.shared_load += 1.0;
                ev.shared_load_replay += r;
                ev.thread_inst_executed += lanes;
                start + gpu.smem_latency as f64 + r
            }
            OpKind::StoreShared => {
                let r = op.replays;
                let start = t_issue.max(ldst_free);
                let busy = (1.0 + r) * ldst_period;
                ldst_free = start + busy;
                ev.ldst_busy_cycles += busy;
                ev.inst_executed += 1.0;
                ev.inst_issued += 1.0 + r;
                ev.shared_store += 1.0;
                ev.shared_store_replay += r;
                ev.thread_inst_executed += lanes;
                start + r + 2.0
            }
            OpKind::LoadGlobal => {
                ev.gld_request += 1.0;
                ev.gld_requested_bytes += op.req_bytes;
                ev.inst_executed += 1.0;
                ev.thread_inst_executed += lanes;
                let start = t_issue.max(ldst_free);
                let mut worst_latency = gpu.l1_latency as f64;
                let trans =
                    &cl.arena[op.trans_start as usize..(op.trans_start + op.trans_len) as usize];
                let ntrans = trans.len() as f64;
                if gpu.l1_caches_globals {
                    let segment = gpu.load_segment_bytes();
                    for &line in trans {
                        match l1.read(line) {
                            Access::Hit => {
                                ev.l1_global_load_hit += 1.0;
                            }
                            Access::Miss => {
                                ev.l1_global_load_miss += 1.0;
                                worst_latency = worst_latency.max(gpu.l2_latency as f64);
                                let sectors = (segment / 32).max(1) as u64;
                                for s in 0..sectors {
                                    ev.l2_read_transactions += 1.0;
                                    match l2.read(line + s * 32) {
                                        Access::Hit => ev.l2_read_hits += 1.0,
                                        Access::Miss => {
                                            ev.dram_read_transactions += 1.0;
                                            dram_bytes += 32.0;
                                            worst_latency =
                                                worst_latency.max(gpu.dram_latency as f64);
                                        }
                                    }
                                }
                            }
                        }
                    }
                } else {
                    worst_latency = gpu.l2_latency as f64;
                    for &sec in trans {
                        ev.l2_read_transactions += 1.0;
                        match l2.read(sec) {
                            Access::Hit => ev.l2_read_hits += 1.0,
                            Access::Miss => {
                                ev.dram_read_transactions += 1.0;
                                dram_bytes += 32.0;
                                worst_latency = worst_latency.max(gpu.dram_latency as f64);
                            }
                        }
                    }
                }
                ev.global_load_transactions += ntrans;
                ev.inst_issued += ntrans.max(1.0);
                let busy = ntrans.max(1.0) * ldst_period;
                ldst_free = start + busy;
                ev.ldst_busy_cycles += busy;
                start + worst_latency
            }
            OpKind::StoreGlobal => {
                ev.gst_request += 1.0;
                ev.gst_requested_bytes += op.req_bytes;
                ev.inst_executed += 1.0;
                ev.thread_inst_executed += lanes;
                let start = t_issue.max(ldst_free);
                let sectors =
                    &cl.arena[op.trans_start as usize..(op.trans_start + op.trans_len) as usize];
                if gpu.l1_caches_globals {
                    let evicts = &cl.arena
                        [op.evict_start as usize..(op.evict_start + op.evict_len) as usize];
                    for &line in evicts {
                        l1.write_evict(line);
                    }
                }
                for &sec in sectors {
                    ev.l2_write_transactions += 1.0;
                    let _ = l2.write_allocate(sec);
                    ev.dram_write_transactions += 1.0;
                    dram_bytes += 32.0;
                }
                ev.global_store_transactions += op.store_trans;
                let ntrans = sectors.len() as f64;
                ev.inst_issued += op.store_trans.max(1.0);
                let busy = ntrans.max(1.0) * ldst_period;
                ldst_free = start + busy;
                ev.ldst_busy_cycles += busy;
                start + 4.0
            }
            OpKind::Barrier => unreachable!("handled above"),
        };

        pc[wi] += 1;
        finish[wi] = next_ready;
        makespan = makespan.max(next_ready);
        if pc[wi] < w.len {
            ready.push(Reverse((Time(next_ready), wi)));
        }
    }

    for f in &finish {
        ev.active_warp_cycles += *f;
    }
    let cycles = makespan.max(1.0);
    ev.elapsed_cycles = cycles;
    ev.active_cycles = cycles;
    ev.issue_slots = cycles * gpu.issue_width() as f64;
    ev.time_seconds = cycles / (gpu.clock_ghz * 1e9);
    SmResult {
        cycles,
        events: ev,
        dram_bytes,
    }
}

/// Compiles and executes a resident set: the drop-in, bit-identical
/// replacement for [`crate::sm::simulate_sm`] the launch engine uses.
pub fn simulate_resident_set(
    gpu: &GpuConfig,
    blocks: &[BlockTrace],
    l1: &mut Cache,
    l2: &mut Cache,
) -> Result<SmResult> {
    let cl = compile(gpu, blocks)?;
    Ok(execute(gpu, &cl, l1, l2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sm::simulate_sm;
    use crate::trace::{first_lanes, FULL_MASK};

    fn caches(g: &GpuConfig) -> (Cache, Cache) {
        (
            Cache::new(g.l1_size, g.l1_tag_line(), g.l1_assoc),
            Cache::new(g.l2_size / g.num_sms, g.l2_line.max(32), g.l2_assoc),
        )
    }

    fn assert_bit_identical(g: &GpuConfig, blocks: &[BlockTrace]) {
        let (mut l1a, mut l2a) = caches(g);
        let reference = simulate_sm(g, blocks, &mut l1a, &mut l2a).unwrap();
        let (mut l1b, mut l2b) = caches(g);
        let soa = simulate_resident_set(g, blocks, &mut l1b, &mut l2b).unwrap();
        assert_eq!(reference.cycles.to_bits(), soa.cycles.to_bits());
        assert_eq!(reference.dram_bytes.to_bits(), soa.dram_bytes.to_bits());
        let (a, b) = (reference.events.as_array(), soa.events.as_array());
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "event field {i} diverges: {x} vs {y}"
            );
        }
    }

    fn mixed_block(seed: u64) -> BlockTrace {
        let mut b = BlockTrace::with_warps(4);
        for (w, stream) in b.warps.iter_mut().enumerate() {
            let base = seed + (w as u64) * 4096;
            stream.push(WarpInstruction::LoadGlobal {
                addrs: (0..32).map(|i| base + i * 4).collect(),
                width: 4,
                mask: FULL_MASK,
            });
            stream.push(WarpInstruction::LoadShared {
                offsets: (0..32).map(|i| i * 8).collect(),
                width: 4,
                mask: FULL_MASK,
            });
            stream.push(WarpInstruction::Alu {
                count: 7,
                mask: first_lanes(17),
            });
            stream.push(WarpInstruction::Barrier);
            stream.push(WarpInstruction::Branch {
                divergent: w % 2 == 0,
                mask: FULL_MASK,
            });
            stream.push(WarpInstruction::Sfu {
                mask: first_lanes(9),
            });
            stream.push(WarpInstruction::StoreShared {
                offsets: (0..32).map(|i| i * 4).collect(),
                width: 4,
                mask: first_lanes(23),
            });
            stream.push(WarpInstruction::StoreGlobal {
                addrs: (0..32).map(|i| base + (1 << 20) + i * 512).collect(),
                width: 8,
                mask: FULL_MASK,
            });
        }
        b
    }

    #[test]
    fn matches_reference_on_fermi() {
        assert_bit_identical(
            &GpuConfig::gtx580(),
            &[mixed_block(0), mixed_block(1 << 16)],
        );
    }

    #[test]
    fn matches_reference_on_kepler() {
        assert_bit_identical(&GpuConfig::k20m(), &[mixed_block(0), mixed_block(1 << 16)]);
    }

    #[test]
    fn matches_reference_across_the_zoo() {
        // Every memory-path flavour beyond the paper pair: L1-bypassing
        // Maxwell and the sector-tagged Pascal/Volta L1s.
        for g in [
            GpuConfig::gtx750ti(),
            GpuConfig::gtx980(),
            GpuConfig::gtx1080(),
            GpuConfig::p100(),
            GpuConfig::titanv(),
            GpuConfig::v100(),
        ] {
            assert_bit_identical(&g, &[mixed_block(0), mixed_block(1 << 16)]);
        }
    }

    #[test]
    fn matches_reference_on_empty_and_tiny_blocks() {
        let mut uneven = BlockTrace::with_warps(3);
        uneven.warps[1].push(WarpInstruction::Alu {
            count: 1,
            mask: FULL_MASK,
        });
        assert_bit_identical(&GpuConfig::gtx580(), &[BlockTrace::with_warps(2), uneven]);
    }

    /// A block whose warps each run one shared load per stride in
    /// `strides` (lane `i` at `i * stride` bytes), then a store, then a
    /// barrier.
    fn shared_block(warps: usize, strides: &[u32], mask: u32) -> BlockTrace {
        let mut b = BlockTrace::with_warps(warps);
        for stream in &mut b.warps {
            for &stride in strides {
                stream.push(WarpInstruction::LoadShared {
                    offsets: (0..32).map(|i| i * stride).collect(),
                    width: 4,
                    mask,
                });
            }
            stream.push(WarpInstruction::StoreShared {
                offsets: (0..32).map(|i| i * 128).collect(),
                width: 4,
                mask,
            });
            stream.push(WarpInstruction::Barrier);
        }
        b
    }

    #[test]
    fn reuses_first_block_replays_only_for_equal_accesses() {
        let g = GpuConfig::gtx580();
        let first = shared_block(2, &[4, 8, 16], FULL_MASK);
        // Same (warp, pc), different offsets, mask or width: each must
        // take the bank kernel, not block 0's replays.
        let strides = shared_block(2, &[16, 4, 64], FULL_MASK);
        let masks = shared_block(2, &[4, 8, 16], first_lanes(3));
        let mut widths = first.clone();
        for stream in &mut widths.warps {
            if let WarpInstruction::LoadShared { width, .. } = &mut stream[0] {
                *width = 8;
            }
        }
        assert_bit_identical(&g, &[first.clone(), strides, masks, widths, first]);
    }

    #[test]
    fn reuse_survives_blocks_of_other_shapes() {
        let g = GpuConfig::k20m();
        let first = shared_block(2, &[4, 8], FULL_MASK);
        // More warps than block 0, longer and shorter streams, and a
        // non-shared instruction where block 0 has a shared one.
        let wider = shared_block(4, &[4, 8], FULL_MASK);
        let longer = shared_block(2, &[4, 8, 32, 64], FULL_MASK);
        let shorter = shared_block(2, &[8], FULL_MASK);
        let mut other_kind = first.clone();
        for stream in &mut other_kind.warps {
            stream[0] = WarpInstruction::Alu {
                count: 2,
                mask: FULL_MASK,
            };
        }
        assert_bit_identical(
            &g,
            &[
                first,
                wider,
                longer,
                shorter,
                BlockTrace::with_warps(1),
                other_kind,
            ],
        );
        // A first block with no warps leaves every later block to the kernel.
        assert_bit_identical(
            &g,
            &[
                BlockTrace::with_warps(0),
                shared_block(3, &[16, 32], FULL_MASK),
            ],
        );
    }

    #[test]
    fn rejects_invalid_traces_like_reference() {
        let g = GpuConfig::gtx580();
        let mut bad = BlockTrace::with_warps(2);
        bad.warps[0].push(WarpInstruction::Barrier);
        let (mut l1, mut l2) = caches(&g);
        assert!(simulate_resident_set(&g, &[bad], &mut l1, &mut l2).is_err());
    }
}
