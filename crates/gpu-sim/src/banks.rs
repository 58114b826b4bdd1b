//! Shared-memory bank-conflict model.
//!
//! Shared memory is divided into `banks` (32 on Fermi/Kepler) of
//! `bank_width`-byte words. A warp's shared access completes in one pass iff
//! every active lane touches a distinct bank *or* lanes touching the same
//! bank read the same word (broadcast). Otherwise the access replays once per
//! extra word mapped to the most-contended bank — the mechanism behind
//! `reduce1`'s `shared_replay_overhead` bottleneck (paper §5.2).
//!
//! Two implementations compute the same degree. [`conflict_degree`] is the
//! plain, allocating reference: it keeps a `Vec` of words per bank. The
//! simulator's compile stage ([`crate::soa`]) runs
//! [`conflict_degree_scratch`] on every shared access, without sorting or
//! allocating: bank and word come from shifts and masks (bank count and
//! width are powers of two on every preset), a bitmask answers the
//! conflict-free case in one pass, and otherwise per-bank chains in a
//! reused [`BankScratch`] count the distinct words, resetting only the
//! banks the access touched. The static analyzer and the property tests
//! hold the two to the same answer.

use crate::trace::{first_lanes, LaneMask};

/// Computes the conflict degree of a shared-memory access: the maximum
/// number of *distinct words* any single bank must serve. Degree 1 means
/// conflict-free; degree `d` costs `d - 1` replays.
pub fn conflict_degree(
    offsets: &[u32],
    width: u8,
    mask: LaneMask,
    banks: u32,
    bank_width: u32,
) -> u32 {
    debug_assert!(banks.is_power_of_two());
    // Words per bank this access touches; small fixed arrays would also work
    // but a Vec keeps `banks` flexible.
    let mut per_bank: Vec<Vec<u32>> = vec![Vec::new(); banks as usize];
    let words_per_access = (width as u32).div_ceil(bank_width).max(1);
    for (lane, &off) in offsets.iter().enumerate() {
        if mask & (1 << lane) == 0 {
            continue;
        }
        for w in 0..words_per_access {
            let word = off / bank_width + w;
            let bank = (word % banks) as usize;
            if !per_bank[bank].contains(&word) {
                per_bank[bank].push(word);
            }
        }
    }
    per_bank
        .iter()
        .map(|v| v.len() as u32)
        .max()
        .unwrap_or(0)
        .max(1)
}

/// Replays for an access: `conflict_degree - 1`.
pub fn replays(offsets: &[u32], width: u8, mask: LaneMask, banks: u32, bank_width: u32) -> u32 {
    conflict_degree(offsets, width, mask, banks, bank_width) - 1
}

/// Reusable scratch space for [`conflict_degree_scratch`], so the SoA batch
/// compiler evaluates every shared access in a launch without allocating the
/// per-bank `Vec<Vec<u32>>` of [`conflict_degree`] each time.
///
/// The distinct words seen in each bank form a singly linked chain through
/// `words`/`next`, headed at `head[bank]` with its length in `count[bank]`.
/// Only the banks listed in `touched` hold state between the start and the
/// end of one call; they are reset before it returns.
#[derive(Debug, Default)]
pub struct BankScratch {
    head: Vec<u32>,
    count: Vec<u32>,
    words: Vec<u32>,
    next: Vec<u32>,
    touched: Vec<u32>,
}

/// End of a per-bank chain in [`BankScratch`].
const NIL: u32 = u32::MAX;

impl BankScratch {
    /// Fresh scratch space (buffers grow on first use).
    pub fn new() -> BankScratch {
        BankScratch::default()
    }
}

/// Allocation-free, division-free equivalent of [`conflict_degree`]:
/// produces the identical degree for every input with `banks` and
/// `bank_width` powers of two (every [`crate::GpuConfig`] preset).
///
/// It walks only the set lanes of `mask`. A first pass marks each touched
/// bank in a bitmask and returns degree 1 when every active word lands in a
/// distinct bank (the common, conflict-free case). Otherwise a
/// second pass counts the distinct words of each bank along its chain in
/// `scratch`, in time linear in the active words times the longest chain,
/// and resets only the banks it touched.
pub fn conflict_degree_scratch(
    offsets: &[u32],
    width: u8,
    mask: LaneMask,
    banks: u32,
    bank_width: u32,
    scratch: &mut BankScratch,
) -> u32 {
    debug_assert!(banks.is_power_of_two() && bank_width.is_power_of_two());
    let shift = bank_width.trailing_zeros();
    let bank_mask = banks - 1;
    let words_per_access = ((width as u32 + bank_width - 1) >> shift).max(1);
    // Lanes past the end of `offsets` never take part, as in the
    // reference's `enumerate` walk.
    let active = mask & first_lanes(offsets.len());

    // Fast path: no two active words share a bank, so no bank serves more
    // than one word.
    if banks <= 64 {
        let mut seen = 0u64;
        let mut distinct = true;
        let mut m = active;
        'lanes: while m != 0 {
            let first = offsets[m.trailing_zeros() as usize] >> shift;
            m &= m - 1;
            for w in 0..words_per_access {
                let bit = 1u64 << ((first + w) & bank_mask);
                if seen & bit != 0 {
                    distinct = false;
                    break 'lanes;
                }
                seen |= bit;
            }
        }
        if distinct {
            return 1;
        }
    }

    let s = scratch;
    if s.head.len() < banks as usize {
        s.head.resize(banks as usize, NIL);
        s.count.resize(banks as usize, 0);
    }
    let mut degree = 1u32;
    let mut m = active;
    while m != 0 {
        let first = offsets[m.trailing_zeros() as usize] >> shift;
        m &= m - 1;
        for w in 0..words_per_access {
            let word = first + w;
            let bank = (word & bank_mask) as usize;
            let mut node = s.head[bank];
            while node != NIL && s.words[node as usize] != word {
                node = s.next[node as usize];
            }
            if node != NIL {
                continue; // broadcast: this bank already serves the word
            }
            if s.head[bank] == NIL {
                s.touched.push(bank as u32);
            }
            s.next.push(s.head[bank]);
            s.head[bank] = s.words.len() as u32;
            s.words.push(word);
            s.count[bank] += 1;
            degree = degree.max(s.count[bank]);
        }
    }
    for &bank in &s.touched {
        s.head[bank as usize] = NIL;
        s.count[bank as usize] = 0;
    }
    s.touched.clear();
    s.words.clear();
    s.next.clear();
    degree
}

/// Allocation-free equivalent of [`replays`].
pub fn replays_scratch(
    offsets: &[u32],
    width: u8,
    mask: LaneMask,
    banks: u32,
    bank_width: u32,
    scratch: &mut BankScratch,
) -> u32 {
    conflict_degree_scratch(offsets, width, mask, banks, bank_width, scratch) - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::FULL_MASK;

    fn offs(stride: u32) -> Vec<u32> {
        (0..32).map(|i| i * stride).collect()
    }

    #[test]
    fn unit_stride_is_conflict_free() {
        assert_eq!(conflict_degree(&offs(4), 4, FULL_MASK, 32, 4), 1);
        assert_eq!(replays(&offs(4), 4, FULL_MASK, 32, 4), 0);
    }

    #[test]
    fn stride_two_words_gives_two_way_conflict() {
        // Offsets 0,8,16,...: words 0,2,4,...,62; banks 0,2,...,30 each get
        // two distinct words.
        assert_eq!(conflict_degree(&offs(8), 4, FULL_MASK, 32, 4), 2);
    }

    #[test]
    fn stride_doubling_doubles_conflicts() {
        // This is exactly the reduce1 pattern: index = 2*s*tid.
        assert_eq!(conflict_degree(&offs(16), 4, FULL_MASK, 32, 4), 4);
        assert_eq!(conflict_degree(&offs(32), 4, FULL_MASK, 32, 4), 8);
        assert_eq!(conflict_degree(&offs(64), 4, FULL_MASK, 32, 4), 16);
    }

    #[test]
    fn same_word_broadcast_is_free() {
        let offsets = vec![64u32; 32];
        assert_eq!(conflict_degree(&offsets, 4, FULL_MASK, 32, 4), 1);
    }

    #[test]
    fn same_bank_different_words_conflict() {
        // Lanes alternate between word 0 and word 32 (both bank 0).
        let offsets: Vec<u32> = (0..32).map(|i| if i % 2 == 0 { 0 } else { 128 }).collect();
        assert_eq!(conflict_degree(&offsets, 4, FULL_MASK, 32, 4), 2);
    }

    #[test]
    fn inactive_lanes_do_not_conflict() {
        // Only lanes 0 and 1 active, touching the same bank's two words.
        let mut offsets = vec![0u32; 32];
        offsets[1] = 128;
        assert_eq!(conflict_degree(&offsets, 4, 0b11, 32, 4), 2);
        // Same pattern with lane 1 inactive: conflict-free.
        assert_eq!(conflict_degree(&offsets, 4, 0b01, 32, 4), 1);
    }

    #[test]
    fn empty_mask_degree_is_one() {
        assert_eq!(conflict_degree(&offs(4), 4, 0, 32, 4), 1);
        assert_eq!(replays(&offs(4), 4, 0, 32, 4), 0);
    }

    #[test]
    fn double_width_access_spans_two_banks() {
        // 8-byte accesses with 8-byte stride: each lane covers 2 words; 32
        // lanes cover 64 words across 32 banks -> 2 words per bank.
        assert_eq!(conflict_degree(&offs(8), 8, FULL_MASK, 32, 4), 2);
    }

    #[test]
    fn worst_case_all_lanes_same_bank() {
        let offsets: Vec<u32> = (0..32).map(|i| i * 128).collect();
        assert_eq!(conflict_degree(&offsets, 4, FULL_MASK, 32, 4), 32);
        assert_eq!(replays(&offsets, 4, FULL_MASK, 32, 4), 31);
    }
}
