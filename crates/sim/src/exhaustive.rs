//! Exhaustive (all-2ⁿ-pattern) evaluation.
//!
//! The self-test techniques of §V all apply *every* input pattern:
//! syndrome testing counts output 1s, Walsh testing accumulates signed
//! sums, autonomous testing compares every response. This module
//! enumerates the full input space in 64-pattern blocks using the
//! classic counter-stripe trick, so a 20-input circuit costs 2²⁰/64 ≈
//! 16 K block evaluations rather than a million scalar ones.

use dft_netlist::{GateId, Netlist};

use crate::Kernel;

/// Practical ceiling on exhaustive input width (2³⁰ block-evaluations
/// would already take minutes on large circuits; the paper's point is
/// precisely that exhaustive testing explodes — see experiment E4).
pub const MAX_EXHAUSTIVE_INPUTS: usize = 30;

/// The first six inputs' packed lane stripes: input *i* of a 64-lane
/// block alternates with period 2^(i+1).
const STRIPES: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Packs the input words for exhaustive block `block` over `n` inputs:
/// lane *j* of the block is global pattern `block·64 + j`, and input *i*
/// of pattern *p* is bit *i* of *p*.
#[must_use]
pub fn input_words(n: usize, block: u64) -> Vec<u64> {
    (0..n)
        .map(|i| {
            if i < 6 {
                STRIPES[i]
            } else if block >> (i - 6) & 1 == 1 {
                u64::MAX
            } else {
                0
            }
        })
        .collect()
}

/// Number of 64-pattern blocks needed to cover `n` inputs.
///
/// # Panics
///
/// Panics if `n` exceeds [`MAX_EXHAUSTIVE_INPUTS`].
#[must_use]
pub fn block_count(n: usize) -> u64 {
    assert!(
        n <= MAX_EXHAUSTIVE_INPUTS,
        "exhaustive application of {n} inputs is infeasible (limit {MAX_EXHAUSTIVE_INPUTS}) — \
         which is the survey's point; partition the network instead"
    );
    if n < 6 {
        1
    } else {
        1u64 << (n - 6)
    }
}

/// Number of valid lanes in a block (64 unless `n < 6`).
#[must_use]
pub fn lanes(n: usize) -> u32 {
    if n >= 6 {
        64
    } else {
        1 << n
    }
}

/// Visits every exhaustive block of `netlist`, passing the block index
/// and the packed per-gate values to `visit`. Each block is one
/// [`Kernel::eval_block`] sweep of the compiled op program.
///
/// Storage elements are held at 0 (exhaustive testing is a combinational
/// technique; scan provides the state access).
///
/// # Errors
///
/// Returns [`dft_netlist::LevelizeError`] on combinational cycles.
///
/// # Panics
///
/// Panics if the input count exceeds [`MAX_EXHAUSTIVE_INPUTS`].
pub fn for_each_block<F>(netlist: &Netlist, mut visit: F) -> Result<(), dft_netlist::LevelizeError>
where
    F: FnMut(u64, &[u64]),
{
    let kernel = Kernel::new(netlist)?;
    let n = netlist.primary_inputs().len();
    for block in 0..block_count(n) {
        let vals = kernel.eval_block(&input_words(n, block));
        visit(block, &vals);
    }
    Ok(())
}

/// Counts, for each requested gate, how many of the 2ⁿ input patterns
/// drive it to 1 — the minterm count `K` of the paper's syndrome
/// definition (Def. 1: S = K/2ⁿ).
///
/// # Errors
///
/// Returns [`dft_netlist::LevelizeError`] on combinational cycles.
///
/// # Panics
///
/// Panics if the input count exceeds [`MAX_EXHAUSTIVE_INPUTS`].
pub fn minterm_counts(
    netlist: &Netlist,
    gates: &[GateId],
) -> Result<Vec<u64>, dft_netlist::LevelizeError> {
    let n = netlist.primary_inputs().len();
    let lane_mask = if lanes(n) == 64 {
        u64::MAX
    } else {
        (1u64 << lanes(n)) - 1
    };
    let mut counts = vec![0u64; gates.len()];
    for_each_block(netlist, |_, vals| {
        for (slot, &g) in gates.iter().enumerate() {
            counts[slot] += u64::from((vals[g.index()] & lane_mask).count_ones());
        }
    })?;
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_netlist::circuits::{full_adder, majority, parity_tree};

    #[test]
    fn input_words_enumerate_binary_counting() {
        // For n = 8, block 2: patterns 128..191; input 7 = bit 7 of p.
        let words = input_words(8, 2);
        for lane in 0..64u64 {
            let p = 2 * 64 + lane;
            for (i, w) in words.iter().enumerate() {
                assert_eq!(w >> lane & 1 == 1, p >> i & 1 == 1, "input {i} lane {lane}");
            }
        }
    }

    #[test]
    fn block_count_and_lanes() {
        assert_eq!(block_count(3), 1);
        assert_eq!(lanes(3), 8);
        assert_eq!(block_count(6), 1);
        assert_eq!(lanes(6), 64);
        assert_eq!(block_count(10), 16);
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn refuses_huge_input_spaces() {
        let _ = block_count(40);
    }

    #[test]
    fn majority_minterm_count() {
        // maj3 is 1 on exactly 4 of 8 minterms.
        let n = majority();
        let out = n.find_output("maj").unwrap();
        let counts = minterm_counts(&n, &[out]).unwrap();
        assert_eq!(counts, vec![4]);
    }

    #[test]
    fn parity_minterm_count_is_half() {
        let n = parity_tree(7);
        let out = n.primary_outputs()[0].0;
        let counts = minterm_counts(&n, &[out]).unwrap();
        assert_eq!(counts, vec![64]); // half of 2^7
    }

    #[test]
    fn adder_sum_and_carry_counts() {
        let fa = full_adder();
        let sum = fa.find_output("sum").unwrap();
        let cout = fa.find_output("cout").unwrap();
        let counts = minterm_counts(&fa, &[sum, cout]).unwrap();
        assert_eq!(counts, vec![4, 4]);
    }
}
