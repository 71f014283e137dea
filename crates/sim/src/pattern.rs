//! Packed pattern sets: 64 test patterns per machine word.

use std::ops::Range;

use rand::Rng;

use crate::exhaustive::{block_count, input_words, lanes};

/// A set of input patterns packed bit-parallel: for each primary input
/// there is one `u64` per block of 64 patterns, bit *j* holding pattern
/// *j*'s value.
///
/// This layout lets [`CompiledSim`](crate::CompiledSim) evaluate 64
/// patterns per gate visit — the same trick classic parallel fault
/// simulators use (§I-B of the paper discusses why fault simulation cost
/// dominates; packing is the first-line mitigation).
///
/// ```
/// use dft_sim::PatternSet;
///
/// let mut p = PatternSet::new(3);
/// p.push(&[true, false, true]);
/// p.push(&[false, false, true]);
/// assert_eq!(p.len(), 2);
/// assert_eq!(p.get(0), vec![true, false, true]);
/// assert!(p.bit(2, 1)); // input 2, pattern 1
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PatternSet {
    input_count: usize,
    len: usize,
    /// `words[block][input]`
    words: Vec<Vec<u64>>,
}

impl PatternSet {
    /// Creates an empty pattern set over `input_count` primary inputs.
    #[must_use]
    pub fn new(input_count: usize) -> Self {
        PatternSet {
            input_count,
            len: 0,
            words: Vec::new(),
        }
    }

    /// `count` patterns driving every input low.
    #[must_use]
    pub fn all_inputs_low(input_count: usize, count: usize) -> Self {
        let mut p = PatternSet::new(input_count);
        for _ in 0..count {
            p.push(&vec![false; input_count]);
        }
        p
    }

    /// `count` uniformly random patterns from `rng`.
    #[must_use]
    pub fn random<R: Rng>(input_count: usize, count: usize, rng: &mut R) -> Self {
        let mut p = PatternSet::new(input_count);
        let mut buf = vec![false; input_count];
        for _ in 0..count {
            for b in &mut buf {
                *b = rng.gen_bool(0.5);
            }
            p.push(&buf);
        }
        p
    }

    /// `count` patterns where input *i* is 1 with probability `weights[i]`
    /// — the "weighted random" generation of the paper's reference \[95\].
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != input_count`.
    #[must_use]
    pub fn weighted_random<R: Rng>(weights: &[f64], count: usize, rng: &mut R) -> Self {
        let mut p = PatternSet::new(weights.len());
        let mut buf = vec![false; weights.len()];
        for _ in 0..count {
            for (b, &w) in buf.iter_mut().zip(weights) {
                *b = rng.gen_bool(w.clamp(0.0, 1.0));
            }
            p.push(&buf);
        }
        p
    }

    /// Patterns `range` of the counting sequence over `input_count`
    /// inputs, in order: pattern *p* drives input *i* to bit *i* of *p*,
    /// so `0..1 << input_count` applies every input combination once.
    /// Packed block by block from [`input_words`].
    ///
    /// # Panics
    ///
    /// Panics if `input_count` exceeds
    /// [`MAX_EXHAUSTIVE_INPUTS`](crate::exhaustive::MAX_EXHAUSTIVE_INPUTS)
    /// or `range` ends past pattern 2^`input_count`.
    #[must_use]
    pub fn exhaustive(input_count: usize, range: Range<usize>) -> Self {
        let total = block_count(input_count) * u64::from(lanes(input_count));
        assert!(range.end as u64 <= total, "range past the sequence's end");
        let len = range.len();
        // Block b holds patterns start + 64b.. : the sequence's blocks at
        // and after it, shifted down by the start's lane.
        let (first, shift) = ((range.start / 64) as u64, range.start % 64);
        let words = (0..len.div_ceil(64))
            .map(|b| {
                let mask = u64::MAX >> (64 - (len - 64 * b).min(64));
                let at = first + b as u64;
                let lo = input_words(input_count, at);
                let hi = input_words(input_count, at + 1);
                lo.iter()
                    .zip(&hi)
                    .map(|(&l, &h)| ((u128::from(h) << 64 | u128::from(l)) >> shift) as u64 & mask)
                    .collect()
            })
            .collect();
        PatternSet {
            input_count,
            len,
            words,
        }
    }

    /// Builds a set from explicit pattern rows.
    ///
    /// # Panics
    ///
    /// Panics if rows disagree in length.
    #[must_use]
    pub fn from_rows(input_count: usize, rows: &[Vec<bool>]) -> Self {
        let mut p = PatternSet::new(input_count);
        for r in rows {
            p.push(r);
        }
        p
    }

    /// Number of primary inputs per pattern.
    #[must_use]
    pub fn input_count(&self) -> usize {
        self.input_count
    }

    /// Number of patterns.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of 64-pattern blocks.
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.words.len()
    }

    /// The packed words of one block: `words[input]`, one `u64` per input.
    ///
    /// Unused high lanes of the final block are zero.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    #[must_use]
    pub fn block(&self, block: usize) -> &[u64] {
        &self.words[block]
    }

    /// Number of valid pattern lanes in `block` (64 except possibly the
    /// last block).
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    #[must_use]
    pub fn lanes_in_block(&self, block: usize) -> usize {
        assert!(block < self.words.len(), "block out of range");
        if block + 1 == self.words.len() {
            let rem = self.len % 64;
            if rem == 0 {
                64
            } else {
                rem
            }
        } else {
            64
        }
    }

    /// Appends one pattern.
    ///
    /// # Panics
    ///
    /// Panics if `pattern.len() != input_count`.
    pub fn push(&mut self, pattern: &[bool]) {
        assert_eq!(
            pattern.len(),
            self.input_count,
            "pattern width must match input count"
        );
        let lane = self.len % 64;
        if lane == 0 {
            self.words.push(vec![0u64; self.input_count]);
        }
        let block = self.words.last_mut().expect("just ensured");
        for (i, &b) in pattern.iter().enumerate() {
            if b {
                block[i] |= 1 << lane;
            }
        }
        self.len += 1;
    }

    /// Appends all patterns of another set (same input count).
    ///
    /// # Panics
    ///
    /// Panics if input counts differ.
    pub fn extend_from(&mut self, other: &PatternSet) {
        assert_eq!(self.input_count, other.input_count);
        for i in 0..other.len() {
            self.push(&other.get(i));
        }
    }

    /// The value of input `input` in pattern `pattern`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn bit(&self, input: usize, pattern: usize) -> bool {
        assert!(pattern < self.len, "pattern index out of range");
        assert!(input < self.input_count, "input index out of range");
        self.words[pattern / 64][input] >> (pattern % 64) & 1 == 1
    }

    /// Extracts pattern `pattern` as a row of bools.
    ///
    /// # Panics
    ///
    /// Panics if `pattern` is out of range.
    #[must_use]
    pub fn get(&self, pattern: usize) -> Vec<bool> {
        (0..self.input_count)
            .map(|i| self.bit(i, pattern))
            .collect()
    }

    /// Iterates over patterns as rows.
    pub fn iter(&self) -> impl Iterator<Item = Vec<bool>> + '_ {
        (0..self.len).map(|p| self.get(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn push_and_get_round_trip() {
        let rows = vec![
            vec![true, false, true],
            vec![false, true, true],
            vec![false, false, false],
        ];
        let p = PatternSet::from_rows(3, &rows);
        assert_eq!(p.len(), 3);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(&p.get(i), r);
        }
    }

    /// The counting sequence built row by row.
    fn counted(n: usize, range: Range<usize>) -> PatternSet {
        let rows: Vec<Vec<bool>> = range
            .map(|p| (0..n).map(|i| p >> i & 1 == 1).collect())
            .collect();
        PatternSet::from_rows(n, &rows)
    }

    #[test]
    fn exhaustive_packs_the_counting_sequence() {
        for n in 0..=8 {
            assert_eq!(PatternSet::exhaustive(n, 0..1 << n), counted(n, 0..1 << n));
        }
        // Block-aligned and unaligned starts, ragged ends.
        for range in [128..300, 100..700, 1000..1001, 1023..1024, 64..64] {
            assert_eq!(
                PatternSet::exhaustive(10, range.clone()),
                counted(10, range.clone()),
                "{range:?}"
            );
        }
    }

    #[test]
    fn blocks_fill_at_64() {
        let mut p = PatternSet::new(1);
        for i in 0..65 {
            p.push(&[i % 2 == 0]);
        }
        assert_eq!(p.block_count(), 2);
        assert_eq!(p.lanes_in_block(0), 64);
        assert_eq!(p.lanes_in_block(1), 1);
        assert_eq!(p.block(0)[0], 0x5555_5555_5555_5555);
        assert_eq!(p.block(1)[0], 1);
    }

    #[test]
    fn random_is_seeded() {
        let mut r1 = StdRng::seed_from_u64(5);
        let mut r2 = StdRng::seed_from_u64(5);
        let a = PatternSet::random(4, 100, &mut r1);
        let b = PatternSet::random(4, 100, &mut r2);
        assert_eq!(a, b);
    }

    #[test]
    fn weighted_random_respects_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = PatternSet::weighted_random(&[0.0, 1.0], 50, &mut rng);
        for i in 0..p.len() {
            assert!(!p.bit(0, i));
            assert!(p.bit(1, i));
        }
    }

    #[test]
    fn extend_concatenates() {
        let a = PatternSet::from_rows(2, &[vec![true, false]]);
        let mut b = PatternSet::from_rows(2, &[vec![false, true]]);
        b.extend_from(&a);
        assert_eq!(b.len(), 2);
        assert_eq!(b.get(1), vec![true, false]);
    }

    #[test]
    fn iter_yields_rows_in_order() {
        let rows = vec![vec![true, false], vec![false, false], vec![true, true]];
        let p = PatternSet::from_rows(2, &rows);
        let collected: Vec<Vec<bool>> = p.iter().collect();
        assert_eq!(collected, rows);
    }

    #[test]
    #[should_panic(expected = "pattern width")]
    fn wrong_width_panics() {
        let mut p = PatternSet::new(2);
        p.push(&[true]);
    }
}
