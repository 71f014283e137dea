//! Shared word-evaluation primitives: 64-lane words and wide blocks.
//!
//! Every packed simulator in the workspace evaluates gates over `u64`
//! words where each bit lane is an independent pattern (or machine).
//! This module holds the stuck-value words the fault engines inject and
//! the reference per-gate fold: a `match` on the gate kind over an
//! operand iterator. The compiled [`Kernel`](crate::Kernel) does not
//! call it — it folds its own branch-free op records
//! ([`Kernel::fold_op`](crate::Kernel::fold_op)) — but its tests pin
//! every record kind and fan-in against [`fold_wide`], and the
//! per-gate faulty-frame evaluator in `dft-fault` folds through
//! [`fold_word`].
//!
//! The fold is lane-width-parametric: a *wide word* `[u64; W]` carries
//! `64 × W` pattern lanes (`W = 4` → 256 lanes, `W = 8` → 512 lanes) and
//! [`fold_wide`] folds a gate over all of them in one call; the 64-lane
//! [`fold_word`] is the `W = 1` instantiation, so the two can never
//! disagree.

use dft_netlist::GateKind;

/// The packed word a stuck-at value forces: all-ones for s-a-1, all-zeros
/// for s-a-0.
#[must_use]
pub fn stuck_word(stuck: bool) -> u64 {
    if stuck {
        u64::MAX
    } else {
        0
    }
}

/// [`stuck_word`] over a wide block: every lane of every word forced.
#[must_use]
pub fn stuck_wide<const W: usize>(stuck: bool) -> [u64; W] {
    [stuck_word(stuck); W]
}

/// Element-wise binary op over wide blocks; the fixed-`W` loop unrolls
/// and vectorizes.
#[inline]
fn zip_wide<const W: usize>(mut a: [u64; W], b: [u64; W], f: impl Fn(u64, u64) -> u64) -> [u64; W] {
    for i in 0..W {
        a[i] = f(a[i], b[i]);
    }
    a
}

/// Element-wise complement of a wide block.
#[inline]
fn not_wide<const W: usize>(mut a: [u64; W]) -> [u64; W] {
    for x in &mut a {
        *x = !*x;
    }
    a
}

/// Folds a gate over packed wide-block operands without allocating: the
/// lane-width-parametric generalization of [`fold_word`] (which is its
/// `W = 1` instantiation).
///
/// Constants need no operands; every other kind consumes the iterator
/// left-to-right. `Input`/`Dff` are pass-throughs of their single
/// operand.
///
/// # Panics
///
/// Panics if `operands` is empty for a kind that requires fan-in.
#[inline]
#[must_use]
pub fn fold_wide<const W: usize, I: Iterator<Item = [u64; W]>>(
    kind: GateKind,
    mut operands: I,
) -> [u64; W] {
    match kind {
        GateKind::Const0 => [0; W],
        GateKind::Const1 => [u64::MAX; W],
        _ => {
            let first = operands
                .next()
                .expect("non-constant gates have at least one operand");
            match kind {
                GateKind::Buf | GateKind::Input | GateKind::Dff => first,
                GateKind::Not => not_wide(first),
                GateKind::And => operands.fold(first, |a, b| zip_wide(a, b, |x, y| x & y)),
                GateKind::Nand => {
                    not_wide(operands.fold(first, |a, b| zip_wide(a, b, |x, y| x & y)))
                }
                GateKind::Or => operands.fold(first, |a, b| zip_wide(a, b, |x, y| x | y)),
                GateKind::Nor => {
                    not_wide(operands.fold(first, |a, b| zip_wide(a, b, |x, y| x | y)))
                }
                GateKind::Xor => operands.fold(first, |a, b| zip_wide(a, b, |x, y| x ^ y)),
                GateKind::Xnor => {
                    not_wide(operands.fold(first, |a, b| zip_wide(a, b, |x, y| x ^ y)))
                }
                GateKind::Const0 | GateKind::Const1 => unreachable!("handled above"),
            }
        }
    }
}

/// Folds a gate over packed 64-lane operand words without allocating.
///
/// The single-word (`W = 1`) instantiation of [`fold_wide`], kept as the
/// named entry point of the classic engines — routing it through the
/// wide fold guarantees the two lane layouts cannot drift.
///
/// # Panics
///
/// Panics if `operands` is empty for a kind that requires fan-in.
#[inline]
#[must_use]
pub fn fold_word<I: Iterator<Item = u64>>(kind: GateKind, operands: I) -> u64 {
    fold_wide::<1, _>(kind, operands.map(|w| [w]))[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_matches_eval_word_on_all_kinds() {
        let a = 0b1100u64;
        let b = 0b1010u64;
        for kind in [
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ] {
            assert_eq!(
                fold_word(kind, [a, b].into_iter()),
                kind.eval_word(&[a, b]),
                "{kind:?}"
            );
        }
        assert_eq!(fold_word(GateKind::Buf, [a].into_iter()), a);
        assert_eq!(fold_word(GateKind::Not, [a].into_iter()), !a);
        assert_eq!(fold_word(GateKind::Const0, std::iter::empty()), 0);
        assert_eq!(fold_word(GateKind::Const1, std::iter::empty()), u64::MAX);
    }

    #[test]
    fn stuck_words_force_every_lane() {
        assert_eq!(stuck_word(true), u64::MAX);
        assert_eq!(stuck_word(false), 0);
        assert_eq!(stuck_wide::<4>(true), [u64::MAX; 4]);
        assert_eq!(stuck_wide::<8>(false), [0u64; 8]);
    }

    #[test]
    fn wide_fold_agrees_with_per_word_fold() {
        // Every word of a wide fold must equal an independent 64-lane
        // fold of the corresponding operand words.
        let ops: [[u64; 4]; 3] = [
            [0xDEAD_BEEF, 0x0123_4567, u64::MAX, 0],
            [0xFFFF_0000_FFFF_0000, 0x5555_5555_5555_5555, 7, 42],
            [0x0F0F_0F0F_0F0F_0F0F, 0xAAAA_AAAA_AAAA_AAAA, 1, u64::MAX],
        ];
        for kind in [
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
            GateKind::Not,
            GateKind::Buf,
        ] {
            let narrow_ops = if matches!(kind, GateKind::Not | GateKind::Buf) {
                1
            } else {
                3
            };
            let wide = fold_wide::<4, _>(kind, ops.iter().copied().take(narrow_ops));
            for w in 0..4 {
                let narrow = fold_word(kind, ops.iter().take(narrow_ops).map(|o| o[w]));
                assert_eq!(wide[w], narrow, "{kind:?} word {w}");
            }
        }
    }
}
