//! Pure functional semantics for VPTX operations.
//!
//! The scalar `eval_*` functions are lane-level, carry no
//! microarchitectural state and are the single definition of what each
//! operation computes; the scalar oracle ([`crate::interp`]) calls them per
//! thread. Keeping them here (a) lets the workloads be tested functionally
//! without a simulator and (b) guarantees that every scheduler executes
//! *identical* arithmetic, so end-to-end memory-content checks can assert
//! scheduler independence.
//!
//! The `*_row` functions are what the SM model calls: one call evaluates a
//! whole warp ([`Row`] = one 32-bit value per lane). Each is the scalar
//! function applied lane by lane with the opcode `match` hoisted out of the
//! lane loop, so the loop body is a constant operation the compiler can
//! vectorise. Operations that compile to plain instructions are evaluated
//! on all 32 lanes and blended into the destination under the active mask:
//! no VPTX operation traps (there is no division, shift counts are masked,
//! `F2I` saturates), so the value computed for an inactive lane is simply
//! discarded. Operations that compile to a libm call (`FFma` without
//! hardware FMA, every SFU op) are evaluated on active lanes only — a call
//! cannot be vectorised, and a divergent warp should not pay for 32 of them.

use crate::inst::{AluOp, AtomOp, CmpOp, SfuOp, Ty};
use crate::{FULL_MASK, WARP_SIZE};

/// One 32-bit value per lane of a warp: a register, an operand or an
/// address, as the row evaluators see it.
pub type Row = [u32; WARP_SIZE];

#[inline]
fn f(a: u32) -> f32 {
    f32::from_bits(a)
}

#[inline]
fn b(a: f32) -> u32 {
    a.to_bits()
}

/// Evaluate an ALU operation on raw 32-bit lane values.
#[inline]
pub fn eval_alu(op: AluOp, a: u32, bb: u32, c: u32) -> u32 {
    match op {
        AluOp::IAdd => a.wrapping_add(bb),
        AluOp::ISub => a.wrapping_sub(bb),
        AluOp::IMul => a.wrapping_mul(bb),
        AluOp::IMulHi => (((a as i32 as i64) * (bb as i32 as i64)) >> 32) as u32,
        AluOp::IMad => a.wrapping_mul(bb).wrapping_add(c),
        AluOp::IMin => (a as i32).min(bb as i32) as u32,
        AluOp::IMax => (a as i32).max(bb as i32) as u32,
        AluOp::And => a & bb,
        AluOp::Or => a | bb,
        AluOp::Xor => a ^ bb,
        AluOp::Shl => a.wrapping_shl(bb & 31),
        AluOp::Shr => a.wrapping_shr(bb & 31),
        AluOp::Sra => ((a as i32).wrapping_shr(bb & 31)) as u32,
        AluOp::Mov => a,
        AluOp::FAdd => b(f(a) + f(bb)),
        AluOp::FSub => b(f(a) - f(bb)),
        AluOp::FMul => b(f(a) * f(bb)),
        AluOp::FFma => b(f(a).mul_add(f(bb), f(c))),
        AluOp::FMin => b(f(a).min(f(bb))),
        AluOp::FMax => b(f(a).max(f(bb))),
        AluOp::I2F => b(a as i32 as f32),
        AluOp::F2I => f(a) as i32 as u32,
    }
}

/// Evaluate a typed comparison.
#[inline]
pub fn eval_cmp(cmp: CmpOp, ty: Ty, a: u32, bb: u32) -> bool {
    match ty {
        Ty::S32 => {
            let (x, y) = (a as i32, bb as i32);
            match cmp {
                CmpOp::Eq => x == y,
                CmpOp::Ne => x != y,
                CmpOp::Lt => x < y,
                CmpOp::Le => x <= y,
                CmpOp::Gt => x > y,
                CmpOp::Ge => x >= y,
            }
        }
        Ty::U32 => match cmp {
            CmpOp::Eq => a == bb,
            CmpOp::Ne => a != bb,
            CmpOp::Lt => a < bb,
            CmpOp::Le => a <= bb,
            CmpOp::Gt => a > bb,
            CmpOp::Ge => a >= bb,
        },
        Ty::F32 => {
            let (x, y) = (f(a), f(bb));
            match cmp {
                CmpOp::Eq => x == y,
                CmpOp::Ne => x != y,
                CmpOp::Lt => x < y,
                CmpOp::Le => x <= y,
                CmpOp::Gt => x > y,
                CmpOp::Ge => x >= y,
            }
        }
    }
}

/// Evaluate a special-function (transcendental) operation. Hardware SFUs are
/// approximate; exact `f32` math is a faithful stand-in for scheduling
/// purposes (latency is modelled in the SM, not here).
#[inline]
pub fn eval_sfu(op: SfuOp, a: u32) -> u32 {
    let x = f(a);
    let r = match op {
        SfuOp::Rcp => 1.0 / x,
        SfuOp::Rsqrt => 1.0 / x.sqrt(),
        SfuOp::Sqrt => x.sqrt(),
        SfuOp::Sin => x.sin(),
        SfuOp::Cos => x.cos(),
        SfuOp::Exp2 => x.exp2(),
        SfuOp::Log2 => x.log2(),
    };
    b(r)
}

/// Apply an atomic RMW: returns `(new_value, old_value)`.
#[inline]
pub fn eval_atom(op: AtomOp, old: u32, src: u32) -> (u32, u32) {
    let new = match op {
        AtomOp::Add => old.wrapping_add(src),
        AtomOp::Max => (old as i32).max(src as i32) as u32,
        AtomOp::Exch => src,
    };
    (new, old)
}

/// `match $op` with one arm per listed variant; each arm evaluates `$body`
/// with `$k` bound to that variant as a constant, so a scalar `eval_*` call
/// on `$k` inside a lane loop folds to the one operation. Listing the
/// variants keeps the match exhaustive: a new opcode fails to compile here.
macro_rules! per_variant {
    ($op:expr, $ty:ident::{$($v:ident),*}, |$k:ident| $body:expr) => {
        match $op {
            $($ty::$v => {
                const $k: $ty = $ty::$v;
                $body
            })*
        }
    };
}

/// `dst[l] = src[l]` for every lane `l` set in `mask`; other lanes keep
/// their value.
#[inline]
pub fn blend_row(dst: &mut Row, src: &Row, mask: u32) {
    for l in 0..WARP_SIZE {
        let take = ((mask >> l) & 1).wrapping_neg();
        dst[l] = (src[l] & take) | (dst[l] & !take);
    }
}

/// `dst[l] = f(l)` on the lanes of `mask`, evaluating `f` on all 32 lanes.
#[inline(always)]
fn map_all(dst: &mut Row, mask: u32, f: impl Fn(usize) -> u32) {
    if mask == FULL_MASK {
        for (l, d) in dst.iter_mut().enumerate() {
            *d = f(l);
        }
    } else {
        let out: Row = std::array::from_fn(f);
        blend_row(dst, &out, mask);
    }
}

/// Calls `f(l)` for every lane `l` set in `mask`, in ascending order.
#[inline(always)]
pub fn for_lanes(mask: u32, mut f: impl FnMut(usize)) {
    let mut m = mask;
    while m != 0 {
        f(m.trailing_zeros() as usize);
        m &= m - 1;
    }
}

/// `dst[l] = f(l)` on the lanes of `mask`, evaluating `f` on those only.
#[inline(always)]
fn map_active(dst: &mut Row, mask: u32, f: impl Fn(usize) -> u32) {
    for_lanes(mask, |l| dst[l] = f(l));
}

/// [`eval_alu`] over a warp: `dst[l] = eval_alu(op, a[l], b[l], c[l])` for
/// every lane `l` set in `mask`; other lanes of `dst` are untouched.
pub fn alu_row(op: AluOp, dst: &mut Row, a: &Row, b: &Row, c: &Row, mask: u32) {
    per_variant!(
        op,
        AluOp::{
            IAdd, ISub, IMul, IMulHi, IMad, IMin, IMax, And, Or, Xor, Shl, Shr, Sra, Mov, FAdd,
            FSub, FMul, FFma, FMin, FMax, I2F, F2I
        },
        |K| if matches!(K, AluOp::FFma) {
            map_active(dst, mask, |l| eval_alu(K, a[l], b[l], c[l])) // a libm call
        } else {
            map_all(dst, mask, |l| eval_alu(K, a[l], b[l], c[l]))
        }
    )
}

/// [`eval_cmp`] over a warp: bit `l` of the result is
/// `eval_cmp(cmp, ty, a[l], b[l])`, for all 32 lanes (the caller keeps the
/// bits of its active lanes).
pub fn cmp_row(cmp: CmpOp, ty: Ty, a: &Row, b: &Row) -> u32 {
    per_variant!(ty, Ty::{S32, U32, F32}, |T| per_variant!(
        cmp,
        CmpOp::{Eq, Ne, Lt, Le, Gt, Ge},
        |C| (0..WARP_SIZE).fold(0, |bits, l| bits | (eval_cmp(C, T, a[l], b[l]) as u32) << l)
    ))
}

/// [`eval_sfu`] over a warp: `dst[l] = eval_sfu(op, a[l])` for every lane
/// `l` set in `mask`; other lanes of `dst` are untouched.
pub fn sfu_row(op: SfuOp, dst: &mut Row, a: &Row, mask: u32) {
    per_variant!(
        op,
        SfuOp::{Rcp, Rsqrt, Sqrt, Sin, Cos, Exp2, Log2},
        |K| map_active(dst, mask, |l| eval_sfu(K, a[l]))
    )
}

/// Per-lane select (`selp`): `dst[l] = if bit l of pred { a[l] } else
/// { b[l] }` for every lane `l` set in `mask`; other lanes of `dst` are
/// untouched.
pub fn select_row(dst: &mut Row, pred: u32, a: &Row, b: &Row, mask: u32) {
    let mut out = *b;
    blend_row(&mut out, a, pred);
    blend_row(dst, &out, mask);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_ops_wrap() {
        assert_eq!(eval_alu(AluOp::IAdd, u32::MAX, 1, 0), 0);
        assert_eq!(eval_alu(AluOp::IMul, 0x8000_0000, 2, 0), 0);
        assert_eq!(eval_alu(AluOp::IMad, 3, 4, 5), 17);
    }

    #[test]
    fn high_multiply_is_signed() {
        // -1 * -1 = 1 → high word 0
        assert_eq!(eval_alu(AluOp::IMulHi, u32::MAX, u32::MAX, 0), 0);
        // 2^20 * 2^20 = 2^40 → high word 2^8
        assert_eq!(eval_alu(AluOp::IMulHi, 1 << 20, 1 << 20, 0), 1 << 8);
    }

    #[test]
    fn shifts_mask_their_amount() {
        assert_eq!(eval_alu(AluOp::Shl, 1, 33, 0), 2);
        assert_eq!(eval_alu(AluOp::Shr, 0x8000_0000, 31, 0), 1);
        assert_eq!(eval_alu(AluOp::Sra, 0x8000_0000, 31, 0), u32::MAX);
    }

    #[test]
    fn float_ops_roundtrip_bits() {
        let x = 1.5f32.to_bits();
        let y = 2.25f32.to_bits();
        assert_eq!(f32::from_bits(eval_alu(AluOp::FAdd, x, y, 0)), 3.75);
        assert_eq!(f32::from_bits(eval_alu(AluOp::FMul, x, y, 0)), 3.375);
        let fma = eval_alu(AluOp::FFma, x, y, 1.0f32.to_bits());
        assert_eq!(f32::from_bits(fma), 1.5f32.mul_add(2.25, 1.0));
    }

    #[test]
    fn conversions() {
        assert_eq!(f32::from_bits(eval_alu(AluOp::I2F, (-3i32) as u32, 0, 0)), -3.0);
        assert_eq!(eval_alu(AluOp::F2I, 3.9f32.to_bits(), 0, 0), 3);
        assert_eq!(eval_alu(AluOp::F2I, (-3.9f32).to_bits(), 0, 0) as i32, -3);
    }

    #[test]
    fn comparisons_respect_type() {
        // -1 < 1 signed, but 0xFFFFFFFF > 1 unsigned.
        assert!(eval_cmp(CmpOp::Lt, Ty::S32, u32::MAX, 1));
        assert!(!eval_cmp(CmpOp::Lt, Ty::U32, u32::MAX, 1));
        assert!(eval_cmp(CmpOp::Gt, Ty::U32, u32::MAX, 1));
        assert!(eval_cmp(CmpOp::Le, Ty::F32, 1.0f32.to_bits(), 1.0f32.to_bits()));
        // NaN compares false for everything except Ne.
        let nan = f32::NAN.to_bits();
        assert!(!eval_cmp(CmpOp::Eq, Ty::F32, nan, nan));
        assert!(eval_cmp(CmpOp::Ne, Ty::F32, nan, nan));
    }

    #[test]
    fn sfu_matches_libm() {
        let x = 0.7f32;
        assert_eq!(f32::from_bits(eval_sfu(SfuOp::Sin, x.to_bits())), x.sin());
        assert_eq!(f32::from_bits(eval_sfu(SfuOp::Rcp, 4.0f32.to_bits())), 0.25);
        assert_eq!(f32::from_bits(eval_sfu(SfuOp::Rsqrt, 4.0f32.to_bits())), 0.5);
    }

    #[test]
    fn atomics_return_old_value() {
        assert_eq!(eval_atom(AtomOp::Add, 10, 5), (15, 10));
        assert_eq!(eval_atom(AtomOp::Max, 10, 5), (10, 10));
        assert_eq!(eval_atom(AtomOp::Max, 5, 10), (10, 5));
        assert_eq!(eval_atom(AtomOp::Exch, 1, 2), (2, 1));
    }
}
