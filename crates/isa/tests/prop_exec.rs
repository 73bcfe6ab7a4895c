//! Property-based tests for VPTX functional semantics and the
//! assembler/disassembler pair, on the in-repo `pro_core::prop` harness.

use pro_core::prop::{
    any, check, from_fn, one_of, select, vec_of, Config, Just, Strategy, StrategyExt,
};
use pro_core::{prop_assert, prop_assert_eq, prop_assume};
use pro_isa::exec::{
    alu_row, blend_row, cmp_row, eval_alu, eval_atom, eval_cmp, eval_sfu, select_row, sfu_row, Row,
};
use pro_isa::{
    asm, AluOp, AtomOp, CmpOp, Instr, MemSpace, Pred, Program, Reg, SfuOp, Src, Ty, FULL_MASK,
    WARP_SIZE,
};

#[test]
fn iadd_commutes() {
    check(Config::default(), (any::<u32>(), any::<u32>()), |&(a, b)| {
        prop_assert_eq!(
            eval_alu(AluOp::IAdd, a, b, 0),
            eval_alu(AluOp::IAdd, b, a, 0)
        );
        Ok(())
    });
}

#[test]
fn imad_is_mul_then_add() {
    check(
        Config::default(),
        (any::<u32>(), any::<u32>(), any::<u32>()),
        |&(a, b, c)| {
            let mul = eval_alu(AluOp::IMul, a, b, 0);
            let sum = eval_alu(AluOp::IAdd, mul, c, 0);
            prop_assert_eq!(eval_alu(AluOp::IMad, a, b, c), sum);
            Ok(())
        },
    );
}

#[test]
fn sub_is_inverse_of_add() {
    check(Config::default(), (any::<u32>(), any::<u32>()), |&(a, b)| {
        let s = eval_alu(AluOp::IAdd, a, b, 0);
        prop_assert_eq!(eval_alu(AluOp::ISub, s, b, 0), a);
        Ok(())
    });
}

#[test]
fn min_max_bracket() {
    check(Config::default(), (any::<u32>(), any::<u32>()), |&(a, b)| {
        let lo = eval_alu(AluOp::IMin, a, b, 0) as i32;
        let hi = eval_alu(AluOp::IMax, a, b, 0) as i32;
        prop_assert!(lo <= hi);
        prop_assert!(lo == a as i32 || lo == b as i32);
        prop_assert!(hi == a as i32 || hi == b as i32);
        Ok(())
    });
}

#[test]
fn shifts_match_native_semantics() {
    check(Config::default(), (any::<u32>(), 0u32..64), |&(a, s)| {
        prop_assert_eq!(eval_alu(AluOp::Shl, a, s, 0), a.wrapping_shl(s & 31));
        prop_assert_eq!(eval_alu(AluOp::Shr, a, s, 0), a.wrapping_shr(s & 31));
        prop_assert_eq!(
            eval_alu(AluOp::Sra, a, s, 0),
            ((a as i32).wrapping_shr(s & 31)) as u32
        );
        Ok(())
    });
}

#[test]
fn comparison_trichotomy_signed() {
    check(Config::default(), (any::<u32>(), any::<u32>()), |&(a, b)| {
        let lt = eval_cmp(CmpOp::Lt, Ty::S32, a, b);
        let eq = eval_cmp(CmpOp::Eq, Ty::S32, a, b);
        let gt = eval_cmp(CmpOp::Gt, Ty::S32, a, b);
        prop_assert_eq!(lt as u8 + eq as u8 + gt as u8, 1);
        prop_assert_eq!(eval_cmp(CmpOp::Le, Ty::S32, a, b), lt || eq);
        prop_assert_eq!(eval_cmp(CmpOp::Ge, Ty::S32, a, b), gt || eq);
        prop_assert_eq!(eval_cmp(CmpOp::Ne, Ty::S32, a, b), !eq);
        Ok(())
    });
}

#[test]
fn float_ops_are_ieee() {
    check(Config::default(), (any::<f32>(), any::<f32>()), |&(a, b)| {
        prop_assume!(a.is_finite() && b.is_finite());
        let add = f32::from_bits(eval_alu(AluOp::FAdd, a.to_bits(), b.to_bits(), 0));
        prop_assert_eq!(add.to_bits(), (a + b).to_bits());
        let mul = f32::from_bits(eval_alu(AluOp::FMul, a.to_bits(), b.to_bits(), 0));
        prop_assert_eq!(mul.to_bits(), (a * b).to_bits());
        Ok(())
    });
}

#[test]
fn atom_add_accumulates() {
    check(
        Config::default(),
        (any::<u32>(), vec_of(any::<u32>(), 0..8)),
        |(init, vals)| {
            let mut cur = *init;
            let mut expect = *init;
            for v in vals {
                let (new, old) = eval_atom(AtomOp::Add, cur, *v);
                prop_assert_eq!(old, cur);
                cur = new;
                expect = expect.wrapping_add(*v);
            }
            prop_assert_eq!(cur, expect);
            Ok(())
        },
    );
}

#[test]
fn atom_exch_returns_previous() {
    check(
        Config::default(),
        vec_of(any::<u32>(), 1..8),
        |seq: &Vec<u32>| {
            let mut cur = 0u32;
            for v in seq {
                let (new, old) = eval_atom(AtomOp::Exch, cur, *v);
                prop_assert_eq!(old, cur);
                prop_assert_eq!(new, *v);
                cur = new;
            }
            Ok(())
        },
    );
}

/// Strategy: one lane value — random bits, or one of the values where the
/// operations have edges: ±0, ±inf, quiet and signalling NaNs with
/// payloads, denormals, the `F2I` saturation points, `i32::MIN`/`MAX`, and
/// shift counts on both sides of 32.
fn arb_lane() -> impl Strategy<Value = u32> {
    one_of(vec![
        any::<u32>().boxed(),
        select(vec![
            0,
            1,
            31,
            32,
            33,
            63,
            u32::MAX,
            i32::MIN as u32,
            i32::MAX as u32,
            0x8000_0000,            // -0.0
            0x7F80_0000,            // +inf
            0xFF80_0000,            // -inf
            0x7FC0_0000,            // quiet NaN
            0x7FC1_2345,            // quiet NaN with a payload
            0xFFA0_0001,            // negative signalling NaN
            0x0000_0001,            // smallest denormal
            2147483648.0f32.to_bits(),  // first f32 past i32::MAX
            (-2147483904.0f32).to_bits(), // first f32 below i32::MIN
            1.5f32.to_bits(),
        ])
        .boxed(),
    ])
}

/// Strategy: 32 independent lane values.
fn arb_row() -> impl Strategy<Value = Row> {
    from_fn(|g| {
        let lane = arb_lane();
        std::array::from_fn(|_| lane.generate(g))
    })
}

/// Strategy: an active mask — full, empty, or random (divergent).
fn arb_mask() -> impl Strategy<Value = u32> {
    one_of(vec![
        Just(FULL_MASK).boxed(),
        Just(0).boxed(),
        any::<u32>().boxed(),
    ])
}

/// `want(l)` on the lanes of `mask`, the old destination elsewhere.
fn expect_row(old: &Row, mask: u32, want: impl Fn(usize) -> u32) -> Row {
    std::array::from_fn(|l| if mask >> l & 1 != 0 { want(l) } else { old[l] })
}

/// Replace every NaN in an active lane by the canonical quiet NaN. When two NaN operands with
/// different payloads meet in an f32 operation, which payload the result
/// carries is the one thing Rust leaves unspecified: the compiler may
/// commute the operands differently in two compilations of the same
/// expression (x86 keeps the first operand's), so the row evaluator and a
/// scalar call can legitimately differ there — and only there.
fn canonical_nans(row: Row, mask: u32) -> Row {
    std::array::from_fn(|l| {
        let nan = mask >> l & 1 != 0 && f32::from_bits(row[l]).is_nan();
        if nan { 0x7FC0_0000 } else { row[l] }
    })
}

#[test]
fn alu_rows_equal_the_scalar_semantics_lane_for_lane() {
    check(
        Config::default(),
        (arb_row(), arb_row(), arb_row(), arb_row(), arb_mask()),
        |(a, b, c, old, mask)| {
            for op in AluOp::ALL {
                let mut dst = *old;
                alu_row(op, &mut dst, a, b, c, *mask);
                let mut want = expect_row(old, *mask, |l| eval_alu(op, a[l], b[l], c[l]));
                let f32_result = matches!(
                    op,
                    AluOp::FAdd | AluOp::FSub | AluOp::FMul | AluOp::FFma | AluOp::FMin | AluOp::FMax
                );
                if f32_result {
                    (dst, want) = (canonical_nans(dst, *mask), canonical_nans(want, *mask));
                }
                prop_assert_eq!(dst, want, "{:?} under mask {:#010x}", op, mask);
            }
            Ok(())
        },
    );
}

#[test]
fn cmp_rows_equal_the_scalar_semantics_for_every_op_and_type() {
    check(Config::default(), (arb_row(), arb_row()), |(a, b)| {
        for ty in Ty::ALL {
            for cmp in CmpOp::ALL {
                let want = (0..WARP_SIZE)
                    .fold(0u32, |bits, l| bits | (eval_cmp(cmp, ty, a[l], b[l]) as u32) << l);
                prop_assert_eq!(cmp_row(cmp, ty, a, b), want, "{:?}.{:?}", cmp, ty);
            }
        }
        Ok(())
    });
}

#[test]
fn sfu_rows_equal_the_scalar_semantics_lane_for_lane() {
    check(
        Config::with_cases(64),
        (arb_row(), arb_row(), arb_mask()),
        |(a, old, mask)| {
            for op in SfuOp::ALL {
                let mut dst = *old;
                sfu_row(op, &mut dst, a, *mask);
                let want = expect_row(old, *mask, |l| eval_sfu(op, a[l]));
                prop_assert_eq!(dst, want, "{:?} under mask {:#010x}", op, mask);
            }
            Ok(())
        },
    );
}

#[test]
fn select_and_blend_rows_touch_only_active_lanes() {
    check(
        Config::default(),
        (arb_row(), arb_row(), arb_row(), any::<u32>(), arb_mask()),
        |(a, b, old, pred, mask)| {
            let mut dst = *old;
            select_row(&mut dst, *pred, a, b, *mask);
            let want = expect_row(old, *mask, |l| if pred >> l & 1 != 0 { a[l] } else { b[l] });
            prop_assert_eq!(dst, want);
            let mut dst = *old;
            blend_row(&mut dst, a, *mask);
            prop_assert_eq!(dst, expect_row(old, *mask, |l| a[l]));
            Ok(())
        },
    );
}

#[test]
fn an_empty_mask_leaves_the_destination_alone() {
    check(Config::with_cases(16), (arb_row(), arb_row()), |(a, old)| {
        for op in AluOp::ALL {
            let mut dst = *old;
            alu_row(op, &mut dst, a, a, a, 0);
            prop_assert_eq!(&dst, old, "{:?}", op);
        }
        for op in SfuOp::ALL {
            let mut dst = *old;
            sfu_row(op, &mut dst, a, 0);
            prop_assert_eq!(&dst, old, "{:?}", op);
        }
        let mut dst = *old;
        select_row(&mut dst, u32::MAX, a, a, 0);
        prop_assert_eq!(&dst, old);
        Ok(())
    });
}

/// Strategy: a random source operand within 8 GPRs / 4 params.
fn arb_src() -> impl Strategy<Value = Src> {
    one_of(vec![
        (0u8..8).prop_map(|r| Src::Reg(Reg(r))).boxed(),
        any::<u32>().prop_map(Src::Imm).boxed(),
        (0u8..4).prop_map(Src::Param).boxed(),
    ])
}

/// Strategy: a random straight-line instruction (registers within 8 GPRs /
/// 2 preds so programs always validate).
fn arb_instr() -> impl Strategy<Value = Instr> {
    let reg = || (0u8..8).prop_map(Reg);
    one_of(vec![
        (reg(), arb_src(), arb_src())
            .prop_map(|(d, a, b)| Instr::Alu {
                op: AluOp::IAdd,
                dst: d,
                a,
                b,
                c: Src::Imm(0),
            })
            .boxed(),
        (reg(), arb_src(), arb_src(), arb_src())
            .prop_map(|(d, a, b, c)| Instr::Alu {
                op: AluOp::IMad,
                dst: d,
                a,
                b,
                c,
            })
            .boxed(),
        (arb_src(), arb_src())
            .prop_map(|(a, b)| Instr::SetP {
                cmp: CmpOp::Lt,
                ty: Ty::S32,
                dst: Pred(0),
                a,
                b,
            })
            .boxed(),
        (reg(), reg(), -64i32..64)
            .prop_map(|(d, a, off)| Instr::Ld {
                space: MemSpace::Global,
                dst: d,
                addr: a,
                offset: off * 4,
            })
            .boxed(),
        (reg(), reg(), -64i32..64)
            .prop_map(|(s, a, off)| Instr::St {
                space: MemSpace::Shared,
                src: s,
                addr: a,
                offset: off * 4,
            })
            .boxed(),
        Just(Instr::Nop).boxed(),
        Just(Instr::Bar { id: 0 }).boxed(),
    ])
}

#[test]
fn disassemble_assemble_roundtrip() {
    check(
        Config::with_cases(64),
        vec_of(arb_instr(), 0..24),
        |body: &Vec<Instr>| {
            let mut instrs = body.clone();
            instrs.push(Instr::Exit);
            let p1 = Program::new("roundtrip", instrs, 8, 2, 64).unwrap();
            let text = p1.disassemble();
            let p2 = asm::assemble(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
            prop_assert_eq!(&p1.instrs, &p2.instrs);
            prop_assert_eq!(p1.regs, p2.regs);
            prop_assert_eq!(p1.shared_bytes, p2.shared_bytes);
            Ok(())
        },
    );
}

#[test]
fn validation_never_panics() {
    check(
        Config::with_cases(64),
        (vec_of(arb_instr(), 0..16), 1u8..16, 1u8..4),
        |(body, regs, preds)| {
            let p = Program {
                name: "fuzz".into(),
                instrs: body.clone(),
                regs: *regs,
                preds: *preds,
                shared_bytes: 0,
            };
            let _ = p.validate(); // may be Ok or Err; must not panic
            Ok(())
        },
    );
}
