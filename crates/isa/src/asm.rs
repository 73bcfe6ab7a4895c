//! Text assembler for VPTX.
//!
//! Lets examples and tests write kernels as plain text instead of builder
//! calls. The syntax mirrors the `Display` form of [`Instr`] plus labels:
//!
//! ```text
//! .kernel saxpy
//! .regs 8
//! .preds 1
//! .shared 0
//!     imad r0, %ctaid, %ntid, %tid
//!     imad r1, r0, 4, %param1
//!     ld.global r2, [r1+0]
//!     fmul r2, r2, %param0
//!     imad r3, r0, 4, %param2
//!     st.global [r3+0], r2
//!     exit
//! ```
//!
//! Branches accept label or numeric targets:
//! `@!p0 bra done, reconv=done` / `bra 3 (reconv 9)`.

use crate::inst::{
    AluOp, AtomOp, CmpOp, Guard, Instr, MemSpace, Pc, Pred, Reg, SfuOp, Special, Src, Ty,
};
use crate::program::{Program, ProgramError, MAX_PREDS, MAX_REGS};
use std::collections::HashMap;
use std::fmt;

/// Assembly failure with a 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based source line.
    pub line: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for AsmError {}

impl From<ProgramError> for AsmError {
    fn from(e: ProgramError) -> Self {
        AsmError {
            line: 0,
            msg: format!("validation: {e}"),
        }
    }
}

fn err(line: usize, msg: impl Into<String>) -> AsmError {
    AsmError {
        line,
        msg: msg.into(),
    }
}

#[derive(Debug, Clone)]
enum Target {
    Label(String),
    Abs(Pc),
}

/// Assemble VPTX source text into a validated [`Program`].
pub fn assemble(src: &str) -> Result<Program, AsmError> {
    let mut name = String::from("anonymous");
    let mut regs: Option<u8> = None;
    let mut preds: Option<u8> = None;
    let mut shared: u32 = 0;
    let mut instrs: Vec<Instr> = Vec::new();
    let mut labels: HashMap<String, Pc> = HashMap::new();
    // (instr idx, line, target, reconv)
    let mut fixups: Vec<(usize, usize, Target, Target)> = Vec::new();

    for (lineno, raw) in src.lines().enumerate() {
        let line_no = lineno + 1;
        let mut line = raw;
        if let Some(i) = line.find(['#', ';']) {
            line = &line[..i];
        }
        // Strip an optional numeric "pc:" prefix produced by disassemble().
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix(".kernel") {
            name = rest.trim().to_string();
            continue;
        }
        if let Some(rest) = line.strip_prefix(".regs") {
            regs = Some(
                rest.trim()
                    .parse()
                    .map_err(|_| err(line_no, "bad .regs value"))?,
            );
            continue;
        }
        if let Some(rest) = line.strip_prefix(".preds") {
            preds = Some(
                rest.trim()
                    .parse()
                    .map_err(|_| err(line_no, "bad .preds value"))?,
            );
            continue;
        }
        if let Some(rest) = line.strip_prefix(".shared") {
            shared = rest
                .trim()
                .parse()
                .map_err(|_| err(line_no, "bad .shared value"))?;
            continue;
        }
        // Label definition: `ident:` possibly followed by an instruction.
        let mut text = line;
        while let Some(colon) = text.find(':') {
            let (head, tail) = text.split_at(colon);
            let head = head.trim();
            if head.chars().all(|c| c.is_ascii_digit()) {
                // numeric pc prefix from disassemble(): ignore
                text = tail[1..].trim();
                continue;
            }
            if head
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
                && head.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
            {
                if labels
                    .insert(head.to_string(), instrs.len() as Pc)
                    .is_some()
                {
                    return Err(err(line_no, format!("duplicate label `{head}`")));
                }
                text = tail[1..].trim();
            } else {
                break;
            }
        }
        if text.is_empty() {
            continue;
        }
        parse_instr(text, line_no, &mut instrs, &mut fixups)?;
    }

    // Resolve branch fixups.
    let resolve = |t: &Target, line: usize| -> Result<Pc, AsmError> {
        match t {
            Target::Abs(p) => Ok(*p),
            Target::Label(l) => labels
                .get(l)
                .copied()
                .ok_or_else(|| err(line, format!("undefined label `{l}`"))),
        }
    };
    for (idx, line, t, r) in &fixups {
        let tpc = resolve(t, *line)?;
        let rpc = resolve(r, *line)?;
        if let Instr::Bra { target, reconv, .. } = &mut instrs[*idx] {
            *target = tpc;
            *reconv = rpc;
        }
    }

    // Undeclared counts are one past the highest register and predicate
    // named, capped at what a warp holds, so that `validate` names the
    // first operand past the cap.
    let count = |highest: Option<u8>, cap: u8| highest.map_or(1, |h| h.saturating_add(1).min(cap));
    let highest_reg = instrs.iter().flat_map(|i| i.src_regs().chain(i.dst_reg())).map(|r| r.0).max();
    let highest_pred = instrs.iter().flat_map(|i| i.src_preds().chain(i.dst_pred())).map(|p| p.0).max();
    let regs = regs.unwrap_or(count(highest_reg, MAX_REGS));
    let preds = preds.unwrap_or(count(highest_pred, MAX_PREDS));
    Ok(Program::new(name, instrs, regs, preds, shared)?)
}

fn parse_src(tok: &str, line: usize) -> Result<Src, AsmError> {
    let tok = tok.trim();
    if let Some(r) = tok.strip_prefix('r') {
        if let Ok(n) = r.parse::<u8>() {
            return Ok(Src::Reg(Reg(n)));
        }
    }
    if let Some(s) = named(Special::ALL, Special::name, tok) {
        return Ok(Src::Special(s));
    }
    if let Some(p) = tok.strip_prefix("%param") {
        let n: u8 = p.parse().map_err(|_| err(line, "bad param index"))?;
        return Ok(Src::Param(n));
    }
    if let Some(h) = tok.strip_prefix("0x") {
        let v = u32::from_str_radix(h, 16).map_err(|_| err(line, "bad hex literal"))?;
        return Ok(Src::Imm(v));
    }
    if let Some(fl) = tok.strip_suffix('f') {
        let v: f32 = fl.parse().map_err(|_| err(line, "bad float literal"))?;
        return Ok(Src::imm_f32(v));
    }
    if let Ok(v) = tok.parse::<i64>() {
        // A lane is 32 bits: a negative literal is its two's complement.
        let lane = u32::try_from(v).or_else(|_| i32::try_from(v).map(|v| v as u32));
        return lane.map(Src::Imm).map_err(|_| err(line, format!("immediate `{tok}` does not fit in 32 bits")));
    }
    Err(err(line, format!("unrecognized operand `{tok}`")))
}

fn parse_reg(tok: &str, line: usize) -> Result<Reg, AsmError> {
    match parse_src(tok, line)? {
        Src::Reg(r) => Ok(r),
        _ => Err(err(line, format!("expected register, got `{}`", tok.trim()))),
    }
}

fn parse_pred_tok(tok: &str, line: usize) -> Result<Pred, AsmError> {
    let tok = tok.trim();
    if let Some(p) = tok.strip_prefix('p') {
        if let Ok(n) = p.parse::<u8>() {
            return Ok(Pred(n));
        }
    }
    Err(err(line, format!("expected predicate, got `{tok}`")))
}

/// Parse a `[rN+off]` / `[rN-off]` / `[rN]` memory operand.
fn parse_addr(tok: &str, line: usize) -> Result<(Reg, i32), AsmError> {
    let tok = tok.trim();
    let inner = tok
        .strip_prefix('[')
        .and_then(|t| t.strip_suffix(']'))
        .ok_or_else(|| err(line, format!("expected [addr], got `{tok}`")))?;
    let (reg_part, off) = if let Some(i) = inner.find(['+', '-']) {
        let sign = if inner.as_bytes()[i] == b'-' { -1i64 } else { 1 };
        let off: i64 = inner[i + 1..]
            .trim()
            .parse()
            .map_err(|_| err(line, "bad address offset"))?;
        let off = off.checked_mul(sign).and_then(|o| i32::try_from(o).ok());
        (&inner[..i], off.ok_or_else(|| err(line, "address offset does not fit in 32 bits"))?)
    } else {
        (inner, 0)
    };
    Ok((parse_reg(reg_part, line)?, off))
}

/// The value of `all` whose assembly text is `text`.
fn named<T: Copy, const N: usize>(
    all: [T; N],
    name: fn(T) -> &'static str,
    text: &str,
) -> Option<T> {
    all.into_iter().find(|&v| name(v) == text)
}

fn parse_instr(
    text: &str,
    line: usize,
    instrs: &mut Vec<Instr>,
    fixups: &mut Vec<(usize, usize, Target, Target)>,
) -> Result<(), AsmError> {
    let mut text = text.trim();
    // Optional guard: @p0 / @!p0
    let mut guard: Option<Guard> = None;
    if let Some(rest) = text.strip_prefix('@') {
        let (expect, rest) = match rest.strip_prefix('!') {
            Some(r) => (false, r),
            None => (true, rest),
        };
        let end = rest
            .find(char::is_whitespace)
            .ok_or_else(|| err(line, "guard with no instruction"))?;
        let p = parse_pred_tok(&rest[..end], line)?;
        guard = Some(Guard { pred: p, expect });
        text = rest[end..].trim();
    }

    let (mn, rest) = match text.find(char::is_whitespace) {
        Some(i) => (&text[..i], text[i..].trim()),
        None => (text, ""),
    };
    let ops: Vec<&str> = if rest.is_empty() {
        vec![]
    } else {
        split_operands(rest)
    };

    if guard.is_some() && mn != "bra" {
        return Err(err(line, "guards are only supported on `bra`"));
    }

    let need = |n: usize| -> Result<(), AsmError> {
        if ops.len() == n {
            Ok(())
        } else {
            Err(err(
                line,
                format!("`{mn}` expects {n} operands, got {}", ops.len()),
            ))
        }
    };

    if let Some(op) = named(AluOp::ALL, AluOp::name, mn) {
        need(op.operands())?;
        let dst = parse_reg(ops[0], line)?;
        // The sources past the op's operand count read as immediate 0.
        let src = |i: usize| ops.get(i).map_or(Ok(Src::Imm(0)), |t| parse_src(t, line));
        instrs.push(Instr::Alu { op, dst, a: src(1)?, b: src(2)?, c: src(3)? });
        return Ok(());
    }
    if let Some(op) = named(SfuOp::ALL, SfuOp::name, mn) {
        need(2)?;
        let dst = parse_reg(ops[0], line)?;
        instrs.push(Instr::Sfu { op, dst, a: parse_src(ops[1], line)? });
        return Ok(());
    }

    let ins: Instr = match mn {
        "selp" => {
            need(4)?;
            Instr::SelP {
                dst: parse_reg(ops[0], line)?,
                a: parse_src(ops[1], line)?,
                b: parse_src(ops[2], line)?,
                pred: parse_pred_tok(ops[3], line)?,
            }
        }
        "exit" => Instr::Exit,
        "nop" => Instr::Nop,
        "bra" => {
            if ops.is_empty() || ops.len() > 2 {
                return Err(err(line, "bra expects `target[, reconv=target]`"));
            }
            let parse_target = |t: &str| -> Target {
                let t = t.trim();
                match t.parse::<Pc>() {
                    Ok(pc) => Target::Abs(pc),
                    Err(_) => Target::Label(t.to_string()),
                }
            };
            let t = parse_target(ops[0]);
            let r = if ops.len() == 2 {
                let spec = ops[1].trim();
                let spec = spec.strip_prefix("reconv=").unwrap_or(spec);
                parse_target(spec)
            } else {
                t.clone()
            };
            let idx = instrs.len();
            fixups.push((idx, line, t, r));
            Instr::Bra {
                guard,
                target: 0,
                reconv: 0,
            }
        }
        _ if mn.starts_with("setp.") => {
            need(3)?;
            let mut parts = mn.split('.');
            parts.next(); // setp
            let cmp = parts
                .next()
                .and_then(|c| named(CmpOp::ALL, CmpOp::name, c))
                .ok_or_else(|| err(line, "bad setp comparison"))?;
            let ty = parts
                .next()
                .and_then(|t| named(Ty::ALL, Ty::name, t))
                .ok_or_else(|| err(line, "bad setp type"))?;
            Instr::SetP {
                cmp,
                ty,
                dst: parse_pred_tok(ops[0], line)?,
                a: parse_src(ops[1], line)?,
                b: parse_src(ops[2], line)?,
            }
        }
        "ld.global" | "ld.shared" => {
            need(2)?;
            let (addr, offset) = parse_addr(ops[1], line)?;
            Instr::Ld {
                space: if mn == "ld.global" {
                    MemSpace::Global
                } else {
                    MemSpace::Shared
                },
                dst: parse_reg(ops[0], line)?,
                addr,
                offset,
            }
        }
        "st.global" | "st.shared" => {
            need(2)?;
            let (addr, offset) = parse_addr(ops[0], line)?;
            Instr::St {
                space: if mn == "st.global" {
                    MemSpace::Global
                } else {
                    MemSpace::Shared
                },
                src: parse_reg(ops[1], line)?,
                addr,
                offset,
            }
        }
        _ if mn.starts_with("atom.shared.") => {
            need(3)?;
            let op = mn
                .rsplit('.')
                .next()
                .and_then(|o| named(AtomOp::ALL, AtomOp::name, o))
                .ok_or_else(|| err(line, "bad atomic op"))?;
            let (addr, off) = parse_addr(ops[1], line)?;
            if off != 0 {
                return Err(err(line, "atom.shared takes no address offset"));
            }
            Instr::Atom {
                op,
                dst: parse_reg(ops[0], line)?,
                addr,
                src: parse_reg(ops[2], line)?,
            }
        }
        "bar.sync" => {
            need(1)?;
            let id: u8 = ops[0]
                .trim()
                .parse()
                .map_err(|_| err(line, "bad barrier id"))?;
            Instr::Bar { id }
        }
        _ => return Err(err(line, format!("unknown mnemonic `{mn}`"))),
    };
    instrs.push(ins);
    Ok(())
}

/// Split an operand list on commas, but not inside `[...]` or `(...)`.
fn split_operands(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '[' | '(' => depth += 1,
            ']' | ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                out.push(s[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
    }
    let last = s[start..].trim();
    if !last.is_empty() {
        // Strip a trailing `(reconv N)` annotation from Display output into
        // a second operand.
        if let Some(idx) = last.find("(reconv") {
            let (head, tail) = last.split_at(idx);
            out.push(head.trim());
            let inner = tail
                .trim_start_matches("(reconv")
                .trim_end_matches(')')
                .trim();
            out.push(inner);
        } else {
            out.push(last);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assembles_saxpy() {
        let src = r#"
            .kernel saxpy
            .regs 8
            .preds 1
            imad r0, %ctaid, %ntid, %tid
            imad r1, r0, 4, %param1
            ld.global r2, [r1+0]
            fmul r2, r2, %param0
            imad r3, r0, 4, %param2
            st.global [r3+0], r2
            exit
        "#;
        let p = assemble(src).unwrap();
        assert_eq!(p.name, "saxpy");
        assert_eq!(p.len(), 7);
        assert_eq!(p.regs, 8);
        assert!(matches!(p.instrs[2], Instr::Ld { .. }));
    }

    #[test]
    fn labels_and_guarded_branches() {
        let src = r#"
            .kernel looptest
            mov r0, 0
            top:
            iadd r0, r0, 1
            setp.lt.s32 p0, r0, 10
            @p0 bra top, reconv=done
            done:
            exit
        "#;
        let p = assemble(src).unwrap();
        match p.instrs[3] {
            Instr::Bra {
                guard: Some(Guard { expect: true, .. }),
                target: 1,
                reconv: 4,
            } => {}
            ref other => panic!("{other}"),
        }
    }

    #[test]
    fn negated_guard() {
        let src = "@!p0 bra 0, reconv=1\nexit";
        let p = assemble(src).unwrap();
        match p.instrs[0] {
            Instr::Bra {
                guard: Some(Guard { expect: false, .. }),
                ..
            } => {}
            ref other => panic!("{other}"),
        }
    }

    #[test]
    fn undefined_label_is_an_error() {
        let e = assemble("bra nowhere\nexit").unwrap_err();
        assert!(e.msg.contains("undefined label"));
    }

    #[test]
    fn duplicate_label_is_an_error() {
        let e = assemble("a:\nnop\na:\nexit").unwrap_err();
        assert!(e.msg.contains("duplicate label"));
    }

    #[test]
    fn float_and_hex_immediates() {
        let p = assemble("mov r0, 1.5f\nmov r1, 0xff\nexit").unwrap();
        match p.instrs[0] {
            Instr::Alu { a: Src::Imm(v), .. } => assert_eq!(f32::from_bits(v), 1.5),
            ref other => panic!("{other}"),
        }
        match p.instrs[1] {
            Instr::Alu { a: Src::Imm(255), .. } => {}
            ref other => panic!("{other}"),
        }
    }

    #[test]
    fn negative_address_offsets() {
        let p = assemble("ld.shared r0, [r1-8]\nexit").unwrap();
        match p.instrs[0] {
            Instr::Ld { offset: -8, .. } => {}
            ref other => panic!("{other}"),
        }
    }

    #[test]
    fn atomics_and_barriers() {
        let p = assemble("atom.shared.add r0, [r1], r2\nbar.sync 0\nexit").unwrap();
        assert!(matches!(p.instrs[0], Instr::Atom { op: AtomOp::Add, .. }));
        assert!(matches!(p.instrs[1], Instr::Bar { id: 0 }));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let p = assemble("# a comment\n  ; another\n\nexit").unwrap();
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn disassemble_roundtrips() {
        let src = r#"
            .kernel rt
            mov r0, 0
            top:
            iadd r0, r0, 1
            setp.lt.s32 p0, r0, 10
            @p0 bra top, reconv=done
            done:
            st.global [r1+4], r0
            exit
        "#;
        let p1 = assemble(src).unwrap();
        let text = p1.disassemble();
        let p2 = assemble(&text).unwrap();
        assert_eq!(p1.instrs, p2.instrs);
        assert_eq!(p1.regs, p2.regs);
    }

    /// Every op, compare, type and special value prints as text that
    /// assembles back to it.
    #[test]
    fn every_named_value_prints_and_assembles_back() {
        let (dst, s, zero) = (Reg(1), Src::Reg(Reg(2)), Src::Imm(0));
        let alu = |op: AluOp, a: Src| {
            let n = op.operands();
            let (b, c) = (if n > 2 { s } else { zero }, if n > 3 { s } else { zero });
            Instr::Alu { op, dst, a, b, c }
        };
        let mut instrs = AluOp::ALL.map(|op| alu(op, s)).to_vec();
        instrs.extend(Special::ALL.map(|sp| alu(AluOp::Mov, Src::Special(sp))));
        instrs.extend(SfuOp::ALL.map(|op| Instr::Sfu { op, dst, a: s }));
        for cmp in CmpOp::ALL {
            instrs.extend(Ty::ALL.map(|ty| Instr::SetP { cmp, ty, dst: Pred(0), a: s, b: s }));
        }
        instrs.extend(AtomOp::ALL.map(|op| Instr::Atom { op, dst, addr: Reg(3), src: Reg(4) }));
        instrs.push(Instr::Exit);
        let text: String = instrs.iter().map(|i| format!("{i}\n")).collect();
        let p = assemble(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(p.instrs, instrs);
    }

    #[test]
    fn unknown_mnemonic_reports_line() {
        let e = assemble("nop\nfrobnicate r0\nexit").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn guard_on_non_branch_is_an_error() {
        let e = assemble("@p0 iadd r0, r1, r2
exit").unwrap_err();
        assert!(e.msg.contains("only supported on `bra`"), "{e}");
    }

    #[test]
    fn wrong_operand_count_reports_mnemonic() {
        let e = assemble("iadd r0, r1
exit").unwrap_err();
        assert!(e.msg.contains("`iadd` expects 3 operands"), "{e}");
    }

    #[test]
    fn bad_setp_suffix_is_an_error() {
        assert!(assemble("setp.zz.s32 p0, r0, r1
exit").is_err());
        assert!(assemble("setp.lt.s99 p0, r0, r1
exit").is_err());
    }

    #[test]
    fn memory_operand_requires_brackets() {
        let e = assemble("ld.global r0, r1
exit").unwrap_err();
        assert!(e.msg.contains("expected [addr]"), "{e}");
    }

    #[test]
    fn derives_reg_counts_when_undeclared() {
        let p = assemble("mov r5, 1\nsetp.eq.s32 p2, r5, 1\nexit").unwrap();
        assert_eq!(p.regs, 6);
        assert_eq!(p.preds, 3);
    }

    #[test]
    fn the_last_register_name_is_refused_not_overflowed() {
        let e = assemble("mov r255, 1\nexit").unwrap_err();
        assert_eq!(e.msg, "validation: pc 0: r255 out of range (program declares 128 regs)");
    }

    #[test]
    fn the_last_predicate_name_is_refused_not_overflowed() {
        let e = assemble("setp.lt.s32 p255, r0, r1\nexit").unwrap_err();
        assert_eq!(e.msg, "validation: pc 0: p255 out of range (program declares 32 preds)");
    }

    #[test]
    fn an_atomic_address_offset_is_refused_not_dropped() {
        let e = assemble("atom.shared.add r0, [r1+8], r2\nexit").unwrap_err();
        assert_eq!((e.line, e.msg.as_str()), (1, "atom.shared takes no address offset"));
        assert!(assemble("atom.shared.add r0, [r1+0], r2\nexit").is_ok());
    }

    #[test]
    fn an_address_offset_past_32_bits_is_refused_not_wrapped() {
        for text in ["ld.global r0, [r1+4294967300]", "st.global [r1-2147483649], r0", "ld.shared r0, [r1--9223372036854775807]"] {
            let e = assemble(&format!("{text}\nexit")).unwrap_err();
            assert_eq!((e.line, e.msg.as_str()), (1, "address offset does not fit in 32 bits"), "{text}");
        }
        let p = assemble("ld.global r0, [r1-2147483648]\nexit").unwrap();
        assert!(matches!(p.instrs[0], Instr::Ld { offset: i32::MIN, .. }));
    }

    #[test]
    fn an_immediate_past_32_bits_is_refused_not_wrapped() {
        for text in ["mov r0, 4294967296", "mov r0, -2147483649"] {
            let e = assemble(&format!("{text}\nexit")).unwrap_err();
            assert!(e.msg.contains("does not fit in 32 bits"), "{text}: {e}");
        }
        let p = assemble("mov r0, 4294967295\nmov r1, -2147483648\nexit").unwrap();
        assert!(matches!(p.instrs[0], Instr::Alu { a: Src::Imm(u32::MAX), .. }));
        assert!(matches!(p.instrs[1], Instr::Alu { a: Src::Imm(0x8000_0000), .. }));
    }

    #[test]
    fn a_predicate_past_the_scoreboard_mask_is_refused() {
        // p40 would alias p8's scoreboard bit in a 32-bit mask.
        let e = assemble("setp.eq.s32 p40, r0, 1\nexit").unwrap_err();
        assert_eq!(e.msg, "validation: pc 0: p40 out of range (program declares 32 preds)");
        let e = assemble(".preds 41\nsetp.eq.s32 p40, r0, 1\nexit").unwrap_err();
        assert_eq!(e.msg, "validation: 41 preds declared; a warp holds at most 32");
    }

    #[test]
    fn more_registers_than_the_scoreboard_tracks_are_refused() {
        let e = assemble(".regs 200\nmov r150, 1\nexit").unwrap_err();
        assert_eq!(e.msg, "validation: 200 regs declared; a warp holds at most 128");
        let p = assemble("mov r127, 1\nsetp.eq.s32 p31, r0, 1\nexit").unwrap();
        assert_eq!((p.regs, p.preds), (MAX_REGS, MAX_PREDS));
    }
}
