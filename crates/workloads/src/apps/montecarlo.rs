//! MonteCarlo (CUDA SDK option pricing) — `inverseCNDKernel` (128 TBs) and
//! `MonteCarloOneBlockPerOption` (256 TBs).
//!
//! Character of the originals:
//! * `inverseCNDKernel`: per-element inverse cumulative normal transform —
//!   a straight chain of transcendentals (log, sqrt) per thread, coalesced
//!   store; an SFU-throughput workload.
//! * `MonteCarloOneBlockPerOption`: one block per option; threads
//!   accumulate discounted payoffs over paths (coalesced loads + FMA/FMax)
//!   and combine with a shared-memory reduction (barriers) — mixed compute
//!   + reduction.

use crate::common::{
    alloc_rand_f32, check_f32, emit_reduce_f32, f32s, host_reduce_f32,
};
use crate::{Built, Workload};
use pro_isa::{AluOp, CmpOp, Kernel, LaunchConfig, ProgramBuilder, SfuOp, Special, Src, Ty};
use pro_mem::GlobalMem;

const CND_THREADS: u32 = 128;
const CND_STEPS: usize = 4;
const OPT_THREADS: u32 = 256;
const PATHS: usize = 8;

/// Table II row 23.
pub const INVERSE_CND: Workload = Workload {
    app: "MonteCarlo",
    kernel: "inverseCNDKernel",
    table2_tbs: 128,
    threads_per_tb: CND_THREADS,
    build: build_cnd,
};

/// Table II row 24.
pub const ONE_BLOCK_PER_OPTION: Workload = Workload {
    app: "MonteCarlo",
    kernel: "MonteCarloOneBlockPerOption",
    table2_tbs: 256,
    threads_per_tb: OPT_THREADS,
    build: build_option,
};

fn build_cnd(gmem: &mut GlobalMem, tbs: u32) -> Built {
    let n = (tbs * CND_THREADS) as usize;
    let out_base = gmem.alloc(n as u64 * 4);

    let mut b = ProgramBuilder::new("inverseCNDKernel");
    let gtid = b.reg();
    let addr = b.reg();
    let u = b.reg();
    let y = b.reg();
    let z = b.reg();
    let acc = b.reg();
    b.global_tid(gtid);
    // u = (gtid + 1) * 2^-20 ∈ (0, ~1)
    b.iadd(u, gtid, Src::Imm(1));
    b.i2f(u, u);
    b.fmul(u, u, Src::imm_f32(1.0 / 1_048_576.0));
    b.alu(AluOp::Mov, acc, Src::imm_f32(0.0), Src::Imm(0), Src::Imm(0));
    for k in 0..CND_STEPS {
        // y = log2(u + k*0.5 + 1.0); z = sqrt(y*y + 1); acc += y*z
        b.fadd(y, u, Src::imm_f32(k as f32 * 0.5 + 1.0));
        b.sfu(SfuOp::Log2, y, y);
        b.ffma(z, y, Src::Reg(y), Src::imm_f32(1.0));
        b.sfu(SfuOp::Sqrt, z, z);
        b.ffma(acc, y, z, Src::Reg(acc));
    }
    b.buf_addr(addr, 0, gtid, 0);
    b.st_global(acc, addr, 0);
    // inverseCND: transcendental chains, ~24 registers/thread.
    b.reserve_regs(24);
    b.exit();
    let program = b.build().expect("cnd program");

    let kernel = Kernel::new(
        program,
        LaunchConfig::linear(tbs, CND_THREADS),
        vec![out_base as u32],
    );

    let expect: Vec<f32> = (0..n as u32)
        .map(|g| {
            let u = (g + 1) as f32 * (1.0 / 1_048_576.0);
            let mut acc = 0.0f32;
            for k in 0..CND_STEPS {
                let y = (u + k as f32 * 0.5 + 1.0).log2();
                let z = y.mul_add(y, 1.0).sqrt();
                acc = y.mul_add(z, acc);
            }
            acc
        })
        .collect();
    Built {
        kernel,
        verify: Box::new(move |g| check_f32(g, out_base, &expect, 1e-3, "cnd.out")),
    }
}

fn build_option(gmem: &mut GlobalMem, tbs: u32) -> Built {
    let n = (tbs * OPT_THREADS) as usize;
    let path_base = alloc_rand_f32(gmem, n * PATHS, 0x04C1);
    let out_base = gmem.alloc(tbs as u64 * 4);

    let mut b = ProgramBuilder::new("MonteCarloOneBlockPerOption");
    let sh = b.shared_alloc(OPT_THREADS * 4);
    let gtid = b.reg();
    let tid = b.reg();
    let addr = b.reg();
    let r = b.reg();
    let pay = b.reg();
    let acc = b.reg();
    let idx = b.reg();
    let tmp = b.reg();
    let p = b.pred();
    b.global_tid(gtid);
    b.mov(tid, Src::Special(Special::Tid));
    b.alu(AluOp::Mov, acc, Src::imm_f32(0.0), Src::Imm(0), Src::Imm(0));
    for k in 0..PATHS {
        b.iadd(idx, gtid, Src::Imm((k * n) as u32));
        b.buf_addr(addr, 0, idx, 0);
        b.ld_global(r, addr, 0);
        // payoff = max(r*1.5 - 1.0, 0)
        b.ffma(pay, r, Src::imm_f32(1.5), Src::imm_f32(-1.0));
        b.alu(AluOp::FMax, pay, pay, Src::imm_f32(0.0), Src::Imm(0));
        b.fadd(acc, acc, Src::Reg(pay));
    }
    b.imad(addr, tid, Src::Imm(4), Src::Imm(sh));
    b.st_shared(acc, addr, 0);
    emit_reduce_f32(&mut b, sh, OPT_THREADS, tid, addr, r, tmp, p);
    b.setp(CmpOp::Eq, Ty::S32, p, tid, Src::Imm(0));
    b.if_then(p, true, |b| {
        b.mov(addr, Src::Imm(sh));
        b.ld_shared(r, addr, 0);
        b.fmul(r, r, Src::imm_f32(1.0 / (OPT_THREADS * PATHS as u32) as f32));
        b.mov(idx, Src::Special(Special::Ctaid));
        b.buf_addr(addr, 1, idx, 0);
        b.st_global(r, addr, 0);
    });
    // OneBlockPerOption: path state + reduction, ~26 regs.
    b.reserve_regs(26);
    b.exit();
    let program = b.build().expect("option program");

    let kernel = Kernel::new(
        program,
        LaunchConfig::linear(tbs, OPT_THREADS),
        vec![path_base as u32, out_base as u32],
    );

    let paths = f32s(gmem, path_base, n * PATHS);
    let t = OPT_THREADS as usize;
    let expect: Vec<f32> = (0..tbs as usize)
        .map(|blk| {
            let per_thread: Vec<f32> = (0..t)
                .map(|tid| {
                    let g = blk * t + tid;
                    let mut acc = 0.0f32;
                    for k in 0..PATHS {
                        let pay = paths(k * n + g).mul_add(1.5, -1.0).max(0.0);
                        acc += pay;
                    }
                    acc
                })
                .collect();
            host_reduce_f32(&per_thread) * (1.0 / (t * PATHS) as f32)
        })
        .collect();
    Built {
        kernel,
        verify: Box::new(move |g| check_f32(g, out_base, &expect, 1e-3, "option.out")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_inverse_cnd() {
        crate::apps::smoke(&INVERSE_CND, 4);
    }

    #[test]
    fn smoke_one_block_per_option() {
        crate::apps::smoke(&ONE_BLOCK_PER_OPTION, 4);
    }

    #[test]
    fn cnd_is_sfu_bound() {
        let mut g = GlobalMem::new(1 << 22);
        let built = build_cnd(&mut g, 2);
        let m = built.kernel.program.mix();
        assert_eq!(m.sfu, 2 * CND_STEPS);
        assert_eq!(m.global_mem, 1, "store only");
    }
}
