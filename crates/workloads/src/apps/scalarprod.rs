//! scalarProd `scalarProdGPU` (CUDA SDK) — 128 TBs × 256 threads.
//!
//! Character of the original: each block computes the dot product of one
//! vector pair: a coalesced FMA accumulation loop followed by the shared
//! memory tree reduction — log2(256) = 8 barriers back to back. This is
//! the paper's headline kernel: PRO's largest win over TL and LRR *and*
//! the kernel where barrier special-handling can backfire (PRO-NB runs
//! faster on it, §IV) — reproduce both with the `PRO` and `PRO-NB`
//! scheduler kinds (`pro_bench::paper::CLAIMS` has the paper's numbers,
//! `repro correlate` ours).

use crate::common::{alloc_rand_f32, check_f32, emit_reduce_f32, f32s, host_reduce_f32};
use crate::{Built, Workload};
use pro_isa::{AluOp, CmpOp, Kernel, LaunchConfig, ProgramBuilder, Special, Src, Ty};
use pro_mem::GlobalMem;

const THREADS: u32 = 256;
const ELEMS: usize = 32;

/// Table II row 25.
pub const WORKLOAD: Workload = Workload {
    app: "scalarProd",
    kernel: "scalarProdGPU",
    table2_tbs: 128,
    threads_per_tb: THREADS,
    build,
};

fn build(gmem: &mut GlobalMem, tbs: u32) -> Built {
    let n = (tbs * THREADS) as usize;
    let a_base = alloc_rand_f32(gmem, n * ELEMS, 0x5CA1);
    let b_base = alloc_rand_f32(gmem, n * ELEMS, 0x5CA2);
    let out_base = gmem.alloc(tbs as u64 * 4);

    let mut b = ProgramBuilder::new("scalarProdGPU");
    let sh = b.shared_alloc(THREADS * 4);
    let gtid = b.reg();
    let tid = b.reg();
    let addr = b.reg();
    let av = b.reg();
    let bvr = b.reg();
    let acc = b.reg();
    let idx = b.reg();
    let tmp = b.reg();
    let p = b.pred();
    b.global_tid(gtid);
    b.mov(tid, Src::Special(Special::Tid));
    b.alu(AluOp::Mov, acc, Src::imm_f32(0.0), Src::Imm(0), Src::Imm(0));
    for k in 0..ELEMS {
        b.iadd(idx, gtid, Src::Imm((k * n) as u32));
        b.buf_addr(addr, 0, idx, 0);
        b.ld_global(av, addr, 0);
        b.buf_addr(addr, 1, idx, 0);
        b.ld_global(bvr, addr, 0);
        b.ffma(acc, av, bvr, Src::Reg(acc));
    }
    b.imad(addr, tid, Src::Imm(4), Src::Imm(sh));
    b.st_shared(acc, addr, 0);
    emit_reduce_f32(&mut b, sh, THREADS, tid, addr, av, tmp, p);
    b.setp(CmpOp::Eq, Ty::S32, p, tid, Src::Imm(0));
    b.if_then(p, true, |b| {
        b.mov(addr, Src::Imm(sh));
        b.ld_shared(av, addr, 0);
        b.mov(idx, Src::Special(Special::Ctaid));
        b.buf_addr(addr, 2, idx, 0);
        b.st_global(av, addr, 0);
    });
    // scalarProdGPU: ~20 registers/thread.
    b.reserve_regs(20);
    b.exit();
    let program = b.build().expect("scalarprod program");

    let kernel = Kernel::new(
        program,
        LaunchConfig::linear(tbs, THREADS),
        vec![a_base as u32, b_base as u32, out_base as u32],
    );

    let (a, bv) = (f32s(gmem, a_base, n * ELEMS), f32s(gmem, b_base, n * ELEMS));
    let t = THREADS as usize;
    let expect: Vec<f32> = (0..tbs as usize)
        .map(|blk| {
            let per_thread: Vec<f32> = (0..t)
                .map(|tid| {
                    let g = blk * t + tid;
                    let mut acc = 0.0f32;
                    for k in 0..ELEMS {
                        acc = a(k * n + g).mul_add(bv(k * n + g), acc);
                    }
                    acc
                })
                .collect();
            host_reduce_f32(&per_thread)
        })
        .collect();
    Built {
        kernel,
        verify: Box::new(move |g| check_f32(g, out_base, &expect, 1e-3, "scalarprod.out")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_small_grid() {
        crate::apps::smoke(&WORKLOAD, 4);
    }

    #[test]
    fn reduction_dominates_the_static_mix() {
        let mut g = GlobalMem::new(1 << 24);
        let built = build(&mut g, 2);
        let m = built.kernel.program.mix();
        assert_eq!(m.barriers, 9, "8 tree steps + final fence");
        assert_eq!(m.global_mem, 2 * ELEMS + 1);
        assert!(m.shared_mem > 8);
    }
}
