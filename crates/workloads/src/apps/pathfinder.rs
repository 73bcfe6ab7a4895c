//! pathfinder `dynproc_kernel` (Rodinia) — 463 TBs × 256 threads.
//!
//! Character of the original: dynamic programming over a grid; each
//! iteration every thread takes the min of three shared-memory neighbours
//! plus a cost, separated by `__syncthreads` **twice per step** (read
//! fence + write fence). Integer min/add bound with dense barriers —
//! another strong `barrierWait` workload.
//!
//! The VPTX re-creation: 8 DP steps over a block-local 1-D tile with
//! clamped neighbours and per-step cost rows.

use crate::common::{alloc_rand_u32, check_u32};
use crate::{Built, Workload};
use pro_isa::{AluOp, Kernel, LaunchConfig, ProgramBuilder, Special, Src};
use pro_mem::GlobalMem;

const THREADS: u32 = 256;
const STEPS: usize = 8;

/// Table II row 16.
pub const WORKLOAD: Workload = Workload {
    app: "pathfinder",
    kernel: "dynproc_kernel",
    table2_tbs: 463,
    threads_per_tb: THREADS,
    build,
};

fn build(gmem: &mut GlobalMem, tbs: u32) -> Built {
    let n = (tbs * THREADS) as usize;
    let src_base = alloc_rand_u32(gmem, n, 1000, 0x9A71);
    let cost_base = alloc_rand_u32(gmem, n * STEPS, 100, 0x9A72);
    let out_base = gmem.alloc(n as u64 * 4);

    let mut b = ProgramBuilder::new("dynproc_kernel");
    let sh = b.shared_alloc(THREADS * 4);
    let gtid = b.reg();
    let tid = b.reg();
    let addr = b.reg();
    let m = b.reg();
    let v = b.reg();
    let idx = b.reg();
    let c = b.reg();
    b.global_tid(gtid);
    b.mov(tid, Src::Special(Special::Tid));
    // sh[tid] = src[gtid]
    b.buf_addr(addr, 0, gtid, 0);
    b.ld_global(m, addr, 0);
    b.imad(addr, tid, Src::Imm(4), Src::Imm(sh));
    b.st_shared(m, addr, 0);
    for step in 0..STEPS {
        b.bar();
        // m = min(sh[clamp(tid-1)], sh[tid], sh[clamp(tid+1)]) + cost
        b.iadd(idx, tid, Src::imm_i32(-1));
        b.alu(AluOp::IMax, idx, idx, Src::Imm(0), Src::Imm(0));
        b.imad(addr, idx, Src::Imm(4), Src::Imm(sh));
        b.ld_shared(m, addr, 0);
        b.imad(addr, tid, Src::Imm(4), Src::Imm(sh));
        b.ld_shared(v, addr, 0);
        b.alu(AluOp::IMin, m, m, v, Src::Imm(0));
        b.iadd(idx, tid, Src::Imm(1));
        b.alu(AluOp::IMin, idx, idx, Src::Imm(THREADS - 1), Src::Imm(0));
        b.imad(addr, idx, Src::Imm(4), Src::Imm(sh));
        b.ld_shared(v, addr, 0);
        b.alu(AluOp::IMin, m, m, v, Src::Imm(0));
        b.iadd(idx, gtid, Src::Imm((step * n) as u32));
        b.buf_addr(addr, 1, idx, 0);
        b.ld_global(c, addr, 0);
        b.iadd(m, m, Src::Reg(c));
        b.bar();
        b.imad(addr, tid, Src::Imm(4), Src::Imm(sh));
        b.st_shared(m, addr, 0);
    }
    b.buf_addr(addr, 2, gtid, 0);
    b.st_global(m, addr, 0);
    // dynproc_kernel: ~18 registers/thread.
    b.reserve_regs(18);
    b.exit();
    let program = b.build().expect("pathfinder program");

    let kernel = Kernel::new(
        program,
        LaunchConfig::linear(tbs, THREADS),
        vec![src_base as u32, cost_base as u32, out_base as u32],
    );

    let t = THREADS as usize;
    let cost = gmem.words(cost_base, n * STEPS);
    let expect: Vec<u32> = {
        let mut cur = gmem.read_slice(src_base, n);
        for step in 0..STEPS {
            let prev = cur.clone();
            for g in 0..n {
                let tid = g % t;
                let blk = g - tid;
                let l = prev[blk + tid.saturating_sub(1)];
                let r = prev[blk + (tid + 1).min(t - 1)];
                cur[g] = l.min(prev[g]).min(r) + cost[step * n + g];
            }
        }
        cur
    };
    Built {
        kernel,
        verify: Box::new(move |g| check_u32(g, out_base, &expect, "pathfinder.out")),
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
    fn mix_is_barrier_dense() {
        let mut g = GlobalMem::new(1 << 24);
        let built = build(&mut g, 2);
        assert_eq!(built.kernel.program.mix().barriers, 2 * STEPS);
    }
}
