//! LPS `GPU_laplace3d` (GPGPU-Sim suite) — 100 TBs × 256 threads.
//!
//! Character of the original: a 3-D Laplace stencil. Each block stages a
//! tile (plus halo) into shared memory, synchronizes, computes the stencil
//! from shared values, and marches through planes of the volume — a classic
//! *barrier-per-plane* pattern with coalesced global loads/stores.
//!
//! The VPTX re-creation: a 1-D tile+halo stencil marched over 4 planes;
//! per plane: cooperative tile load (halo loads guarded to the edge
//! threads → mild divergence), two barriers, stencil from shared memory,
//! coalesced store.

use crate::common::{alloc_rand_f32, check_f32, f32s};
use crate::{Built, Workload};
use pro_isa::{AluOp, CmpOp, Kernel, LaunchConfig, ProgramBuilder, Special, Src, Ty};
use pro_mem::GlobalMem;

const THREADS: u32 = 256;
const PLANES: usize = 4;

/// Table II row 4.
pub const WORKLOAD: Workload = Workload {
    app: "LPS",
    kernel: "laplace3d",
    table2_tbs: 100,
    threads_per_tb: THREADS,
    build,
};

fn build(gmem: &mut GlobalMem, tbs: u32) -> Built {
    let total = (tbs * THREADS) as usize;
    let n = total * PLANES;
    let u_base = alloc_rand_f32(gmem, n, 0x1951);
    let out_base = gmem.alloc(n as u64 * 4);

    let mut b = ProgramBuilder::new("laplace3d");
    let sh = b.shared_alloc((THREADS + 2) * 4);
    let gtid = b.reg();
    let tid = b.reg();
    let e = b.reg();
    let idx = b.reg();
    let addr = b.reg();
    let v = b.reg();
    let c = b.reg();
    let l = b.reg();
    let r = b.reg();
    let p = b.pred();
    b.global_tid(gtid);
    b.mov(tid, Src::Special(Special::Tid));
    for plane in 0..PLANES {
        let off = (plane * total) as u32;
        // e = gtid + plane*total
        b.iadd(e, gtid, Src::Imm(off));
        // tile: sh[tid+1] = u[e]
        b.buf_addr(addr, 0, e, 0);
        b.ld_global(v, addr, 0);
        b.imad(idx, tid, Src::Imm(4), Src::Imm(sh + 4));
        b.st_shared(v, idx, 0);
        // halo left (thread 0): sh[0] = u[max(e-1, 0)]
        b.setp(CmpOp::Eq, Ty::S32, p, tid, Src::Imm(0));
        b.if_then(p, true, |b| {
            b.iadd(idx, e, Src::imm_i32(-1));
            b.alu(AluOp::IMax, idx, idx, Src::Imm(0), Src::Imm(0));
            b.buf_addr(addr, 0, idx, 0);
            b.ld_global(v, addr, 0);
            b.mov(idx, Src::Imm(sh));
            b.st_shared(v, idx, 0);
        });
        // halo right (last thread): sh[T+1] = u[min(e+1, n-1)]
        b.setp(CmpOp::Eq, Ty::S32, p, tid, Src::Imm(THREADS - 1));
        b.if_then(p, true, |b| {
            b.iadd(idx, e, Src::Imm(1));
            b.alu(
                AluOp::IMin,
                idx,
                idx,
                Src::Imm(n as u32 - 1),
                Src::Imm(0),
            );
            b.buf_addr(addr, 0, idx, 0);
            b.ld_global(v, addr, 0);
            b.mov(idx, Src::Imm(sh + (THREADS + 1) * 4));
            b.st_shared(v, idx, 0);
        });
        b.bar();
        // stencil: out[e] = 0.5*sh[tid+1] + 0.25*(sh[tid] + sh[tid+2])
        b.imad(idx, tid, Src::Imm(4), Src::Imm(sh));
        b.ld_shared(l, idx, 0);
        b.ld_shared(c, idx, 4);
        b.ld_shared(r, idx, 8);
        b.fadd(l, l, Src::Reg(r));
        b.fmul(l, l, Src::imm_f32(0.25));
        b.ffma(c, c, Src::imm_f32(0.5), Src::Reg(l));
        b.buf_addr(addr, 1, e, 0);
        b.st_global(c, addr, 0);
        b.bar(); // tile reuse fence before the next plane overwrites it
    }
    // laplace3d holds plane state: ~26 registers/thread.
    b.reserve_regs(26);
    b.exit();
    let program = b.build().expect("lps program");

    let kernel = Kernel::new(
        program,
        LaunchConfig::linear(tbs, THREADS),
        vec![u_base as u32, out_base as u32],
    );

    // Host reference: shared-tile semantics — halo comes from the clamped
    // global index, interior neighbours from within the tile.
    let u = f32s(gmem, u_base, n);
    let t = THREADS as usize;
    let expect: Vec<f32> = (0..n)
        .map(|e| {
            let tid = e % t;
            let left = if tid == 0 {
                u(e.saturating_sub(1))
            } else {
                u(e - 1)
            };
            let right = if tid == t - 1 {
                u((e + 1).min(n - 1))
            } else {
                u(e + 1)
            };
            0.5f32.mul_add(u(e), 0.25 * (left + right))
        })
        .collect();
    Built {
        kernel,
        verify: Box::new(move |g| check_f32(g, out_base, &expect, 1e-5, "lps.out")),
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
    fn mix_has_barriers_per_plane() {
        let mut g = GlobalMem::new(1 << 22);
        let built = build(&mut g, 2);
        let m = built.kernel.program.mix();
        assert_eq!(m.barriers, 2 * PLANES);
        assert!(m.shared_mem >= 4 * PLANES);
    }
}
