//! RAY `render` (GPGPU-Sim suite, ray tracing) — 512 TBs × 128 threads.
//!
//! Character of the original: one thread per pixel; rays bounce a
//! *data-dependent* number of times, so warps suffer severe warp-level
//! divergence (the paper's §II.B motivator). Each bounce mixes float math,
//! an SFU op and a scattered scene fetch. No barriers.
//!
//! The VPTX re-creation: per-thread bounce count `1 + (hash(gtid) & 7)`
//! drives a divergent loop; the body does an LCG-indexed scattered load,
//! an FMA blend and an SFU `sqrt`.

use crate::common::{alloc_rand_f32, check_f32, f32s, lcg};
use crate::{Built, Workload};
use pro_isa::{AluOp, Kernel, LaunchConfig, ProgramBuilder, SfuOp, Src};
use pro_mem::GlobalMem;

const THREADS: u32 = 128;
const SCENE: usize = 1 << 14;

/// Table II row 9.
pub const WORKLOAD: Workload = Workload {
    app: "RAY",
    kernel: "render",
    table2_tbs: 512,
    threads_per_tb: THREADS,
    build,
};

fn build(gmem: &mut GlobalMem, tbs: u32) -> Built {
    let n = (tbs * THREADS) as usize;
    let scene_base = alloc_rand_f32(gmem, SCENE, 0x4A41);
    let out_base = gmem.alloc(n as u64 * 4);

    let mut b = ProgramBuilder::new("render");
    let gtid = b.reg();
    let addr = b.reg();
    let bounces = b.reg();
    let i = b.reg();
    let x = b.reg();
    let idx = b.reg();
    let v = b.reg();
    let color = b.reg();
    let p = b.pred();
    b.global_tid(gtid);
    // bounces = 1 + (lcg(gtid) >> 4) & 7  → 1..8, warp-divergent.
    crate::common::emit_lcg(&mut b, bounces, gtid);
    b.shr(bounces, bounces, Src::Imm(4));
    b.and(bounces, bounces, Src::Imm(7));
    b.iadd(bounces, bounces, Src::Imm(1));
    b.mov(x, Src::Reg(gtid));
    b.alu(AluOp::Mov, color, Src::imm_f32(0.0), Src::Imm(0), Src::Imm(0));
    b.for_loop(i, Src::Imm(0), bounces, p, |b, _| {
        crate::common::emit_lcg(b, x, x);
        b.shr(idx, x, Src::Imm(7));
        b.and(idx, idx, Src::Imm((SCENE - 1) as u32));
        b.buf_addr(addr, 0, idx, 0);
        b.ld_global(v, addr, 0);
        // color = color*0.5 + sqrt(v)
        b.sfu(SfuOp::Sqrt, v, v);
        b.ffma(color, color, Src::imm_f32(0.5), Src::Reg(v));
    });
    b.buf_addr(addr, 1, gtid, 0);
    b.st_global(color, addr, 0);
    // render keeps ray state live across bounces: ~36 regs.
    b.reserve_regs(36);
    b.exit();
    let program = b.build().expect("ray program");

    let kernel = Kernel::new(
        program,
        LaunchConfig::linear(tbs, THREADS),
        vec![scene_base as u32, out_base as u32],
    );

    let scene = f32s(gmem, scene_base, SCENE);
    let expect: Vec<f32> = (0..n as u32)
        .map(|g| {
            let bounces = 1 + ((lcg(g) >> 4) & 7);
            let mut x = g;
            let mut color = 0.0f32;
            for _ in 0..bounces {
                x = lcg(x);
                let idx = ((x >> 7) as usize) & (SCENE - 1);
                color = color.mul_add(0.5, scene(idx).sqrt());
            }
            color
        })
        .collect();
    Built {
        kernel,
        verify: Box::new(move |g| check_f32(g, out_base, &expect, 1e-4, "ray.out")),
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
    fn bounce_counts_vary_within_a_warp() {
        let counts: Vec<u32> = (0..32u32).map(|g| 1 + ((lcg(g) >> 4) & 7)).collect();
        let min = counts.iter().min().unwrap();
        let max = counts.iter().max().unwrap();
        assert!(max - min >= 4, "warp-level divergence present: {counts:?}");
    }
}
