//! hotspot `calculate_temp` (Rodinia) — 1849 TBs × 256 threads.
//!
//! Character of the original: a thermal-simulation stencil with a shared
//! tile, two `__syncthreads` per iteration, and *border divergence* — edge
//! threads of the tile take a different path than interior threads. The
//! 1849-TB grid (43×43) far exceeds residency, exercising the paper's SM
//! residency effect (§II.C).
//!
//! The VPTX re-creation: two pyramid iterations over a 1-D tile: load
//! temperatures + power to shared, barrier, interior threads apply the
//! 3-point update while border threads hold their value (guarded region),
//! barrier, iterate, coalesced store.

use crate::common::{alloc_rand_f32, check_f32, f32s};
use crate::{Built, Workload};
use pro_isa::{CmpOp, Kernel, LaunchConfig, ProgramBuilder, Special, Src, Ty};
use pro_mem::GlobalMem;

const THREADS: u32 = 256;
const ITERS: usize = 2;

/// Table II row 15.
pub const WORKLOAD: Workload = Workload {
    app: "hotspot",
    kernel: "calculate_temp",
    table2_tbs: 1849,
    threads_per_tb: THREADS,
    build,
};

fn build(gmem: &mut GlobalMem, tbs: u32) -> Built {
    let n = (tbs * THREADS) as usize;
    let temp_base = alloc_rand_f32(gmem, n, 0x4071);
    let power_base = alloc_rand_f32(gmem, n, 0x4072);
    let out_base = gmem.alloc(n as u64 * 4);

    let mut b = ProgramBuilder::new("calculate_temp");
    let sh = b.shared_alloc(THREADS * 4);
    let gtid = b.reg();
    let tid = b.reg();
    let addr = b.reg();
    let t = b.reg();
    let pw = b.reg();
    let l = b.reg();
    let r = b.reg();
    let nt = b.reg();
    let p = b.pred();
    let p2 = b.pred();
    b.global_tid(gtid);
    b.mov(tid, Src::Special(Special::Tid));
    b.buf_addr(addr, 0, gtid, 0);
    b.ld_global(t, addr, 0);
    b.buf_addr(addr, 1, gtid, 0);
    b.ld_global(pw, addr, 0);
    for _ in 0..ITERS {
        // stage current temperature
        b.imad(addr, tid, Src::Imm(4), Src::Imm(sh));
        b.st_shared(t, addr, 0);
        b.bar();
        // interior threads update; border threads keep their value.
        b.setp(CmpOp::Gt, Ty::S32, p, tid, Src::Imm(0));
        b.setp(CmpOp::Lt, Ty::S32, p2, tid, Src::Imm(THREADS - 1));
        b.if_then(p, true, |b| {
            b.if_then(p2, true, |b| {
                b.imad(addr, tid, Src::Imm(4), Src::Imm(sh));
                b.ld_shared(l, addr, -4);
                b.ld_shared(r, addr, 4);
                // nt = t + 0.1*(l + r - 2t) + 0.05*pw
                b.fadd(nt, l, Src::Reg(r));
                b.ffma(nt, t, Src::imm_f32(-2.0), Src::Reg(nt));
                b.fmul(nt, nt, Src::imm_f32(0.1));
                b.ffma(nt, pw, Src::imm_f32(0.05), Src::Reg(nt));
                b.fadd(t, t, Src::Reg(nt));
            });
        });
        b.bar();
    }
    b.buf_addr(addr, 2, gtid, 0);
    b.st_global(t, addr, 0);
    // calculate_temp carries the thermal stencil state: ~30 regs.
    b.reserve_regs(30);
    b.exit();
    let program = b.build().expect("hotspot program");

    let kernel = Kernel::new(
        program,
        LaunchConfig::linear(tbs, THREADS),
        vec![temp_base as u32, power_base as u32, out_base as u32],
    );

    let power = f32s(gmem, power_base, n);
    let tsz = THREADS as usize;
    let expect: Vec<f32> = {
        let mut cur: Vec<f32> = (0..n).map(f32s(gmem, temp_base, n)).collect();
        for _ in 0..ITERS {
            let prev = cur.clone();
            for g in 0..n {
                let tid = g % tsz;
                if tid > 0 && tid < tsz - 1 {
                    let delta = prev[g].mul_add(-2.0, prev[g - 1] + prev[g + 1]);
                    cur[g] = prev[g] + power(g).mul_add(0.05, delta * 0.1);
                }
            }
        }
        cur
    };
    Built {
        kernel,
        verify: Box::new(move |g| check_f32(g, out_base, &expect, 1e-4, "hotspot.out")),
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
    fn mix_has_two_barriers_per_iteration() {
        let mut g = GlobalMem::new(1 << 22);
        let built = build(&mut g, 2);
        assert_eq!(built.kernel.program.mix().barriers, 2 * ITERS);
    }
}
