//! CP `cenergy` (GPGPU-Sim suite, Parboil Coulombic Potential) — 256 TBs ×
//! 128 threads.
//!
//! Character of the original: compute-bound. Each thread evaluates the
//! Coulomb potential at a grid point by looping over an atom list kept in
//! constant/L1-resident memory: per iteration a handful of FMAs plus an
//! `rsqrt`. Global traffic is tiny (the atom array is small and hot; one
//! final store), so stalls come from FP latency and SFU pressure.
//!
//! The VPTX re-creation: 32 iterations over a 64-entry atom table
//! (broadcast loads — all lanes read the same word, 1 transaction, hot in
//! L1) with `dx*dx` FMA chains and an `rsqrt` accumulate.

use crate::common::{alloc_rand_f32, check_f32, f32s};
use crate::{Built, Workload};
use pro_isa::{AluOp, Kernel, LaunchConfig, ProgramBuilder, SfuOp, Src};
use pro_mem::GlobalMem;

const THREADS: u32 = 128;
const ATOMS: usize = 64;
const ITERS: usize = 32;

/// Table II row 3.
pub const WORKLOAD: Workload = Workload {
    app: "CP",
    kernel: "cenergy",
    table2_tbs: 256,
    threads_per_tb: THREADS,
    build,
};

fn build(gmem: &mut GlobalMem, tbs: u32) -> Built {
    let n = (tbs * THREADS) as usize;
    let atoms_base = alloc_rand_f32(gmem, ATOMS, 0x0C91);
    let out_base = gmem.alloc(n as u64 * 4);

    let mut b = ProgramBuilder::new("cenergy");
    let gtid = b.reg();
    let addr = b.reg();
    let x = b.reg();
    let ax = b.reg();
    let dx = b.reg();
    let r2 = b.reg();
    let inv = b.reg();
    let energy = b.reg();
    let idx = b.reg();
    b.global_tid(gtid);
    // x = gtid * 0.25 (grid point coordinate)
    b.i2f(x, gtid);
    b.fmul(x, x, Src::imm_f32(0.25));
    b.alu(AluOp::Mov, energy, Src::imm_f32(0.0), Src::Imm(0), Src::Imm(0));
    for i in 0..ITERS {
        // Broadcast load of atom (i % ATOMS): same address for every lane.
        b.mov(idx, Src::Imm((i % ATOMS) as u32));
        b.buf_addr(addr, 0, idx, 0);
        b.ld_global(ax, addr, 0);
        // dx = ax - x; r2 = dx*dx + 0.05; energy += rsqrt(r2)
        b.alu(AluOp::FSub, dx, ax, x, Src::Imm(0));
        b.ffma(r2, dx, dx, Src::imm_f32(0.05));
        b.sfu(SfuOp::Rsqrt, inv, r2);
        b.fadd(energy, energy, Src::Reg(inv));
    }
    b.buf_addr(addr, 1, gtid, 0);
    b.st_global(energy, addr, 0);
    // cenergy is register-hungry (unrolled FMA lanes): ~40 regs.
    b.reserve_regs(40);
    b.exit();
    let program = b.build().expect("cp program");

    let kernel = Kernel::new(
        program,
        LaunchConfig::linear(tbs, THREADS),
        vec![atoms_base as u32, out_base as u32],
    );

    let atoms = f32s(gmem, atoms_base, ATOMS);
    let expect: Vec<f32> = (0..n as u32)
        .map(|gtid| {
            let x = gtid as f32 * 0.25;
            let mut e = 0.0f32;
            for i in 0..ITERS {
                let ax = atoms(i % ATOMS);
                let dx = ax - x;
                let r2 = dx.mul_add(dx, 0.05);
                e += 1.0 / r2.sqrt();
            }
            e
        })
        .collect();
    Built {
        kernel,
        verify: Box::new(move |g| check_f32(g, out_base, &expect, 1e-4, "cp.out")),
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
    fn mix_is_sfu_and_float_heavy() {
        let mut g = GlobalMem::new(1 << 22);
        let built = build(&mut g, 2);
        let m = built.kernel.program.mix();
        assert_eq!(m.sfu, ITERS);
        assert_eq!(m.barriers, 0);
        assert!(m.alu > m.global_mem, "compute bound: {m:?}");
    }
}
