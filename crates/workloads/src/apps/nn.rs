//! NN (GPGPU-Sim suite, neural-network inference) — four layer kernels:
//! `executeFirstLayer` (168 TBs), `executeSecondLayer` (1400),
//! `executeThirdLayer` (2800), `executeFourthLayer` (280); 128 threads/TB.
//!
//! Character of the originals: one thread per output neuron computing a
//! dot product — a stream of coalesced weight loads + broadcast input
//! loads feeding FMAs, no barriers, no divergence. The four layers differ
//! only in fan-in (loop trip count) and grid size, which is why the paper
//! lists them separately.
//!
//! The VPTX re-creations share one generator parameterized by fan-in:
//! `out[gtid] = max(0, Σ_i w[i*N + gtid] * x[i])` with `w` coalesced
//! (lane-consecutive) and `x[i]` broadcast.

use crate::common::{alloc_rand_f32, check_f32, f32s};
use crate::{Built, Workload};
use pro_isa::{AluOp, Kernel, LaunchConfig, ProgramBuilder, Src};
use pro_mem::GlobalMem;

const THREADS: u32 = 128;

/// Table II row 5.
pub const FIRST: Workload = Workload {
    app: "NN",
    kernel: "executeFirstLayer",
    table2_tbs: 168,
    threads_per_tb: THREADS,
    build: |g, t| build_layer(g, t, 24, 0x0441),
};

/// Table II row 6.
pub const SECOND: Workload = Workload {
    app: "NN",
    kernel: "executeSecondLayer",
    table2_tbs: 1400,
    threads_per_tb: THREADS,
    build: |g, t| build_layer(g, t, 16, 0x0442),
};

/// Table II row 7.
pub const THIRD: Workload = Workload {
    app: "NN",
    kernel: "executeThirdLayer",
    table2_tbs: 2800,
    threads_per_tb: THREADS,
    build: |g, t| build_layer(g, t, 8, 0x0443),
};

/// Table II row 8.
pub const FOURTH: Workload = Workload {
    app: "NN",
    kernel: "executeFourthLayer",
    table2_tbs: 280,
    threads_per_tb: THREADS,
    build: |g, t| build_layer(g, t, 32, 0x0444),
};

fn build_layer(gmem: &mut GlobalMem, tbs: u32, fan_in: usize, seed: u64) -> Built {
    let n = (tbs * THREADS) as usize;
    let w_base = alloc_rand_f32(gmem, n * fan_in, seed);
    let x_base = alloc_rand_f32(gmem, fan_in, seed ^ 0xF00);
    let out_base = gmem.alloc(n as u64 * 4);

    let name = match fan_in {
        24 => "executeFirstLayer",
        16 => "executeSecondLayer",
        8 => "executeThirdLayer",
        _ => "executeFourthLayer",
    };
    let mut b = ProgramBuilder::new(name);
    let gtid = b.reg();
    let addr = b.reg();
    let acc = b.reg();
    let wv = b.reg();
    let xv = b.reg();
    let idx = b.reg();
    b.global_tid(gtid);
    b.alu(AluOp::Mov, acc, Src::imm_f32(0.0), Src::Imm(0), Src::Imm(0));
    for i in 0..fan_in {
        // w[i*n + gtid]: coalesced.
        b.iadd(idx, gtid, Src::Imm((i * n) as u32));
        b.buf_addr(addr, 0, idx, 0);
        b.ld_global(wv, addr, 0);
        // x[i]: broadcast.
        b.mov(idx, Src::Imm(i as u32));
        b.buf_addr(addr, 1, idx, 0);
        b.ld_global(xv, addr, 0);
        b.ffma(acc, wv, xv, Src::Reg(acc));
    }
    // ReLU.
    b.alu(AluOp::FMax, acc, acc, Src::imm_f32(0.0), Src::Imm(0));
    b.buf_addr(addr, 2, gtid, 0);
    b.st_global(acc, addr, 0);
    // The NN layers are lean streaming loops: ~18 registers/thread.
    b.reserve_regs(18);
    b.exit();
    let program = b.build().expect("nn program");

    let kernel = Kernel::new(
        program,
        LaunchConfig::linear(tbs, THREADS),
        vec![w_base as u32, x_base as u32, out_base as u32],
    );

    let (w, x) = (f32s(gmem, w_base, n * fan_in), f32s(gmem, x_base, fan_in));
    let expect: Vec<f32> = (0..n)
        .map(|g| {
            let mut acc = 0.0f32;
            for i in 0..fan_in {
                acc = w(i * n + g).mul_add(x(i), acc);
            }
            acc.max(0.0)
        })
        .collect();
    Built {
        kernel,
        verify: Box::new(move |g| check_f32(g, out_base, &expect, 1e-4, "nn.out")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_first_layer() {
        crate::apps::smoke(&FIRST, 4);
    }

    #[test]
    fn smoke_third_layer() {
        crate::apps::smoke(&THIRD, 6);
    }

    #[test]
    fn layers_differ_in_fan_in() {
        let mut g = GlobalMem::new(1 << 24);
        let b1 = (FIRST.build)(&mut g, 2);
        let b3 = (THIRD.build)(&mut g, 2);
        let m1 = b1.kernel.program.mix();
        let m3 = b3.kernel.program.mix();
        assert!(m1.global_mem > m3.global_mem);
        assert_eq!(m1.barriers, 0);
    }
}
