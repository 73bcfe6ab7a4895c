//! convolutionSeparable (CUDA SDK) — `convolutionRowsKernel` (18432 TBs)
//! and `convolutionColumnsKernel` (9216 TBs), 128 threads/TB.
//!
//! Character of the originals: streaming separable convolution. The rows
//! pass stages a tile + halo into shared memory behind one barrier and
//! convolves from shared; the columns pass reads its taps straight from
//! global memory at a row-pitch stride (each tap is its own coalesced
//! transaction), making it distinctly more global-memory intensive. Both
//! are bandwidth workloads with enormous grids — the strongest test of the
//! paper's TB-batching observation.
//!
//! The VPTX re-creations use a 9-tap kernel with fixed immediate
//! coefficients.

use crate::common::{alloc_rand_f32, check_f32, f32s};
use crate::{Built, Workload};
use pro_isa::{Kernel, LaunchConfig, ProgramBuilder, Special, Src};
use pro_mem::GlobalMem;

const THREADS: u32 = 128;
const RADIUS: usize = 4;
const TAPS: usize = 2 * RADIUS + 1;
/// Column pitch (elements between vertically adjacent pixels).
const PITCH: usize = 1024;

const COEFFS: [f32; TAPS] = [0.02, 0.06, 0.10, 0.16, 0.32, 0.16, 0.10, 0.06, 0.02];

/// Table II row 17.
pub const ROWS: Workload = Workload {
    app: "convolutionSeparable",
    kernel: "convolutionRowsKernel",
    table2_tbs: 18432,
    threads_per_tb: THREADS,
    build: build_rows,
};

/// Table II row 18.
pub const COLS: Workload = Workload {
    app: "convolutionSeparable",
    kernel: "convolutionColumnsKernel",
    table2_tbs: 9216,
    threads_per_tb: THREADS,
    build: build_cols,
};

fn build_rows(gmem: &mut GlobalMem, tbs: u32) -> Built {
    let n = (tbs * THREADS) as usize;
    // Input padded by RADIUS on both sides so halo loads stay in bounds.
    let in_base = alloc_rand_f32(gmem, n + 2 * RADIUS, 0x0C01);
    let out_base = gmem.alloc(n as u64 * 4);

    let mut b = ProgramBuilder::new("convolutionRowsKernel");
    let tile_words = THREADS + 2 * RADIUS as u32;
    let sh = b.shared_alloc(tile_words * 4);
    let gtid = b.reg();
    let tid = b.reg();
    let addr = b.reg();
    let v = b.reg();
    let acc = b.reg();
    let idx = b.reg();
    let p = b.pred();
    b.global_tid(gtid);
    b.mov(tid, Src::Special(Special::Tid));
    // Main tile: sh[tid + RADIUS] = in[gtid + RADIUS] (centered).
    b.iadd(idx, gtid, Src::Imm(RADIUS as u32));
    b.buf_addr(addr, 0, idx, 0);
    b.ld_global(v, addr, 0);
    b.imad(addr, tid, Src::Imm(4), Src::Imm(sh + RADIUS as u32 * 4));
    b.st_shared(v, addr, 0);
    // Halos: the first 2*RADIUS threads each load one halo element.
    b.setp(
        pro_isa::CmpOp::Lt,
        pro_isa::Ty::S32,
        p,
        tid,
        Src::Imm(2 * RADIUS as u32),
    );
    b.if_then(p, true, |b| {
        // left halo for tid < RADIUS: in[gtid_block_start + tid];
        // right halo for RADIUS <= tid < 2R: in[block_end + tid - R].
        // Uniform form: element = blk0 + (tid < R ? tid : THREADS + tid - R)
        // where blk0 = gtid - tid. Implement with selp.
        let off = b.reg();
        let p2 = b.pred();
        b.setp(pro_isa::CmpOp::Lt, pro_isa::Ty::S32, p2, tid, Src::Imm(RADIUS as u32));
        b.iadd(off, tid, Src::Imm(THREADS));
        b.selp(off, tid, off, p2);
        b.isub(idx, gtid, Src::Reg(tid));
        b.iadd(idx, idx, Src::Reg(off));
        b.buf_addr(addr, 0, idx, 0);
        b.ld_global(v, addr, 0);
        // shared slot: tid < R → off = tid; else RADIUS + THREADS + (tid-R)
        b.imad(addr, off, Src::Imm(4), Src::Imm(sh));
        b.st_shared(v, addr, 0);
    });
    b.bar();
    // Convolve from shared: acc = Σ c[j] * sh[tid + j].
    b.alu(pro_isa::AluOp::Mov, acc, Src::imm_f32(0.0), Src::Imm(0), Src::Imm(0));
    b.imad(addr, tid, Src::Imm(4), Src::Imm(sh));
    for (j, &c) in COEFFS.iter().enumerate() {
        b.ld_shared(v, addr, (j * 4) as i32);
        b.ffma(acc, v, Src::imm_f32(c), Src::Reg(acc));
    }
    b.buf_addr(addr, 1, gtid, 0);
    b.st_global(acc, addr, 0);
    // convolution kernels are lean: ~18 registers/thread.
    b.reserve_regs(18);
    b.exit();
    let program = b.build().expect("conv rows program");

    let kernel = Kernel::new(
        program,
        LaunchConfig::linear(tbs, THREADS),
        vec![in_base as u32, out_base as u32],
    );

    let input = f32s(gmem, in_base, n + 2 * RADIUS);
    let expect: Vec<f32> = (0..n)
        .map(|g| {
            let mut acc = 0.0f32;
            for (j, &c) in COEFFS.iter().enumerate() {
                acc = input(g + j).mul_add(c, acc);
            }
            acc
        })
        .collect();
    Built {
        kernel,
        verify: Box::new(move |g| check_f32(g, out_base, &expect, 1e-4, "convrows.out")),
    }
}

fn build_cols(gmem: &mut GlobalMem, tbs: u32) -> Built {
    let n = (tbs * THREADS) as usize;
    let padded = n + 2 * RADIUS * PITCH;
    let in_base = alloc_rand_f32(gmem, padded, 0x0C02);
    let out_base = gmem.alloc(n as u64 * 4);

    let mut b = ProgramBuilder::new("convolutionColumnsKernel");
    let gtid = b.reg();
    let addr = b.reg();
    let v = b.reg();
    let acc = b.reg();
    let idx = b.reg();
    b.global_tid(gtid);
    b.alu(pro_isa::AluOp::Mov, acc, Src::imm_f32(0.0), Src::Imm(0), Src::Imm(0));
    // Nine coalesced loads, each a full PITCH apart (vertical taps).
    for (j, &c) in COEFFS.iter().enumerate() {
        b.iadd(idx, gtid, Src::Imm((j * PITCH) as u32));
        b.buf_addr(addr, 0, idx, 0);
        b.ld_global(v, addr, 0);
        b.ffma(acc, v, Src::imm_f32(c), Src::Reg(acc));
    }
    b.buf_addr(addr, 1, gtid, 0);
    b.st_global(acc, addr, 0);
    b.reserve_regs(18);
    b.exit();
    let program = b.build().expect("conv cols program");

    let kernel = Kernel::new(
        program,
        LaunchConfig::linear(tbs, THREADS),
        vec![in_base as u32, out_base as u32],
    );

    let input = f32s(gmem, in_base, padded);
    let expect: Vec<f32> = (0..n)
        .map(|g| {
            let mut acc = 0.0f32;
            for (j, &c) in COEFFS.iter().enumerate() {
                acc = input(g + j * PITCH).mul_add(c, acc);
            }
            acc
        })
        .collect();
    Built {
        kernel,
        verify: Box::new(move |g| check_f32(g, out_base, &expect, 1e-4, "convcols.out")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_rows() {
        crate::apps::smoke(&ROWS, 4);
    }

    #[test]
    fn smoke_cols() {
        crate::apps::smoke(&COLS, 4);
    }

    #[test]
    fn cols_is_more_global_memory_intensive() {
        let mut g = GlobalMem::new(1 << 24);
        let rows = (ROWS.build)(&mut g, 2);
        let cols = (COLS.build)(&mut g, 2);
        let mr = rows.kernel.program.mix();
        let mc = cols.kernel.program.mix();
        assert!(mc.global_mem > mr.global_mem);
        assert_eq!(mr.barriers, 1);
        assert_eq!(mc.barriers, 0);
        assert!(mr.shared_mem > 0);
    }
}
