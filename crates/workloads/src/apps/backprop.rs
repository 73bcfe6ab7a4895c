//! backprop (Rodinia) — `bpnn_layerforward` and `bpnn_adjust_weights_cuda`,
//! 4096 TBs × 256 threads each.
//!
//! Character of the originals:
//! * `bpnn_layerforward`: per-thread products staged into shared memory,
//!   then a log-tree reduction with a **barrier per halving step** — a
//!   barrier-dense kernel where warps queue up at syncthreads (the paper's
//!   `barrierWait` state).
//! * `bpnn_adjust_weights_cuda`: pure streaming — three coalesced loads,
//!   an FMA, a coalesced store per thread; bandwidth bound, no barriers.

use crate::common::{alloc_rand_f32, check_f32, emit_reduce_f32, f32s, host_reduce_f32};
use crate::{Built, Workload};
use pro_isa::{CmpOp, Kernel, LaunchConfig, ProgramBuilder, Special, Src, Ty};
use pro_mem::GlobalMem;

const THREADS: u32 = 256;

/// Table II row 11.
pub const LAYERFORWARD: Workload = Workload {
    app: "backprop",
    kernel: "bpnn_layerforward",
    table2_tbs: 4096,
    threads_per_tb: THREADS,
    build: build_layerforward,
};

/// Table II row 12.
pub const ADJUST_WEIGHTS: Workload = Workload {
    app: "backprop",
    kernel: "bpnn_adjust_weights_cuda",
    table2_tbs: 4096,
    threads_per_tb: THREADS,
    build: build_adjust,
};

fn build_layerforward(gmem: &mut GlobalMem, tbs: u32) -> Built {
    let n = (tbs * THREADS) as usize;
    let in_base = alloc_rand_f32(gmem, n, 0x0B91);
    let w_base = alloc_rand_f32(gmem, n, 0x0B92);
    let part_base = gmem.alloc(tbs as u64 * 4);

    let mut b = ProgramBuilder::new("bpnn_layerforward");
    let sh = b.shared_alloc(THREADS * 4);
    let gtid = b.reg();
    let tid = b.reg();
    let addr = b.reg();
    let x = b.reg();
    let w = b.reg();
    let acc = b.reg();
    let tmp = b.reg();
    let p = b.pred();
    b.global_tid(gtid);
    b.mov(tid, Src::Special(Special::Tid));
    // product = input[gtid] * weight[gtid] → shared[tid]
    b.buf_addr(addr, 0, gtid, 0);
    b.ld_global(x, addr, 0);
    b.buf_addr(addr, 1, gtid, 0);
    b.ld_global(w, addr, 0);
    b.fmul(x, x, Src::Reg(w));
    b.imad(addr, tid, Src::Imm(4), Src::Imm(sh));
    b.st_shared(x, addr, 0);
    // Tree reduction: log2(256) = 8 barriers.
    emit_reduce_f32(&mut b, sh, THREADS, tid, addr, acc, tmp, p);
    // thread 0 writes the block partial.
    b.setp(CmpOp::Eq, Ty::S32, p, tid, Src::Imm(0));
    b.if_then(p, true, |b| {
        b.mov(addr, Src::Imm(sh));
        b.ld_shared(acc, addr, 0);
        b.mov(tmp, Src::Special(Special::Ctaid));
        b.buf_addr(addr, 2, tmp, 0);
        b.st_global(acc, addr, 0);
    });
    // layerforward is lean: ~16 registers/thread.
    b.reserve_regs(16);
    b.exit();
    let program = b.build().expect("layerforward program");

    let kernel = Kernel::new(
        program,
        LaunchConfig::linear(tbs, THREADS),
        vec![in_base as u32, w_base as u32, part_base as u32],
    );

    let (input, weights) = (f32s(gmem, in_base, n), f32s(gmem, w_base, n));
    let t = THREADS as usize;
    let expect: Vec<f32> = (0..tbs as usize)
        .map(|blk| {
            let prods: Vec<f32> = (0..t)
                .map(|i| input(blk * t + i) * weights(blk * t + i))
                .collect();
            host_reduce_f32(&prods)
        })
        .collect();
    Built {
        kernel,
        verify: Box::new(move |g| check_f32(g, part_base, &expect, 1e-3, "layerforward.part")),
    }
}

fn build_adjust(gmem: &mut GlobalMem, tbs: u32) -> Built {
    let n = (tbs * THREADS) as usize;
    let w_base = alloc_rand_f32(gmem, n, 0x0B93);
    let delta_base = alloc_rand_f32(gmem, n, 0x0B94);
    let x_base = alloc_rand_f32(gmem, n, 0x0B95);
    let out_base = gmem.alloc(n as u64 * 4);
    const ETA: f32 = 0.3;

    let mut b = ProgramBuilder::new("bpnn_adjust_weights_cuda");
    let gtid = b.reg();
    let addr = b.reg();
    let wv = b.reg();
    let dv = b.reg();
    let xv = b.reg();
    b.global_tid(gtid);
    b.buf_addr(addr, 0, gtid, 0);
    b.ld_global(wv, addr, 0);
    b.buf_addr(addr, 1, gtid, 0);
    b.ld_global(dv, addr, 0);
    b.buf_addr(addr, 2, gtid, 0);
    b.ld_global(xv, addr, 0);
    // w' = w + eta * delta * x
    b.fmul(dv, dv, Src::Reg(xv));
    b.ffma(wv, dv, Src::imm_f32(ETA), Src::Reg(wv));
    b.buf_addr(addr, 3, gtid, 0);
    b.st_global(wv, addr, 0);
    // adjust_weights streams: ~16 registers/thread.
    b.reserve_regs(16);
    b.exit();
    let program = b.build().expect("adjust program");

    let kernel = Kernel::new(
        program,
        LaunchConfig::linear(tbs, THREADS),
        vec![
            w_base as u32,
            delta_base as u32,
            x_base as u32,
            out_base as u32,
        ],
    );

    let (w, delta, x) = (f32s(gmem, w_base, n), f32s(gmem, delta_base, n), f32s(gmem, x_base, n));
    let expect: Vec<f32> = (0..n)
        .map(|i| (delta(i) * x(i)).mul_add(ETA, w(i)))
        .collect();
    Built {
        kernel,
        verify: Box::new(move |g| check_f32(g, out_base, &expect, 1e-5, "adjust.out")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_layerforward() {
        crate::apps::smoke(&LAYERFORWARD, 4);
    }

    #[test]
    fn smoke_adjust_weights() {
        crate::apps::smoke(&ADJUST_WEIGHTS, 4);
    }

    #[test]
    fn layerforward_is_barrier_dense() {
        let mut g = GlobalMem::new(1 << 22);
        let built = build_layerforward(&mut g, 2);
        let m = built.kernel.program.mix();
        assert_eq!(m.barriers, 9, "8 tree steps + final fence");
    }

    #[test]
    fn adjust_is_streaming() {
        let mut g = GlobalMem::new(1 << 24);
        let built = build_adjust(&mut g, 2);
        let m = built.kernel.program.mix();
        assert_eq!(m.barriers, 0);
        assert_eq!(m.global_mem, 4);
        assert_eq!(m.shared_mem, 0);
    }
}
