//! histogram (CUDA SDK) — four kernels: `histogram64Kernel` (4370 TBs),
//! `mergeHistogram64Kernel` (64), `histogram256Kernel` (240),
//! `mergeHistogram256Kernel` (256).
//!
//! Character of the originals: the per-block kernels stream data with
//! coalesced loads and accumulate into **shared-memory atomic** bins (bank
//! conflicts and RMW serialization depend on the data), flushing partials
//! behind barriers; the merge kernels read the partial histograms with a
//! *bin-strided* (poorly coalesced) pattern and tree-reduce them. The
//! paper's largest GTO win (mergeHistogram64Kernel; its size is a row of
//! `pro_bench::paper::CLAIMS`) comes from this family.
//!
//! The VPTX re-creations keep that structure: LCG-free data-dependent bin
//! selection, shared `atom.add` accumulation, barrier-fenced flush, and
//! strided merge with the shared tree reduction.

use crate::common::{
    alloc_rand_f32, alloc_rand_u32, check_f32, check_u32, emit_reduce_f32, f32s, host_reduce_f32,
};
use crate::{Built, Workload};
use pro_isa::{AtomOp, CmpOp, Kernel, LaunchConfig, ProgramBuilder, Special, Src, Ty};
use pro_mem::GlobalMem;

/// Partial histograms consumed by the merge kernels.
const MERGE_INPUTS: usize = 128;
/// Samples accumulated per thread in the binning kernels.
const SAMPLES: usize = 8;

/// Table II row 19.
pub const HIST64: Workload = Workload {
    app: "histogram",
    kernel: "histogram64Kernel",
    table2_tbs: 4370,
    threads_per_tb: 64,
    build: |g, t| build_hist(g, t, 64, 2, 0x4151, "histogram64Kernel"),
};

/// Table II row 20.
pub const MERGE64: Workload = Workload {
    app: "histogram",
    kernel: "mergeHistogram64Kernel",
    table2_tbs: 64,
    threads_per_tb: 64,
    build: |g, t| build_merge(g, t, 64, 0x4152, "mergeHistogram64Kernel"),
};

/// Table II row 21.
pub const HIST256: Workload = Workload {
    app: "histogram",
    kernel: "histogram256Kernel",
    table2_tbs: 240,
    threads_per_tb: 256,
    build: |g, t| build_hist(g, t, 256, 3, 0x4153, "histogram256Kernel"),
};

/// Table II row 22.
pub const MERGE256: Workload = Workload {
    app: "histogram",
    kernel: "mergeHistogram256Kernel",
    table2_tbs: 256,
    threads_per_tb: 256,
    build: |g, t| build_merge(g, t, 256, 0x4154, "mergeHistogram256Kernel"),
};

/// Binning kernel: `threads == bins` so thread `tid` owns bin `tid` during
/// init and flush. `shift` positions the bin field in the sample word.
fn build_hist(
    gmem: &mut GlobalMem,
    tbs: u32,
    bins: u32,
    shift: u32,
    seed: u64,
    name: &'static str,
) -> Built {
    let threads = bins;
    let n = (tbs * threads) as usize;
    let data_base = alloc_rand_u32(gmem, n * SAMPLES, u32::MAX, seed);
    let part_base = gmem.alloc(tbs as u64 * bins as u64 * 4);

    let mut b = ProgramBuilder::new(name);
    let sh = b.shared_alloc(bins * 4);
    let gtid = b.reg();
    let tid = b.reg();
    let addr = b.reg();
    let d = b.reg();
    let bin = b.reg();
    let one = b.reg();
    let old = b.reg();
    let idx = b.reg();
    b.global_tid(gtid);
    b.mov(tid, Src::Special(Special::Tid));
    // init: sh[tid] = 0
    b.mov(d, Src::Imm(0));
    b.imad(addr, tid, Src::Imm(4), Src::Imm(sh));
    b.st_shared(d, addr, 0);
    b.bar();
    b.mov(one, Src::Imm(1));
    for k in 0..SAMPLES {
        b.iadd(idx, gtid, Src::Imm((k * n) as u32));
        b.buf_addr(addr, 0, idx, 0);
        b.ld_global(d, addr, 0);
        b.shr(bin, d, Src::Imm(shift));
        b.and(bin, bin, Src::Imm(bins - 1));
        b.imad(addr, bin, Src::Imm(4), Src::Imm(sh));
        b.atom_shared(AtomOp::Add, old, addr, one);
    }
    b.bar();
    // flush: partial[ctaid*bins + tid] = sh[tid]
    b.imad(addr, tid, Src::Imm(4), Src::Imm(sh));
    b.ld_shared(d, addr, 0);
    b.mov(idx, Src::Special(Special::Ctaid));
    b.imad(idx, idx, Src::Imm(bins), Src::Reg(tid));
    b.buf_addr(addr, 1, idx, 0);
    b.st_global(d, addr, 0);
    // binning kernels: ~16 registers/thread.
    b.reserve_regs(16);
    b.exit();
    let program = b.build().expect("histogram program");

    let kernel = Kernel::new(
        program,
        LaunchConfig::linear(tbs, threads),
        vec![data_base as u32, part_base as u32],
    );

    let data = gmem.words(data_base, n * SAMPLES);
    let expect: Vec<u32> = {
        let mut out = vec![0u32; (tbs * bins) as usize];
        for blk in 0..tbs as usize {
            for t in 0..threads as usize {
                let g = blk * threads as usize + t;
                for k in 0..SAMPLES {
                    let d = data[k * n + g];
                    let bin = ((d >> shift) & (bins - 1)) as usize;
                    out[blk * bins as usize + bin] += 1;
                }
            }
        }
        out
    };
    Built {
        kernel,
        verify: Box::new(move |g| check_u32(g, part_base, &expect, "histogram.partial")),
    }
}

/// Merge kernel: one TB per bin sums that bin across `MERGE_INPUTS` partial
/// histograms with a bin-strided access pattern, then tree-reduces.
fn build_merge(
    gmem: &mut GlobalMem,
    tbs: u32,
    bins: u32,
    seed: u64,
    name: &'static str,
) -> Built {
    let threads = bins; // one thread per input chunk; power of two
    let part_base = alloc_rand_f32(gmem, MERGE_INPUTS * bins as usize, seed);
    let out_base = gmem.alloc(tbs as u64 * 4);

    let mut b = ProgramBuilder::new(name);
    let sh = b.shared_alloc(threads * 4);
    let tid = b.reg();
    let cta = b.reg();
    let addr = b.reg();
    let acc = b.reg();
    let v = b.reg();
    let idx = b.reg();
    let tmp = b.reg();
    let p = b.pred();
    b.mov(tid, Src::Special(Special::Tid));
    b.mov(cta, Src::Special(Special::Ctaid));
    b.alu(pro_isa::AluOp::Mov, acc, Src::imm_f32(0.0), Src::Imm(0), Src::Imm(0));
    // acc = Σ over i ∈ {tid, tid+threads, ...} < MERGE_INPUTS of
    // partials[i*bins + cta] — stride `bins` words between lanes: scattered.
    let rounds = MERGE_INPUTS / threads as usize;
    for r in 0..rounds.max(1) {
        let i_off = (r as u32) * threads;
        if (i_off as usize) >= MERGE_INPUTS {
            break;
        }
        b.iadd(idx, tid, Src::Imm(i_off));
        b.imad(idx, idx, Src::Imm(bins), Src::Reg(cta));
        b.buf_addr(addr, 0, idx, 0);
        b.ld_global(v, addr, 0);
        b.fadd(acc, acc, Src::Reg(v));
    }
    b.imad(addr, tid, Src::Imm(4), Src::Imm(sh));
    b.st_shared(acc, addr, 0);
    emit_reduce_f32(&mut b, sh, threads, tid, addr, v, tmp, p);
    b.setp(CmpOp::Eq, Ty::S32, p, tid, Src::Imm(0));
    b.if_then(p, true, |b| {
        b.mov(addr, Src::Imm(sh));
        b.ld_shared(v, addr, 0);
        b.buf_addr(addr, 1, cta, 0);
        b.st_global(v, addr, 0);
    });
    b.reserve_regs(16);
    b.exit();
    let program = b.build().expect("merge program");

    let kernel = Kernel::new(
        program,
        LaunchConfig::linear(tbs, threads),
        vec![part_base as u32, out_base as u32],
    );

    let partials = f32s(gmem, part_base, MERGE_INPUTS * bins as usize);
    let bins_us = bins as usize;
    let threads_us = threads as usize;
    let expect: Vec<f32> = (0..tbs as usize)
        .map(|cta| {
            let bin = cta % bins_us;
            let per_thread: Vec<f32> = (0..threads_us)
                .map(|t| {
                    let mut acc = 0.0f32;
                    let mut i = t;
                    while i < MERGE_INPUTS {
                        acc += partials(i * bins_us + bin);
                        i += threads_us;
                    }
                    acc
                })
                .collect();
            host_reduce_f32(&per_thread)
        })
        .collect();
    Built {
        kernel,
        verify: Box::new(move |g| check_f32(g, out_base, &expect, 1e-3, "merge.out")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_hist64() {
        crate::apps::smoke(&HIST64, 6);
    }

    #[test]
    fn smoke_merge64() {
        crate::apps::smoke(&MERGE64, 8);
    }

    #[test]
    fn smoke_hist256() {
        crate::apps::smoke(&HIST256, 4);
    }

    #[test]
    fn smoke_merge256() {
        crate::apps::smoke(&MERGE256, 8);
    }

    #[test]
    fn binning_kernels_use_shared_atomics() {
        let mut g = GlobalMem::new(1 << 24);
        let built = (HIST64.build)(&mut g, 2);
        let m = built.kernel.program.mix();
        assert!(m.shared_mem >= SAMPLES + 2, "atomics + init + flush: {m:?}");
        assert_eq!(m.barriers, 2);
    }
}
