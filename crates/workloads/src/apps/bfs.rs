//! BFS `kernel` (GPGPU-Sim suite) — 256 TBs × 256 threads.
//!
//! Character of the original: one thread per graph node; only frontier
//! nodes do work (heavy control divergence), and active threads chase
//! neighbour indices through *data-dependent, scattered* global loads with
//! terrible coalescing and high cache-miss rates. No barriers.
//!
//! The VPTX re-creation: a random ~30% of threads are "frontier" (guarded
//! region); each active thread performs 4 dependent pseudo-random global
//! loads (LCG-generated indices) and xors them into its output.

use crate::common::{alloc_rand_u32, check_u32, lcg};
use crate::{Built, Workload};
use pro_isa::{CmpOp, Kernel, LaunchConfig, ProgramBuilder, Src, Ty};
use pro_mem::GlobalMem;

const THREADS: u32 = 256;
const HOPS: usize = 4;
/// Size of the scattered-access table (power of two for mask indexing).
const TABLE: usize = 1 << 16;

/// Table II row 2.
pub const WORKLOAD: Workload = Workload {
    app: "BFS",
    kernel: "kernel",
    table2_tbs: 256,
    threads_per_tb: THREADS,
    build,
};

fn build(gmem: &mut GlobalMem, tbs: u32) -> Built {
    let n = (tbs * THREADS) as usize;
    let graph_base = alloc_rand_u32(gmem, TABLE, u32::MAX, 0xBF51);
    let front_base = alloc_rand_u32(gmem, n, 10, 0xBF52); // <3 → ~30% active
    let out_base = gmem.alloc(n as u64 * 4);

    let mut b = ProgramBuilder::new("kernel");
    let gtid = b.reg();
    let addr = b.reg();
    let flag = b.reg();
    let acc = b.reg();
    let x = b.reg();
    let idx = b.reg();
    let v = b.reg();
    let p = b.pred();
    b.global_tid(gtid);
    b.buf_addr(addr, 1, gtid, 0);
    b.ld_global(flag, addr, 0);
    b.mov(acc, Src::Imm(0));
    b.setp(CmpOp::Lt, Ty::U32, p, flag, Src::Imm(3));
    b.if_then(p, true, |b| {
        b.mov(x, Src::Reg(gtid));
        for _ in 0..HOPS {
            crate::common::emit_lcg(b, x, x);
            b.shr(idx, x, Src::Imm(8));
            b.and(idx, idx, Src::Imm((TABLE - 1) as u32));
            b.buf_addr(addr, 0, idx, 0);
            b.ld_global(v, addr, 0);
            b.xor(acc, acc, Src::Reg(v));
            b.xor(x, x, Src::Reg(v));
        }
    });
    b.buf_addr(addr, 2, gtid, 0);
    b.st_global(acc, addr, 0);
    // BFS kernel is small: ~12 registers/thread.
    b.reserve_regs(12);
    b.exit();
    let program = b.build().expect("bfs program");

    let kernel = Kernel::new(
        program,
        LaunchConfig::linear(tbs, THREADS),
        vec![graph_base as u32, front_base as u32, out_base as u32],
    );

    let (graph, frontier) = (gmem.words(graph_base, TABLE), gmem.words(front_base, n));
    let expect: Vec<u32> = (0..n as u32)
        .map(|gtid| {
            if frontier[gtid as usize] < 3 {
                let mut acc = 0u32;
                let mut x = gtid;
                for _ in 0..HOPS {
                    x = lcg(x);
                    let idx = ((x >> 8) as usize) & (TABLE - 1);
                    let v = graph[idx];
                    acc ^= v;
                    x ^= v;
                }
                acc
            } else {
                0
            }
        })
        .collect();
    Built {
        kernel,
        verify: Box::new(move |g| check_u32(g, out_base, &expect, "bfs.out")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_small_grid() {
        crate::apps::smoke(&WORKLOAD, 6);
    }

    #[test]
    fn mix_is_memory_divergent() {
        let mut g = GlobalMem::new(1 << 22);
        let built = build(&mut g, 2);
        let m = built.kernel.program.mix();
        assert_eq!(m.global_mem, HOPS + 2, "hops + flag + out");
        assert_eq!(m.barriers, 0);
        assert!(m.ctrl >= 2, "guarded frontier region diverges: {m:?}");
    }
}
