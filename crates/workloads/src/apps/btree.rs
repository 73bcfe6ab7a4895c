//! b+tree (Rodinia) — `findRangeK` (6000 TBs) and `findK` (10000 TBs),
//! 256 threads/TB.
//!
//! Character of the originals: thousands of concurrent key lookups walking
//! a B+-tree: every level is a *dependent*, scattered load (the next node
//! address comes from the previous load) with key-comparison divergence.
//! Memory-latency bound with poor locality; no barriers. `findK` walks one
//! level deeper than `findRangeK` and launches a larger grid.
//!
//! The VPTX re-creation: a binary-search walk over an implicit tree stored
//! as a key array; per level: dependent scattered load, compare, select
//! child (`selp`), mask into range.

use crate::common::{alloc_rand_u32, check_u32};
use crate::{Built, Workload};
use pro_isa::{CmpOp, Kernel, LaunchConfig, ProgramBuilder, Src, Ty};
use pro_mem::GlobalMem;

const THREADS: u32 = 256;
/// Key array size (power of two).
const KEYS: usize = 1 << 17;

/// Table II row 13.
pub const FIND_RANGE_K: Workload = Workload {
    app: "b+tree",
    kernel: "findRageK", // (sic) — Table II spells it findRageK
    table2_tbs: 6000,
    threads_per_tb: THREADS,
    build: |g, t| build_find(g, t, 4, 0x0B71, "findRageK"),
};

/// Table II row 14.
pub const FIND_K: Workload = Workload {
    app: "b+tree",
    kernel: "findK",
    table2_tbs: 10000,
    threads_per_tb: THREADS,
    build: |g, t| build_find(g, t, 5, 0x0B72, "findK"),
};

fn build_find(
    gmem: &mut GlobalMem,
    tbs: u32,
    levels: usize,
    seed: u64,
    name: &'static str,
) -> Built {
    let n = (tbs * THREADS) as usize;
    let keys_base = alloc_rand_u32(gmem, KEYS, u32::MAX, seed);
    let query_base = alloc_rand_u32(gmem, n, u32::MAX, seed ^ 0xFF);
    let out_base = gmem.alloc(n as u64 * 4);

    let mut b = ProgramBuilder::new(name);
    let gtid = b.reg();
    let addr = b.reg();
    let q = b.reg();
    let idx = b.reg();
    let k = b.reg();
    let left = b.reg();
    let right = b.reg();
    let p = b.pred();
    b.global_tid(gtid);
    b.buf_addr(addr, 1, gtid, 0);
    b.ld_global(q, addr, 0);
    b.mov(idx, Src::Imm(0));
    for _ in 0..levels {
        // k = keys[idx & (KEYS-1)] — dependent scattered load.
        b.and(idx, idx, Src::Imm((KEYS - 1) as u32));
        b.buf_addr(addr, 0, idx, 0);
        b.ld_global(k, addr, 0);
        // child = q < k ? 2*idx+1 : 2*idx+2, with key mixed in to scatter.
        b.setp(CmpOp::Lt, Ty::U32, p, q, Src::Reg(k));
        b.imad(left, idx, Src::Imm(2), Src::Imm(1));
        b.imad(right, idx, Src::Imm(2), Src::Imm(2));
        b.selp(idx, left, right, p);
        b.xor(idx, idx, Src::Reg(k));
    }
    b.and(idx, idx, Src::Imm((KEYS - 1) as u32));
    b.buf_addr(addr, 2, gtid, 0);
    b.st_global(idx, addr, 0);
    // tree walks are lean: ~16 registers/thread.
    b.reserve_regs(16);
    b.exit();
    let program = b.build().expect("btree program");

    let kernel = Kernel::new(
        program,
        LaunchConfig::linear(tbs, THREADS),
        vec![keys_base as u32, query_base as u32, out_base as u32],
    );

    let (keys, queries) = (gmem.words(keys_base, KEYS), gmem.words(query_base, n));
    let expect: Vec<u32> = (0..n)
        .map(|g| {
            let q = queries[g];
            let mut idx = 0u32;
            for _ in 0..levels {
                idx &= (KEYS - 1) as u32;
                let k = keys[idx as usize];
                idx = if q < k { 2 * idx + 1 } else { 2 * idx + 2 };
                idx ^= k;
            }
            idx & (KEYS - 1) as u32
        })
        .collect();
    Built {
        kernel,
        verify: Box::new(move |g| check_u32(g, out_base, &expect, "btree.out")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_find_range_k() {
        crate::apps::smoke(&FIND_RANGE_K, 4);
    }

    #[test]
    fn smoke_find_k() {
        crate::apps::smoke(&FIND_K, 4);
    }

    #[test]
    fn find_k_is_one_level_deeper() {
        let mut g = GlobalMem::new(1 << 24);
        let a = (FIND_RANGE_K.build)(&mut g, 2);
        let c = (FIND_K.build)(&mut g, 2);
        assert_eq!(
            c.kernel.program.mix().global_mem,
            a.kernel.program.mix().global_mem + 1
        );
    }
}
