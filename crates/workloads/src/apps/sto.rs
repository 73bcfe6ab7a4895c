//! STO `sha1_overlap` (GPGPU-Sim suite, StoreGPU) — 384 TBs × 128 threads.
//!
//! Character of the original: SHA-1 hashing of overlapping file windows —
//! long straight-line integer rounds (rotates, xors, adds) on data loaded
//! once per thread; negligible memory traffic afterwards, no barriers, no
//! divergence. A pure integer-ALU latency workload.
//!
//! The VPTX re-creation: each thread loads 4 coalesced message words and
//! runs 40 SHA-like rounds (rotate-by-5 via shl/shr/or, xor mixing,
//! wrapping adds), storing the final digest word.

use crate::common::{alloc_rand_u32, check_u32};
use crate::{Built, Workload};
use pro_isa::{Kernel, LaunchConfig, ProgramBuilder, Src};
use pro_mem::GlobalMem;

const THREADS: u32 = 128;
const ROUNDS: usize = 40;

/// Table II row 10.
pub const WORKLOAD: Workload = Workload {
    app: "STO",
    kernel: "sha1_overlap",
    table2_tbs: 384,
    threads_per_tb: THREADS,
    build,
};

fn build(gmem: &mut GlobalMem, tbs: u32) -> Built {
    let n = (tbs * THREADS) as usize;
    let msg_base = alloc_rand_u32(gmem, n * 4, u32::MAX, 0x5701);
    let out_base = gmem.alloc(n as u64 * 4);

    let mut b = ProgramBuilder::new("sha1_overlap");
    let gtid = b.reg();
    let addr = b.reg();
    let a = b.reg();
    let bb = b.reg();
    let c = b.reg();
    let d = b.reg();
    let t1 = b.reg();
    let t2 = b.reg();
    let idx = b.reg();
    b.global_tid(gtid);
    // Load 4 message words: msg[k*n + gtid], coalesced.
    for (k, dst) in [(0u32, a), (1, bb), (2, c), (3, d)] {
        b.iadd(idx, gtid, Src::Imm(k * n as u32));
        b.buf_addr(addr, 0, idx, 0);
        b.ld_global(dst, addr, 0);
    }
    for _ in 0..ROUNDS {
        // t1 = rotl(a, 5) = (a << 5) | (a >> 27)
        b.shl(t1, a, Src::Imm(5));
        b.shr(t2, a, Src::Imm(27));
        b.or(t1, t1, Src::Reg(t2));
        // t2 = b ^ c ^ d
        b.xor(t2, bb, Src::Reg(c));
        b.xor(t2, t2, Src::Reg(d));
        // t1 = t1 + t2 + 0x5A827999
        b.iadd(t1, t1, Src::Reg(t2));
        b.iadd(t1, t1, Src::Imm(0x5A82_7999));
        // rotate state: d=c, c=rotl(b,30), b=a, a=t1
        b.mov(d, Src::Reg(c));
        b.shl(c, bb, Src::Imm(30));
        b.shr(t2, bb, Src::Imm(2));
        b.or(c, c, Src::Reg(t2));
        b.mov(bb, Src::Reg(a));
        b.mov(a, Src::Reg(t1));
    }
    b.buf_addr(addr, 1, gtid, 0);
    b.st_global(a, addr, 0);
    // sha1 keeps the five-word state + schedule: ~32 regs.
    b.reserve_regs(32);
    b.exit();
    let program = b.build().expect("sto program");

    let kernel = Kernel::new(
        program,
        LaunchConfig::linear(tbs, THREADS),
        vec![msg_base as u32, out_base as u32],
    );

    let msg = gmem.words(msg_base, n * 4);
    let expect: Vec<u32> = (0..n)
        .map(|g| {
            let mut a = msg[g];
            let mut bb = msg[n + g];
            let mut c = msg[2 * n + g];
            let mut d = msg[3 * n + g];
            for _ in 0..ROUNDS {
                let t1 = a
                    .rotate_left(5)
                    .wrapping_add(bb ^ c ^ d)
                    .wrapping_add(0x5A82_7999);
                d = c;
                c = bb.rotate_left(30);
                bb = a;
                a = t1;
            }
            a
        })
        .collect();
    Built {
        kernel,
        verify: Box::new(move |g| check_u32(g, out_base, &expect, "sto.out")),
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
    fn mix_is_pure_integer() {
        let mut g = GlobalMem::new(1 << 22);
        let built = build(&mut g, 2);
        let m = built.kernel.program.mix();
        assert_eq!(m.global_mem, 5, "4 loads + 1 store");
        assert_eq!(m.sfu, 0);
        assert_eq!(m.barriers, 0);
        assert!(m.alu > ROUNDS * 8, "long integer rounds: {m:?}");
    }
}
