//! AES `aesEncrypt128` (GPGPU-Sim suite) — 257 TBs × 256 threads.
//!
//! Character of the original: each thread encrypts a 128-bit block using
//! S-box/T-table lookups held in shared memory. The kernel is dominated by
//! integer ALU work and *shared-memory loads with data-dependent bank
//! conflicts*; global traffic is one coalesced load and one coalesced store
//! per thread, plus the cooperative table load guarded by a single barrier.
//!
//! The VPTX re-creation: a 256-entry T-table is cooperatively staged into
//! shared memory (one word per thread, one barrier), then each thread runs
//! 40 "rounds" of `s = lcg(s ^ T[s & 255])` — a data-dependent shared
//! lookup plus integer mixing per round — and stores the result.

use crate::common::{alloc_rand_u32, check_u32, lcg};
use crate::{Built, Workload};
use pro_isa::{Kernel, LaunchConfig, ProgramBuilder, Src};
use pro_mem::GlobalMem;

const THREADS: u32 = 256;
const ROUNDS: usize = 40;

/// Table II row 1.
pub const WORKLOAD: Workload = Workload {
    app: "AES",
    kernel: "aesEncrypt128",
    table2_tbs: 257,
    threads_per_tb: THREADS,
    build,
};

fn build(gmem: &mut GlobalMem, tbs: u32) -> Built {
    let n = (tbs * THREADS) as usize;
    let table_base = alloc_rand_u32(gmem, 256, u32::MAX, 0xAE51);
    let in_base = alloc_rand_u32(gmem, n, u32::MAX, 0xAE52);
    let out_base = gmem.alloc(n as u64 * 4);

    let mut b = ProgramBuilder::new("aesEncrypt128");
    let sh = b.shared_alloc(256 * 4);
    let gtid = b.reg();
    let tid = b.reg();
    let addr = b.reg();
    let s = b.reg();
    let t = b.reg();
    let idx = b.reg();
    b.global_tid(gtid);
    b.mov(tid, Src::Special(pro_isa::Special::Tid));
    // Cooperative T-table load: thread tid stages T[tid].
    b.buf_addr(addr, 0, tid, 0);
    b.ld_global(t, addr, 0);
    b.imad(addr, tid, Src::Imm(4), Src::Imm(sh));
    b.st_shared(t, addr, 0);
    b.bar();
    // s = input[gtid]
    b.buf_addr(addr, 1, gtid, 0);
    b.ld_global(s, addr, 0);
    // 40 rounds of table mixing.
    for _ in 0..ROUNDS {
        b.and(idx, s, Src::Imm(255));
        b.imad(addr, idx, Src::Imm(4), Src::Imm(sh));
        b.ld_shared(t, addr, 0);
        b.xor(s, s, Src::Reg(t));
        crate::common::emit_lcg(&mut b, s, s);
    }
    // output[gtid] = s
    b.buf_addr(addr, 2, gtid, 0);
    b.st_global(s, addr, 0);
    // Fermi aesEncrypt128 compiles to ~28 registers/thread.
    b.reserve_regs(28);
    b.exit();
    let program = b.build().expect("aes program");

    let kernel = Kernel::new(
        program,
        LaunchConfig::linear(tbs, THREADS),
        vec![table_base as u32, in_base as u32, out_base as u32],
    );

    let table = gmem.words(table_base, 256);
    let expect: Vec<u32> = gmem
        .words(in_base, n)
        .iter()
        .map(|&x| {
            let mut s = x;
            for _ in 0..ROUNDS {
                s = lcg(s ^ table[(s & 255) as usize]);
            }
            s
        })
        .collect();
    Built {
        kernel,
        verify: Box::new(move |g| check_u32(g, out_base, &expect, "aes.out")),
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
    fn instruction_mix_is_shared_heavy() {
        let mut g = GlobalMem::new(1 << 22);
        let built = build(&mut g, 2);
        let m = built.kernel.program.mix();
        assert!(m.shared_mem >= 10, "per-round shared lookups: {m:?}");
        assert_eq!(m.barriers, 1);
        assert_eq!(m.global_mem, 3, "table + in + out");
        assert!(m.alu > m.global_mem * 4, "ALU dominated: {m:?}");
    }
}
