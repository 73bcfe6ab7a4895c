//! Shared kernel-construction idioms and host-side reference helpers used
//! by the Table II workload modules.

use pro_core::rng::SplitMix64;
use pro_isa::{CmpOp, Pred, ProgramBuilder, Reg, Src, Ty};
use pro_mem::GlobalMem;

/// Deterministic RNG for workload input data (fixed seed per kernel so
/// every run is reproducible).
pub(crate) fn rng(seed: u64) -> SplitMix64 {
    SplitMix64::new(seed)
}

/// Allocate a buffer of `n` random f32 values in (0, 1], generated in
/// place in device memory; returns its base address.
pub(crate) fn alloc_rand_f32(gmem: &mut GlobalMem, n: usize, seed: u64) -> u64 {
    let mut r = rng(seed);
    gmem.alloc_with(n, |_| r.gen_range(0.001f32..1.0).to_bits())
}

/// Allocate a buffer of `n` random u32 values below `bound`, generated in
/// place in device memory; returns its base address.
pub(crate) fn alloc_rand_u32(gmem: &mut GlobalMem, n: usize, bound: u32, seed: u64) -> u64 {
    let mut r = rng(seed);
    gmem.alloc_with(n, |_| r.gen_range(0..bound))
}

/// The `n` f32 values at `base`, read where the kernel reads them: element
/// `i` is `f32s(gmem, base, n)(i)`. Host references take their inputs from
/// device memory through this (or [`GlobalMem::words`]) at build time.
pub(crate) fn f32s(gmem: &GlobalMem, base: u64, n: usize) -> impl Fn(usize) -> f32 + '_ {
    let words = gmem.words(base, n);
    move |i| f32::from_bits(words[i])
}

/// The Numerical-Recipes LCG step used by kernels that need in-kernel
/// pseudo-random indices (BFS neighbours, RAY bounce counts). Host
/// reference for [`emit_lcg`].
#[inline]
pub(crate) fn lcg(x: u32) -> u32 {
    x.wrapping_mul(1664525).wrapping_add(1013904223)
}

/// Emit `dst = lcg(src)` (one IMAD).
pub(crate) fn emit_lcg(b: &mut ProgramBuilder, dst: Reg, src: Reg) {
    b.imad(dst, src, Src::Imm(1664525), Src::Imm(1013904223));
}

/// Emit a shared-memory tree reduction over `threads` per-thread f32 values
/// already stored at `sh_base + tid*4`. After the final barrier, thread 0
/// holds the block total in shared\[sh_base\] (and in `scratch`). `threads`
/// must be a power of two. This is the canonical CUDA reduction idiom
/// (scalarProd, MonteCarlo, backprop) — each halving step is one barrier
/// plus a guarded region only the low half of the block executes, which is
/// exactly the "warps waiting at barrier" pattern PRO targets.
#[allow(clippy::too_many_arguments)] // register bundle for the emitted idiom
pub(crate) fn emit_reduce_f32(
    b: &mut ProgramBuilder,
    sh_base: u32,
    threads: u32,
    tid: Reg,
    addr: Reg,
    scratch: Reg,
    tmp: Reg,
    p: Pred,
) {
    assert!(threads.is_power_of_two());
    let mut stride = threads / 2;
    while stride >= 1 {
        b.bar();
        b.setp(CmpOp::Lt, Ty::S32, p, tid, Src::Imm(stride));
        b.if_then(p, true, |b| {
            // scratch = sh[tid] + sh[tid+stride]; sh[tid] = scratch
            b.imad(addr, tid, Src::Imm(4), Src::Imm(sh_base));
            b.ld_shared(scratch, addr, 0);
            b.ld_shared(tmp, addr, (stride * 4) as i32);
            b.fadd(scratch, scratch, tmp);
            b.st_shared(scratch, addr, 0);
        });
        stride /= 2;
    }
    b.bar();
}

/// Host reference of [`emit_reduce_f32`]: the exact pairwise reduction
/// order (matters for f32 associativity).
pub(crate) fn host_reduce_f32(values: &[f32]) -> f32 {
    let mut v = values.to_vec();
    let mut stride = v.len() / 2;
    while stride >= 1 {
        for i in 0..stride {
            v[i] += v[i + stride];
        }
        stride /= 2;
    }
    v[0]
}

/// Compare two f32 buffers with a relative tolerance, reporting the first
/// mismatch. `got` is read from device memory at `base`.
pub(crate) fn check_f32(
    gmem: &GlobalMem,
    base: u64,
    expect: &[f32],
    tol: f32,
    what: &str,
) -> Result<(), String> {
    for (i, &e) in expect.iter().enumerate() {
        let g = gmem.read_f32(base + i as u64 * 4);
        let err = (g - e).abs();
        let bound = tol * e.abs().max(1.0);
        // Negated form deliberately catches NaN results as failures.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(err <= bound) {
            return Err(format!("{what}[{i}]: got {g}, expected {e} (tol {bound})"));
        }
    }
    Ok(())
}

/// Compare a u32 buffer exactly.
pub(crate) fn check_u32(
    gmem: &GlobalMem,
    base: u64,
    expect: &[u32],
    what: &str,
) -> Result<(), String> {
    for (i, &e) in expect.iter().enumerate() {
        let g = gmem.read(base + i as u64 * 4);
        if g != e {
            return Err(format!("{what}[{i}]: got {g}, expected {e}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lcg_matches_reference_constants() {
        assert_eq!(lcg(0), 1013904223);
        assert_eq!(lcg(1), 1664525u32.wrapping_add(1013904223));
        assert_eq!(lcg(lcg(0)), lcg(1013904223));
    }

    #[test]
    fn host_reduce_matches_sum_for_powers_of_two() {
        let v: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let r = host_reduce_f32(&v);
        assert_eq!(r, (0..64).sum::<i32>() as f32);
    }

    #[test]
    fn rand_buffers_are_deterministic() {
        let mut g1 = GlobalMem::new(1 << 16);
        let mut g2 = GlobalMem::new(1 << 16);
        let a = alloc_rand_f32(&mut g1, 100, 7);
        let b = alloc_rand_f32(&mut g2, 100, 7);
        assert_eq!(g1.words(a, 100), g2.words(b, 100));
        let c = alloc_rand_f32(&mut g2, 100, 8);
        assert_ne!(g1.words(a, 100), g2.words(c, 100));
    }
}
