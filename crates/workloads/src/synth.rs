//! Parametric synthetic kernel generator.
//!
//! Produces random — but always valid, terminating and *race-free* — VPTX
//! kernels from a seed plus knobs for the workload axes of DESIGN.md §6
//! (memory intensity, coalescing, divergence, barriers, SFU usage). Two
//! uses:
//!
//! 1. **Equivalence fuzzing**: because generated kernels only write to
//!    thread-private locations (and shared memory only in barrier-fenced
//!    tid-slots), their final memory state is independent of the warp
//!    scheduler; integration tests run thousands of random kernels under
//!    every policy and demand bit-identical results.
//! 2. **Workload-space sweeps**: benches can scan a knob (e.g. barrier
//!    density) and observe how each scheduler's advantage moves, beyond
//!    the paper's fixed 25 kernels.

use crate::common::{check_u32, rng};
use crate::RunError;
use pro_core::rng::SplitMix64;
use pro_isa::interp::run_kernel;
use pro_isa::{AtomOp, CmpOp, Kernel, LaunchConfig, ProgramBuilder, Reg, SfuOp, Special, Src, Ty};
use pro_mem::GlobalMem;
use pro_sim::{Gpu, GpuConfig, RunResult, SimError};

/// Knobs for the generator. All probabilities are in `0.0..=1.0`.
#[derive(Debug, Clone, Copy)]
pub struct SynthParams {
    /// RNG seed; same seed + knobs → identical kernel.
    pub seed: u64,
    /// Thread blocks in the grid.
    pub blocks: u32,
    /// Threads per block (rounded up to a warp multiple ≤ 512).
    pub threads: u32,
    /// Number of top-level statements.
    pub statements: u32,
    /// Probability a statement is a global memory operation.
    pub mem_prob: f64,
    /// Probability a global load is scattered rather than coalesced.
    pub scatter_prob: f64,
    /// Probability a statement is a barrier-fenced shared-memory exchange.
    pub barrier_prob: f64,
    /// Probability a statement is an SFU op.
    pub sfu_prob: f64,
    /// Probability a statement is a divergent `if`/`if-else` region.
    pub branch_prob: f64,
    /// Probability a statement is a loop (possibly with per-lane bounds).
    pub loop_prob: f64,
    /// Maximum loop trip count.
    pub max_trip: u32,
}

impl Default for SynthParams {
    fn default() -> Self {
        SynthParams {
            seed: 0,
            blocks: 16,
            threads: 128,
            statements: 12,
            mem_prob: 0.3,
            scatter_prob: 0.3,
            barrier_prob: 0.15,
            sfu_prob: 0.1,
            branch_prob: 0.2,
            loop_prob: 0.15,
            max_trip: 8,
        }
    }
}

/// Size of the read-only scratch table generated kernels load from.
const TABLE_WORDS: usize = 1 << 12;

/// A generated kernel bound to its buffers. The `out_base`/`out_len` pair
/// is the thread-private result region tests snapshot to compare
/// schedulers.
pub struct SynthKernel {
    /// The launchable kernel.
    pub kernel: Kernel,
    /// Base byte address of the per-thread output buffer.
    pub out_base: u64,
    /// Output length in words (one per thread).
    pub out_len: usize,
}

/// Threads per block as launched (a warp multiple ≤ 512), and threads in
/// the grid.
fn geometry(p: &SynthParams) -> (u32, usize) {
    let threads = p.threads.clamp(1, 512).div_ceil(32) * 32;
    (threads, (p.blocks * threads) as usize)
}

/// Instructions one thread may execute before the reference interpreter
/// calls the kernel runaway (a generated thread executes a few hundred).
const ORACLE_STEP_LIMIT: u64 = 5_000_000;

/// The one way to run a generated kernel: [`generate`] it in the memory of
/// a fresh `cfg` GPU, compute what its thread-private output region must
/// hold with the scalar interpreter ([`pro_isa::interp`], which shares no
/// code with the SIMT model) from a copy of that memory, let `launch` run
/// the kernel on the GPU, and compare. No counters come back from a launch
/// that failed or computed the wrong thing.
pub fn run(
    cfg: GpuConfig,
    p: SynthParams,
    launch: impl FnOnce(&mut Gpu, &Kernel) -> Result<RunResult, SimError>,
) -> Result<RunResult, RunError> {
    // The table and the output region, each a whole number of the
    // allocator's 256-byte units.
    let bytes = (TABLE_WORDS as u64 * 4 + geometry(&p).1 as u64 * 4).next_multiple_of(256);
    let mut gpu = Gpu::new(cfg, bytes);
    let k = generate(&mut gpu.gmem, p);
    let out = (k.out_base / 4) as usize;
    // The output region is the last buffer: everything below its end.
    let mut host = gpu.gmem.read_slice(0, out + k.out_len);
    run_kernel(&k.kernel, &mut host, ORACLE_STEP_LIMIT)
        .map_err(|e| RunError::WrongResult(format!("reference interpreter: {e}")))?;
    let result = launch(&mut gpu, &k.kernel)?;
    check_u32(&gpu.gmem, k.out_base, &host[out..], "output").map_err(RunError::WrongResult)?;
    Ok(result)
}

/// Generate a kernel. Allocates its buffers from `gmem`.
pub fn generate(gmem: &mut GlobalMem, p: SynthParams) -> SynthKernel {
    let mut r = rng(p.seed ^ 0x5EED_CAFE);
    let (threads, n) = geometry(&p);

    let table_base = gmem.alloc_with(TABLE_WORDS, |_| r.next_u32());
    let out_base = gmem.alloc(n as u64 * 4);

    let mut b = ProgramBuilder::new(format!("synth_{:08x}", p.seed));
    let sh = b.shared_alloc(threads * 4);
    let gtid = b.reg();
    let tid = b.reg();
    let addr = b.reg();
    let acc = b.reg();
    let tmp = b.reg();
    let idx = b.reg();
    let facc = b.reg();
    let pr = b.pred();
    b.global_tid(gtid);
    b.mov(tid, Src::Special(Special::Tid));
    b.mov(acc, Src::Reg(gtid));
    b.alu(
        pro_isa::AluOp::Mov,
        facc,
        Src::imm_f32(1.0),
        Src::Imm(0),
        Src::Imm(0),
    );

    // Emit one random race-free statement.
    #[allow(clippy::too_many_arguments)] // generator context bundle
    fn statement(
        b: &mut ProgramBuilder,
        r: &mut SplitMix64,
        p: &SynthParams,
        regs: (Reg, Reg, Reg, Reg, Reg, Reg, Reg),
        pr: pro_isa::Pred,
        sh: u32,
        threads: u32,
        table_base: u64,
        depth: u32,
    ) {
        let (gtid, tid, addr, acc, tmp, idx, facc) = regs;
        let roll = r.gen_f64();
        let mut cum = p.mem_prob;
        if roll < cum {
            // Global load: coalesced (acc-indexed per thread but mixed into
            // a table slot) or scattered.
            if r.gen_bool(p.scatter_prob) {
                crate::common::emit_lcg(b, idx, acc);
                b.shr(idx, idx, Src::Imm(6));
            } else {
                b.mov(idx, Src::Reg(gtid));
            }
            b.and(idx, idx, Src::Imm((TABLE_WORDS - 1) as u32));
            b.imad(addr, idx, Src::Imm(4), Src::Imm(table_base as u32));
            b.ld_global(tmp, addr, 0);
            b.xor(acc, acc, Src::Reg(tmp));
            return;
        }
        cum += p.barrier_prob;
        if roll < cum && depth == 0 {
            // Barrier-fenced shared exchange: write own slot, sync, read a
            // rotated slot (race-free: slot ownership is exclusive between
            // barriers).
            let rot = r.gen_range(1..threads);
            b.imad(addr, tid, Src::Imm(4), Src::Imm(sh));
            b.st_shared(acc, addr, 0);
            b.bar();
            b.iadd(idx, tid, Src::Imm(rot));
            // idx %= threads (threads is a power-of-32 multiple, not
            // necessarily pow2 — use conditional subtract).
            b.setp(CmpOp::Ge, Ty::U32, pr, idx, Src::Imm(threads));
            b.isub(tmp, idx, Src::Imm(threads));
            b.selp(idx, tmp, idx, pr);
            b.imad(addr, idx, Src::Imm(4), Src::Imm(sh));
            b.ld_shared(tmp, addr, 0);
            b.iadd(acc, acc, Src::Reg(tmp));
            b.bar();
            if r.gen_bool(0.3) {
                // Shared atomic into the thread's own slot (still private).
                b.imad(addr, tid, Src::Imm(4), Src::Imm(sh));
                b.atom_shared(AtomOp::Add, tmp, addr, acc);
            }
            return;
        }
        cum += p.sfu_prob;
        if roll < cum {
            let op = match r.gen_range(0..4) {
                0 => SfuOp::Rsqrt,
                1 => SfuOp::Sqrt,
                2 => SfuOp::Sin,
                _ => SfuOp::Exp2,
            };
            // Keep the argument in a sane positive range.
            b.and(tmp, acc, Src::Imm(0xFF));
            b.iadd(tmp, tmp, Src::Imm(1));
            b.i2f(tmp, tmp);
            b.sfu(op, tmp, tmp);
            b.fadd(facc, facc, Src::Reg(tmp));
            b.alu(pro_isa::AluOp::F2I, tmp, Src::Reg(facc), Src::Imm(0), Src::Imm(0));
            b.xor(acc, acc, Src::Reg(tmp));
            return;
        }
        cum += p.branch_prob;
        if roll < cum && depth < 2 {
            let pivot = r.gen_range(1..32u32);
            b.and(tmp, gtid, Src::Imm(31));
            b.setp(CmpOp::Lt, Ty::U32, pr, tmp, Src::Imm(pivot));
            let else_too = r.gen_bool(0.5);
            let seed_a = r.next_u64();
            let seed_b = r.next_u64();
            if else_too {
                b.if_else(
                    pr,
                    |b| {
                        let mut r2 = rng(seed_a);
                        statement(b, &mut r2, p, regs, pr, sh, threads, table_base, depth + 1);
                    },
                    |b| {
                        let mut r2 = rng(seed_b);
                        statement(b, &mut r2, p, regs, pr, sh, threads, table_base, depth + 1);
                    },
                );
            } else {
                b.if_then(pr, true, |b| {
                    let mut r2 = rng(seed_a);
                    statement(b, &mut r2, p, regs, pr, sh, threads, table_base, depth + 1);
                });
            }
            return;
        }
        cum += p.loop_prob;
        if roll < cum && depth < 2 {
            // Loop with either uniform or per-lane (divergent) bound.
            let divergent = r.gen_bool(0.5);
            let trips = r.gen_range(1..p.max_trip + 1);
            let body_seed = r.next_u64();
            let bound = idx;
            if divergent {
                b.and(bound, gtid, Src::Imm(7));
                b.iadd(bound, bound, Src::Imm(trips));
            } else {
                b.mov(bound, Src::Imm(trips));
            }
            b.for_loop(tmp, Src::Imm(0), bound, pr, |b, i| {
                let mut r2 = rng(body_seed);
                // Loop bodies stick to pure ALU + optional load to bound
                // runtime; reuse tmp-free registers.
                b.imad(acc, acc, Src::Imm(1664525), Src::Reg(i));
                if r2.gen_bool(p.mem_prob) {
                    b.and(addr, acc, Src::Imm((TABLE_WORDS - 1) as u32));
                    b.imad(addr, addr, Src::Imm(4), Src::Imm(table_base as u32));
                    b.ld_global(addr, addr, 0);
                    b.xor(acc, acc, Src::Reg(addr));
                }
            });
            return;
        }
        // Default: integer/float ALU mixing.
        match r.gen_range(0..4) {
            0 => {
                b.imad(acc, acc, Src::Imm(2654435761), Src::Imm(0x9E37_79B9));
            }
            1 => {
                b.shl(tmp, acc, Src::Imm(13));
                b.xor(acc, acc, Src::Reg(tmp));
            }
            2 => {
                b.i2f(tmp, tid);
                b.ffma(facc, facc, Src::imm_f32(1.0009765), Src::Reg(tmp));
            }
            _ => {
                b.iadd(acc, acc, Src::Reg(tid));
            }
        }
    }

    for _ in 0..p.statements {
        statement(
            &mut b,
            &mut r,
            &p,
            (gtid, tid, addr, acc, tmp, idx, facc),
            pr,
            sh,
            threads,
            table_base,
            0,
        );
    }
    // out[gtid] = acc ^ f2i(facc)
    b.alu(pro_isa::AluOp::F2I, tmp, Src::Reg(facc), Src::Imm(0), Src::Imm(0));
    b.xor(acc, acc, Src::Reg(tmp));
    b.buf_addr(addr, 0, gtid, 0);
    b.st_global(acc, addr, 0);
    b.exit();
    let program = b.build().expect("synth program valid");

    SynthKernel {
        kernel: Kernel::new(
            program,
            LaunchConfig::linear(p.blocks, threads),
            vec![out_base as u32],
        ),
        out_base,
        out_len: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_program() {
        let mut g1 = GlobalMem::new(1 << 22);
        let mut g2 = GlobalMem::new(1 << 22);
        let a = generate(&mut g1, SynthParams::default());
        let b = generate(&mut g2, SynthParams::default());
        assert_eq!(a.kernel.program.instrs, b.kernel.program.instrs);
    }

    #[test]
    fn different_seeds_differ() {
        let mut g = GlobalMem::new(1 << 22);
        let a = generate(&mut g, SynthParams::default());
        let b = generate(
            &mut g,
            SynthParams {
                seed: 1,
                ..Default::default()
            },
        );
        assert_ne!(a.kernel.program.instrs, b.kernel.program.instrs);
    }

    #[test]
    fn generated_programs_validate_across_seeds() {
        for seed in 0..50 {
            let mut g = GlobalMem::new(1 << 22);
            let k = generate(
                &mut g,
                SynthParams {
                    seed,
                    ..Default::default()
                },
            );
            k.kernel.program.validate().unwrap();
        }
    }

    #[test]
    fn knobs_move_the_instruction_mix() {
        let mut g = GlobalMem::new(1 << 23);
        let memmy = generate(
            &mut g,
            SynthParams {
                seed: 7,
                mem_prob: 0.9,
                barrier_prob: 0.0,
                sfu_prob: 0.0,
                branch_prob: 0.0,
                loop_prob: 0.0,
                ..Default::default()
            },
        );
        let barry = generate(
            &mut g,
            SynthParams {
                seed: 7,
                mem_prob: 0.0,
                barrier_prob: 0.9,
                sfu_prob: 0.0,
                branch_prob: 0.0,
                loop_prob: 0.0,
                ..Default::default()
            },
        );
        let mm = memmy.kernel.program.mix();
        let mb = barry.kernel.program.mix();
        assert!(mm.global_mem > mb.global_mem);
        assert!(mb.barriers > mm.barriers);
    }

    fn pro(gpu: &mut Gpu, kernel: &Kernel) -> Result<RunResult, SimError> {
        gpu.launch(kernel, pro_sim::SchedulerKind::Pro, Default::default())
    }

    #[test]
    fn generated_kernel_runs_and_terminates() {
        let r = run(GpuConfig::small(2), SynthParams::default(), pro).unwrap();
        assert!(r.cycles > 0);
    }

    #[test]
    fn an_output_word_the_interpreter_did_not_compute_is_refused() {
        let err = run(GpuConfig::small(2), SynthParams::default(), |gpu, kernel| {
            let r = pro(gpu, kernel)?;
            // Thread 5's slot of the output region (kernel parameter 0).
            let slot = kernel.params[0] as u64 + 5 * 4;
            gpu.gmem.write(slot, !gpu.gmem.read(slot));
            Ok(r)
        })
        .unwrap_err();
        let RunError::WrongResult(why) = err else { panic!("{err:?}") };
        assert!(why.starts_with("output[5]: "), "{why}");
    }
}
