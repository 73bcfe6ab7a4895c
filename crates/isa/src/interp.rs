//! Scalar reference interpreter — an *independent* implementation of VPTX
//! semantics used as a differential oracle for the SIMT simulator.
//!
//! Where the SM executes warps in lockstep with a SIMT reconvergence stack,
//! this interpreter executes one thread at a time with ordinary scalar
//! control flow, pausing threads at barriers and resuming them when all
//! live threads of the block have arrived. For race-free kernels (ours by
//! construction) the two implementations must produce bit-identical global
//! memory — a strong cross-check that divergence handling, barrier
//! semantics and the functional units all agree.
//!
//! Atomics note: threads execute in ascending thread-id order between
//! barriers, so atomic *return values* are deterministic here but may
//! differ from the simulator's warp-issue order when multiple threads RMW
//! the same address. Kernels whose outputs depend on RMW return order are
//! outside the oracle's contract (none of the Table II re-creations or
//! `synth` kernels are).

use crate::exec::{eval_alu, eval_atom, eval_cmp, eval_sfu};
use crate::inst::{Instr, MemSpace, Pc, Special, Src};
use crate::kernel::Kernel;
use crate::WARP_SIZE;

/// Global memory access for the interpreter (implemented by the host's
/// memory type; `pro-isa` stays substrate-free).
pub trait MemoryBackend {
    /// Read the 32-bit word at byte address `addr`.
    fn read_global(&mut self, addr: u32) -> u32;
    /// Write the 32-bit word at byte address `addr`.
    fn write_global(&mut self, addr: u32, value: u32);
}

impl MemoryBackend for Vec<u32> {
    fn read_global(&mut self, addr: u32) -> u32 {
        self[(addr / 4) as usize]
    }
    fn write_global(&mut self, addr: u32, value: u32) {
        self[(addr / 4) as usize] = value;
    }
}

/// Interpreter failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// A thread exceeded the per-thread step budget (runaway loop).
    StepLimit {
        /// Block index.
        block: u32,
        /// Thread index within the block.
        tid: u32,
    },
    /// Threads deadlocked at a barrier (some finished threads can never
    /// arrive and the remaining set never becomes complete).
    BarrierDeadlock {
        /// Block index.
        block: u32,
    },
}

impl std::fmt::Display for InterpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterpError::StepLimit { block, tid } => {
                write!(f, "thread {tid} of block {block} exceeded the step limit")
            }
            InterpError::BarrierDeadlock { block } => {
                write!(f, "block {block} deadlocked at a barrier")
            }
        }
    }
}

impl std::error::Error for InterpError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadState {
    Ready,
    AtBarrier,
    Done,
}

struct Thread {
    pc: Pc,
    regs: Vec<u32>,
    preds: Vec<bool>,
    state: ThreadState,
    steps: u64,
}

/// Execute a full kernel grid against `mem`, block by block, thread by
/// thread. `step_limit` bounds per-thread dynamic instructions.
pub fn run_kernel(
    kernel: &Kernel,
    mem: &mut dyn MemoryBackend,
    step_limit: u64,
) -> Result<(), InterpError> {
    let nctaid = kernel.launch.num_blocks();
    for block in 0..nctaid {
        run_block(kernel, block, mem, step_limit)?;
    }
    Ok(())
}

/// Execute one thread block.
pub(crate) fn run_block(
    kernel: &Kernel,
    block: u32,
    mem: &mut dyn MemoryBackend,
    step_limit: u64,
) -> Result<(), InterpError> {
    let program = &kernel.program;
    let ntid = kernel.launch.threads_per_block();
    let mut shared = vec![0u32; (program.shared_bytes / 4) as usize];
    let mut threads: Vec<Thread> = (0..ntid)
        .map(|_| Thread {
            pc: 0,
            regs: vec![0; program.regs as usize],
            preds: vec![false; program.preds as usize],
            state: ThreadState::Ready,
            steps: 0,
        })
        .collect();

    loop {
        let mut any_ran = false;
        for tid in 0..ntid {
            if threads[tid as usize].state != ThreadState::Ready {
                continue;
            }
            any_ran = true;
            run_thread(
                kernel,
                block,
                tid,
                &mut threads[tid as usize],
                mem,
                &mut shared,
                step_limit,
            )
            .map_err(|_| InterpError::StepLimit { block, tid })?;
        }
        let done = threads
            .iter()
            .filter(|t| t.state == ThreadState::Done)
            .count() as u32;
        if done == ntid {
            return Ok(());
        }
        let at_bar = threads
            .iter()
            .filter(|t| t.state == ThreadState::AtBarrier)
            .count() as u32;
        if done + at_bar == ntid {
            // Barrier satisfied by all live threads: release.
            for t in &mut threads {
                if t.state == ThreadState::AtBarrier {
                    t.state = ThreadState::Ready;
                }
            }
            continue;
        }
        if !any_ran {
            return Err(InterpError::BarrierDeadlock { block });
        }
    }
}

/// Run one thread until it parks at a barrier or exits.
#[allow(clippy::too_many_arguments)]
fn run_thread(
    kernel: &Kernel,
    block: u32,
    tid: u32,
    t: &mut Thread,
    mem: &mut dyn MemoryBackend,
    shared: &mut [u32],
    step_limit: u64,
) -> Result<(), ()> {
    let program = &kernel.program;
    let ntid = kernel.launch.threads_per_block();
    let nctaid = kernel.launch.num_blocks();
    let read = |t: &Thread, src: Src| -> u32 {
        match src {
            Src::Reg(r) => t.regs[r.0 as usize],
            Src::Imm(v) => v,
            Src::Param(i) => kernel.params[i as usize],
            Src::Special(s) => match s {
                Special::Tid => tid,
                Special::Ctaid => block,
                Special::NTid => ntid,
                Special::NCtaid => nctaid,
                Special::LaneId => tid % WARP_SIZE as u32,
                Special::WarpId => tid / WARP_SIZE as u32,
            },
        }
    };
    loop {
        t.steps += 1;
        if t.steps > step_limit {
            return Err(());
        }
        let instr = *program.fetch(t.pc);
        match instr {
            Instr::Alu { op, dst, a, b, c } => {
                let (av, bv, cv) = (read(t, a), read(t, b), read(t, c));
                t.regs[dst.0 as usize] = eval_alu(op, av, bv, cv);
                t.pc += 1;
            }
            Instr::SetP { cmp, ty, dst, a, b } => {
                let v = eval_cmp(cmp, ty, read(t, a), read(t, b));
                t.preds[dst.0 as usize] = v;
                t.pc += 1;
            }
            Instr::SelP { dst, a, b, pred } => {
                t.regs[dst.0 as usize] = if t.preds[pred.0 as usize] {
                    read(t, a)
                } else {
                    read(t, b)
                };
                t.pc += 1;
            }
            Instr::Sfu { op, dst, a } => {
                t.regs[dst.0 as usize] = eval_sfu(op, read(t, a));
                t.pc += 1;
            }
            Instr::Ld {
                space,
                dst,
                addr,
                offset,
            } => {
                let a = t.regs[addr.0 as usize].wrapping_add(offset as u32);
                t.regs[dst.0 as usize] = match space {
                    MemSpace::Global => mem.read_global(a),
                    MemSpace::Shared => shared[(a / 4) as usize],
                };
                t.pc += 1;
            }
            Instr::St {
                space,
                src,
                addr,
                offset,
            } => {
                let a = t.regs[addr.0 as usize].wrapping_add(offset as u32);
                let v = t.regs[src.0 as usize];
                match space {
                    MemSpace::Global => mem.write_global(a, v),
                    MemSpace::Shared => shared[(a / 4) as usize] = v,
                }
                t.pc += 1;
            }
            Instr::Atom { op, dst, addr, src } => {
                let a = t.regs[addr.0 as usize];
                let old = shared[(a / 4) as usize];
                let (new, ret) = eval_atom(op, old, t.regs[src.0 as usize]);
                shared[(a / 4) as usize] = new;
                t.regs[dst.0 as usize] = ret;
                t.pc += 1;
            }
            Instr::Bar { .. } => {
                t.pc += 1;
                t.state = ThreadState::AtBarrier;
                return Ok(());
            }
            Instr::Bra {
                guard,
                target,
                reconv: _,
            } => {
                let taken = match guard {
                    None => true,
                    Some(g) => t.preds[g.pred.0 as usize] == g.expect,
                };
                t.pc = if taken { target } else { t.pc + 1 };
            }
            Instr::Exit => {
                t.state = ThreadState::Done;
                return Ok(());
            }
            Instr::Nop => {
                t.pc += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::inst::{CmpOp, Ty};
    use crate::kernel::LaunchConfig;
    use crate::Kernel;

    fn mem(words: usize) -> Vec<u32> {
        vec![0u32; words]
    }

    #[test]
    fn straight_line_kernel_writes_tids() {
        let mut b = ProgramBuilder::new("t");
        let (g, a) = (b.reg(), b.reg());
        b.global_tid(g);
        b.imad(a, g, Src::Imm(4), Src::Param(0));
        b.st_global(g, a, 0);
        b.exit();
        let k = Kernel::new(b.build().unwrap(), LaunchConfig::linear(2, 64), vec![0]);
        let mut m = mem(128);
        run_kernel(&k, &mut m, 1000).unwrap();
        for (i, &v) in m.iter().enumerate() {
            assert_eq!(v, i as u32);
        }
    }

    #[test]
    fn divergent_loops_per_thread() {
        // out[tid] = sum of 0..tid
        let mut b = ProgramBuilder::new("t");
        let (g, a, acc, i) = (b.reg(), b.reg(), b.reg(), b.reg());
        let p = b.pred();
        b.global_tid(g);
        b.mov(acc, Src::Imm(0));
        b.for_loop(i, Src::Imm(0), g, p, |b, i| {
            b.iadd(acc, acc, Src::Reg(i));
        });
        b.imad(a, g, Src::Imm(4), Src::Param(0));
        b.st_global(acc, a, 0);
        b.exit();
        let k = Kernel::new(b.build().unwrap(), LaunchConfig::linear(1, 32), vec![0]);
        let mut m = mem(32);
        run_kernel(&k, &mut m, 10_000).unwrap();
        for t in 0..32u32 {
            assert_eq!(m[t as usize], (0..t).sum::<u32>(), "tid {t}");
        }
    }

    #[test]
    fn barrier_exchange_between_threads() {
        // shared[tid] = tid*10; bar; out[tid] = shared[(tid+1)%64]
        let mut b = ProgramBuilder::new("t");
        let sh = b.shared_alloc(64 * 4);
        let (tid, a, v, idx) = (b.reg(), b.reg(), b.reg(), b.reg());
        let p = b.pred();
        b.mov(tid, Src::Special(Special::Tid));
        b.imul(v, tid, Src::Imm(10));
        b.imad(a, tid, Src::Imm(4), Src::Imm(sh));
        b.st_shared(v, a, 0);
        b.bar();
        b.iadd(idx, tid, Src::Imm(1));
        b.setp(CmpOp::Ge, Ty::U32, p, idx, Src::Imm(64));
        b.if_then(p, true, |b| {
            b.mov(idx, Src::Imm(0));
        });
        b.imad(a, idx, Src::Imm(4), Src::Imm(sh));
        b.ld_shared(v, a, 0);
        b.imad(a, tid, Src::Imm(4), Src::Param(0));
        b.st_global(v, a, 0);
        b.exit();
        let k = Kernel::new(b.build().unwrap(), LaunchConfig::linear(1, 64), vec![0]);
        let mut m = mem(64);
        run_kernel(&k, &mut m, 10_000).unwrap();
        for (t, &v) in m.iter().enumerate() {
            assert_eq!(v, (((t + 1) % 64) * 10) as u32, "tid {t}");
        }
    }

    #[test]
    fn early_exit_threads_release_barriers() {
        // warp 1 exits before the barrier; warp 0 must still pass it.
        let mut b = ProgramBuilder::new("t");
        let (wid, g, a) = (b.reg(), b.reg(), b.reg());
        let p = b.pred();
        b.mov(wid, Src::Special(Special::WarpId));
        b.setp(CmpOp::Eq, Ty::S32, p, wid, Src::Imm(0));
        b.if_then(p, true, |b| {
            b.bar();
        });
        b.global_tid(g);
        b.imad(a, g, Src::Imm(4), Src::Param(0));
        b.st_global(g, a, 0);
        b.exit();
        let k = Kernel::new(b.build().unwrap(), LaunchConfig::linear(1, 64), vec![0]);
        let mut m = mem(64);
        run_kernel(&k, &mut m, 10_000).unwrap();
        assert_eq!(m[63], 63);
    }

    #[test]
    fn step_limit_catches_runaway() {
        let mut b = ProgramBuilder::new("t");
        let top = b.new_label();
        let l = b.new_label();
        b.place(top);
        b.nop();
        b.place(l);
        b.bra(None, top, l);
        b.exit();
        let k = Kernel::new(b.build().unwrap(), LaunchConfig::linear(1, 32), vec![]);
        let mut m = mem(4);
        let err = run_kernel(&k, &mut m, 100).unwrap_err();
        assert!(matches!(err, InterpError::StepLimit { .. }));
    }

    #[test]
    fn atomics_accumulate_in_tid_order() {
        let mut b = ProgramBuilder::new("t");
        let sh = b.shared_alloc(4);
        let (a, one, old, tid, oa) = (b.reg(), b.reg(), b.reg(), b.reg(), b.reg());
        b.mov(a, Src::Imm(sh));
        b.mov(one, Src::Imm(1));
        b.atom_shared(crate::AtomOp::Add, old, a, one);
        b.bar();
        // thread 0 stores the total
        b.mov(tid, Src::Special(Special::Tid));
        let p = b.pred();
        b.setp(CmpOp::Eq, Ty::S32, p, tid, Src::Imm(0));
        b.if_then(p, true, |b| {
            b.ld_shared(old, a, 0);
            b.mov(oa, Src::Param(0));
            b.st_global(old, oa, 0);
        });
        b.exit();
        let k = Kernel::new(b.build().unwrap(), LaunchConfig::linear(1, 96), vec![0]);
        let mut m = mem(4);
        run_kernel(&k, &mut m, 10_000).unwrap();
        assert_eq!(m[0], 96);
    }
}
