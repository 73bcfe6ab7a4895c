//! Kernel launch descriptors: a [`Program`] plus its grid configuration and
//! parameter values — the equivalent of CUDA's `kernel<<<grid, block>>>(args)`.

use crate::program::Program;
use crate::WARP_SIZE;
use std::sync::Arc;

/// Flattened launch dimensions. The paper's workloads only need the total
/// counts, so grids/blocks are linearized (CUDA's 3-D indices flatten the
/// same way in hardware).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dim3 {
    /// X extent.
    pub x: u32,
    /// Y extent.
    pub y: u32,
    /// Z extent.
    pub z: u32,
}

impl Dim3 {
    /// 1-D dimension.
    pub(crate) fn linear(x: u32) -> Self {
        Dim3 { x, y: 1, z: 1 }
    }
    /// Total element count.
    pub(crate) fn count(&self) -> u32 {
        self.x * self.y * self.z
    }
}

/// Grid configuration for one kernel launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Number of thread blocks in the grid.
    pub grid: Dim3,
    /// Number of threads per block.
    pub block: Dim3,
}

impl LaunchConfig {
    /// 1-D launch: `blocks` thread blocks of `threads` threads.
    pub fn linear(blocks: u32, threads: u32) -> Self {
        LaunchConfig {
            grid: Dim3::linear(blocks),
            block: Dim3::linear(threads),
        }
    }

    /// Total thread blocks.
    pub fn num_blocks(&self) -> u32 {
        self.grid.count()
    }

    /// Threads per block.
    pub fn threads_per_block(&self) -> u32 {
        self.block.count()
    }

    /// Warps per block (rounded up; a trailing partial warp has inactive
    /// lanes, as in CUDA).
    pub fn warps_per_block(&self) -> u32 {
        self.threads_per_block().div_ceil(WARP_SIZE as u32)
    }
}

/// A launchable kernel: program, launch configuration and parameter bank.
///
/// Parameters are 32-bit words; by convention the workloads pass global
/// buffer *base byte addresses* and scalar sizes, just as CUDA kernels
/// receive pointers and ints.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// The program to execute (shared; many TBs run the same code).
    pub program: Arc<Program>,
    /// Grid/block configuration.
    pub launch: LaunchConfig,
    /// Kernel parameter words (constant bank).
    pub params: Vec<u32>,
}

impl Kernel {
    /// Construct a kernel launch.
    pub fn new(program: Program, launch: LaunchConfig, params: Vec<u32>) -> Self {
        Kernel {
            program: Arc::new(program),
            launch,
            params,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Instr;

    fn prog(regs: u8, shared: u32) -> Program {
        Program::new("k", vec![Instr::Exit], regs, 1, shared).unwrap()
    }

    #[test]
    fn warps_per_block_rounds_up() {
        assert_eq!(LaunchConfig::linear(1, 32).warps_per_block(), 1);
        assert_eq!(LaunchConfig::linear(1, 33).warps_per_block(), 2);
        assert_eq!(LaunchConfig::linear(1, 256).warps_per_block(), 8);
        assert_eq!(LaunchConfig::linear(1, 1).warps_per_block(), 1);
    }

    #[test]
    fn resource_footprints() {
        let k = Kernel::new(prog(20, 4096), LaunchConfig::linear(10, 128), vec![]);
        assert_eq!(k.launch.num_blocks(), 10);
    }

    #[test]
    fn dim3_counts() {
        let d = Dim3 { x: 4, y: 3, z: 2 };
        assert_eq!(d.count(), 24);
        assert_eq!(Dim3::linear(7).count(), 7);
    }
}
