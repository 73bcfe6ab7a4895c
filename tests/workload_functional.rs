//! Functional correctness of every Table II workload: each kernel's device
//! results must match its host reference when simulated end to end. Run at
//! small grid sizes on a 2-SM GPU so the whole table stays fast in CI.

use pro_sim::{Gpu, GpuConfig, SchedulerKind, TraceOptions};
use pro_workloads::find;

fn verify(kernel_name: &str, tbs: u32, sched: SchedulerKind) {
    let w = find(kernel_name).unwrap_or_else(|| panic!("unknown kernel {kernel_name}"));
    let mut gpu = Gpu::new(GpuConfig::small(2), 64 << 20);
    let built = (w.build)(&mut gpu.gmem, tbs);
    gpu.launch(&built.kernel, sched, TraceOptions::default())
        .unwrap_or_else(|e| panic!("{kernel_name}: {e}"));
    (built.verify)(&gpu.gmem).unwrap_or_else(|e| panic!("{kernel_name}: {e}"));
}

macro_rules! functional {
    ($test:ident, $kernel:literal, $tbs:literal) => {
        #[test]
        fn $test() {
            verify($kernel, $tbs, SchedulerKind::Pro);
        }
    };
}

functional!(aes_encrypt, "aesEncrypt128", 8);
functional!(bfs_kernel, "kernel", 8);
functional!(cp_cenergy, "cenergy", 8);
functional!(lps_laplace3d, "laplace3d", 8);
functional!(nn_first, "executeFirstLayer", 8);
functional!(nn_second, "executeSecondLayer", 8);
functional!(nn_third, "executeThirdLayer", 8);
functional!(nn_fourth, "executeFourthLayer", 8);
functional!(ray_render, "render", 8);
functional!(sto_sha1, "sha1_overlap", 8);
functional!(backprop_layerforward, "bpnn_layerforward", 8);
functional!(backprop_adjust, "bpnn_adjust_weights_cuda", 8);
functional!(btree_find_range, "findRageK", 8);
functional!(btree_find, "findK", 8);
functional!(hotspot_calculate_temp, "calculate_temp", 8);
functional!(pathfinder_dynproc, "dynproc_kernel", 8);
functional!(conv_rows, "convolutionRowsKernel", 8);
functional!(conv_cols, "convolutionColumnsKernel", 8);
functional!(hist64, "histogram64Kernel", 8);
functional!(merge64, "mergeHistogram64Kernel", 8);
functional!(hist256, "histogram256Kernel", 8);
functional!(merge256, "mergeHistogram256Kernel", 8);
functional!(mc_inverse_cnd, "inverseCNDKernel", 8);
functional!(mc_one_block, "MonteCarloOneBlockPerOption", 8);
functional!(scalarprod, "scalarProdGPU", 8);

#[test]
fn divergent_kernels_verify_under_fuzz_adjacent_schedulers() {
    // The most divergence-sensitive kernels, under every scheduler kind.
    for kernel in ["render", "kernel", "findK"] {
        for sched in SchedulerKind::ALL {
            verify(kernel, 4, sched);
        }
    }
}
