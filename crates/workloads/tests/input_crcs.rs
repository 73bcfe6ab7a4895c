//! Every Table II kernel's inputs, pinned: the CRC-32 of device memory's
//! `GlobalMem::save` encoding (the used prefix plus the allocator cursor) right
//! after the kernel is built at `Scale::default()`. The builders generate
//! their inputs in place, straight into device memory; these values were
//! recorded when each input was generated into a host `Vec` and copied in,
//! so a match says the bytes are the ones the host copies held.

use pro_core::codec::{crc32, Writer};
use pro_mem::GlobalMem;
use pro_workloads::{registry, Scale};

/// In `registry()` (Table II) order.
const INPUT_CRC: [(&str, u32); 25] = [
    ("aesEncrypt128", 0x3991_2B0B),
    ("kernel", 0x9C25_1379),
    ("cenergy", 0xC093_C3BB),
    ("laplace3d", 0x4B2C_6759),
    ("executeFirstLayer", 0xD62F_809F),
    ("executeSecondLayer", 0xD7E8_5726),
    ("executeThirdLayer", 0x6655_CEB7),
    ("executeFourthLayer", 0x3F8B_918B),
    ("render", 0x709A_D579),
    ("sha1_overlap", 0x9686_57BF),
    ("bpnn_layerforward", 0x1C5B_F6B4),
    ("bpnn_adjust_weights_cuda", 0x9017_1854),
    ("findRageK", 0x9BDA_DF7C),
    ("findK", 0xBFDE_3E39),
    ("calculate_temp", 0xE073_1483),
    ("dynproc_kernel", 0xF226_E97B),
    ("convolutionRowsKernel", 0x3F96_A825),
    ("convolutionColumnsKernel", 0xC444_EC29),
    ("histogram64Kernel", 0xB85B_9B7A),
    ("mergeHistogram64Kernel", 0x63D2_D20D),
    ("histogram256Kernel", 0xE3B2_1350),
    ("mergeHistogram256Kernel", 0xD5A8_F355),
    ("inverseCNDKernel", 0xF747_9A1B),
    ("MonteCarloOneBlockPerOption", 0xAC4A_63B8),
    ("scalarProdGPU", 0xC6A1_BAA1),
];

#[test]
fn every_kernel_builds_the_inputs_it_always_built() {
    let scale = Scale::default();
    let mut moved = Vec::new();
    for (w, (kernel, want)) in registry().into_iter().zip(INPUT_CRC) {
        assert_eq!(w.kernel, kernel, "registry order");
        let mut gmem = GlobalMem::new(w.recommended_gmem(scale));
        let _built = w.build_scaled(&mut gmem, scale);
        let mut enc = Writer::new();
        gmem.save(&mut enc);
        let got = crc32(&enc.into_bytes());
        if got != want {
            moved.push(format!("(\"{kernel}\", {got:#010X}),"));
        }
    }
    assert!(moved.is_empty(), "input bytes moved:\n{}", moved.join("\n"));
}
