//! Regenerates the paper's Figure 10: cumulative GPU kernel execution
//! time, shared memory and register usage per benchmark and compiler.
//!
//! Usage: `cargo run --release -p omp-bench --bin fig10 [--scale small]`

use omp_bench::{args, collect, fmt_cycles};
use omp_gpu::BuildConfig;

fn main() {
    let scale = args().scale;
    println!("Figure 10: kernel time, shared memory and register usage");
    println!();
    for pr in collect(scale) {
        println!("{}:", pr.name);
        println!(
            "  {:<44} {:>14} {:>12} {:>8}",
            "Build", "Time (cycles)", "SMem (KB)", "# Regs"
        );
        for o in &pr.outcomes {
            let relevant = matches!(
                o.config,
                BuildConfig::CudaStyle | BuildConfig::Llvm12Baseline | BuildConfig::LlvmDev
            );
            if !relevant {
                continue;
            }
            match &o.stats {
                Some(s) => println!(
                    "  {:<44} {:>14} {:>12.3} {:>8}",
                    o.config.label(),
                    fmt_cycles(s.cycles),
                    s.shared_mem_bytes as f64 / 1024.0,
                    s.registers
                ),
                None => println!("  {:<44} {:>14}", o.config.label(), o.failure()),
            }
        }
        println!();
    }
    println!("Paper (Fig. 10, seconds/KB/regs on a V100):");
    println!("  RSBench:  CUDA 1.95s/0.043/30   LLVM12 26.59s/1.0/154   Dev 1.99s/2.4/255");
    println!("  XSBench:  CUDA 0.35s/0.047/32   LLVM12 0.75s/1.0/144    Dev 0.49s/2.4/170");
    println!("  SU3Bench: CUDA 0.081s/0/26      LLVM12 2.6s/1.1/70      Dev 0.29s/0.035/40");
    println!("  miniQMC:                        LLVM12 0.24s/1.1/254    Dev 0.11s/0.47/196");
}
