//! Quickstart: compile an OpenMP kernel, run the paper's optimizations,
//! execute it on the simulated GPU, and inspect what happened.
//!
//! Run with: `cargo run --release -p omp-gpu --example quickstart`

use omp_gpu::{pipeline, BuildConfig, Device, LaunchDims, RtVal};
use std::sync::Arc;

fn main() {
    // A classic CPU-style OpenMP pattern (the paper's Figure 1): a
    // distribute loop whose body computes a per-team value and shares it
    // with a nested parallel region.
    let source = r#"
static double body_weight(long b) {
  return 1.0 + (double)(b % 7) * 0.5;
}
void weighted_fill(double* out, long nblocks, long nthreads) {
  #pragma omp target teams distribute
  for (long b = 0; b < nblocks; b++) {
    double team_val = body_weight(b);
    #pragma omp parallel for
    for (long t = 0; t < nthreads; t++) {
      out[b * nthreads + t] = team_val * (double)(t + 1);
    }
  }
}
"#;

    // Build it twice: once untouched, once with the full LLVM-Dev-style
    // OpenMP optimization pipeline.
    for config in [BuildConfig::NoOpenmpOpt, BuildConfig::LlvmDev] {
        let (module, report) = pipeline::build(source, config).expect("compile");
        let mut dev = Device::new(Arc::new(module), Default::default()).expect("device");
        let (nb, nt) = (8i64, 16i64);
        let out = dev
            .alloc_f64(&vec![0.0; (nb * nt) as usize])
            .expect("alloc");
        let stats = dev
            .launch(
                "weighted_fill",
                &[RtVal::Ptr(out), RtVal::I64(nb), RtVal::I64(nt)],
                LaunchDims {
                    teams: Some(2),
                    threads: Some(16),
                },
            )
            .expect("launch")
            .stats;
        println!("== {} ==", config.label());
        println!("  kernel time : {} cycles", stats.cycles);
        println!("  registers   : {}", stats.registers);
        println!("  shared mem  : {} bytes", stats.shared_mem_bytes);
        println!("  barriers    : {}", stats.barriers);
        if let Some(r) = report {
            println!(
                "  optimizer   : {} h2s, {} h2shared, {} SPMDized, {} folds",
                r.counts.heap_to_stack,
                r.counts.heap_to_shared,
                r.counts.spmdized,
                r.counts.folds_exec_mode
                    + r.counts.folds_parallel_level
                    + r.counts.folds_launch_params,
            );
            for remark in r.remarks.all().iter().take(4) {
                println!("  remark      : {remark}");
            }
        }
        // The results are identical either way — the optimizations only
        // change how fast the GPU gets there.
        let vals = dev.read_f64(out, (nb * nt) as usize).expect("read");
        assert_eq!(vals[17], (1.0 + 1.0 * 0.5) * 2.0);
        println!("  out[17]     : {} (verified)", vals[17]);
        println!();
    }
}
