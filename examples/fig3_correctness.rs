//! The paper's Figure 3 correctness story: sharing a local variable
//! across threads requires globalization. The legacy (LLVM 12) scheme
//! skipped it in SPMD mode — a miscompilation this simulator makes
//! visible as a cross-thread local-memory trap.
//!
//! Run with: `cargo run --release -p omp-gpu --example fig3_correctness`

use omp_gpu::{compile, Device, FrontendOptions, LaunchDims, RtVal};
use std::sync::Arc;

const SRC: &str = r#"
void share(double* out, long nthreads) {
  #pragma omp target teams
  {
    double team_val = 7.5;
    #pragma omp parallel for
    for (long t = 0; t < nthreads; t++) {
      out[t] = team_val; // worker threads read main's local
    }
  }
}
"#;

fn main() {
    // Correct build: the frontend globalizes team_val.
    let m = compile(SRC, &FrontendOptions::default()).unwrap();
    let mut dev = Device::new(Arc::new(m), Default::default()).unwrap();
    let out = dev.alloc_f64(&[0.0; 8]).unwrap();
    dev.launch(
        "share",
        &[RtVal::Ptr(out), RtVal::I64(8)],
        LaunchDims {
            teams: Some(1),
            threads: Some(8),
        },
    )
    .unwrap();
    println!(
        "globalized build: out = {:?}",
        dev.read_f64(out, 8).unwrap()
    );

    // Unsound build (-fopenmp-cuda-mode): team_val stays on the stack;
    // worker threads touch another thread's local memory and trap.
    let opts = FrontendOptions {
        cuda_mode: true,
        ..FrontendOptions::default()
    };
    let m = compile(SRC, &opts).unwrap();
    let mut dev = Device::new(Arc::new(m), Default::default()).unwrap();
    let out = dev.alloc_f64(&[0.0; 8]).unwrap();
    let err = dev
        .launch(
            "share",
            &[RtVal::Ptr(out), RtVal::I64(8)],
            LaunchDims {
                teams: Some(1),
                threads: Some(8),
            },
        )
        .unwrap_err();
    println!("cuda-mode build:  {err}");
    println!("\nThe middle-end HeapToStack/HeapToShared optimizations give the");
    println!("performance of -fopenmp-cuda-mode without sacrificing correctness.");
}
