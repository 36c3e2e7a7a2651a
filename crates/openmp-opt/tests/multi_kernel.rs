//! Modules with several kernels: folding must respect per-kernel
//! reachability ("every kernel reaching a check must agree",
//! Section IV-C), and kernels of different modes coexist.

use omp_frontend::{compile, FrontendOptions};
use omp_gpusim::{Device, LaunchDims, RtVal};
use omp_ir::ExecMode;
use omp_opt::OpenMpOptConfig;
use std::sync::Arc;

const TWO_KERNELS: &str = r#"
static double shared_helper(double v) {
  return v * (double)omp_get_num_threads();
}
void spmd_k(double* out, long n) {
  #pragma omp target teams distribute parallel for thread_limit(8)
  for (long i = 0; i < n; i++) {
    out[i] = shared_helper((double)i);
  }
}
void generic_k(double* out, long n) {
  #pragma omp target teams
  {
    #pragma omp parallel for
    for (long i = 0; i < n; i++) {
      out[i] = shared_helper((double)i) + 100.0;
    }
  }
}
"#;

#[test]
fn shared_helper_blocks_mode_specific_folds() {
    let mut m = compile(TWO_KERNELS, &FrontendOptions::default()).unwrap();
    assert_eq!(m.kernels.len(), 2);
    let report = omp_opt::run(&mut m, &OpenMpOptConfig::default());
    omp_ir::verifier::assert_valid(&m);
    // The generic kernel SPMDizes, after which both kernels are SPMD
    // and mode-dependent folds in the shared helper become legal again
    // on the second folding round. What must NOT happen is folding
    // num_threads to the spmd kernel's thread_limit inside the shared
    // helper, because the generic kernel reaches it with a different
    // team size.
    let _ = report;
    let text = omp_ir::printer::print_module(&m);
    let helper_sec = text
        .split("define")
        .find(|s| s.contains("shared_helper"))
        .unwrap_or("");
    assert!(
        helper_sec.contains("omp_get_num_threads") || !helper_sec.contains("i32 8"),
        "num_threads must not fold to one kernel's thread_limit in shared code"
    );
}

#[test]
fn both_kernels_execute_correctly_after_optimization() {
    let mut m = compile(TWO_KERNELS, &FrontendOptions::default()).unwrap();
    omp_opt::run(&mut m, &OpenMpOptConfig::default());
    let mut dev = Device::new(Arc::new(m), Default::default()).unwrap();
    let n = 8usize;
    let a = dev.alloc_f64(&vec![0.0; n]).unwrap();
    let b = dev.alloc_f64(&vec![0.0; n]).unwrap();
    let dims = LaunchDims {
        teams: Some(1),
        threads: Some(8),
    };
    dev.launch("spmd_k", &[RtVal::Ptr(a), RtVal::I64(n as i64)], dims)
        .unwrap();
    dev.launch("generic_k", &[RtVal::Ptr(b), RtVal::I64(n as i64)], dims)
        .unwrap();
    let va = dev.read_f64(a, n).unwrap();
    let vb = dev.read_f64(b, n).unwrap();
    for i in 0..n {
        assert_eq!(va[i], i as f64 * 8.0, "spmd kernel element {i}");
        assert_eq!(vb[i], i as f64 * 8.0 + 100.0, "generic kernel element {i}");
    }
}

#[test]
fn mixed_modes_block_exec_mode_folding_until_spmdization() {
    // With SPMDization disabled, one generic + one SPMD kernel disagree
    // on the mode, so is_spmd checks in shared code must not fold.
    let src = r#"
static double probe(double v, double* cell) {
  cell[0] = v;
  return cell[0];
}
void spmd_k(double* out, long n) {
  #pragma omp target teams distribute parallel for
  for (long i = 0; i < n; i++) {
    double c = 0.0;
    out[i] = probe((double)i, &c);
  }
}
void generic_k(double* out, long n) {
  #pragma omp target teams distribute
  for (long i = 0; i < n; i++) {
    double c = 0.0;
    out[i] = probe((double)i, &c) + 7.0;
  }
}
"#;
    let cfg = OpenMpOptConfig {
        disable_spmdization: true,
        ..OpenMpOptConfig::default()
    };
    let mut m = compile(src, &FrontendOptions::default()).unwrap();
    let modes: Vec<ExecMode> = m.kernels.iter().map(|k| k.exec_mode).collect();
    assert_eq!(modes, vec![ExecMode::Spmd, ExecMode::Generic]);
    omp_opt::run(&mut m, &cfg);
    omp_ir::verifier::assert_valid(&m);
    // Still one of each after the pipeline (SPMDization disabled).
    let modes: Vec<ExecMode> = m.kernels.iter().map(|k| k.exec_mode).collect();
    assert_eq!(modes, vec![ExecMode::Spmd, ExecMode::Generic]);
}
