//! End-to-end: source → IR → OpenMP optimizations → simulated GPU.
//!
//! The central soundness property (which the paper claims and we can
//! actually check): every optimization configuration computes the same
//! results, and the full pipeline is faster than no pipeline.

use omp_frontend::{compile, FrontendOptions, GlobalizationScheme};
use omp_gpusim::{Device, DeviceConfig, LaunchDims, RtVal};
use omp_ir::ExecMode;
use omp_opt::OpenMpOptConfig;
use std::sync::Arc;

const FIG1_LIKE: &str = r#"
static double compute(long seed) {
  return (double)(seed * 7 % 13) + 0.5;
}
void kern(double* out, long nblocks, long nthreads) {
  #pragma omp target teams distribute
  for (long b = 0; b < nblocks; b++) {
    double team_val = compute(b);
    #pragma omp parallel for
    for (long t = 0; t < nthreads; t++) {
      double thread_val = compute(t);
      out[b * nthreads + t] = team_val * 100.0 + thread_val;
    }
  }
}
"#;

fn compile_opt(src: &str, cfg: &OpenMpOptConfig) -> (Arc<omp_ir::Module>, omp_opt::OptReport) {
    let mut m = compile(src, &FrontendOptions::default()).unwrap();
    omp_ir::verifier::assert_valid(&m);
    let report = omp_opt::run(&mut m, cfg);
    omp_ir::verifier::assert_valid(&m);
    (Arc::new(m), report)
}

fn run_fig1(m: &Arc<omp_ir::Module>) -> (Vec<f64>, omp_gpusim::KernelStats) {
    let (nb, nt) = (6i64, 8i64);
    let mut dev = Device::new(Arc::clone(m), DeviceConfig::default()).unwrap();
    let out = dev.alloc_f64(&vec![0.0; (nb * nt) as usize]).unwrap();
    let stats = dev
        .launch(
            "kern",
            &[RtVal::Ptr(out), RtVal::I64(nb), RtVal::I64(nt)],
            LaunchDims {
                teams: Some(2),
                threads: Some(8),
            },
        )
        .unwrap()
        .stats;
    (dev.read_f64(out, (nb * nt) as usize).unwrap(), stats)
}

#[test]
fn all_configurations_compute_identical_results() {
    let configs = [
        ("disabled", OpenMpOptConfig::all_disabled()),
        ("default", OpenMpOptConfig::default()),
        (
            "no-spmd",
            OpenMpOptConfig {
                disable_spmdization: true,
                ..OpenMpOptConfig::default()
            },
        ),
        (
            "no-deglob",
            OpenMpOptConfig {
                disable_deglobalization: true,
                ..OpenMpOptConfig::default()
            },
        ),
        (
            "no-fold",
            OpenMpOptConfig {
                disable_folding: true,
                ..OpenMpOptConfig::default()
            },
        ),
        (
            "no-csm",
            OpenMpOptConfig {
                disable_state_machine_rewrite: true,
                disable_spmdization: true,
                ..OpenMpOptConfig::default()
            },
        ),
        (
            "no-capture-chase",
            OpenMpOptConfig {
                spmd_capture_heap_to_stack: false,
                ..OpenMpOptConfig::default()
            },
        ),
    ];
    let (reference, _) = run_fig1(&compile_opt(FIG1_LIKE, &OpenMpOptConfig::all_disabled()).0);
    for (name, cfg) in configs {
        let (m, _) = compile_opt(FIG1_LIKE, &cfg);
        let (vals, _) = run_fig1(&m);
        assert_eq!(vals, reference, "configuration `{name}` changed results");
    }
    // Legacy frontend too.
    let mut m = compile(
        FIG1_LIKE,
        &FrontendOptions {
            globalization: GlobalizationScheme::Legacy,
            ..FrontendOptions::default()
        },
    )
    .unwrap();
    omp_passes::run_pipeline(&mut m);
    let (vals, _) = run_fig1(&Arc::new(m));
    assert_eq!(vals, reference, "legacy frontend changed results");
}

#[test]
fn full_pipeline_is_faster_and_spmdizes() {
    let (m_off, _) = compile_opt(FIG1_LIKE, &OpenMpOptConfig::all_disabled());
    let (m_on, report) = compile_opt(FIG1_LIKE, &OpenMpOptConfig::default());
    assert_eq!(report.counts.spmdized, 1);
    assert_eq!(m_on.kernels[0].exec_mode, ExecMode::Spmd);
    let (_, s_off) = run_fig1(&m_off);
    let (_, s_on) = run_fig1(&m_on);
    assert!(
        s_on.cycles * 2 < s_off.cycles,
        "expected at least 2x: {} vs {}",
        s_on.cycles,
        s_off.cycles
    );
    // No runtime globalization calls remain.
    assert_eq!(
        s_on.globalization_allocs, 0,
        "h2s should remove allocations"
    );
    // The worker state machine is gone: no generic dispatches.
    assert_eq!(s_on.parallel_regions, 0);
}

#[test]
fn csm_alone_removes_indirect_calls() {
    let cfg = OpenMpOptConfig {
        disable_spmdization: true,
        ..OpenMpOptConfig::default()
    };
    let (m, report) = compile_opt(FIG1_LIKE, &cfg);
    assert_eq!(report.counts.spmdized, 0);
    assert_eq!(report.counts.csm_rewritten, 1);
    let (_, stats) = run_fig1(&m);
    assert_eq!(stats.indirect_calls, 0, "cascade should dispatch directly");
    // Register count benefits from the eliminated function pointers.
    let (m_nocsm, _) = compile_opt(
        FIG1_LIKE,
        &OpenMpOptConfig {
            disable_spmdization: true,
            disable_state_machine_rewrite: true,
            ..OpenMpOptConfig::default()
        },
    );
    let (_, s_nocsm) = run_fig1(&m_nocsm);
    assert!(s_nocsm.indirect_calls > 0);
    assert!(
        stats.registers < s_nocsm.registers,
        "CSM should reduce the register estimate ({} vs {})",
        stats.registers,
        s_nocsm.registers
    );
}

#[test]
fn spmdization_beats_csm_for_light_regions() {
    let csm_only = OpenMpOptConfig {
        disable_spmdization: true,
        ..OpenMpOptConfig::default()
    };
    let (m_csm, _) = compile_opt(FIG1_LIKE, &csm_only);
    let (m_full, _) = compile_opt(FIG1_LIKE, &OpenMpOptConfig::default());
    let (_, s_csm) = run_fig1(&m_csm);
    let (_, s_full) = run_fig1(&m_full);
    assert!(
        s_full.cycles < s_csm.cycles,
        "SPMDization ({}) should beat CSM ({})",
        s_full.cycles,
        s_csm.cycles
    );
}

#[test]
fn remarks_tell_the_fig8_story() {
    // Paper Figure 8: a device function whose Arg escapes into an
    // unknown callee gets OMP112 (data sharing) while Lcl gets OMP110
    // (moved to stack).
    let src = r#"
void unknown(float* p);
double combine(float* a, noescape double* b) {
  unknown(a);
  return (double)*a + *b;
}
void kern(double* out, long n) {
  #pragma omp target teams distribute
  for (long b = 0; b < n; b++) {
    float arg = (float)b;
    double lcl = 1.5;
    out[b] = combine(&arg, &lcl);
  }
}
"#;
    let (_, report) = compile_opt(src, &OpenMpOptConfig::default());
    use omp_opt::remarks::ids;
    assert!(
        report.remarks.count(ids::MOVED_TO_STACK) >= 1,
        "{:#?}",
        report.remarks
    );
    assert!(
        report.remarks.count(ids::DATA_SHARING_REMAINS) >= 1
            || report.remarks.count(ids::MOVED_TO_SHARED) >= 1
    );
    let text: Vec<String> = report.remarks.all().iter().map(|r| r.to_string()).collect();
    assert!(text.iter().any(|t| t.contains("[OMP110]")));
}

#[test]
fn spmd_source_kernels_get_init_fold_and_no_worker_machinery() {
    let src = r#"
void axpy(double* x, double* y, double a, long n) {
  #pragma omp target teams distribute parallel for thread_limit(32)
  for (long i = 0; i < n; i++) { y[i] = a * x[i] + y[i]; }
}
"#;
    let (m, report) = compile_opt(src, &OpenMpOptConfig::default());
    assert!(report.counts.folds_exec_mode >= 1, "{:?}", report.counts);
    assert!(report.counts.folds_launch_params >= 1);
    let mut dev = Device::new(Arc::clone(&m), DeviceConfig::default()).unwrap();
    let n = 64usize;
    let x = dev.alloc_f64(&vec![1.0; n]).unwrap();
    let y = dev.alloc_f64(&vec![2.0; n]).unwrap();
    let stats = dev
        .launch(
            "axpy",
            &[
                RtVal::Ptr(x),
                RtVal::Ptr(y),
                RtVal::F64(3.0),
                RtVal::I64(n as i64),
            ],
            LaunchDims {
                teams: Some(2),
                threads: Some(32),
            },
        )
        .unwrap()
        .stats;
    assert_eq!(dev.read_f64(y, n).unwrap(), vec![5.0; n]);
    assert_eq!(stats.indirect_calls, 0);
}

#[test]
fn guarded_side_effects_execute_exactly_once() {
    // After SPMDization, main-thread stores must not be replicated.
    let src = r#"
void kern(long* counter, double* out, long nb, long nt) {
  #pragma omp target teams distribute
  for (long b = 0; b < nb; b++) {
    counter[b] = counter[b] + 1; // guarded side effect
    #pragma omp parallel for
    for (long t = 0; t < nt; t++) {
      out[b * nt + t] = (double)counter[b];
    }
  }
}
"#;
    let (m, report) = compile_opt(src, &OpenMpOptConfig::default());
    assert_eq!(report.counts.spmdized, 1);
    assert!(report.counts.guard_regions >= 1);
    let (nb, nt) = (4i64, 8i64);
    let mut dev = Device::new(Arc::clone(&m), DeviceConfig::default()).unwrap();
    let counter = dev.alloc_i64(&vec![0; nb as usize]).unwrap();
    let out = dev.alloc_f64(&vec![0.0; (nb * nt) as usize]).unwrap();
    dev.launch(
        "kern",
        &[
            RtVal::Ptr(counter),
            RtVal::Ptr(out),
            RtVal::I64(nb),
            RtVal::I64(nt),
        ],
        LaunchDims {
            teams: Some(1),
            threads: Some(nt as u32),
        },
    )
    .unwrap();
    let counts = dev.read_i64(counter, nb as usize).unwrap();
    assert_eq!(
        counts,
        vec![1; nb as usize],
        "guards must not replicate stores"
    );
    let vals = dev.read_f64(out, (nb * nt) as usize).unwrap();
    assert!(vals.iter().all(|&v| v == 1.0));
}

#[test]
fn optimizer_is_idempotent() {
    // Running the pipeline twice must be a no-op the second time:
    // same IR text, no new transformations.
    {
        let src = FIG1_LIKE;
        let mut m = compile(src, &FrontendOptions::default()).unwrap();
        let r1 = omp_opt::run(&mut m, &OpenMpOptConfig::default());
        let t1 = omp_ir::printer::print_module(&m);
        let r2 = omp_opt::run(&mut m, &OpenMpOptConfig::default());
        let t2 = omp_ir::printer::print_module(&m);
        assert_eq!(t1, t2, "second run changed the module");
        assert_eq!(r2.counts.heap_to_stack, 0);
        assert_eq!(r2.counts.heap_to_shared, 0);
        assert_eq!(r2.counts.spmdized, 0);
        assert!(r1.counts.spmdized > 0);
    }
}

#[test]
fn optimizer_accepts_parsed_back_modules() {
    // The textual format carries enough information (kernel metadata,
    // attributes) for the optimizer to run on a re-parsed module.
    let mut m = compile(FIG1_LIKE, &FrontendOptions::default()).unwrap();
    let text = omp_ir::printer::print_module(&m);
    let mut reparsed = omp_ir::parser::parse_module(&text).unwrap();
    let direct = omp_opt::run(&mut m, &OpenMpOptConfig::default());
    let via_text = omp_opt::run(&mut reparsed, &OpenMpOptConfig::default());
    assert_eq!(direct.counts.spmdized, via_text.counts.spmdized);
    assert_eq!(direct.counts.heap_to_stack, via_text.counts.heap_to_stack);
    omp_ir::verifier::assert_valid(&reparsed);
}
