//! Fault-injection tests: every injected failure must surface as a
//! structured error (or a sanitizer note) — no panic, no hung worker —
//! and the outcome must be identical for every worker-thread count.

use omp_frontend::{compile, FrontendOptions};
use omp_gpusim::{
    Device, DeviceConfig, FaultPlan, FindingKind, Launch, LaunchDims, MemError, RtVal,
    SanitizeMode, SimErrorKind,
};
use std::sync::Arc;
use std::time::Duration;

/// Globalizes one capture struct per distribute iteration when built
/// without the mid-end, giving the allocation faults something to hit.
const GLOBALIZING: &str = r#"
void counted(double* a, long n) {
  #pragma omp target teams distribute
  for (long b = 0; b < n; b++) {
    double tv = (double)b;
    #pragma omp parallel for
    for (long t = 0; t < 4; t++) {
      a[b * 4 + t] = tv;
    }
  }
}
"#;

fn build(src: &str) -> Arc<omp_ir::Module> {
    let m = compile(src, &FrontendOptions::default()).unwrap();
    omp_ir::verifier::assert_valid(&m);
    Arc::new(m)
}

fn dims(teams: u32, threads: u32) -> LaunchDims {
    LaunchDims {
        teams: Some(teams),
        threads: Some(threads),
    }
}

fn launch_with_plan(
    m: &Arc<omp_ir::Module>,
    plan: FaultPlan,
    jobs: u32,
) -> Result<(), omp_gpusim::SimError> {
    let mut dev = Device::new(Arc::clone(m), DeviceConfig::default()).unwrap();
    dev.set_fault_plan(plan);
    dev.set_jobs(jobs);
    let a = dev.alloc_f64(&[0.0; 16]).unwrap();
    dev.launch("counted", &[RtVal::Ptr(a), RtVal::I64(4)], dims(4, 4))
        .map(|_| ())
}

#[test]
fn capped_shared_stack_falls_back_to_heap_and_completes() {
    let m = build(GLOBALIZING);
    let mut dev = Device::new(Arc::clone(&m), DeviceConfig::default()).unwrap();
    dev.set_sanitize(SanitizeMode::On);
    dev.set_fault_plan(FaultPlan {
        shared_stack_limit: Some(0),
        ..FaultPlan::default()
    });
    let a = dev.alloc_f64(&[0.0; 16]).unwrap();
    let Launch {
        stats, findings, ..
    } = dev
        .launch("counted", &[RtVal::Ptr(a), RtVal::I64(4)], dims(4, 4))
        .unwrap();
    // The run degrades (heap traffic instead of shared) but completes
    // with correct results.
    assert!(stats.heap_bytes > 0, "fallback never hit the device heap");
    let out = dev.read_f64(a, 16).unwrap();
    for b in 0..4 {
        for t in 0..4 {
            assert_eq!(out[b * 4 + t], b as f64);
        }
    }
    // Each fallback is surfaced as a note, not an error.
    let notes: Vec<_> = findings
        .iter()
        .filter(|f| f.kind == FindingKind::SharedStackFallback)
        .collect();
    assert!(!notes.is_empty(), "no fallback notes: {findings:?}");
    assert!(
        findings.len() == notes.len(),
        "unexpected errors: {findings:?}"
    );
}

#[test]
fn injected_allocation_failure_is_a_structured_memory_error() {
    let m = build(GLOBALIZING);
    let err = launch_with_plan(
        &m,
        FaultPlan {
            fail_alloc_after: Some(0),
            ..FaultPlan::default()
        },
        1,
    )
    .unwrap_err();
    assert!(
        matches!(err.kind, SimErrorKind::Mem(MemError::AllocFaultInjected)),
        "{err:?}"
    );
    // Provenance points into the kernel.
    let prov = err.provenance.as_ref().expect("no provenance");
    assert!(prov.function.contains("counted"), "{prov:?}");
    // The message must not look like a real OOM (the oracle tolerates
    // documented baseline OOMs by substring).
    let msg = err.to_string();
    assert!(!msg.contains("OOM") && !msg.contains("heap"), "{msg}");
}

#[test]
fn trap_at_nth_instruction_and_team_abort_are_structured() {
    let m = build(GLOBALIZING);
    let trap = launch_with_plan(
        &m,
        FaultPlan {
            trap_at_inst: Some(20),
            ..FaultPlan::default()
        },
        1,
    )
    .unwrap_err();
    match &trap.kind {
        SimErrorKind::FaultInjected(msg) => {
            assert!(msg.contains("dynamic instruction 20"), "{msg}")
        }
        other => panic!("wrong kind: {other:?}"),
    }
    let abort = launch_with_plan(
        &m,
        FaultPlan {
            abort_team: Some(2),
            ..FaultPlan::default()
        },
        1,
    )
    .unwrap_err();
    match &abort.kind {
        SimErrorKind::FaultInjected(msg) => assert!(msg.contains("team 2 aborted"), "{msg}"),
        other => panic!("wrong kind: {other:?}"),
    }
}

#[test]
fn injected_failures_are_identical_across_worker_thread_counts() {
    let m = build(GLOBALIZING);
    for plan in [
        FaultPlan {
            fail_alloc_after: Some(0),
            ..FaultPlan::default()
        },
        FaultPlan {
            trap_at_inst: Some(20),
            ..FaultPlan::default()
        },
        FaultPlan {
            abort_team: Some(2),
            ..FaultPlan::default()
        },
    ] {
        let sequential = launch_with_plan(&m, plan.clone(), 1).unwrap_err();
        for jobs in [2u32, 4] {
            let parallel = launch_with_plan(&m, plan.clone(), jobs).unwrap_err();
            assert_eq!(
                sequential.to_string(),
                parallel.to_string(),
                "outcome differs at jobs={jobs} for {plan:?}"
            );
        }
    }
}

#[test]
fn device_survives_an_injected_failure_and_runs_again() {
    let m = build(GLOBALIZING);
    let mut dev = Device::new(Arc::clone(&m), DeviceConfig::default()).unwrap();
    dev.set_fault_plan(FaultPlan {
        fail_alloc_after: Some(0),
        ..FaultPlan::default()
    });
    let a = dev.alloc_f64(&[0.0; 16]).unwrap();
    dev.launch("counted", &[RtVal::Ptr(a), RtVal::I64(4)], dims(4, 4))
        .unwrap_err();
    // Disarm the plan: the same device must launch cleanly afterwards —
    // no wedged workers, no leaked team state.
    dev.set_fault_plan(FaultPlan::default());
    dev.launch("counted", &[RtVal::Ptr(a), RtVal::I64(4)], dims(4, 4))
        .unwrap();
    let out = dev.read_f64(a, 16).unwrap();
    assert_eq!(out[15], 3.0);
}

#[test]
fn watchdog_times_out_a_hung_kernel_with_a_structured_error() {
    let m = build(
        r#"
void spin(long* out) {
  #pragma omp target teams
  {
    long i = 0;
    while (i < 1000000000) {
      i = i + 0; // never progresses
    }
    out[0] = i;
  }
}
"#,
    );
    let mut dev = Device::new(Arc::clone(&m), DeviceConfig::default()).unwrap();
    dev.set_watchdog(Some(Duration::from_millis(1)));
    let out = dev.alloc_i64(&[0]).unwrap();
    let err = dev
        .launch("spin", &[RtVal::Ptr(out)], dims(1, 2))
        .unwrap_err();
    assert!(
        matches!(err.kind, SimErrorKind::Timeout { .. }),
        "expected a watchdog timeout, got {err:?}"
    );
    assert!(err.to_string().contains("watchdog timeout"), "{err}");
}

#[test]
fn instruction_budget_override_reports_runaway_with_thread_positions() {
    let m = build(
        r#"
void spin(long* out) {
  #pragma omp target teams
  {
    long i = 0;
    while (i < 1000000000) {
      i = i + 0;
    }
    out[0] = i;
  }
}
"#,
    );
    let mut dev = Device::new(Arc::clone(&m), DeviceConfig::default()).unwrap();
    dev.set_max_insts(10_000);
    let out = dev.alloc_i64(&[0]).unwrap();
    let err = dev
        .launch("spin", &[RtVal::Ptr(out)], dims(1, 2))
        .unwrap_err();
    match err.kind {
        SimErrorKind::Runaway { budget } => assert_eq!(budget, 10_000),
        other => panic!("wrong kind: {other:?}"),
    }
    assert!(
        err.to_string()
            .contains("instruction budget exceeded (10000 per thread)"),
        "{err}"
    );
}
