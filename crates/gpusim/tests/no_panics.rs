//! Robustness: the device must return structured errors, never panic,
//! on arbitrary launch requests — wrong kernel names, wrong argument
//! counts and types, degenerate launch geometry, hostile fault plans,
//! and tiny budgets (the `frontend/tests/no_panics.rs` pattern applied
//! to the simulator).

use omp_frontend::{compile, FrontendOptions};
use omp_gpusim::{Device, DeviceConfig, FaultPlan, LaunchDims, RtVal, SanitizeMode};
use proptest::prelude::*;
use std::sync::Arc;

const SUBJECT: &str = r#"
void kern(double* out, long n) {
  #pragma omp target teams distribute
  for (long b = 0; b < n; b++) {
    double v = (double)b;
    #pragma omp parallel for
    for (long t = 0; t < 4; t++) { out[b * 4 + t] = v; }
  }
}
"#;

fn module() -> Arc<omp_ir::Module> {
    Arc::new(compile(SUBJECT, &FrontendOptions::default()).unwrap())
}

fn rtval_strategy() -> impl Strategy<Value = RtVal> {
    prop_oneof![
        any::<i64>().prop_map(RtVal::I64),
        any::<i32>().prop_map(RtVal::I32),
        any::<bool>().prop_map(RtVal::Bool),
        (-1000i64..1000).prop_map(|v| RtVal::F64(v as f64)),
        // Wild pointers, including null and unmapped addresses.
        (0u64..u64::MAX).prop_map(RtVal::Ptr),
    ]
}

/// `Option` strategy over any range (the vendored proptest has no
/// `option` module): half `None`, half drawn from the inner strategy.
fn opt<S>(s: S) -> impl Strategy<Value = Option<S::Value>>
where
    S: Strategy + 'static,
    S::Value: std::fmt::Debug + Clone,
{
    prop_oneof![Just(None), s.prop_map(Some)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary kernel names, argument vectors, and launch dims are
    /// rejected (or executed) without panicking.
    #[test]
    fn arbitrary_launch_requests_never_panic(
        name in "[a-z_]{0,12}",
        args in proptest::collection::vec(rtval_strategy(), 0..5),
        teams in opt(0u32..9),
        threads in opt(0u32..65),
    ) {
        let m = module();
        let mut dev = Device::new(Arc::clone(&m), DeviceConfig::default()).unwrap();
        // Keep hostile launches cheap: wild pointers can send loop
        // bounds to the billions, which only the budget should stop.
        dev.set_max_insts(50_000);
        let _ = dev.launch(&name, &args, LaunchDims { teams, threads });
    }

    /// Hostile fault plans and tiny budgets degrade into errors, never
    /// panics — with the sanitizer on or off.
    #[test]
    fn hostile_fault_plans_never_panic(
        stack in opt(0u64..128),
        allocs in opt(0u64..4),
        trap in opt(0u64..2_000),
        abort in opt(0u32..6),
        budget in 1u64..20_000,
        sanitize in any::<bool>(),
        jobs in 1u32..5,
    ) {
        let m = module();
        let mut dev = Device::new(Arc::clone(&m), DeviceConfig::default()).unwrap();
        dev.set_fault_plan(FaultPlan {
            shared_stack_limit: stack,
            fail_alloc_after: allocs,
            trap_at_inst: trap,
            abort_team: abort,
        });
        dev.set_max_insts(budget);
        dev.set_sanitize(if sanitize { SanitizeMode::On } else { SanitizeMode::Off });
        dev.set_jobs(jobs);
        let out = dev.alloc_f64(&[0.0; 16]).unwrap();
        let dims = LaunchDims { teams: Some(4), threads: Some(4) };
        let _ = dev.launch("kern", &[RtVal::Ptr(out), RtVal::I64(4)], dims);
        // The device stays usable after whatever the plan injected.
        dev.set_fault_plan(FaultPlan::default());
        dev.set_max_insts(1_000_000);
        let _ = dev.launch("kern", &[RtVal::Ptr(out), RtVal::I64(4)], dims);
    }
}
