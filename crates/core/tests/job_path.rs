//! The job path's own contracts: a warm device answers like a cold one
//! and forgets the previous job's knobs, every failure names its stage
//! and exit code, and the oracle's tolerance for the documented
//! out-of-memory baselines is decided by error *kind* — a memory fault
//! that is not exhaustion (the paper's Figure 3 unsoundness) is a
//! failure even though it renders as `memory error: ...` too.

use omp_gpu::job::{Buffer, Stage, EXIT_BUILD, EXIT_SIM, EXIT_TIMEOUT};
use omp_gpu::oracle::{finish_case, ArgSpec, BufInit, OracleCase, ORACLE_CONFIGS};
use omp_gpu::{
    BuildConfig, Job, JobError, Knobs, LaunchDims, Readback, SimError, SimErrorKind, Store, Subject,
};
use omp_gpusim::MemError;

const SRC: &str = r#"
void scale(double* a, double f, long n) {
  #pragma omp target teams distribute parallel for
  for (long i = 0; i < n; i++) { a[i] = a[i] * f; }
}
"#;

fn scale_job(args: &[ArgSpec]) -> Job<'_> {
    Job {
        readback: Readback::Head(4),
        ..Job::new(
            Subject::Source {
                source: SRC,
                kernel: "scale",
                dims: LaunchDims {
                    teams: Some(2),
                    threads: Some(8),
                },
                args,
            },
            BuildConfig::LlvmDev,
        )
    }
}

#[test]
fn warm_device_answers_like_a_cold_one_and_forgets_knobs() {
    let args = [
        ArgSpec::BufF64(32, BufInit::Iota),
        ArgSpec::F64(3.0),
        ArgSpec::I64(32),
    ];
    let mut store = Store::new(2);
    let cold = scale_job(&args).run(&mut store).expect("cold run");
    assert_eq!(cold.buffers, [Buffer::F64(vec![0.0, 3.0, 6.0, 9.0])]);
    let device = store.trace().device;
    assert_eq!((device.hits, device.misses), (0, 1));
    // A starved run on the warm device fails at the launch stage...
    let starved = Job {
        knobs: Knobs {
            max_insts: Some(10),
            ..Knobs::default()
        },
        ..scale_job(&args)
    };
    let err = starved.run(&mut store).expect_err("budget of 10");
    assert!(
        matches!(err.kind(), Some(SimErrorKind::Runaway { .. })),
        "{err}"
    );
    assert_eq!(err.exit_code(), EXIT_SIM);
    // ...and the next job gets the device's own budget back.
    let warm = scale_job(&args).run(&mut store).expect("warm run");
    assert_eq!(store.trace().device.hits, 2);
    assert_eq!(warm.stats_json(), cold.stats_json());
    assert_eq!(warm.buffers, cold.buffers);
}

#[test]
fn a_zero_capacity_store_never_reuses_a_device() {
    let args = [
        ArgSpec::BufF64(32, BufInit::Iota),
        ArgSpec::F64(3.0),
        ArgSpec::I64(32),
    ];
    let mut store = Store::new(0);
    let first = scale_job(&args).run(&mut store).expect("first run");
    let second = scale_job(&args).run(&mut store).expect("second run");
    assert_eq!(first.buffers, second.buffers);
    let trace = store.trace();
    assert_eq!((trace.device.hits, trace.device.misses), (0, 2));
    assert_eq!((trace.optimized.hits, trace.optimized.misses), (1, 1));
    assert_eq!(store.entries(), [1, 1, 1]);
}

#[test]
fn errors_name_their_stage_and_exit_code() {
    let mut store = Store::new(0);
    let broken = Job::new(
        Subject::Source {
            source: "void k( {",
            kernel: "k",
            dims: LaunchDims::default(),
            args: &[],
        },
        BuildConfig::LlvmDev,
    );
    let err = broken.run(&mut store).expect_err("does not compile");
    assert!(matches!(err, JobError::Build(_)), "{err:?}");
    assert_eq!((err.exit_code(), err.kind()), (EXIT_BUILD, None));

    let huge = [ArgSpec::BufF64(100_000_000, BufInit::Zero)];
    let err = scale_job(&huge).run(&mut store).expect_err("800 MB");
    assert!(matches!(err, JobError::Prepare(_)), "{err:?}");
    assert!(err.is_out_of_memory());
    assert_eq!(err.exit_code(), EXIT_SIM);

    let deadline = JobError::Launch(SimError::deadline_exceeded(5));
    assert_eq!(deadline.exit_code(), EXIT_TIMEOUT);
    assert_eq!(JobError::Injected(Stage::Optimize).exit_code(), EXIT_BUILD);
    assert_eq!(
        JobError::Injected(Stage::Device).to_string(),
        "injected fault: device stage failure"
    );
}

/// A matrix where every configuration but `config` succeeds with
/// identical outputs and `config` fails with `error`.
fn case_failing(config: BuildConfig, error: JobError) -> OracleCase {
    let args = [
        ArgSpec::BufF64(8, BufInit::Iota),
        ArgSpec::F64(3.0),
        ArgSpec::I64(8),
    ];
    let mut results = scale_job(&args).run_configs(&mut Store::new(0), &ORACLE_CONFIGS);
    for r in results.iter_mut().filter(|r| r.config == config) {
        r.result = Err(error.clone());
    }
    finish_case("seeded", results)
}

#[test]
fn only_memory_exhaustion_is_an_expected_baseline_failure() {
    let oom = MemError::HeapExhausted { requested: 512 };
    for stage in [JobError::Launch, JobError::Prepare] {
        for config in [BuildConfig::Llvm12Baseline, BuildConfig::NoOpenmpOpt] {
            let case = case_failing(config, stage(SimError::from(oom.clone())));
            assert!(case.passed(), "{:?}", case.failures);
            assert_eq!(case.expected_failures.len(), 1);
        }
    }
    let case = case_failing(
        BuildConfig::Llvm12Baseline,
        JobError::Prepare(SimError::from(MemError::GlobalExhausted)),
    );
    assert!(case.passed(), "{:?}", case.failures);
    // The same outcome under an optimized build is a regression.
    let case = case_failing(BuildConfig::LlvmDev, JobError::Launch(SimError::from(oom)));
    assert!(!case.passed());
}

#[test]
fn unsound_memory_accesses_under_the_baselines_are_failures() {
    for fault in [
        MemError::CrossThreadLocal {
            accessor: (0, 1),
            owner: (0, 0),
        },
        MemError::CrossTeamShared,
        MemError::OutOfBounds(64),
        MemError::AllocFaultInjected,
    ] {
        for config in [BuildConfig::Llvm12Baseline, BuildConfig::NoOpenmpOpt] {
            let error = JobError::Launch(SimError::from(fault.clone()));
            assert!(error.to_string().starts_with("memory error:"));
            let case = case_failing(config, error);
            assert!(!case.passed(), "{fault:?} under {}", config.label());
            assert!(case.expected_failures.is_empty());
        }
    }
    // Out-of-memory wording at a stage that is not the device's is no
    // excuse either.
    let case = case_failing(
        BuildConfig::Llvm12Baseline,
        JobError::Build("device heap exhausted, out of memory".into()),
    );
    assert!(!case.passed());
}

#[test]
fn a_failed_launch_keeps_its_build_and_optimizer_report() {
    let subject = Subject::Source {
        source: SRC,
        kernel: "nope",
        dims: LaunchDims::default(),
        args: &[],
    };
    let outcome = Job::new(subject, BuildConfig::LlvmDev).outcome(&mut Store::new(0));
    assert!(
        matches!(outcome.result, Err(JobError::Launch(_))),
        "{:?}",
        outcome.result
    );
    let report = outcome
        .report()
        .expect("the build's report survives the launch");
    assert!(!report.remarks.all().is_empty());
}
