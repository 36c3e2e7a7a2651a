//! Seeded-bug fixtures for the device sanitizer
//! (`tests/fixtures/sanitize/`): each known bug must yield exactly the
//! expected finding kind with correct provenance, and its fixed variant
//! must be clean — under the unoptimized baseline *and* the fully
//! optimized pipeline (the optimizer must neither mask a real bug nor
//! fabricate one).

mod common;

use common::sanitized;
use omp_gpu::{BuildConfig, FaultPlan, FindingKind, Knobs, Outcome, Severity};

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/sanitize")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

fn sanitize(name: &str, config: BuildConfig) -> Outcome {
    let out = sanitized(&fixture(name), config, &Knobs::default());
    if let Err(e) = &out.result {
        panic!("{name} failed under {}: {e}", config.label());
    }
    out
}

const BOTH_ENDS: [BuildConfig; 2] = [BuildConfig::Llvm12Baseline, BuildConfig::LlvmDev];

#[test]
fn seeded_race_is_reported_with_provenance() {
    for config in BOTH_ENDS {
        let out = sanitize("race.c", config);
        let races: Vec<_> = out
            .findings()
            .iter()
            .filter(|f| f.kind == FindingKind::DataRace)
            .collect();
        assert!(!races.is_empty(), "no data-race under {}", config.label());
        for f in races {
            assert_eq!(f.severity, Severity::Error);
            assert!(
                f.function.contains("race"),
                "provenance names the wrong function: {}",
                f.function
            );
            assert_eq!(f.team, 0);
            assert!(
                f.message.contains("write"),
                "race message names the conflicting access: {}",
                f.message
            );
        }
        assert!(!out.is_clean());
    }
}

#[test]
fn seeded_race_fixed_variant_is_clean() {
    for config in BOTH_ENDS {
        let out = sanitize("race_fixed.c", config);
        assert!(
            out.is_clean(),
            "false positive under {}: {:?}",
            config.label(),
            out.findings()
        );
    }
}

#[test]
fn missing_barrier_is_a_data_race_and_barrier_fixes_it() {
    for config in BOTH_ENDS {
        let bad = sanitize("missing_barrier.c", config);
        assert!(
            bad.findings()
                .iter()
                .any(|f| f.kind == FindingKind::DataRace && f.function.contains("prodcons")),
            "missing barrier not reported under {}: {:?}",
            config.label(),
            bad.findings()
        );
        let good = sanitize("missing_barrier_fixed.c", config);
        assert!(
            good.is_clean(),
            "barrier-ordered accesses misreported under {}: {:?}",
            config.label(),
            good.findings()
        );
    }
}

#[test]
fn divergent_barrier_sites_are_reported() {
    for config in BOTH_ENDS {
        let bad = sanitize("divergent_barrier.c", config);
        let divs: Vec<_> = bad
            .findings()
            .iter()
            .filter(|f| f.kind == FindingKind::BarrierDivergence)
            .collect();
        assert!(
            !divs.is_empty(),
            "no barrier-divergence under {}: {:?}",
            config.label(),
            bad.findings()
        );
        for f in divs {
            assert_eq!(f.severity, Severity::Error);
            assert!(f.function.contains("divb"));
        }
        let good = sanitize("divergent_barrier_fixed.c", config);
        assert!(
            good.is_clean(),
            "convergent barrier misreported under {}: {:?}",
            config.label(),
            good.findings()
        );
    }
}

#[test]
fn capped_shared_stack_degrades_to_heap_fallback_notes() {
    // The seeded degradation needs runtime globalization, so pin the
    // unoptimized baseline (the mid-end promotes the allocation away
    // under the full pipeline — which is the point of the paper).
    let opts = Knobs {
        fault: FaultPlan {
            shared_stack_limit: Some(0),
            ..FaultPlan::default()
        },
        ..Knobs::default()
    };
    let out = sanitized(
        &fixture("stack_overflow.c"),
        BuildConfig::NoOpenmpOpt,
        &opts,
    );
    if let Err(e) = &out.result {
        panic!("fallback must not fail the run: {e}");
    }
    let notes: Vec<_> = out
        .findings()
        .iter()
        .filter(|f| f.kind == FindingKind::SharedStackFallback)
        .collect();
    assert!(!notes.is_empty(), "no fallback note: {:?}", out.findings());
    for f in &notes {
        assert_eq!(
            f.severity,
            Severity::Note,
            "fallback is a note, not an error"
        );
    }
    // Notes do not make the run unclean.
    assert!(out.is_clean());
    // Without the cap the same kernel allocates from shared and stays
    // silent.
    let calm = sanitize("stack_overflow.c", BuildConfig::NoOpenmpOpt);
    assert!(
        calm.is_clean() && calm.findings().is_empty(),
        "{:?}",
        calm.findings()
    );
}

#[test]
fn seeded_cross_kernel_race_is_reported_and_depend_edges_fix_it() {
    for config in BOTH_ENDS {
        let bad = sanitize("cross_kernel_race.c", config);
        let races: Vec<_> = bad
            .findings()
            .iter()
            .filter(|f| f.kind == FindingKind::CrossKernelRace)
            .collect();
        assert_eq!(
            races.len(),
            1,
            "exactly one unordered pair under {}: {:?}",
            config.label(),
            bad.findings()
        );
        let f = races[0];
        assert_eq!(f.severity, Severity::Error);
        assert!(
            f.function.contains("__omp_offloading_xrace"),
            "provenance names the later node: {}",
            f.function
        );
        assert!(
            f.message.contains("depend") && f.message.contains("write-write"),
            "message explains the missing edge: {}",
            f.message
        );
        assert!(!bad.is_clean());
        let good = sanitize("cross_kernel_race_fixed.c", config);
        assert!(
            good.is_clean(),
            "depend-ordered kernels misreported under {}: {:?}",
            config.label(),
            good.findings()
        );
    }
}

#[test]
fn findings_are_identical_across_worker_thread_counts() {
    for jobs in [1u32, 4] {
        let opts = Knobs {
            jobs: Some(jobs),
            ..Knobs::default()
        };
        let out = sanitized(&fixture("race.c"), BuildConfig::LlvmDev, &opts);
        let baseline = sanitized(&fixture("race.c"), BuildConfig::LlvmDev, &Knobs::default());
        assert_eq!(
            out.findings(),
            baseline.findings(),
            "findings differ at --jobs {jobs}"
        );
    }
}

/// A source whose header asks for an 800 MB buffer: it builds, then
/// fails while staging its inputs on the 64 MiB device.
const HUGE_BUFFER: &str = r#"
// oracle-kernel: fill
// oracle-arg: buf f64 100000000
// oracle-arg: i64 8
void fill(double* a, long n) {
  #pragma omp target teams distribute parallel for
  for (long i = 0; i < n; i++) { a[i] = 1.0; }
}
"#;

/// The exit code of a report reads the worst entry: error findings (5)
/// outrank a launch failure (3), which outranks a subject that never
/// launched (1) — a build failure or a staging failure alike. A launch
/// failure is an `error` object, one that never launched a
/// `setup_error` string.
#[test]
fn exit_code_ranks_findings_over_launch_over_setup_failures() {
    use omp_gpu::job::{EXIT_BUILD, EXIT_FINDINGS, EXIT_OK, EXIT_SIM};
    use omp_gpu::pipeline::{sanitize_exit_code, sanitize_report_json};
    let config = BuildConfig::LlvmDev;
    let starve = Knobs {
        max_insts: Some(1),
        ..Knobs::default()
    };
    let broken = "// oracle-kernel: k\n// oracle-arg: i64 1\nvoid k( {";
    let all = [
        sanitized(&fixture("race_fixed.c"), config, &Knobs::default()),
        sanitized(broken, config, &Knobs::default()),
        sanitized(HUGE_BUFFER, config, &Knobs::default()),
        sanitized(&fixture("race_fixed.c"), config, &starve),
        sanitized(&fixture("race.c"), config, &Knobs::default()),
    ];
    assert_eq!(sanitize_exit_code(&all[..1]), EXIT_OK);
    assert_eq!(sanitize_exit_code(&all[1..2]), EXIT_BUILD);
    assert_eq!(sanitize_exit_code(&all[2..3]), EXIT_BUILD);
    assert_eq!(sanitize_exit_code(&all[..3]), EXIT_BUILD);
    assert_eq!(sanitize_exit_code(&all[..4]), EXIT_SIM);
    assert_eq!(sanitize_exit_code(&all), EXIT_FINDINGS);
    assert_eq!(sanitize_exit_code(&all[3..]), EXIT_FINDINGS);

    let report = omp_json::parse(&sanitize_report_json("mixed", &all)).expect("valid JSON");
    let configs = report.get("configs").and_then(|c| c.as_array()).unwrap();
    let member = |i: usize, key: &str| configs[i].get(key).cloned();
    for i in [1, 2] {
        assert!(member(i, "setup_error").is_some_and(|e| e.as_str().is_some()));
        assert!(member(i, "error").is_none());
    }
    let error = member(3, "error").expect("a launch failure is an error object");
    assert_eq!(
        error.get("schema").and_then(|s| s.as_str()),
        Some("ompgpu-error/v1")
    );
    assert!(member(3, "setup_error").is_none());
}
