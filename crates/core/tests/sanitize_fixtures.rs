//! Seeded-bug fixtures for the device sanitizer
//! (`tests/fixtures/sanitize/`): each known bug must yield exactly the
//! expected finding kind with correct provenance, and its fixed variant
//! must be clean — under the unoptimized baseline *and* the fully
//! optimized pipeline (the optimizer must neither mask a real bug nor
//! fabricate one).

use omp_gpu::pipeline::{sanitize_source, SanitizeOutcome};
use omp_gpu::{BuildConfig, FaultPlan, FindingKind, Knobs, Severity};

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/sanitize")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

fn sanitize(name: &str, config: BuildConfig) -> SanitizeOutcome {
    let out = sanitize_source(&fixture(name), config, &Knobs::default());
    assert!(
        out.setup_error.is_none(),
        "{name} failed to build under {}: {:?}",
        config.label(),
        out.setup_error
    );
    assert!(
        out.error.is_none(),
        "{name} failed to run under {}: {}",
        config.label(),
        out.error.as_ref().unwrap()
    );
    out
}

const BOTH_ENDS: [BuildConfig; 2] = [BuildConfig::Llvm12Baseline, BuildConfig::LlvmDev];

#[test]
fn seeded_race_is_reported_with_provenance() {
    for config in BOTH_ENDS {
        let out = sanitize("race.c", config);
        let races: Vec<_> = out
            .findings
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
            out.findings
        );
    }
}

#[test]
fn missing_barrier_is_a_data_race_and_barrier_fixes_it() {
    for config in BOTH_ENDS {
        let bad = sanitize("missing_barrier.c", config);
        assert!(
            bad.findings
                .iter()
                .any(|f| f.kind == FindingKind::DataRace && f.function.contains("prodcons")),
            "missing barrier not reported under {}: {:?}",
            config.label(),
            bad.findings
        );
        let good = sanitize("missing_barrier_fixed.c", config);
        assert!(
            good.is_clean(),
            "barrier-ordered accesses misreported under {}: {:?}",
            config.label(),
            good.findings
        );
    }
}

#[test]
fn divergent_barrier_sites_are_reported() {
    for config in BOTH_ENDS {
        let bad = sanitize("divergent_barrier.c", config);
        let divs: Vec<_> = bad
            .findings
            .iter()
            .filter(|f| f.kind == FindingKind::BarrierDivergence)
            .collect();
        assert!(
            !divs.is_empty(),
            "no barrier-divergence under {}: {:?}",
            config.label(),
            bad.findings
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
            good.findings
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
    let out = sanitize_source(
        &fixture("stack_overflow.c"),
        BuildConfig::NoOpenmpOpt,
        &opts,
    );
    assert!(out.setup_error.is_none(), "{:?}", out.setup_error);
    assert!(
        out.error.is_none(),
        "fallback must not fail the run: {}",
        out.error.as_ref().unwrap()
    );
    let notes: Vec<_> = out
        .findings
        .iter()
        .filter(|f| f.kind == FindingKind::SharedStackFallback)
        .collect();
    assert!(!notes.is_empty(), "no fallback note: {:?}", out.findings);
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
        calm.is_clean() && calm.findings.is_empty(),
        "{:?}",
        calm.findings
    );
}

#[test]
fn seeded_cross_kernel_race_is_reported_and_depend_edges_fix_it() {
    for config in BOTH_ENDS {
        let bad = sanitize("cross_kernel_race.c", config);
        let races: Vec<_> = bad
            .findings
            .iter()
            .filter(|f| f.kind == FindingKind::CrossKernelRace)
            .collect();
        assert_eq!(
            races.len(),
            1,
            "exactly one unordered pair under {}: {:?}",
            config.label(),
            bad.findings
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
            good.findings
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
        let out = sanitize_source(&fixture("race.c"), BuildConfig::LlvmDev, &opts);
        let baseline = sanitize_source(&fixture("race.c"), BuildConfig::LlvmDev, &Knobs::default());
        assert_eq!(
            out.findings, baseline.findings,
            "findings differ at --jobs {jobs}"
        );
    }
}
