//! The profiler, the sanitizer and the differential oracle observe
//! whichever tier runs: a profile, a list of findings, a failure
//! diagnostic and a verify report are properties of the program, so
//! `Tier::Interp` (one step per instruction) and `Tier::Compiled` (fused
//! blocks) must produce them byte for byte. The tier is a test switch
//! flipped through [`Knobs::tier`]; the superinstruction counters prove
//! which one ran. The gpusim-level legs (fault knobs, fused-step trap
//! positions, both observers at once) live in
//! `crates/gpusim/tests/tier_differential.rs`; these need the optimizer
//! pipeline.

use omp_gpu::oracle::verify_subject;
use omp_gpu::pipeline::sanitize_source;
use omp_gpu::{
    all_proxies, findings_to_json, BuildConfig, FaultPlan, Job, Knobs, Mode, Scale, StatsSnapshot,
    Store, Subject, Tier,
};

const TIERS: [Tier; 2] = [Tier::Interp, Tier::Compiled];
const BOTH_ENDS: [BuildConfig; 2] = [BuildConfig::LlvmDev, BuildConfig::Llvm12Baseline];

/// The counters every tier must agree on (the superinstruction
/// counters say which tier ran).
fn tier_free(mut s: StatsSnapshot) -> StatsSnapshot {
    s.superinstructions = [0; 4];
    s
}

/// Whether `s` ran compiled blocks: never under `Interp`, always for a
/// proxy under `Compiled`.
fn fused(s: &StatsSnapshot) -> bool {
    s.superinstructions.iter().any(|&n| n > 0)
}

/// The `ompgpu verify --scale small` report of the four proxies is the
/// same text on both tiers, and every case passes. The report has no
/// tier field, so a tier-0 change that moves a cycle count fails here
/// even when both tiers pass their own oracle.
#[test]
fn proxy_verify_reports_are_tier_identical() {
    let [interp, compiled] = TIERS.map(|tier| {
        let knobs = Knobs {
            tier: Some(tier),
            ..Knobs::default()
        };
        let mut store = Store::new(0);
        let mut report = String::new();
        for app in all_proxies(Scale::Small) {
            let case = verify_subject(&mut store, app.name(), Subject::Proxy(app.as_ref()), &knobs);
            assert!(case.passed(), "on {tier:?}:\n{}", case.render());
            for r in &case.results {
                let at = format!("{} {} on {tier:?}", app.name(), r.config.cli_name());
                let ran = r.stats.as_ref().map(fused);
                assert!(ran.is_none_or(|f| f == (tier == Tier::Compiled)), "{at}");
            }
            report.push_str(&case.render());
        }
        report
    });
    assert_eq!(interp, compiled);
}

#[test]
fn proxy_profiles_and_findings_do_not_depend_on_the_tier() {
    for app in all_proxies(Scale::Small) {
        for config in BOTH_ENDS {
            for jobs in [1, 3] {
                for mode in [Mode::Profile, Mode::Sanitize] {
                    let at = format!("{} {} jobs={jobs} {mode:?}", app.name(), config.cli_name());
                    let [interp, compiled] = TIERS.map(|tier| {
                        let job = Job {
                            mode,
                            knobs: Knobs {
                                jobs: Some(jobs),
                                tier: Some(tier),
                                ..Knobs::default()
                            },
                            ..Job::new(Subject::Proxy(app.as_ref()), config)
                        };
                        let r = job
                            .run(&mut Store::new(0))
                            .unwrap_or_else(|e| panic!("{at} on {tier:?}: {e:?}"));
                        let snap = r.stats.snapshot();
                        assert_eq!(fused(&snap), tier == Tier::Compiled, "{at}");
                        assert_eq!(r.profile.is_some(), mode == Mode::Profile, "{at}");
                        (
                            r.profile.map(|p| (p.to_json(), p.chrome_trace())),
                            findings_to_json(&r.findings),
                            tier_free(snap),
                        )
                    });
                    assert_eq!(interp, compiled, "{at}");
                }
            }
        }
    }
}

#[test]
fn sanitizer_fixtures_report_the_same_on_both_tiers() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures/sanitize");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    assert!(files.len() >= 9, "fixture corpus shrank");
    // Plain; with the shared stack capped so globalization falls back
    // to the heap (what `stack_overflow.c` is for); and with launches
    // that fail part-way, so the error carries the findings gathered up
    // to the failing instruction.
    let mut faults = vec![
        FaultPlan::default(),
        FaultPlan {
            shared_stack_limit: Some(64),
            ..FaultPlan::default()
        },
        FaultPlan {
            fail_alloc_after: Some(1),
            ..FaultPlan::default()
        },
    ];
    faults.extend([10, 25, 40, 60, 97, 150, 230, 400].map(|n| FaultPlan {
        trap_at_inst: Some(n),
        ..FaultPlan::default()
    }));
    let (mut failures, mut failures_with_findings) = (0, 0);
    for file in &files {
        let source = std::fs::read_to_string(file).unwrap();
        for config in [BuildConfig::NoOpenmpOpt, BuildConfig::LlvmDev] {
            for fault in &faults {
                let [interp, compiled] = TIERS.map(|tier| {
                    let knobs = Knobs {
                        tier: Some(tier),
                        fault: fault.clone(),
                        ..Knobs::default()
                    };
                    let out = sanitize_source(&source, config, &knobs);
                    // `error` carries kind, provenance, thread positions
                    // and the findings gathered before the failure.
                    (
                        findings_to_json(&out.findings),
                        out.error,
                        out.setup_error,
                        out.stats.map(|s| tier_free(s.snapshot())),
                    )
                });
                if let Some(e) = &interp.1 {
                    failures += 1;
                    failures_with_findings += usize::from(!e.findings.is_empty());
                }
                assert_eq!(
                    interp,
                    compiled,
                    "{} under {} with {fault:?}",
                    file.display(),
                    config.cli_name()
                );
            }
        }
    }
    // Not vacuous: the injected traps failed launches on both tiers.
    assert!(
        failures > 0 && failures_with_findings > 0,
        "{failures} failed launches, {failures_with_findings} with findings"
    );
}
