//! Profiles must be bit-identical regardless of host parallelism, and
//! profiling must not perturb the unprofiled pipeline.

use omp_gpu::{all_proxies, pipeline, BuildConfig, ProxyApp, Scale};
use omp_gpu::{Job, JobResult, Knobs, Mode, Store, Subject};

/// A profiled launch of `app` on a fresh store.
fn profile(app: &dyn ProxyApp, jobs: Option<u32>) -> JobResult {
    let job = Job {
        mode: Mode::Profile,
        knobs: Knobs {
            jobs,
            ..Knobs::default()
        },
        ..Job::new(Subject::Proxy(app), BuildConfig::LlvmDev)
    };
    job.run(&mut Store::new(0)).expect("profiled launch")
}

#[test]
fn proxy_profile_is_bit_identical_across_jobs() {
    let proxies = all_proxies(Scale::Small);
    let app = proxies
        .iter()
        .find(|p| p.name() == "SU3Bench")
        .expect("SU3Bench proxy");
    let one = profile(app.as_ref(), Some(1));
    let four = profile(app.as_ref(), Some(4));
    let (p1, p4) = (one.profile.unwrap(), four.profile.unwrap());
    assert_eq!(p1, p4, "profile must not depend on --jobs");
    assert_eq!(p1.to_json(), p4.to_json());
    assert_eq!(p1.chrome_trace(), p4.chrome_trace());
    assert_eq!(one.stats.snapshot(), four.stats.snapshot());
}

#[test]
fn profiling_does_not_perturb_stats() {
    let proxies = all_proxies(Scale::Small);
    let app = proxies
        .iter()
        .find(|p| p.name() == "SU3Bench")
        .expect("SU3Bench proxy");
    let plain = pipeline::run_proxy(app.as_ref(), BuildConfig::LlvmDev);
    let plain_snap = plain.snapshot();
    let prof_snap = Some(profile(app.as_ref(), None).stats.snapshot());
    // The profiled launch runs on the tier the plain one does, so the
    // snapshots compare with nothing normalised: the same
    // superinstruction counters, which a compiled launch fills.
    let fused = prof_snap.as_ref().map(|s| s.superinstructions);
    assert!(fused.is_some_and(|f| f.iter().any(|&n| n > 0)));
    assert_eq!(
        plain_snap, prof_snap,
        "profiling on vs off must produce identical statistics"
    );
}

#[test]
fn pass_timings_and_remarks_are_recorded_deterministically() {
    let src = r#"
void scale(double* a, double f, long n) {
  #pragma omp target teams distribute parallel for
  for (long i = 0; i < n; i++) { a[i] = a[i] * f; }
}
"#;
    let (_, r1) = pipeline::build(src, BuildConfig::LlvmDev).unwrap();
    let (_, r2) = pipeline::build(src, BuildConfig::LlvmDev).unwrap();
    let (r1, r2) = (r1.unwrap(), r2.unwrap());
    assert!(!r1.pass_timings.is_empty(), "mid-end stages must be timed");
    for t in &r1.pass_timings {
        assert!(t.runs > 0);
    }
    for stage in ["early-inline", "openmp-opt", "cleanup"] {
        assert!(
            r1.pass_timings.iter().any(|t| t.pass == stage),
            "missing stage {stage}"
        );
    }
    // Wall time varies run to run; everything else — including the
    // OMP230 remark stream — must not.
    let strip = |r: &omp_gpu::OptReport| {
        r.pass_timings
            .iter()
            .map(|t| {
                (
                    t.pass.clone(),
                    t.runs,
                    t.insts_before,
                    t.insts_after,
                    t.blocks_before,
                    t.blocks_after,
                    t.funcs_before,
                    t.funcs_after,
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(strip(&r1), strip(&r2));
    assert_eq!(
        r1.remarks.to_json_lines(),
        r2.remarks.to_json_lines(),
        "remark streams (incl. OMP230) must be deterministic"
    );
    let timing_remarks = r1.remarks.with_id(omp_opt::remarks::ids::PASS_TIMING);
    assert_eq!(timing_remarks.len(), r1.pass_timings.len());
    // The rendered table is the only place wall time appears.
    let table = pipeline::render_pass_timings(&r1.pass_timings);
    assert!(table.contains("early-inline"));
    assert!(table.contains("total mid-end wall time"));
}
