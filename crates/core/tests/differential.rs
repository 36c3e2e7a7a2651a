//! Differential-execution oracle tests: every proxy benchmark and every
//! oracle example must produce bit-identical outputs under all six
//! OpenMP-source configurations of the paper's ablation matrix, with
//! monotone resource statistics along the ablation chain. This is the
//! repository's strongest correctness gate — it catches any optimizer
//! change that alters observable behavior, not just ones a hand-written
//! assertion anticipates.

use omp_gpu::oracle::{self, OracleCase, ORACLE_CONFIGS};
use omp_gpu::{all_proxies, BuildConfig, Job, Knobs, ProxyApp, Scale, Store, Subject};
use std::path::PathBuf;

fn examples_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/omp")
}

/// The oracle's verdict on one proxy, against a fresh store.
fn verify_proxy(app: &dyn ProxyApp) -> OracleCase {
    let subject = Subject::Proxy(app);
    oracle::verify_subject(&mut Store::new(0), app.name(), subject, &Knobs::default())
}

#[test]
fn oracle_matrix_has_six_configs() {
    assert_eq!(ORACLE_CONFIGS.len(), 6);
    assert!(!ORACLE_CONFIGS.contains(&BuildConfig::CudaStyle));
}

#[test]
fn xsbench_is_bit_identical_across_matrix() {
    let app = &all_proxies(Scale::Small)[0];
    let case = verify_proxy(app.as_ref());
    assert_eq!(case.name, "XSBench");
    assert!(case.passed(), "{:?}", case.failures);
    assert_eq!(case.successes(), ORACLE_CONFIGS.len());
}

#[test]
fn rsbench_is_bit_identical_across_matrix() {
    let app = &all_proxies(Scale::Small)[1];
    let case = verify_proxy(app.as_ref());
    assert_eq!(case.name, "RSBench");
    assert!(case.passed(), "{:?}", case.failures);
    // At test scale the baseline fits in the heap; at bench scale its
    // globalization overflows (the paper's OOM row) — either way every
    // *successful* configuration must agree, and the optimized ones
    // must all succeed.
    assert!(case.successes() >= ORACLE_CONFIGS.len() - 1);
}

#[test]
fn su3bench_is_bit_identical_across_matrix() {
    let app = &all_proxies(Scale::Small)[2];
    let case = verify_proxy(app.as_ref());
    assert_eq!(case.name, "SU3Bench");
    assert!(case.passed(), "{:?}", case.failures);
    assert_eq!(case.successes(), ORACLE_CONFIGS.len());
}

#[test]
fn miniqmc_is_bit_identical_across_matrix() {
    let app = &all_proxies(Scale::Small)[3];
    let case = verify_proxy(app.as_ref());
    assert_eq!(case.name, "miniQMC");
    assert!(case.passed(), "{:?}", case.failures);
    assert_eq!(case.successes(), ORACLE_CONFIGS.len());
}

#[test]
fn example_corpus_is_bit_identical_across_matrix() {
    let files = oracle::example_files(&examples_dir()).expect("examples dir");
    assert!(files.len() >= 5, "example corpus shrank");
    for file in &files {
        let source = std::fs::read_to_string(file).expect("readable example");
        let name = oracle::subject_name(file);
        let case = oracle::verify_source(&mut Store::new(0), &name, &source, &Knobs::default());
        assert!(case.passed(), "{}: {:?}", case.name, case.failures);
        assert_eq!(
            case.successes(),
            ORACLE_CONFIGS.len(),
            "{}: some configuration failed to execute",
            case.name
        );
    }
}

#[test]
fn optimizations_actually_fire_on_the_chain() {
    // The oracle would pass vacuously if the ablation matrix collapsed
    // to identical builds. Assert the optimized end of the chain really
    // removes globalization allocations on a proxy that globalizes.
    let app = &all_proxies(Scale::Small)[2]; // SU3Bench
    let case = verify_proxy(app.as_ref());
    let get = |c: BuildConfig| {
        case.results
            .iter()
            .find(|r| r.config == c)
            .and_then(|r| r.snapshot())
            .expect("stats")
    };
    let noopt = get(BuildConfig::NoOpenmpOpt);
    let dev = get(BuildConfig::LlvmDev);
    assert!(noopt.globalization_allocs > 0, "proxy stopped globalizing");
    assert_eq!(
        dev.globalization_allocs, 0,
        "deglobalization stopped firing"
    );
    assert!(
        dev.cycles < noopt.cycles,
        "optimizations stopped paying off"
    );
}

#[test]
fn pass_stats_surface_reaches_the_oracle() {
    // The per-pass statistics derived from structured remarks must be
    // visible on oracle results for configurations that ran the
    // optimizer, and absent for the baseline.
    let app = &all_proxies(Scale::Small)[0]; // XSBench
    let case = verify_proxy(app.as_ref());
    for r in &case.results {
        let pass_stats = r.report().map(|r| r.pass_stats()).unwrap_or_default();
        match r.config {
            BuildConfig::Llvm12Baseline => assert!(pass_stats.is_empty()),
            _ => {
                assert!(!pass_stats.is_empty(), "{}", r.config.label());
                let total: usize = pass_stats.iter().map(|s| s.transformed).sum();
                if r.config == BuildConfig::LlvmDev {
                    assert!(total > 0, "LLVM Dev transformed nothing");
                }
            }
        }
    }
}

#[test]
fn remark_stream_roundtrips_for_every_config() {
    // The structured remark JSON must round-trip for real compiler
    // output, not just synthetic remarks.
    let app = &all_proxies(Scale::Small)[3]; // miniQMC: every pass fires
    for &config in &ORACLE_CONFIGS {
        let Some(_) = config.opt_config() else {
            continue;
        };
        let (_, report) = omp_gpu::pipeline::build(&app.openmp_source(), config).expect("build");
        let report = report.expect("report");
        let text = report.remarks.to_json_lines();
        let parsed = omp_opt::Remarks::from_json_lines(&text)
            .unwrap_or_else(|e| panic!("{}: {e}", config.label()));
        assert_eq!(parsed.all(), report.remarks.all(), "{}", config.label());
    }
}

#[test]
fn stats_snapshots_are_deterministic() {
    // Two independent runs of the same build must produce identical
    // snapshots — the property every differential comparison rests on.
    let app = &all_proxies(Scale::Small)[0];
    let job = Job::new(Subject::Proxy(app.as_ref()), BuildConfig::LlvmDev);
    let a = job.run(&mut Store::new(0)).expect("run a").stats.snapshot();
    let b = job.run(&mut Store::new(0)).expect("run b").stats.snapshot();
    assert_eq!(a, b);
    assert_eq!(a.to_json(), b.to_json());
}
