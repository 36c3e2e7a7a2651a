//! Parallel-scheduler determinism: running independent teams across
//! host worker threads must be unobservable. For every proxy benchmark,
//! a launch with `--jobs 4` must produce bit-identical outputs and
//! identical statistics (including per-team cycles) to `--jobs 1`.

use omp_benchmarks::{all_proxies, ProxyApp, Scale};
use omp_gpu::{pipeline, BuildConfig, Device, StatsSnapshot};
use std::sync::Arc;

fn run_with_jobs(
    app: &dyn ProxyApp,
    config: BuildConfig,
    jobs: u32,
) -> (Vec<u64>, Vec<u64>, StatsSnapshot) {
    let (module, _) = pipeline::build(&app.openmp_source(), config).expect("build");
    let mut dev = Device::new(Arc::new(module), app.device_config()).expect("device");
    dev.set_jobs(jobs);
    let workload = app.prepare(&mut dev).expect("prepare");
    let stats = dev
        .launch(app.kernel_name(), &workload.args, app.dims())
        .expect("launch")
        .stats;
    let out = dev
        .read_f64(workload.out_buf, workload.out_len)
        .expect("readback");
    (
        out.iter().map(|v| v.to_bits()).collect(),
        stats.team_cycles.clone(),
        stats.snapshot(),
    )
}

#[test]
fn parallel_execution_is_bit_identical_to_sequential() {
    for app in all_proxies(Scale::Small) {
        for config in [BuildConfig::NoOpenmpOpt, BuildConfig::LlvmDev] {
            let (bits1, teams1, snap1) = run_with_jobs(app.as_ref(), config, 1);
            let (bits4, teams4, snap4) = run_with_jobs(app.as_ref(), config, 4);
            assert_eq!(
                bits1,
                bits4,
                "{} under {}: outputs differ between --jobs 1 and --jobs 4",
                app.name(),
                config.label()
            );
            assert_eq!(
                teams1,
                teams4,
                "{} under {}: per-team cycles differ between --jobs 1 and --jobs 4",
                app.name(),
                config.label()
            );
            assert_eq!(
                snap1,
                snap4,
                "{} under {}: statistics differ between --jobs 1 and --jobs 4",
                app.name(),
                config.label()
            );
        }
    }
}

#[test]
fn jobs_auto_detect_matches_sequential() {
    let apps = all_proxies(Scale::Small);
    let app = apps.first().expect("proxies").as_ref();
    let (bits1, teams1, snap1) = run_with_jobs(app, BuildConfig::LlvmDev, 1);
    let (bits0, teams0, snap0) = run_with_jobs(app, BuildConfig::LlvmDev, 0);
    assert_eq!(bits1, bits0);
    assert_eq!(teams1, teams0);
    assert_eq!(snap1, snap0);
}
