//! Prints the full build-configuration x proxy-application matrix:
//! cycles, relative speedup, registers, shared memory, and the
//! optimizer's per-configuration counts. Pass `bench` for the larger
//! workloads.
//!
//! Run with: `cargo run --release -p omp-gpu --example config_matrix [bench]`

use omp_gpu::{all_proxies, BuildConfig, Job, Scale, Store, Subject};
fn main() {
    let scale = match std::env::args().nth(1).as_deref() {
        Some("bench") => Scale::Bench,
        _ => Scale::Small,
    };
    let mut store = Store::new(0);
    for app in all_proxies(scale) {
        println!("== {} ==", app.name());
        let job = Job::new(Subject::Proxy(app.as_ref()), BuildConfig::default());
        let outcomes = job.run_configs(&mut store, &BuildConfig::ALL);
        let base = outcomes[0].snapshot().map(|s| s.cycles);
        for o in &outcomes {
            match &o.result {
                Ok(done) => {
                    let s = &done.stats;
                    let rel = base.map(|b| b as f64 / s.cycles as f64).unwrap_or(0.0);
                    println!(
                        "  {:44} {:>10} cyc  {:>6.2}x  regs={:<3} smem={:<6} heap={}",
                        format!("{:?}", o.config),
                        s.cycles,
                        rel,
                        s.registers,
                        s.shared_mem_bytes,
                        s.heap_bytes
                    );
                }
                Err(e) => println!("  {:44} FAILED: {e}", format!("{:?}", o.config)),
            }
            if let Some(r) = o.report() {
                let c = r.counts;
                println!(
                    "      h2s={} h2shared={} spmd={} csm=({}) {} EM={} PL={} LP={} remarks={}",
                    c.heap_to_stack,
                    c.heap_to_shared,
                    c.spmdized,
                    c.csm_possible,
                    c.csm_rewritten,
                    c.folds_exec_mode,
                    c.folds_parallel_level,
                    c.folds_launch_params,
                    r.remarks.len()
                );
            }
        }
    }
}
