//! The paper's motivating workload: XSBench's macroscopic cross-section
//! lookup, run under every build configuration of Figure 11a.
//!
//! Run with: `cargo run --release -p omp-gpu --example xs_lookup`

use omp_gpu::{all_proxies, BuildConfig, Job, Scale, Store, Subject};

fn main() {
    let apps = all_proxies(Scale::Small);
    let xs = apps
        .iter()
        .find(|a| a.name() == "XSBench")
        .expect("XSBench registered");
    println!("XSBench: continuous-energy macroscopic cross-section lookup");
    println!("(memory-bound; three globalized locals per lookup)\n");
    let job = Job::new(Subject::Proxy(xs.as_ref()), BuildConfig::default());
    let outcomes = job.run_configs(&mut Store::new(0), &BuildConfig::ALL);
    let cycles = |i: usize| outcomes[i].result.as_ref().map(|done| done.stats.cycles);
    let base = cycles(0).expect("baseline runs");
    for (i, o) in outcomes.iter().enumerate() {
        match cycles(i) {
            Ok(c) => println!(
                "  {:<44} {:>10} cycles   {:>5.2}x",
                o.config.label(),
                c,
                base as f64 / c as f64
            ),
            Err(e) => println!("  {:<44} {}", o.config.label(), e.tagged()),
        }
    }
    println!("\nAll configurations verified against the host reference.");
}
