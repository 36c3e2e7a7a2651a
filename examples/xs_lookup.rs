//! The paper's motivating workload: XSBench's macroscopic cross-section
//! lookup, run under every build configuration of Figure 11a.
//!
//! Run with: `cargo run --release -p omp-gpu --example xs_lookup`

use omp_gpu::{all_proxies, pipeline, Scale};

fn main() {
    let apps = all_proxies(Scale::Small);
    let xs = apps
        .iter()
        .find(|a| a.name() == "XSBench")
        .expect("XSBench registered");
    println!("XSBench: continuous-energy macroscopic cross-section lookup");
    println!("(memory-bound; three globalized locals per lookup)\n");
    let outcomes = pipeline::run_all_configs(xs.as_ref());
    let base = outcomes[0].cycles().expect("baseline runs");
    for o in &outcomes {
        match o.cycles() {
            Some(c) => println!(
                "  {:<44} {:>10} cycles   {:>5.2}x",
                o.config.label(),
                c,
                base as f64 / c as f64
            ),
            None => println!("  {:<44} {}", o.config.label(), o.failure()),
        }
    }
    println!("\nAll configurations verified against the host reference.");
}
