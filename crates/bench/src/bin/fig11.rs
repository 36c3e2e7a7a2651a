//! Regenerates the paper's Figure 11 (a-d): GPU kernel performance per
//! optimization configuration, normalized to the LLVM 12 baseline.
//!
//! Usage:
//!   cargo run --release -p omp-bench --bin fig11 [--scale small] [benchmark-name]
//! where `name` filters to one of xsbench/rsbench/su3bench/miniqmc
//! (case-insensitive substring); a name matching none is exit 2.

use omp_bench::{args, collect, fmt_cycles};
use omp_gpu::{all_proxies, Outcome};

/// Paper-reported relative values (Figure 11), for side-by-side shape
/// comparison. `None` = not reported / OOM.
fn paper_values(bench: &str) -> [(&'static str, Option<f64>); 7] {
    match bench {
        "XSBench" => [
            ("LLVM 12", Some(1.0)),
            ("No OpenMP Optimization", Some(1.69)),
            ("h2s2", Some(1.69)),
            ("h2s2 + RTCspec", Some(1.53)),
            ("h2s2 + RTCspec + CSM", None),
            ("LLVM Dev", Some(1.53)),
            ("CUDA", Some(2.14)),
        ],
        "RSBench" => [
            ("LLVM 12", Some(1.0)),
            ("No OpenMP Optimization", None), // OOM
            ("h2s2", Some(13.21)),
            ("h2s2 + RTCspec", Some(13.35)),
            ("h2s2 + RTCspec + CSM", Some(12.72)),
            ("LLVM Dev", Some(13.35)),
            ("CUDA", Some(13.63)),
        ],
        "SU3Bench" => [
            ("LLVM 12", Some(1.0)),
            ("No OpenMP Optimization", Some(0.57)),
            ("h2s2", Some(0.99)),
            ("h2s2 + RTCspec", Some(0.99)),
            ("h2s2 + RTCspec + CSM", Some(0.99)),
            ("LLVM Dev", Some(10.84)),
            ("CUDA", Some(32.98)),
        ],
        _ => [
            ("LLVM 12", Some(1.0)),
            ("No OpenMP Optimization", Some(0.07)),
            ("h2s2", Some(0.92)),
            ("h2s2 + RTCspec", Some(0.99)),
            ("h2s2 + RTCspec + CSM", Some(1.6)),
            ("LLVM Dev", Some(2.26)),
            ("CUDA", None),
        ],
    }
}

fn main() {
    let args = args();
    let filter = args.words.first().map(|s| s.to_lowercase());
    if let Some(f) = &filter {
        let proxies = all_proxies(args.scale);
        let names: Vec<&str> = proxies.iter().map(|p| p.name()).collect();
        if !names.iter().any(|n| n.to_lowercase().contains(f)) {
            eprintln!(
                "fig11: no proxy matches {f:?} (known: {})",
                names.join(", ")
            );
            std::process::exit(2);
        }
    }
    println!("Figure 11: kernel performance relative to LLVM 12 (higher is better)");
    for pr in collect(args.scale) {
        if let Some(f) = &filter {
            if !pr.name.to_lowercase().contains(f) {
                continue;
            }
        }
        println!();
        println!("== {} ==", pr.name);
        let cycles = |o: &Outcome| o.result.as_ref().ok().map(|done| done.stats.cycles);
        let base = cycles(&pr.outcomes[0]);
        let paper = paper_values(pr.name);
        println!(
            "  {:<44} {:>14} {:>9} {:>9}",
            "Configuration", "cycles", "measured", "paper"
        );
        for (o, (_, pval)) in pr.outcomes.iter().zip(paper.iter()) {
            let paper_str = match pval {
                Some(v) => format!("{v:.2}x"),
                None => "-".to_string(),
            };
            match (cycles(o), base) {
                (Some(c), Some(b)) => {
                    let rel = b as f64 / c as f64;
                    let bar = "#".repeat((rel * 4.0).round().max(1.0) as usize);
                    println!(
                        "  {:<44} {:>14} {:>8.2}x {:>9}  {}",
                        o.config.label(),
                        fmt_cycles(c),
                        rel,
                        paper_str,
                        bar
                    );
                }
                _ => {
                    let error = o.result.as_ref().err();
                    let out_of_memory = error.is_some_and(|e| e.is_out_of_memory());
                    println!(
                        "  {:<44} {:>14} {:>9} {:>9}",
                        o.config.label(),
                        if out_of_memory { "OOM" } else { "failed" },
                        "-",
                        paper_str
                    );
                    println!("      {}", error.map_or("failed".into(), |e| e.tagged()));
                }
            }
        }
    }
}
