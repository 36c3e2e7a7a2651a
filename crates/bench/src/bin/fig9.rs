//! Regenerates the paper's Figure 9: optimization opportunities and
//! remarks emitted for the benchmarked kernels.
//!
//! Usage: `cargo run --release -p omp-bench --bin fig9 [--scale small]`

use omp_bench::{args, collect};
use omp_gpu::BuildConfig;

fn main() {
    let scale = args().scale;
    println!("Figure 9: optimization opportunities and remarks (LLVM Dev pipeline)");
    println!();
    println!(
        "{:<10} | {:^23} | {:^21} | {:^17} | {:^7}",
        "", "Section IV-A", "Section IV-B", "Section IV-C", "IV-D"
    );
    println!(
        "{:<10} | {:>10} / {:<10} | {:>8} / {:<10} | {:>6} / {:<8} | {:>7}",
        "", "heap-2-stack", "shared", "CSM", "SPMDization", "EM", "PL", "Remarks"
    );
    println!("{}", "-".repeat(92));
    for pr in collect(scale) {
        let dev = pr
            .outcomes
            .iter()
            .find(|o| o.config == BuildConfig::LlvmDev)
            .expect("dev outcome");
        let Some(report) = dev.report() else {
            continue;
        };
        let c = report.counts;
        // The paper parenthesizes CSM when SPMDization obsoletes it.
        let csm = if c.spmdized > 0 && c.csm_possible > 0 {
            format!("({})", c.csm_possible)
        } else if c.csm_possible == 0 {
            "n/a".to_string()
        } else {
            format!("{}", c.csm_rewritten)
        };
        let spmd = if c.csm_possible == 0 {
            "n/a".to_string()
        } else {
            format!("{}", c.spmdized)
        };
        println!(
            "{:<10} | {:>12} / {:<8} | {:>8} / {:<10} | {:>6} / {:<8} | {:>7}",
            pr.name,
            c.heap_to_stack,
            c.heap_to_shared,
            csm,
            spmd,
            c.folds_exec_mode,
            c.folds_parallel_level,
            // Section IV-D is `openmp-opt`'s remarks (OMP1xx); the
            // mid-end's OMP2xx share the stream but not the column.
            report
                .remarks
                .all()
                .iter()
                .filter(|r| (100..200).contains(&r.id))
                .count(),
        );
    }
    println!();
    println!("Paper (Fig. 9):  XSBench 3/0, n/a, 5/1, 3   RSBench 7/0, n/a, 5/1, 7");
    println!("                 SU3Bench 4/0, (1)/1, 2/2, 5   miniQMC 3/18, (1)/1, 3/2, 22");
}
