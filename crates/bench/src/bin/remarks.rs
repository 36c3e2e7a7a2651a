//! Dumps every optimization remark (paper Section IV-D) emitted while
//! compiling the four proxy applications with the full pipeline —
//! the "actionable and informative feedback" deliverable.
//!
//! Usage:
//! `cargo run --release -p omp-bench --bin remarks [--scale small] [--json]`
//!
//! With `--json` the remarks are printed in the machine-readable
//! JSON-lines format of `docs/remarks.md` (one object per remark,
//! prefixed by nothing, suitable for piping into `jq`), followed by a
//! per-pass statistics table on stderr-free stdout lines starting with
//! `#`.

use omp_bench::args;
use omp_benchmarks::all_proxies;
use omp_gpu::{pipeline, BuildConfig};

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let scale = args().scale;
    if !json {
        println!("Optimization remarks (LLVM Dev pipeline; see docs/remarks.md)");
    }
    for app in all_proxies(scale) {
        let (_, report) = pipeline::build(&app.openmp_source(), BuildConfig::LlvmDev)
            .unwrap_or_else(|e| panic!("{}: {e}", app.name()));
        let report = report.expect("optimizer ran");
        if json {
            println!("# {} ({} remarks)", app.name(), report.remarks.len());
            print!("{}", report.remarks.to_json_lines());
            for s in report.pass_stats() {
                println!(
                    "# pass={} transformed={} missed={} bytes_moved={}",
                    s.pass, s.transformed, s.missed, s.bytes_moved
                );
            }
        } else {
            println!("\n== {} ({} remarks) ==", app.name(), report.remarks.len());
            for r in report.remarks.all() {
                println!("  {r}");
            }
        }
    }
}
