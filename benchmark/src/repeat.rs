//! `--repeat SETS RUNS`: does the benchmark agree with itself?
//!
//! Runs every workload `SETS × RUNS` times untraced on the same code and
//! compares the sets' medians per end-to-end metric against the bound
//! `BENCHMARK.json` fixes for it. Two sets of one commit that disagree by
//! more than the bound mean the bound cannot tell a regression from the
//! host's mood. Sets take turns run by run, so a slow spell of the host
//! lands on all of them.

use crate::metrics::END_TO_END;
use crate::stats::median;
use crate::{child, Args};
use omp_json::Value;

/// `(metric, bound)` for every end-to-end metric, from `BENCHMARK.json`.
fn bounds() -> Result<Vec<(&'static str, f64)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = omp_json::parse(&text)?;
    let listed = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    END_TO_END
        .iter()
        .map(|d| {
            listed
                .iter()
                .find(|m| m.get("name").and_then(Value::as_str) == Some(d.name))
                .and_then(|m| m.get("bound"))
                .and_then(Value::as_f64)
                .map(|b| (d.name, b))
                .ok_or(format!("BENCHMARK.json fixes no bound for {}", d.name))
        })
        .collect()
}

/// One untraced run in a child process; its end-to-end values in
/// catalogue order.
fn run(workload: &str, args: &Args) -> Result<Vec<f64>, String> {
    let output = child(workload, false, args)?
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload} failed: {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let result = omp_json::parse(stdout.lines().last().unwrap_or(""))?;
    END_TO_END
        .iter()
        .map(|d| {
            result
                .get("metrics")
                .and_then(|m| m.get(d.name))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
                .ok_or(format!("{workload} reported no {}", d.name))
        })
        .collect()
}

/// Returns whether every pair of sets agrees within every bound.
pub fn repeat(args: &Args, sets: usize, runs: usize) -> Result<bool, String> {
    let bounds = bounds()?;
    println!(
        "{sets} sets of {runs} runs, seed {}; medians per set, worst pairwise difference, bound",
        args.seed
    );
    let mut agree = true;
    for name in args.workloads() {
        // values[set][metric] holds one sample per run.
        let mut values = vec![vec![Vec::new(); END_TO_END.len()]; sets];
        for _ in 0..runs {
            for set in values.iter_mut() {
                for (samples, value) in set.iter_mut().zip(run(name, args)?) {
                    samples.push(value);
                }
            }
        }
        println!("{name}");
        for (m, (metric, bound)) in bounds.iter().enumerate() {
            let medians: Vec<f64> = values.iter().map(|set| median(&set[m])).collect();
            let (low, high) = medians
                .iter()
                .fold((f64::INFINITY, 0.0_f64), |(l, h), &x| (l.min(x), h.max(x)));
            let difference = (high - low) / low;
            let verdict = if difference <= *bound {
                "ok"
            } else {
                "DISAGREE"
            };
            agree &= difference <= *bound;
            let shown: Vec<String> = medians.iter().map(|x| format!("{x:.4}")).collect();
            println!(
                "  {metric:<12} {:<40} {:>6.2} %  bound {:>4.0} %  {verdict}",
                shown.join("  "),
                100.0 * difference,
                100.0 * bound
            );
        }
    }
    Ok(agree)
}
