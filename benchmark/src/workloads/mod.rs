//! The six workloads. Each stresses one layer and leaves the others idle,
//! so a change to one layer moves one workload and a change that moves
//! several is visible as such. `benchmark/README.md` records why each
//! exists.

mod compile_sweep;
mod launch_storm;
mod serve;
mod sim;

use crate::harness::Workload;

/// Workload names, in reporting order.
pub const NAMES: [&str; 6] = [
    "compile_sweep",
    "sim_proxies",
    "sim_instrumented",
    "launch_storm",
    "serve_warm",
    "serve_churn",
];

/// Passes per round for a run of `seconds` seconds (minimum 2).
///
/// The table holds the passes that fill one second on the 2-vCPU host
/// this was sized on, so ten rounds last about `seconds`. It is a table
/// and not a calibration loop because the pass count sets how much work
/// the warm-up round does, and `setup_s` must not depend on how fast the
/// host happened to be while calibrating.
pub fn passes_per_round(workload: &str, seconds: u64) -> usize {
    let per_second = match workload {
        "compile_sweep" => 4.0,
        "sim_proxies" => 3.0,
        "sim_instrumented" => 2.0,
        "launch_storm" => 12.0,
        "serve_warm" => 3.0,
        "serve_churn" => 10.0,
        _ => 1.0,
    };
    ((per_second * seconds as f64 / crate::harness::ROUNDS as f64).round() as usize).max(2)
}

/// Builds the named workload from the seed; this is the set-up that
/// `setup_s` times.
pub fn make(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "compile_sweep" => Box::new(compile_sweep::CompileSweep::new(seed)?),
        "sim_proxies" => Box::new(sim::Sim::new(seed, sim::Mode::Proxies)?),
        "sim_instrumented" => Box::new(sim::Sim::new(seed, sim::Mode::Instrumented)?),
        "launch_storm" => Box::new(launch_storm::LaunchStorm::new(seed)?),
        "serve_warm" => Box::new(serve::Serve::new(seed, serve::Mix::Warm)?),
        "serve_churn" => Box::new(serve::Serve::new(seed, serve::Mix::Churn)?),
        other => {
            return Err(format!(
                "unknown workload {other:?} (known: {})",
                NAMES.join(", ")
            ))
        }
    })
}

/// FNV-1a over a sequence of counts: the pass fingerprint.
pub(crate) fn fingerprint(counts: &[u64]) -> u64 {
    let bytes: Vec<u8> = counts.iter().flat_map(|c| c.to_le_bytes()).collect();
    omp_json::fnv1a(&bytes)
}
