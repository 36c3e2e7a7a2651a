//! `ompbench`: the repository benchmark.
//!
//! Drives the system only through public functions of the workspace
//! crates, from a package with its own workspace so nothing in the root
//! manifest, lock file or CI sees it. See `benchmark/README.md`.
//!
//! ```text
//! ompbench --workload NAME --trace 0|1 [--seed N] [--seconds S]   one run
//! ompbench [--workload NAME] [--seed N] [--seconds S]             every workload, both ways
//! ompbench --repeat SETS RUNS [--workload NAME] [...]             do two sets of runs agree?
//! ```
//!
//! One run prints its metrics by name and unit and, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. Without `--trace` each workload runs untraced and
//! traced in a child process of its own (fresh allocator, own `VmHWM`).
//!
//! Exit codes: 0 every output correct; 1 an op's output was wrong; 2 the
//! run was void (bad flags, differing release profiles, a pass that did
//! different work, a cold cache on `serve_warm`, a shed request).

mod gen;
mod harness;
mod metrics;
mod repeat;
mod stats;
mod trace;
mod workloads;

use metrics::{END_TO_END, PER_LAYER};
use std::process::{Command, ExitCode};

/// Where traces and daemon sockets go; ignored by git.
pub const OUT_DIR: &str = "benchmark/out";

/// Environment overrides the simulator and the daemon read. A leftover
/// one would silently change the tier, the worker count or the
/// instruction budget of everything measured.
const SCRUBBED: [&str; 3] = ["OMPGPU_JOBS", "OMPGPU_TIER", "OMPGPU_MAX_INSTS"];

pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    /// `(sets, runs)` of `--repeat`.
    repeat: Option<(usize, usize)>,
}

impl Args {
    /// The workload named, or all of them.
    fn workloads(&self) -> Vec<&str> {
        match &self.workload {
            Some(w) => vec![w.as_str()],
            None => workloads::NAMES.to_vec(),
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10,
        trace: None,
        repeat: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or("--seconds needs a whole number from 1 to 60")?
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                })
            }
            "--repeat" => {
                let mut count = || -> Result<usize, String> {
                    value()?
                        .parse()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or("--repeat needs two positive whole numbers: SETS RUNS".into())
                };
                args.repeat = Some((count()?, count()?))
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if let Some(w) = &args.workload {
        if !workloads::NAMES.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w:?} (known: {})",
                workloads::NAMES.join(", ")
            ));
        }
    }
    Ok(args)
}

/// The `key = value` lines of a manifest's `[profile.release]` table,
/// sorted, comments and blank lines dropped.
fn release_profile(manifest: &str) -> Vec<String> {
    let mut lines: Vec<String> = manifest
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty())
        .map(|l| l.split_whitespace().collect::<String>())
        .collect();
    lines.sort();
    lines
}

/// The benchmark is a package of its own, so it builds under its own
/// `[profile.release]`. That table must equal the one the shipped
/// binaries build under, or the benchmark measures a build nobody runs
/// and a later change to the shipped profile goes unmeasured.
fn check_release_profiles() -> Result<(), String> {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path} (run from the repository root): {e}"))
    };
    let (root, own) = (
        release_profile(&read("Cargo.toml")?),
        release_profile(&read("benchmark/Cargo.toml")?),
    );
    if root.is_empty() || root != own {
        return Err(format!(
            "[profile.release] differs: Cargo.toml has {root:?}, benchmark/Cargo.toml has {own:?}"
        ));
    }
    Ok(())
}

/// One workload, one way. Prints the result line last.
fn run_one(workload: &str, args: &Args, traced: bool) -> Result<bool, String> {
    check_release_profiles()?;
    let passes = workloads::passes_per_round(workload, args.seconds);
    let make = || workloads::make(workload, args.seed);
    println!(
        "workload={workload} seed={} trace={} rounds={} passes_per_round={passes} host_cpus={}",
        args.seed,
        u8::from(traced),
        harness::ROUNDS,
        host_cpus()
    );
    let (defs, outcome) = if traced {
        let t = harness::run_traced(&make, passes)?;
        std::fs::create_dir_all(OUT_DIR).map_err(|e| e.to_string())?;
        let path = format!("{OUT_DIR}/{workload}.trace.json");
        let chrome = omp_telemetry::chrome_trace(t.spans.spans());
        omp_json::validate(&chrome).map_err(|e| format!("the trace is not valid JSON: {e}"))?;
        std::fs::write(&path, chrome).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!(
            "trace: {path} ({} spans, {} traced passes)",
            t.spans.spans().len(),
            t.spans.traced_passes()
        );
        println!("self time by layer, traced passes:");
        let layers = t.spans.layer_self_ms(true);
        let total: f64 = layers.iter().map(|l| l.1).sum();
        for (layer, ms) in &layers {
            println!("  {layer:<36} {ms:>16.3} ms {:>6.1} %", 100.0 * ms / total);
        }
        let detached = t.spans.layer_self_ms(false);
        if !detached.is_empty() {
            println!("self time outside the passes (set-up, probes, other threads):");
            for (layer, ms) in &detached {
                println!("  {layer:<36} {ms:>16.3} ms");
            }
        }
        (PER_LAYER, t.outcome)
    } else {
        (END_TO_END, harness::run_untraced(&make, passes)?)
    };
    println!("corpus_hash={:016x}", outcome.corpus_hash);
    let rounds: Vec<String> = outcome
        .round_ms
        .iter()
        .map(|ms| format!("{ms:.2}"))
        .collect();
    println!("round medians, ms: {}", rounds.join(" "));
    if !traced {
        println!(
            "sim_cycles={} (model cycles per pass; compare between commits, never as time)",
            outcome.sim_cycles
        );
    }
    println!("metrics:");
    print!("{}", metrics::table(defs, &outcome.values, traced));
    println!(
        "{}",
        metrics::result_line(defs, &outcome.values, outcome.attempted, outcome.failed)
    );
    Ok(outcome.failed == 0)
}

/// This binary again as a child process running one workload one way:
/// a fresh allocator and a `VmHWM` of its own.
fn child(workload: &str, traced: bool, args: &Args) -> Result<Command, String> {
    let mut child = Command::new(std::env::current_exe().map_err(|e| e.to_string())?);
    child
        .args(["--workload", workload])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()]);
    for var in SCRUBBED {
        child.env_remove(var);
    }
    Ok(child)
}

/// Every workload (or the one named), untraced then traced.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut all_correct = true;
    for name in args.workloads() {
        for traced in [false, true] {
            let status = child(name, traced, args)?
                .status()
                .map_err(|e| format!("cannot start {name}: {e}"))?;
            match status.code() {
                Some(0) => {}
                Some(1) => all_correct = false,
                _ => return Err(format!("{name} was void: {status}")),
            }
            println!();
        }
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    // Before any thread exists, so removing variables is sound.
    for var in SCRUBBED {
        if std::env::var_os(var).is_some() {
            eprintln!("ompbench: ignoring {var} from the environment");
            std::env::remove_var(var);
        }
    }
    let run = parse_args().and_then(|args| match (&args.workload, args.trace, args.repeat) {
        (_, None, Some((sets, runs))) => repeat::repeat(&args, sets, runs),
        (_, Some(_), Some(_)) => Err("--repeat runs untraced; drop --trace".into()),
        (Some(w), Some(traced), None) => run_one(w, &args, traced),
        (None, Some(_), None) => Err("--trace needs --workload".into()),
        (_, None, None) => run_all(&args),
    });
    match run {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("ompbench: an output was wrong, or two sets of runs disagree");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("ompbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn release_profile_ignores_comments_order_and_spacing() {
        let root = "[workspace]\nmembers = []\n\n# why\n[profile.release]\nlto = \"thin\"\n\
                    codegen-units = 1 # one\n\n[workspace.dependencies]\nx = 1\n";
        let own = "[profile.release]\ncodegen-units=1\nlto   =  \"thin\"\n";
        assert_eq!(release_profile(root), ["codegen-units=1", "lto=\"thin\""]);
        assert_eq!(release_profile(root), release_profile(own));
        assert_ne!(
            release_profile(root),
            release_profile("[profile.release]\nlto = \"fat\"\ncodegen-units = 1\n")
        );
        assert!(release_profile("[package]\nname = \"x\"\n").is_empty());
    }

    #[test]
    fn the_two_manifests_agree_today() {
        let read = |p: &str| std::fs::read_to_string(p).unwrap();
        let dir = env!("CARGO_MANIFEST_DIR");
        assert_eq!(
            release_profile(&read(&format!("{dir}/../Cargo.toml"))),
            release_profile(&read(&format!("{dir}/Cargo.toml")))
        );
    }

    #[test]
    fn every_workload_gets_at_least_two_passes_a_round() {
        for name in workloads::NAMES {
            assert!(workloads::passes_per_round(name, 1) >= 2, "{name}");
            assert!(
                workloads::passes_per_round(name, 20) >= workloads::passes_per_round(name, 10),
                "{name}"
            );
        }
    }
}
