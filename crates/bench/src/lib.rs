//! # omp-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation (Section V):
//!
//! * `fig9` — optimization opportunities and remarks per benchmark
//!   (Figure 9);
//! * `fig10` — kernel time, shared memory and register usage per build
//!   (Figure 10);
//! * `fig11` — relative kernel performance per configuration
//!   (Figures 11a–11d), with the paper's reported values alongside.
//!
//! Wall-clock time is the repository benchmark's job
//! (`benchmark/README.md`); these binaries print simulated counts.

use omp_benchmarks::Scale;
use omp_gpu::pipeline::RunOutcome;
use omp_gpu::{all_proxies, pipeline};

/// Results for one proxy application across every configuration.
pub struct ProxyResults {
    /// Benchmark name.
    pub name: &'static str,
    /// One outcome per [`omp_gpu::BuildConfig::ALL`] entry.
    pub outcomes: Vec<RunOutcome>,
}

/// Runs every proxy under every configuration at the given scale.
pub fn collect(scale: Scale) -> Vec<ProxyResults> {
    all_proxies(scale)
        .into_iter()
        .map(|app| ProxyResults {
            name: match app.name() {
                "XSBench" => "XSBench",
                "RSBench" => "RSBench",
                "SU3Bench" => "SU3Bench",
                _ => "miniQMC",
            },
            outcomes: pipeline::run_all_configs(app.as_ref()),
        })
        .collect()
}

/// The figure binaries' command line: the proxy scale and the bare
/// words, in order. Flags other than `--scale` are left to the binary.
#[derive(Debug, PartialEq)]
pub struct Args {
    pub scale: Scale,
    pub words: Vec<String>,
}

/// Parses `argv` (without the program name): `--scale small|bench`,
/// else `env_scale` (the `OMP_BENCH_SCALE` variable), else `bench`. An
/// unknown scale, or `--scale` without a value, is an error naming it,
/// never a silent fallback to `bench`.
pub fn parse_args(argv: &[String], env_scale: Option<&str>) -> Result<Args, String> {
    let scale = |v: &str, what: &str| match v {
        "small" => Ok(Scale::Small),
        "bench" => Ok(Scale::Bench),
        _ => Err(format!(
            "invalid value {v:?} for {what} (expected small or bench)"
        )),
    };
    let mut args = Args {
        scale: env_scale.map_or(Ok(Scale::Bench), |v| scale(v, "OMP_BENCH_SCALE"))?,
        words: Vec::new(),
    };
    let mut rest = argv.iter();
    while let Some(a) = rest.next() {
        if a == "--scale" {
            let v = rest.next().ok_or("missing value for --scale")?;
            args.scale = scale(v, "--scale")?;
        } else if !a.starts_with("--") {
            args.words.push(a.clone());
        }
    }
    Ok(args)
}

/// [`parse_args`] over this process's arguments and environment; a
/// usage error prints one line and exits 2.
pub fn args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let env_scale = std::env::var("OMP_BENCH_SCALE").ok();
    parse_args(&argv, env_scale.as_deref()).unwrap_or_else(|e| {
        eprintln!("omp-bench: {e}");
        std::process::exit(2)
    })
}

/// Formats a cycle count with thousands separators.
pub fn fmt_cycles(c: u64) -> String {
    let s = c.to_string();
    let mut out = String::new();
    for (i, ch) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(ch);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_comes_from_the_flag_then_the_environment_and_is_strict() {
        let argv = |words: &[&str]| words.iter().map(|w| w.to_string()).collect::<Vec<_>>();
        let parse = |words: &[&str], env| parse_args(&argv(words), env);
        let small = parse(&["--json", "--scale", "small", "xsbench"], None).unwrap();
        assert_eq!(small.scale, Scale::Small);
        assert_eq!(small.words, ["xsbench"]);
        assert_eq!(parse(&[], None).unwrap().scale, Scale::Bench);
        assert_eq!(parse(&[], Some("small")).unwrap().scale, Scale::Small);
        let flag_wins = parse(&["--scale", "bench"], Some("small")).unwrap();
        assert_eq!(flag_wins.scale, Scale::Bench);
        assert_eq!(
            parse(&["--scale", "smal"], None),
            Err("invalid value \"smal\" for --scale (expected small or bench)".into())
        );
        assert_eq!(
            parse(&["--scale"], None),
            Err("missing value for --scale".into())
        );
        assert_eq!(
            parse(&[], Some("huge")),
            Err("invalid value \"huge\" for OMP_BENCH_SCALE (expected small or bench)".into())
        );
    }

    #[test]
    fn cycle_formatting() {
        assert_eq!(fmt_cycles(0), "0");
        assert_eq!(fmt_cycles(999), "999");
        assert_eq!(fmt_cycles(1000), "1,000");
        assert_eq!(fmt_cycles(1234567), "1,234,567");
    }
}
