//! Differential-execution oracle.
//!
//! The optimizer's correctness argument in this repository is
//! *differential*: every program is executed in the simulator under
//! every configuration of the paper's ablation matrix
//! ([`ORACLE_CONFIGS`]), and the outputs must be **bit-identical** —
//! the optimizations reorder and remove runtime machinery, never
//! arithmetic, so even floating-point results may not drift by one ulp.
//! On top of output equality the oracle asserts that resource statistics
//! move the right way along the ablation chain ([`ABLATION_CHAIN`]):
//! each added optimization may only shrink the device-heap high-water
//! mark, the number of runtime globalization allocations, and the
//! simulated kernel cost.
//!
//! Two kinds of subject are supported:
//!
//! * the four proxy benchmarks ([`verify_subject`]) —
//!   outputs are the proxy's `f64` result buffer, additionally checked
//!   against the host reference implementation;
//! * small frontend examples ([`verify_source`], [`example_files`]) —
//!   `.c` files with an `// oracle-*:` spec header (see [`ExampleSpec`])
//!   describing the kernel, launch geometry, and deterministic argument
//!   initialization; outputs are every buffer argument, read back
//!   bit-for-bit.
//!
//! `ompgpu verify`, the serve `verify` op (both through
//! [`request::verify`](crate::request::verify)) and
//! `crates/core/tests/differential.rs` are thin drivers over this module.

use crate::config::BuildConfig;
use crate::job::{Job, JobError, Knobs, Outcome, Readback, Store, Subject};
use omp_gpusim::{KernelStats, LaunchDims};
use omp_json::JsonWriter;

/// The configurations the oracle compares: every entry of the paper's
/// ablation matrix that compiles the *OpenMP* source. (`CudaStyle`
/// compiles a different source whose operation order may legally differ,
/// so it is excluded from bit-comparison.)
pub const ORACLE_CONFIGS: [BuildConfig; 6] = [
    BuildConfig::Llvm12Baseline,
    BuildConfig::NoOpenmpOpt,
    BuildConfig::H2S2,
    BuildConfig::H2S2Rtc,
    BuildConfig::H2S2RtcCsm,
    BuildConfig::LlvmDev,
];

/// The ablation chain along which resource statistics must be monotone:
/// each configuration adds one optimization over its predecessor.
/// (`Llvm12Baseline` uses a different globalization scheme and is not
/// part of the chain.)
pub const ABLATION_CHAIN: [BuildConfig; 5] = [
    BuildConfig::NoOpenmpOpt,
    BuildConfig::H2S2,
    BuildConfig::H2S2Rtc,
    BuildConfig::H2S2RtcCsm,
    BuildConfig::LlvmDev,
];

/// Differential verdict for one subject across all configurations.
#[derive(Debug)]
pub struct OracleCase {
    /// Subject name (proxy name or example file stem).
    pub name: String,
    /// One outcome per entry of [`ORACLE_CONFIGS`], in order.
    pub results: Vec<Outcome>,
    /// Divergences found (empty means the case passed).
    pub failures: Vec<String>,
    /// Failures that match a documented expectation (e.g. RSBench's
    /// out-of-memory under the LLVM 12 baseline) — informational only.
    pub expected_failures: Vec<String>,
}

impl OracleCase {
    /// Whether the case passed (no unexplained divergence).
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Number of configurations that executed to completion.
    pub fn successes(&self) -> usize {
        self.results.iter().filter(|r| r.result.is_ok()).count()
    }

    /// The serve protocol's `verify` payload.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::with_capacity(512);
        w.begin_object();
        w.key("name").string(&self.name);
        w.key("passed").bool(self.passed());
        w.key("configs").begin_array();
        for r in &self.results {
            w.begin_object();
            w.key("config").string(r.config.cli_name());
            match &r.result {
                Ok(done) => w.key("stats").raw(&done.stats_json()),
                Err(e) => w.key("error").string(&e.to_string()),
            };
            w.end_object();
        }
        w.end_array();
        for (key, list) in [
            ("failures", &self.failures),
            ("expected_failures", &self.expected_failures),
        ] {
            w.key(key).begin_array();
            for f in list {
                w.string(f);
            }
            w.end_array();
        }
        w.end_object();
        w.finish()
    }

    /// The `ompgpu verify` text block of the case.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} {} ({}/{} configs executed)\n",
            if self.passed() { "PASS" } else { "FAIL" },
            self.name,
            self.successes(),
            self.results.len()
        );
        for r in &self.results {
            match &r.result {
                Ok(done) => out.push_str(&format!(
                    "  {:<40} cycles={:<10} heap={:<8} smem={:<6} galloc={}\n",
                    r.config.label(),
                    done.stats.cycles,
                    done.stats.heap_bytes,
                    done.stats.shared_mem_bytes,
                    done.stats.globalization_allocs
                )),
                Err(e) => out.push_str(&format!("  {:<40} error: {e}\n", r.config.label())),
            }
        }
        for e in &self.expected_failures {
            out.push_str(&format!("  (expected) {e}\n"));
        }
        for f in &self.failures {
            out.push_str(&format!("  DIVERGENCE: {f}\n"));
        }
        out
    }
}

// ---------------------------------------------------------------------
// Example spec headers
// ---------------------------------------------------------------------

/// Deterministic initialization of a buffer argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufInit {
    /// All zeros.
    Zero,
    /// `buf[i] = i` (as the element type).
    Iota,
    /// `buf[i] = lcg(i)` — the benchmarks' deterministic pseudo-random
    /// sequence in `[0, 1)` (scaled to integers for `i64` buffers).
    Pseudo,
}

/// One kernel argument of an example spec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArgSpec {
    /// `f64` buffer of the given length; read back for bit-comparison.
    BufF64(usize, BufInit),
    /// `i64` buffer of the given length; read back for bit-comparison.
    BufI64(usize, BufInit),
    /// Scalar arguments.
    I64(i64),
    /// 32-bit scalar.
    I32(i32),
    /// Floating-point scalar.
    F64(f64),
}

/// Parsed `// oracle-*:` header of an example `.c` file:
///
/// ```c
/// // oracle-kernel: saxpy
/// // oracle-teams: 4
/// // oracle-threads: 32
/// // oracle-arg: buf f64 64 iota
/// // oracle-arg: f64 2.5
/// // oracle-arg: i64 64
/// void saxpy(double* a, double f, long n) { ... }
/// ```
///
/// `oracle-kernel` and at least one `oracle-arg` are required;
/// `oracle-teams`/`oracle-threads` default to the device's choice.
/// Buffer initializers are `zero`, `iota`, or `pseudo` (default `zero`).
#[derive(Debug, Clone, PartialEq)]
pub struct ExampleSpec {
    /// Kernel to launch.
    pub kernel: String,
    /// `num_teams` override.
    pub teams: Option<u32>,
    /// `thread_limit` override.
    pub threads: Option<u32>,
    /// Launch arguments in order.
    pub args: Vec<ArgSpec>,
}

impl ArgSpec {
    /// Parses the colon-separated spelling shared by the CLI's `--arg`
    /// flag and the serve protocol's `"args"` array:
    /// `buf:f64:LEN[:init]`, `buf:i64:LEN[:init]`, `i64:V`, `i32:V`,
    /// `f64:V` (init: `zero` — the default — `iota`, or `pseudo`).
    pub fn parse_colon(s: &str) -> Option<ArgSpec> {
        ArgSpec::parse_parts(&s.split(':').collect::<Vec<_>>()).ok()
    }

    /// Parses the fields of either spelling (`:`- or space-separated).
    fn parse_parts(parts: &[&str]) -> Result<ArgSpec, String> {
        let init = |name: Option<&&str>| -> Result<BufInit, String> {
            match name.copied() {
                None | Some("zero") => Ok(BufInit::Zero),
                Some("iota") => Ok(BufInit::Iota),
                Some("pseudo") => Ok(BufInit::Pseudo),
                Some(other) => Err(format!("unknown buffer init: {other:?}")),
            }
        };
        let len = |n: &str| n.parse().map_err(|_| format!("bad length: {n:?}"));
        match parts {
            ["buf", "f64", n] | ["buf", "f64", n, _] => {
                Ok(ArgSpec::BufF64(len(n)?, init(parts.get(3))?))
            }
            ["buf", "i64", n] | ["buf", "i64", n, _] => {
                Ok(ArgSpec::BufI64(len(n)?, init(parts.get(3))?))
            }
            ["i64", v] => Ok(ArgSpec::I64(
                v.parse().map_err(|_| format!("bad i64: {v:?}"))?,
            )),
            ["i32", v] => Ok(ArgSpec::I32(
                v.parse().map_err(|_| format!("bad i32: {v:?}"))?,
            )),
            ["f64", v] => Ok(ArgSpec::F64(
                v.parse().map_err(|_| format!("bad f64: {v:?}"))?,
            )),
            _ => Err(format!("malformed arg spec: {:?}", parts.join(" "))),
        }
    }
}

impl ExampleSpec {
    /// Parses the spec header out of an example source file.
    pub fn parse(source: &str) -> Result<ExampleSpec, String> {
        let mut kernel = None;
        let mut teams = None;
        let mut threads = None;
        let mut args = Vec::new();
        for line in source.lines() {
            let Some(rest) = line.trim().strip_prefix("// oracle-") else {
                continue;
            };
            let (key, value) = rest
                .split_once(':')
                .ok_or_else(|| format!("malformed oracle directive: {line:?}"))?;
            let value = value.trim();
            match key {
                "kernel" => kernel = Some(value.to_string()),
                "teams" => {
                    teams = Some(value.parse().map_err(|_| format!("bad teams: {value:?}"))?)
                }
                "threads" => {
                    threads = Some(
                        value
                            .parse()
                            .map_err(|_| format!("bad threads: {value:?}"))?,
                    )
                }
                "arg" => args.push(ArgSpec::parse_parts(
                    &value.split_whitespace().collect::<Vec<_>>(),
                )?),
                other => return Err(format!("unknown oracle directive: {other:?}")),
            }
        }
        let kernel = kernel.ok_or("missing `// oracle-kernel:` directive")?;
        if args.is_empty() {
            return Err("missing `// oracle-arg:` directives".into());
        }
        Ok(ExampleSpec {
            kernel,
            teams,
            threads,
            args,
        })
    }

    /// The job subject this spec describes for `source`.
    pub fn subject<'a>(&'a self, source: &'a str) -> Subject<'a> {
        Subject::Source {
            source,
            kernel: &self.kernel,
            dims: LaunchDims {
                teams: self.teams,
                threads: self.threads,
            },
            args: &self.args,
        }
    }
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

/// Derives the verdict from per-configuration results: bit-identical
/// outputs across every successful configuration, tolerated documented
/// failures, and monotone resource statistics along [`ABLATION_CHAIN`].
pub fn finish_case(name: &str, results: Vec<Outcome>) -> OracleCase {
    let mut failures = Vec::new();
    let mut expected_failures = Vec::new();

    // 1. Failures: tolerated only for the configurations that lack the
    //    globalization optimizations — the LLVM 12 baseline and the
    //    "No OpenMP Optimization" ablation — running out of
    //    globalization heap: the paper's documented RSBench outcome
    //    (every thread globalizes into the deliberately small default
    //    heap; at bench scale the unoptimized ablation exhausts it too).
    for r in &results {
        if let Err(e) = &r.result {
            let unoptimized = matches!(
                r.config,
                BuildConfig::Llvm12Baseline | BuildConfig::NoOpenmpOpt
            );
            if unoptimized && e.is_out_of_memory() {
                expected_failures.push(format!(
                    "{}: {e} (the paper's out-of-memory baseline result)",
                    r.config.label()
                ));
            } else {
                failures.push(format!("{}: {e}", r.config.label()));
            }
        }
    }

    // 2. Bit-identical outputs. Reference: the first successful config
    //    in matrix order.
    let outputs: Vec<(&Outcome, Vec<u64>)> = results
        .iter()
        .filter_map(|r| Some((r, r.bits()?)))
        .collect();
    if let Some((reference, ref_bits)) = outputs.first() {
        for (r, bits) in &outputs {
            if bits.len() != ref_bits.len() {
                failures.push(format!(
                    "{}: {} output values vs {} under {}",
                    r.config.label(),
                    bits.len(),
                    ref_bits.len(),
                    reference.config.label()
                ));
                continue;
            }
            if let Some(i) = (0..bits.len()).find(|&i| bits[i] != ref_bits[i]) {
                failures.push(format!(
                    "{}: output {i} is {} ({:e}) but {} under {} ({:e})",
                    r.config.label(),
                    bits[i],
                    f64::from_bits(bits[i]),
                    ref_bits[i],
                    reference.config.label(),
                    f64::from_bits(ref_bits[i]),
                ));
            }
        }
    } else {
        failures.push("no configuration executed successfully".to_string());
    }

    // 3. Monotone resource statistics along the ablation chain.
    let chain: Vec<(&Outcome, &KernelStats)> = ABLATION_CHAIN
        .iter()
        .filter_map(|c| results.iter().find(|r| r.config == *c))
        .filter_map(|r| Some((r, &r.result.as_ref().ok()?.stats)))
        .collect();
    for pair in chain.windows(2) {
        let ((a, sa), (b, sb)) = (pair[0], pair[1]);
        // Strictly monotone quantities: each optimization can only
        // remove runtime allocations and indirect dispatch.
        for (what, va, vb) in [
            ("device-heap bytes", sa.heap_bytes, sb.heap_bytes),
            (
                "globalization allocations",
                sa.globalization_allocs,
                sb.globalization_allocs,
            ),
            ("indirect calls", sa.indirect_calls, sb.indirect_calls),
        ] {
            if vb > va {
                failures.push(format!(
                    "{what} regressed along the ablation chain: {va} under {} but {vb} under {}",
                    a.config.label(),
                    b.config.label()
                ));
            }
        }
        // Simulated cost: monotone non-increasing. Every step of the
        // ladder only enables more optimization, and the mid-end runs
        // identically under every configuration on the chain, so a
        // single extra cycle means a later configuration pessimized the
        // kernel — a real bug, not noise (the simulator is
        // deterministic). The failure names the offending pair.
        if sb.cycles > sa.cycles {
            failures.push(format!(
                "kernel cycles regressed along the ablation chain: {} under {} but {} under {}",
                sa.cycles,
                a.config.label(),
                sb.cycles,
                b.config.label()
            ));
        }
    }

    OracleCase {
        name: name.to_string(),
        results,
        failures,
        expected_failures,
    }
}

/// Runs `subject` under every [`ORACLE_CONFIGS`] entry on `store` and
/// derives the verdict. The configurations share the store's frontend
/// tier, so the matrix needs at most two frontend runs. A `knobs`
/// watchdog turns a hung configuration into an ordinary
/// per-configuration failure instead of stalling the matrix.
pub fn verify_subject(
    store: &mut Store,
    name: &str,
    subject: Subject,
    knobs: &Knobs,
) -> OracleCase {
    let job = Job {
        knobs: knobs.clone(),
        readback: Readback::All,
        ..Job::new(subject, BuildConfig::default())
    };
    finish_case(name, job.run_configs(store, &ORACLE_CONFIGS))
}

/// Verifies one example source (with an `// oracle-*:` header) across
/// the full matrix on `store`.
pub fn verify_source(store: &mut Store, name: &str, source: &str, knobs: &Knobs) -> OracleCase {
    match ExampleSpec::parse(source) {
        Ok(spec) => verify_subject(store, name, spec.subject(source), knobs),
        Err(e) => OracleCase {
            name: name.to_string(),
            results: Vec::new(),
            failures: vec![JobError::Spec(e).to_string()],
            expected_failures: Vec::new(),
        },
    }
}

/// The report name of a subject file: its stem.
pub fn subject_name(path: &std::path::Path) -> String {
    path.file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string())
}

/// The `.c` files of a directory of oracle examples, sorted.
pub fn example_files(dir: &std::path::Path) -> Result<Vec<std::path::PathBuf>, String> {
    let mut entries: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .collect();
    entries.sort();
    if entries.is_empty() {
        return Err(format!("no .c examples in {}", dir.display()));
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parsing() {
        let src = r#"
// oracle-kernel: saxpy
// oracle-teams: 4
// oracle-threads: 32
// oracle-arg: buf f64 64 iota
// oracle-arg: f64 2.5
// oracle-arg: i64 64
void saxpy(double* a, double f, long n) {}
"#;
        let spec = ExampleSpec::parse(src).unwrap();
        assert_eq!(spec.kernel, "saxpy");
        assert_eq!(spec.teams, Some(4));
        assert_eq!(spec.threads, Some(32));
        assert_eq!(
            spec.args,
            vec![
                ArgSpec::BufF64(64, BufInit::Iota),
                ArgSpec::F64(2.5),
                ArgSpec::I64(64),
            ]
        );
    }

    #[test]
    fn spec_requires_kernel_and_args() {
        assert!(ExampleSpec::parse("// oracle-arg: i64 1").is_err());
        assert!(ExampleSpec::parse("// oracle-kernel: k").is_err());
        assert!(ExampleSpec::parse("// oracle-kernel: k\n// oracle-arg: bogus").is_err());
        assert!(ExampleSpec::parse("// oracle-wat: 1").is_err());
    }

    #[test]
    fn example_divergence_is_reported_end_to_end() {
        // A kernel whose oracle spec names a missing kernel fails every
        // config — the case must FAIL, not silently pass on zero data.
        let src = r#"
// oracle-kernel: nope
// oracle-arg: buf f64 8
void k(double* a) {
  #pragma omp target teams distribute parallel for
  for (long i = 0; i < 8; i++) { a[i] = 1.0; }
}
"#;
        let case = verify_source(&mut Store::new(0), "missing-kernel", src, &Knobs::default());
        assert!(!case.passed());
        assert_eq!(case.successes(), 0);
    }

    #[test]
    fn tiny_example_passes_across_matrix() {
        let src = r#"
// oracle-kernel: scale
// oracle-arg: buf f64 32 iota
// oracle-arg: f64 3.0
// oracle-arg: i64 32
void scale(double* a, double f, long n) {
  #pragma omp target teams distribute parallel for
  for (long i = 0; i < n; i++) { a[i] = a[i] * f; }
}
"#;
        let case = verify_source(&mut Store::new(0), "scale", src, &Knobs::default());
        assert!(case.passed(), "{:?}", case.failures);
        assert_eq!(case.successes(), ORACLE_CONFIGS.len());
    }
}
