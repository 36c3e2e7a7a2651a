//! `ompgpu` — a small driver CLI over the pipeline, for exploring the
//! compiler interactively:
//!
//! ```text
//! ompgpu build   kernel.c [--config dev] [--emit-ir] [--remarks] [--time-passes]
//!                [--telemetry out.json]
//! ompgpu run     kernel.c --kernel name [--config dev]
//!                [--teams N] [--threads N] [--jobs N] [--json]
//!                [--arg buf:f64:LEN[:init] | --arg buf:i64:LEN[:init]
//!                 | --arg i64:VALUE | --arg f64:VALUE | --arg i32:VALUE]
//!                [--dump N] [--time-passes] [--telemetry out.json]
//! ompgpu profile kernel.c --kernel name [--config dev | --all-configs]
//!                [--teams N] [--threads N] [--jobs N] [--arg SPEC]...
//!                [--json] [--trace out.json] [--time-passes]
//! ompgpu profile --proxy NAME [--scale small|bench] [--config dev | --all-configs]
//!                [--jobs N] [--json] [--trace out.json] [--time-passes]
//! ompgpu verify  [--scale small|bench] [--examples DIR] [--jobs N]
//!                [--watchdog SECS] [--telemetry out.json] [FILE.c ...]
//! ompgpu sanitize kernel.c | --proxy NAME | --self-test
//!                [--config CFG | --all-configs] [--scale small|bench]
//!                [--jobs N] [--max-insts N] [--json]
//! ompgpu serve   --socket PATH [--device-cache N] [--access-log PATH]
//!                [--queue N] [--deadline-ms N]
//! ompgpu client  --socket PATH [--retries N] [--ping] [--stats] [--metrics]
//!                [--shutdown]
//! ```
//!
//! Buffer arguments are device allocations initialized per the optional
//! `init` suffix (`zero` — the default — `iota`, or `pseudo`); `--dump N`
//! prints the first N elements of every buffer after the launch. When a
//! source file carries an `// oracle-*:` header (see
//! [`oracle::ExampleSpec`]), `profile` uses it for the kernel name,
//! launch geometry, and arguments unless flags override them.
//!
//! `--jobs N` sets the number of host worker threads the simulator may
//! use to execute independent teams (`0` = auto-detect; the
//! `OMPGPU_JOBS` environment variable is the default). Results — stats
//! and profiles alike — are bit-identical for every setting.
//!
//! `profile` runs the kernel with cycle-attribution profiling enabled
//! and prints a ranked hot-function table, a per-instruction-class
//! breakdown, and a runtime-entry-point cycle table. `--json` emits the
//! profile as JSON on stdout; `--trace FILE` writes a Chrome
//! trace-event timeline (load it in Perfetto or `chrome://tracing`):
//! one track per SM, spans per team and per parallel region in
//! model-cycle time. `--all-configs` profiles the kernel under every
//! configuration of the ablation matrix and prints a side-by-side
//! per-function cycle table (Figure 10 style).
//!
//! `--time-passes` prints per-stage mid-end wall times and IR deltas
//! (on stderr; wall times are host measurements and non-deterministic).
//!
//! `verify` runs the differential-execution oracle: the four proxy
//! benchmarks — plus every `.c` example with an `// oracle-*:` header
//! in `--examples DIR` or listed explicitly — are executed under all
//! six OpenMP-source configurations of the paper's ablation matrix and
//! must produce bit-identical outputs with monotone resource
//! statistics. Every launch runs under a wall-clock watchdog
//! (`--watchdog SECS`, default 60, `0` disables): a hung configuration
//! becomes an ordinary per-configuration failure with a timeout
//! diagnostic instead of stalling the whole matrix.
//!
//! `sanitize` runs the device sanitizer (see `docs/SANITIZER.md`) over
//! a source file with an `// oracle-*:` header, a proxy benchmark, or
//! — with `--self-test` — a built-in fault-injection battery that
//! proves the device degrades gracefully (structured errors, no
//! panics, no wedged workers) under injected allocation failures,
//! traps, and team aborts. Findings are merged in team-id order, so
//! they are bit-identical for every `--jobs` setting.
//!
//! `serve` runs the compile service daemon (see `docs/SERVE.md`): a
//! long-lived session with content-addressed artifact caches, speaking
//! `ompgpu-serve/v1` JSON-lines over a Unix socket. `client` connects
//! to a running daemon, sends the requests named by its flags — or,
//! with no request flags, forwards JSON-lines requests from stdin —
//! prints each response line on stdout, and exits with the highest
//! exit code any response carried.
//!
//! `--telemetry FILE` (on `build`, `run`, and `verify`) enables the
//! span tracer for the invocation and writes an `ompgpu-telemetry/v1`
//! artifact — spans with parent links plus a metrics snapshot — or a
//! Chrome trace-event timeline when FILE ends in `.trace.json` (see
//! `docs/TELEMETRY.md`). Telemetry is off by default and costs one
//! atomic load per instrumentation point when disabled.
//!
//! Every value-taking flag is read strictly: a missing or malformed
//! value is a usage error (exit `2`) naming the flag — `ompgpu: invalid
//! value "x" for --teams`, `ompgpu: missing value for --kernel` — never
//! a silent fallback to the default.
//!
//! Exit codes are stable and machine-checkable: `0` success/clean,
//! `1` compile or I/O failure, `2` usage error, `3` simulation or
//! launch failure, `4` oracle divergence, `5` error-severity sanitizer
//! findings, `6` unknown `schema` id under `json-validate`. `ompgpu
//! run --json` prints an `ompgpu-error/v1` JSON object on stdout when
//! the launch fails; `ompgpu sanitize --json` prints an
//! `ompgpu-sanitize/v1` report either way.

use omp_gpu::job::{
    Job, JobError, JobResult, Knobs, Mode, Readback, Store, Subject, EXIT_BUILD, EXIT_DIVERGED,
    EXIT_SIM, EXIT_USAGE,
};
use omp_gpu::oracle::{self, ArgSpec, BufInit, ExampleSpec, VerifyOptions, ORACLE_CONFIGS};
use omp_gpu::pipeline::{self, SanitizeOutcome};
use omp_gpu::{
    all_proxies, serve, BuildConfig, FaultPlan, LaunchDims, LaunchProfile, OptReport, ProxyApp,
    Scale, SimErrorKind, Tier,
};
use std::process::ExitCode;
use std::time::Duration;

/// Exit code for artifacts that carry an unknown `schema` id.
const EXIT_SCHEMA: u8 = 6;

/// Schema ids `json-validate` recognizes. Artifacts with a top-level
/// `schema` member outside this list fail with [`EXIT_SCHEMA`];
/// artifacts without one only get the syntax check.
const KNOWN_SCHEMAS: [&str; 6] = [
    "ompgpu-access-log/v1",
    "ompgpu-error/v1",
    "ompgpu-profile/v1",
    "ompgpu-sanitize/v1",
    "ompgpu-serve/v1",
    "ompgpu-telemetry/v1",
];

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  ompgpu build <file.c> [--config CFG] [--emit-ir] [--remarks] [--time-passes]\n             \
         [--telemetry FILE]\n  \
         ompgpu run <file.c> --kernel NAME [--config CFG] [--teams N] [--threads N]\n             \
         [--jobs N] [--tier interp|compiled] [--json] [--arg SPEC]...\n             \
         [--dump N] [--time-passes] [--telemetry FILE]\n  \
         ompgpu profile <file.c> [--kernel NAME] [--config CFG | --all-configs]\n             \
         [--teams N] [--threads N] [--jobs N] [--arg SPEC]...\n             \
         [--json] [--trace FILE] [--time-passes]\n  \
         ompgpu profile --proxy NAME [--scale small|bench] [--config CFG | --all-configs]\n             \
         [--jobs N] [--json] [--trace FILE] [--time-passes]\n  \
         ompgpu verify [--scale small|bench] [--examples DIR] [--jobs N]\n             \
         [--watchdog SECS] [--tier interp|compiled] [--telemetry FILE]\n             \
         [FILE.c ...]\n  \
         ompgpu sanitize <file.c> | --proxy NAME | --self-test\n             \
         [--config CFG | --all-configs] [--scale small|bench]\n             \
         [--jobs N] [--max-insts N] [--json]\n  \
         ompgpu serve --socket PATH [--device-cache N] [--access-log PATH]\n             \
         [--queue N] [--deadline-ms N]\n  \
         ompgpu client --socket PATH [--retries N] [--ping] [--stats] [--metrics]\n             \
         [--shutdown] (no request flags: forward JSON-lines requests from stdin)\n  \
         ompgpu json-validate <file.json>\n\n\
         CFG:  llvm12 | noopt | h2s2 | h2s2rtc | h2s2rtccsm | dev (default) | cuda\n\
         SPEC: buf:f64:LEN[:init] | buf:i64:LEN[:init] | i64:V | i32:V | f64:V\n      \
         (init: zero | iota | pseudo; default zero)\n\
         --jobs N: simulator worker threads for independent teams (0 = auto)\n\
         --max-insts N: per-thread dynamic instruction budget (runaway guard;\n      \
         the OMPGPU_MAX_INSTS environment variable is the default)\n\
         --watchdog SECS: wall-clock budget per launch (0 = off)\n\
         --tier interp|compiled: simulator execution tier (results, profiles\n      \
         and findings are bit-identical; the OMPGPU_TIER environment variable\n      \
         is the default, also for profile and sanitize)\n\
         --telemetry FILE: write spans + metrics as ompgpu-telemetry/v1\n      \
         (or a Chrome trace when FILE ends in .trace.json)\n\n\
         exit codes: 0 ok/clean, 1 compile/IO, 2 usage, 3 simulation,\n      \
         4 oracle divergence, 5 sanitizer findings, 6 unknown schema id,\n      \
         7 deadline exceeded, 8 overloaded (retry), 9 isolated panic"
    );
    ExitCode::from(EXIT_USAGE)
}

/// The one typed flag reader: every subcommand walks its arguments
/// through this, so a value-taking flag can fail only one way.
struct Flags<'a>(std::slice::Iter<'a, String>);

impl<'a> Flags<'a> {
    fn next(&mut self) -> Option<&'a str> {
        self.0.next().map(String::as_str)
    }

    /// The value of `flag`, parsed by `parse`; a missing or rejected
    /// value is a usage error naming the flag.
    fn value_with<T>(
        &mut self,
        flag: &str,
        parse: impl Fn(&'a str) -> Option<T>,
    ) -> Result<T, ExitCode> {
        let Some(v) = self.next() else {
            eprintln!("ompgpu: missing value for {flag}");
            return Err(ExitCode::from(EXIT_USAGE));
        };
        parse(v).ok_or_else(|| {
            eprintln!("ompgpu: invalid value {v:?} for {flag}");
            ExitCode::from(EXIT_USAGE)
        })
    }

    fn value<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, ExitCode> {
        self.value_with(flag, |s| s.parse().ok())
    }
}

fn parse_scale(s: &str) -> Option<Scale> {
    match s {
        "small" => Some(Scale::Small),
        "bench" => Some(Scale::Bench),
        _ => None,
    }
}

/// Reads a subject file; `who` prefixes the diagnostic.
fn read_source(who: &str, path: &str) -> Result<String, ExitCode> {
    std::fs::read_to_string(path).map_err(|e| {
        eprintln!("{who}: cannot read {path}: {e}");
        ExitCode::from(EXIT_BUILD)
    })
}

/// A usage error of `command` that needs no usage screen.
fn usage_error(command: &str, message: &str) -> ExitCode {
    eprintln!("ompgpu {command}: {message}");
    ExitCode::from(EXIT_USAGE)
}

/// An unknown flag: names it, prints the usage screen, exits 2.
fn unknown_flag(command: &str, flag: &str) -> ExitCode {
    eprintln!("ompgpu{command}: unknown flag {flag}");
    usage()
}

/// The proxy called `name` (case-insensitive).
fn find_proxy<'p>(
    proxies: &'p [Box<dyn ProxyApp>],
    name: &str,
) -> Result<&'p dyn ProxyApp, String> {
    proxies
        .iter()
        .find(|p| p.name().eq_ignore_ascii_case(name))
        .map(|p| p.as_ref())
        .ok_or_else(|| {
            let known: Vec<&str> = proxies.iter().map(|p| p.name()).collect();
            format!("unknown proxy {name:?} (known: {})", known.join(", "))
        })
}

fn verify_main(args: &[String]) -> Result<ExitCode, ExitCode> {
    let mut scale = Scale::Small;
    let mut opts = VerifyOptions {
        watchdog: Some(Duration::from_secs(60)),
        ..VerifyOptions::default()
    };
    let mut telemetry: Option<String> = None;
    let mut dirs: Vec<String> = Vec::new();
    let mut files: Vec<String> = Vec::new();
    let mut flags = Flags(args.iter());
    while let Some(a) = flags.next() {
        match a {
            "--scale" => scale = flags.value_with(a, parse_scale)?,
            "--telemetry" => telemetry = Some(flags.value(a)?),
            "--jobs" => opts.jobs = Some(flags.value(a)?),
            "--watchdog" => {
                let secs: u64 = flags.value(a)?;
                opts.watchdog = (secs > 0).then(|| Duration::from_secs(secs));
            }
            "--tier" => opts.tier = Some(flags.value_with(a, Tier::parse)?),
            "--examples" => dirs.push(flags.value(a)?),
            f if !f.starts_with('-') => files.push(f.to_string()),
            _ => return Err(usage()),
        }
    }
    if telemetry.is_some() {
        telemetry_begin();
    }
    let fail = |e: String| {
        eprintln!("ompgpu verify: {e}");
        ExitCode::from(EXIT_BUILD)
    };
    let mut report = oracle::verify_proxies(scale, &opts);
    for dir in &dirs {
        let found = oracle::verify_examples_dir(std::path::Path::new(dir), &opts);
        report.cases.extend(found.map_err(fail)?.cases);
    }
    for file in &files {
        let case = oracle::verify_file(std::path::Path::new(file), &opts);
        report.cases.push(case.map_err(fail)?);
    }
    print!("{}", report.render());
    let (pass, total) = (
        report.cases.iter().filter(|c| c.passed()).count(),
        report.cases.len(),
    );
    println!("{pass}/{total} cases passed");
    if let Some(tpath) = &telemetry {
        let mut reg = omp_telemetry::MetricsRegistry::new();
        reg.counter_add("verify.cases", total as u64);
        reg.counter_add("verify.passed", pass as u64);
        reg.counter_add("verify.failed", (total - pass) as u64);
        telemetry_write(tpath, &reg).map_err(fail)?;
    }
    Ok(if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_DIVERGED)
    })
}

// ---------------------------------------------------------------------
// ompgpu sanitize
// ---------------------------------------------------------------------

fn sanitize_main(args: &[String]) -> Result<ExitCode, ExitCode> {
    let mut path: Option<String> = None;
    let mut proxy: Option<String> = None;
    let mut self_test = false;
    let mut scale = Scale::Small;
    let mut config = BuildConfig::LlvmDev;
    let mut all_configs = false;
    let mut knobs = Knobs {
        watchdog: Some(Duration::from_secs(60)),
        ..Knobs::default()
    };
    let mut json = false;
    let mut flags = Flags(args.iter());
    while let Some(a) = flags.next() {
        match a {
            "--proxy" => proxy = Some(flags.value(a)?),
            "--self-test" => self_test = true,
            "--scale" => scale = flags.value_with(a, parse_scale)?,
            "--config" => config = flags.value_with(a, BuildConfig::from_cli_name)?,
            "--all-configs" => all_configs = true,
            "--jobs" => knobs.jobs = Some(flags.value(a)?),
            "--max-insts" => knobs.max_insts = Some(flags.value(a)?),
            "--json" => json = true,
            f if !f.starts_with('-') && path.is_none() => path = Some(f.to_string()),
            other => return Err(unknown_flag(" sanitize", other)),
        }
    }
    let usage_error = |message: &str| usage_error("sanitize", message);
    if self_test {
        if path.is_some() || proxy.is_some() {
            return Err(usage_error("--self-test takes no subject"));
        }
        return Ok(sanitize_self_test(knobs.jobs));
    }
    let configs = match all_configs {
        true => &ORACLE_CONFIGS[..],
        false => std::slice::from_ref(&config),
    };
    let mut store = Store::new(0);
    let mut sanitize = |subject: Result<Subject, JobError>| -> Vec<SanitizeOutcome> {
        let of = |&c: &BuildConfig| match &subject {
            Ok(s) => pipeline::sanitize(&mut store, *s, c, &knobs),
            Err(e) => SanitizeOutcome::of(c, Err(e.clone())),
        };
        configs.iter().map(of).collect()
    };
    let (subject, outcomes) = if let Some(name) = proxy {
        if path.is_some() {
            return Err(usage_error(
                "give either a source file or --proxy, not both",
            ));
        }
        let proxies = all_proxies(scale);
        let app = find_proxy(&proxies, &name).map_err(|e| usage_error(&e))?;
        (app.name().to_string(), sanitize(Ok(Subject::Proxy(app))))
    } else {
        let Some(path) = path else {
            eprintln!("ompgpu sanitize: need a source file, --proxy NAME, or --self-test");
            return Err(usage());
        };
        let source = read_source("ompgpu sanitize", &path)?;
        let spec = ExampleSpec::parse(&source).map_err(JobError::Spec);
        let outcomes = sanitize(
            spec.as_ref()
                .map(|s| s.subject(&source))
                .map_err(Clone::clone),
        );
        (path, outcomes)
    };

    if json {
        println!("{}", pipeline::sanitize_report_json(&subject, &outcomes));
    } else {
        println!("sanitize {subject}:");
        for o in &outcomes {
            print!("{}", o.render());
        }
        let errors: usize = outcomes.iter().map(|o| o.error_findings()).sum();
        let notes: usize = outcomes
            .iter()
            .map(|o| o.findings.len() - o.error_findings())
            .sum();
        println!(
            "{} configuration(s), {errors} error finding(s), {notes} note(s)",
            outcomes.len()
        );
    }
    Ok(ExitCode::from(pipeline::sanitize_exit_code(&outcomes)))
}

/// A tiny kernel that globalizes per-dispatch capture structs when the
/// mid-end does not promote them — enough surface for every injected
/// fault to land on.
const SELF_TEST_SRC: &str = r#"
void counted(double* a, long n) {
  #pragma omp target teams distribute
  for (long b = 0; b < n; b++) {
    double tv = (double)b;
    #pragma omp parallel for
    for (long t = 0; t < 4; t++) {
      a[b * 4 + t] = tv;
    }
  }
}
"#;

/// Built-in fault-injection battery: every scenario must degrade into a
/// structured error (or a sanitizer note) — no panic, no hang, and the
/// same outcome for every worker-thread count.
fn sanitize_self_test(jobs: Option<u32>) -> ExitCode {
    let args = [ArgSpec::BufF64(16, BufInit::Zero), ArgSpec::I64(4)];
    let mut store = Store::new(0);
    let mut launch = |mode: Mode, jobs: Option<u32>, fault: &FaultPlan| {
        let subject = Subject::Source {
            source: SELF_TEST_SRC,
            kernel: "counted",
            dims: LaunchDims {
                teams: Some(4),
                threads: Some(4),
            },
            args: &args,
        };
        let job = Job {
            mode,
            knobs: Knobs {
                jobs,
                fault: fault.clone(),
                ..Knobs::default()
            },
            ..Job::new(subject, BuildConfig::NoOpenmpOpt)
        };
        job.run(&mut store)
    };
    type Scenario = (&'static str, FaultPlan, fn(&SimErrorKind) -> bool);
    let scenarios: [Scenario; 3] = [
        (
            "malloc failure falls out as a structured memory error",
            FaultPlan {
                fail_alloc_after: Some(0),
                ..FaultPlan::default()
            },
            |k| matches!(k, SimErrorKind::Mem(_)),
        ),
        (
            "trap at the Nth dynamic instruction",
            FaultPlan {
                trap_at_inst: Some(20),
                ..FaultPlan::default()
            },
            |k| matches!(k, SimErrorKind::FaultInjected(_)),
        ),
        (
            "single-team abort",
            FaultPlan {
                abort_team: Some(2),
                ..FaultPlan::default()
            },
            |k| matches!(k, SimErrorKind::FaultInjected(_)),
        ),
    ];
    let mut failed = 0usize;
    for (what, plan, expect) in &scenarios {
        // Run each scenario sequentially and in parallel: the injected
        // outcome must be byte-identical across worker-thread counts.
        let mut rendered: Vec<String> = Vec::new();
        for run_jobs in [1, jobs.unwrap_or(4).max(2)] {
            match launch(Mode::Plain, Some(run_jobs), plan) {
                Ok(_) => {
                    eprintln!("FAIL {what}: launch unexpectedly succeeded (jobs {run_jobs})");
                    failed += 1;
                }
                Err(JobError::Launch(e)) if expect(&e.kind) => rendered.push(e.to_string()),
                Err(e) => {
                    eprintln!("FAIL {what}: wrong error (jobs {run_jobs}): {e}");
                    failed += 1;
                }
            }
        }
        if rendered.len() == 2 && rendered[0] != rendered[1] {
            eprintln!(
                "FAIL {what}: error differs across --jobs:\n  jobs 1: {}\n  jobs N: {}",
                rendered[0], rendered[1]
            );
            failed += 1;
        } else if rendered.len() == 2 {
            println!("PASS {what}: {}", rendered[0]);
        }
    }
    // A capped shared stack must degrade into heap fallback, visible as
    // a sanitizer note — not an error.
    {
        let what = "shared-stack exhaustion falls back to the device heap";
        let plan = FaultPlan {
            shared_stack_limit: Some(0),
            ..FaultPlan::default()
        };
        match launch(Mode::Sanitize, jobs, &plan) {
            Ok(done) => {
                let fallbacks = done
                    .findings
                    .iter()
                    .filter(|f| f.kind == omp_gpu::FindingKind::SharedStackFallback)
                    .count();
                if fallbacks > 0 {
                    println!("PASS {what}: {fallbacks} fallback note(s)");
                } else {
                    eprintln!("FAIL {what}: no shared-stack-fallback note recorded");
                    failed += 1;
                }
            }
            Err(e) => {
                eprintln!("FAIL {what}: launch failed instead of degrading: {e}");
                failed += 1;
            }
        }
    }
    if failed == 0 {
        println!("self-test passed");
        ExitCode::SUCCESS
    } else {
        eprintln!("self-test: {failed} scenario(s) failed");
        ExitCode::from(EXIT_SIM)
    }
}

// ---------------------------------------------------------------------
// ompgpu serve / client
// ---------------------------------------------------------------------

/// Prints a structured (envelope-shaped) startup error on stdout and a
/// human-readable line on stderr, then exits with `EXIT_USAGE`. Startup
/// failures are machine-readable the same way request failures are.
fn serve_startup_error(message: &str) -> ExitCode {
    let mut w = omp_json::JsonWriter::with_capacity(192);
    w.begin_object();
    w.key("schema").string(serve::SCHEMA);
    w.key("ok").bool(false);
    w.key("exit_code").u64(EXIT_USAGE as u64);
    w.key("error").begin_object();
    w.key("message").string(message);
    w.end_object();
    w.end_object();
    println!("{}", w.finish());
    eprintln!("ompgpu serve: {message}");
    ExitCode::from(EXIT_USAGE)
}

fn serve_main(args: &[String]) -> Result<ExitCode, ExitCode> {
    let mut socket: Option<String> = None;
    let mut device_cache = serve::DEFAULT_DEVICE_CAPACITY;
    let mut access_log: Option<String> = None;
    let mut queue: Option<usize> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut flags = Flags(args.iter());
    while let Some(a) = flags.next() {
        match a {
            "--socket" => socket = Some(flags.value(a)?),
            "--device-cache" => device_cache = flags.value(a)?,
            "--access-log" => access_log = Some(flags.value(a)?),
            "--queue" => queue = Some(flags.value(a)?),
            "--deadline-ms" => deadline_ms = Some(flags.value(a)?),
            other => return Err(unknown_flag(" serve", other)),
        }
    }
    let Some(socket) = socket else {
        eprintln!("ompgpu serve: --socket PATH is required");
        return Err(usage());
    };
    let mut session = serve::Session::try_new(device_cache).map_err(|e| serve_startup_error(&e))?;
    if let Some(n) = queue {
        session.set_queue_capacity(n);
    }
    if let Some(ms) = deadline_ms {
        session.set_default_deadline_ms(ms);
    }
    let fail = |e: String| {
        eprintln!("ompgpu serve: {e}");
        ExitCode::from(EXIT_BUILD)
    };
    if let Some(path) = &access_log {
        session
            .set_access_log(std::path::Path::new(path))
            .map_err(fail)?;
    }
    serve::serve_unix(std::path::Path::new(&socket), session).map_err(fail)?;
    Ok(ExitCode::SUCCESS)
}

fn client_main(args: &[String]) -> Result<ExitCode, ExitCode> {
    use std::io::{BufRead, BufReader, Write as _};
    use std::os::unix::net::UnixStream;
    let mut socket: Option<String> = None;
    let mut requests: Vec<String> = Vec::new();
    let mut retries: u32 = 0;
    let mut flags = Flags(args.iter());
    while let Some(a) = flags.next() {
        match a {
            "--socket" => socket = Some(flags.value(a)?),
            "--retries" => retries = flags.value(a)?,
            "--ping" | "--stats" | "--metrics" | "--shutdown" => {
                requests.push(format!("{{\"op\":\"{}\"}}", &a[2..]))
            }
            other => return Err(unknown_flag(" client", other)),
        }
    }
    let Some(socket) = socket else {
        eprintln!("ompgpu client: --socket PATH is required");
        return Err(usage());
    };
    let fail = |code: u8, what: String| {
        eprintln!("ompgpu client: {what}");
        ExitCode::from(code)
    };
    if requests.is_empty() {
        for line in std::io::stdin().lock().lines() {
            let line = line.map_err(|e| fail(EXIT_BUILD, format!("stdin read failed: {e}")))?;
            if !line.trim().is_empty() {
                requests.push(line);
            }
        }
    }
    let mut writer = UnixStream::connect(&socket)
        .map_err(|e| fail(EXIT_BUILD, format!("cannot connect to {socket}: {e}")))?;
    let stream = writer.try_clone();
    let mut reader = BufReader::new(stream.map_err(|e| fail(EXIT_BUILD, e.to_string()))?);
    let mut worst: u8 = 0;
    for req in &requests {
        // A response with the overload exit code is retried (when
        // --retries allows) with capped exponential backoff seeded by
        // the server's retry_after_ms hint; only the final response of
        // a request is printed.
        let mut attempt: u32 = 0;
        let code = loop {
            writer
                .write_all(req.as_bytes())
                .and_then(|()| writer.write_all(b"\n"))
                .and_then(|()| writer.flush())
                .map_err(|_| fail(EXIT_SIM, "connection closed while sending".into()))?;
            let mut resp = String::new();
            if matches!(reader.read_line(&mut resp), Ok(0) | Err(_)) {
                let what = "connection closed before a response arrived";
                return Err(fail(EXIT_SIM, what.into()));
            }
            let parsed = omp_json::parse(resp.trim_end()).ok();
            let code = parsed
                .as_ref()
                .and_then(|v| v.get("exit_code"))
                .and_then(omp_json::Value::as_u64);
            if code != Some(serve::EXIT_OVERLOAD as u64) || attempt >= retries {
                print!("{resp}");
                break code;
            }
            let base = parsed
                .as_ref()
                .and_then(|v| v.get("error"))
                .and_then(|e| e.get("retry_after_ms"))
                .and_then(omp_json::Value::as_u64)
                .unwrap_or(serve::RETRY_AFTER_MS);
            let backoff = (base << attempt.min(5)).min(1_000);
            std::thread::sleep(std::time::Duration::from_millis(backoff));
            attempt += 1;
        };
        worst = worst.max(code.unwrap_or(0).min(u8::MAX as u64) as u8);
    }
    Ok(ExitCode::from(worst))
}

// ---------------------------------------------------------------------
// --telemetry support
// ---------------------------------------------------------------------

/// Turns the span tracer on for a `--telemetry PATH` invocation.
fn telemetry_begin() {
    omp_telemetry::clear_spans();
    omp_telemetry::set_enabled(true);
}

/// Drains the tracer and writes the telemetry artifact: a Chrome
/// trace-event envelope when `path` ends in `.trace.json` (load it in
/// Perfetto or `chrome://tracing`), otherwise the `ompgpu-telemetry/v1`
/// artifact bundling the spans with a metrics-registry snapshot.
fn telemetry_write(path: &str, metrics: &omp_telemetry::MetricsRegistry) -> Result<(), String> {
    omp_telemetry::set_enabled(false);
    let spans = omp_telemetry::take_spans();
    let text = if path.ends_with(".trace.json") {
        omp_telemetry::chrome_trace(&spans)
    } else {
        omp_telemetry::telemetry_json(&spans, metrics)
    };
    debug_assert!(omp_json::validate(&text).is_ok());
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

// ---------------------------------------------------------------------
// ompgpu json-validate
// ---------------------------------------------------------------------

/// Shape check for schema-bearing artifacts beyond plain JSON syntax.
fn check_artifact_shape(value: &omp_json::Value, schema: &str) -> Result<(), String> {
    match schema {
        "ompgpu-telemetry/v1" => {
            if value
                .get("spans")
                .and_then(omp_json::Value::as_array)
                .is_none()
            {
                return Err("telemetry artifact lacks a spans array".to_string());
            }
            let metrics = value
                .get("metrics")
                .ok_or_else(|| "telemetry artifact lacks a metrics object".to_string())?;
            for section in ["counters", "gauges", "histograms"] {
                if metrics
                    .get(section)
                    .and_then(omp_json::Value::as_object)
                    .is_none()
                {
                    return Err(format!("telemetry metrics lack the {section} object"));
                }
            }
            Ok(())
        }
        "ompgpu-access-log/v1" => {
            for key in [
                "ts_micros",
                "op",
                "ok",
                "queue_micros",
                "service_micros",
                "bytes",
            ] {
                if value.get(key).is_none() {
                    return Err(format!("access-log record lacks the {key} member"));
                }
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

/// Strict check of a JSON artifact (e.g. a telemetry trace, a serve
/// access log, or a `benchmark/` result) with the in-tree parser CI
/// relies on. JSON-lines artifacts — one object
/// per line, like the access log — are validated record by record.
/// Known `schema` ids additionally get a shape check; unknown ids fail
/// with exit code [`EXIT_SCHEMA`].
fn json_validate_main(args: &[String]) -> Result<ExitCode, ExitCode> {
    let Some(path) = args.first() else {
        return Err(usage());
    };
    let text = read_source("ompgpu", path)?;
    let values: Vec<(usize, omp_json::Value)> = match omp_json::parse(&text) {
        Ok(v) => vec![(0, v)],
        Err(whole_file_err) => {
            // Not a single document: accept JSON-lines (every non-empty
            // line its own object), else report the whole-file error.
            let mut records = Vec::new();
            for (i, line) in text.lines().enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                match omp_json::parse(line) {
                    Ok(v) => records.push((i + 1, v)),
                    Err(_) => {
                        eprintln!("ompgpu: {path}: invalid JSON: {whole_file_err}");
                        return Err(ExitCode::from(EXIT_BUILD));
                    }
                }
            }
            if records.len() < 2 {
                eprintln!("ompgpu: {path}: invalid JSON: {whole_file_err}");
                return Err(ExitCode::from(EXIT_BUILD));
            }
            records
        }
    };
    let mut schemas: Vec<&str> = Vec::new();
    for (line_no, value) in &values {
        let at = if *line_no == 0 {
            String::new()
        } else {
            format!(" (line {line_no})")
        };
        if let Some(schema) = value.get("schema").and_then(omp_json::Value::as_str) {
            if !KNOWN_SCHEMAS.contains(&schema) {
                eprintln!("ompgpu: {path}{at}: unknown schema id {schema:?}");
                return Err(ExitCode::from(EXIT_SCHEMA));
            }
            if let Err(e) = check_artifact_shape(value, schema) {
                eprintln!("ompgpu: {path}{at}: {e}");
                return Err(ExitCode::from(EXIT_BUILD));
            }
            if !schemas.contains(&schema) {
                schemas.push(schema);
            }
        }
    }
    match schemas.as_slice() {
        [] => println!("{path}: valid JSON"),
        s => println!("{path}: valid JSON ({})", s.join(", ")),
    }
    Ok(ExitCode::SUCCESS)
}

fn print_time_passes(report: Option<&OptReport>) {
    let timings = report.map_or(&[][..], |r| &r.pass_timings);
    eprint!("{}", pipeline::render_pass_timings(timings));
}

/// Per-team cycle spread of a launch: `(min, median, max)`. The median
/// is the lower-middle element for even team counts.
fn team_spread(team_cycles: &[u64]) -> Option<(u64, u64, u64)> {
    if team_cycles.is_empty() {
        return None;
    }
    let mut v = team_cycles.to_vec();
    v.sort_unstable();
    Some((v[0], v[(v.len() - 1) / 2], v[v.len() - 1]))
}

fn profile_of(done: &JobResult) -> &LaunchProfile {
    done.profile.as_ref().expect("profiling was enabled")
}

/// Renders the `--all-configs` ablation view: a Figure-10-style summary
/// per configuration plus a side-by-side exclusive-cycle table per
/// function.
fn render_ablation(results: &[(BuildConfig, Result<JobResult, String>)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("ablation summary:\n");
    let _ = writeln!(
        out,
        "  {:<12} {:>12} {:>10} {:>6} {:>12}",
        "CONFIG", "CYCLES", "SMEM B", "REGS", "INSTS"
    );
    for (config, r) in results {
        match r {
            Ok(p) => {
                let _ = writeln!(
                    out,
                    "  {:<12} {:>12} {:>10} {:>6} {:>12}",
                    config.cli_name(),
                    p.stats.cycles,
                    p.stats.shared_mem_bytes,
                    p.stats.registers,
                    p.stats.instructions
                );
            }
            Err(e) => {
                let _ = writeln!(out, "  {:<12} failed: {}", config.cli_name(), e);
            }
        }
    }
    // Union of profiled functions, in first-seen hot order across the
    // configurations (so the fully optimized column drives the ranking
    // of functions it still contains).
    let mut names: Vec<String> = Vec::new();
    for (_, r) in results.iter().rev() {
        if let Ok(p) = r {
            for f in profile_of(p).hot_functions() {
                if !names.contains(&f.name) {
                    names.push(f.name.clone());
                }
            }
        }
    }
    out.push_str("\nexclusive cycles per function (- = not present):\n");
    let mut header = format!("  {:<28}", "FUNCTION");
    for (config, _) in results {
        let _ = write!(header, " {:>12}", config.cli_name());
    }
    out.push_str(&header);
    out.push('\n');
    for name in &names {
        let mut row = format!("  {:<28}", name);
        for (_, r) in results {
            let cell = match r {
                Ok(p) => profile_of(p)
                    .functions
                    .iter()
                    .find(|f| &f.name == name)
                    .map(|f| f.exclusive_cycles.to_string())
                    .unwrap_or_else(|| "-".into()),
                Err(_) => "-".into(),
            };
            let _ = write!(row, " {:>12}", cell);
        }
        out.push_str(&row);
        out.push('\n');
    }
    out
}

/// Writes and validates the Chrome trace-event artifact.
fn write_trace(path: &str, profile: &LaunchProfile) -> Result<(), String> {
    let trace = profile.chrome_trace();
    omp_json::validate(&trace).map_err(|e| format!("internal error: invalid trace JSON: {e}"))?;
    std::fs::write(path, &trace).map_err(|e| format!("cannot write {path}: {e}"))?;
    Ok(())
}

fn profile_main(args: &[String]) -> Result<ExitCode, ExitCode> {
    let mut path: Option<String> = None;
    let mut proxy: Option<String> = None;
    let mut scale = Scale::Small;
    let mut config = BuildConfig::LlvmDev;
    let mut all_configs = false;
    let mut kernel: Option<String> = None;
    let mut dims = LaunchDims::default();
    let mut jobs: Option<u32> = None;
    let mut specs: Vec<ArgSpec> = Vec::new();
    let mut trace: Option<String> = None;
    let mut json = false;
    let mut time_passes = false;
    let mut flags = Flags(args.iter());
    while let Some(a) = flags.next() {
        match a {
            "--proxy" => proxy = Some(flags.value(a)?),
            "--scale" => scale = flags.value_with(a, parse_scale)?,
            "--config" => config = flags.value_with(a, BuildConfig::from_cli_name)?,
            "--all-configs" => all_configs = true,
            "--kernel" => kernel = Some(flags.value(a)?),
            "--teams" => dims.teams = Some(flags.value(a)?),
            "--threads" => dims.threads = Some(flags.value(a)?),
            "--jobs" => jobs = Some(flags.value(a)?),
            "--trace" => trace = Some(flags.value(a)?),
            "--json" => json = true,
            "--time-passes" => time_passes = true,
            "--arg" => specs.push(flags.value_with(a, ArgSpec::parse_colon)?),
            f if !f.starts_with('-') && path.is_none() => path = Some(f.to_string()),
            other => return Err(unknown_flag(" profile", other)),
        }
    }
    let usage_error = |message: &str| usage_error("profile", message);
    if all_configs && (json || trace.is_some()) {
        return Err(usage_error(
            "--json/--trace need a single configuration (drop --all-configs)",
        ));
    }

    // Resolve the subject; `profile` runs it under one configuration.
    let proxies = all_proxies(scale);
    let source;
    let subject = if let Some(name) = &proxy {
        if path.is_some() {
            return Err(usage_error(
                "give either a source file or --proxy, not both",
            ));
        }
        Subject::Proxy(find_proxy(&proxies, name).map_err(|e| {
            eprintln!("ompgpu profile: [{}] {e}", config.label());
            ExitCode::FAILURE
        })?)
    } else {
        let Some(path) = path else {
            eprintln!("ompgpu profile: need a source file or --proxy NAME");
            return Err(usage());
        };
        source = read_source("ompgpu", &path)?;
        // Fall back to the file's `// oracle-*:` header for anything the
        // flags left unspecified.
        if let Ok(spec) = ExampleSpec::parse(&source) {
            kernel = kernel.or(Some(spec.kernel));
            dims.teams = dims.teams.or(spec.teams);
            dims.threads = dims.threads.or(spec.threads);
            if specs.is_empty() {
                specs = spec.args;
            }
        }
        let Some(kernel) = &kernel else {
            return Err(usage_error(&format!(
                "--kernel NAME is required (no `// oracle-kernel:` header in {path})"
            )));
        };
        Subject::Source {
            source: &source,
            kernel,
            dims,
            args: &specs,
        }
    };
    let mut store = Store::new(0);
    let mut profile = |config: BuildConfig| -> Result<JobResult, String> {
        let job = Job {
            mode: Mode::Profile,
            knobs: Knobs {
                jobs,
                ..Knobs::default()
            },
            ..Job::new(subject, config)
        };
        job.run(&mut store).map_err(|e| match (&e, subject) {
            (JobError::Launch(sim), Subject::Source { .. }) => format!("launch failed: {sim}"),
            _ => e.tagged(),
        })
    };

    if all_configs {
        // CUDA-style builds compile a different source; the ablation view
        // covers the OpenMP-source configurations the paper ablates.
        let results: Vec<(BuildConfig, Result<JobResult, String>)> =
            ORACLE_CONFIGS.iter().map(|&c| (c, profile(c))).collect();
        if time_passes {
            for (config, r) in &results {
                if let Ok(p) = r {
                    eprintln!("[{}]", config.label());
                    print_time_passes(p.built.report.as_ref());
                }
            }
        }
        print!("{}", render_ablation(&results));
        return Ok(match results.iter().any(|(_, r)| r.is_err()) {
            true => ExitCode::FAILURE,
            false => ExitCode::SUCCESS,
        });
    }

    let profiled = profile(config).map_err(|e| {
        eprintln!("ompgpu profile: [{}] {e}", config.label());
        ExitCode::FAILURE
    })?;
    if time_passes {
        print_time_passes(profiled.built.report.as_ref());
    }
    if let Some(path) = &trace {
        if let Err(e) = write_trace(path, profile_of(&profiled)) {
            eprintln!("ompgpu profile: {e}");
            return Err(ExitCode::FAILURE);
        }
        eprintln!("trace written to {path} (load in Perfetto or chrome://tracing)");
    }
    if json {
        println!("{}", profile_of(&profiled).to_json());
    } else {
        print!("{}", profile_of(&profiled).render());
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(mode) = args.first() else {
        return usage();
    };
    // `Err` is a command that could not start (bad flag, unreadable
    // input); `Ok` carries the verdict of one that ran.
    let done = match mode.as_str() {
        "verify" => verify_main(&args[1..]),
        "profile" => profile_main(&args[1..]),
        "sanitize" => sanitize_main(&args[1..]),
        "serve" => serve_main(&args[1..]),
        "client" => client_main(&args[1..]),
        "json-validate" => json_validate_main(&args[1..]),
        _ => build_or_run_main(mode, &args[1..]),
    };
    done.unwrap_or_else(|code| code)
}

fn build_or_run_main(mode: &str, args: &[String]) -> Result<ExitCode, ExitCode> {
    let Some(path) = args.first() else {
        return Err(usage());
    };
    let source = read_source("ompgpu", path)?;
    let mut config = BuildConfig::LlvmDev;
    let mut emit_ir = false;
    let mut show_remarks = false;
    let mut time_passes = false;
    let mut json = false;
    let mut kernel: Option<String> = None;
    let mut dims = LaunchDims::default();
    let mut knobs = Knobs::default();
    let mut specs: Vec<ArgSpec> = Vec::new();
    let mut dump = 0usize;
    let mut telemetry: Option<String> = None;
    let mut flags = Flags(args[1..].iter());
    while let Some(a) = flags.next() {
        match a {
            "--config" => config = flags.value_with(a, BuildConfig::from_cli_name)?,
            "--telemetry" => telemetry = Some(flags.value(a)?),
            "--emit-ir" => emit_ir = true,
            "--remarks" => show_remarks = true,
            "--time-passes" => time_passes = true,
            "--json" => json = true,
            "--kernel" => kernel = Some(flags.value(a)?),
            "--teams" => dims.teams = Some(flags.value(a)?),
            "--threads" => dims.threads = Some(flags.value(a)?),
            "--jobs" => knobs.jobs = Some(flags.value(a)?),
            "--max-insts" => knobs.max_insts = Some(flags.value(a)?),
            "--tier" => knobs.tier = Some(flags.value_with(a, Tier::parse)?),
            "--dump" => dump = flags.value(a)?,
            "--arg" => specs.push(flags.value_with(a, ArgSpec::parse_colon)?),
            other => return Err(unknown_flag("", other)),
        }
    }

    if telemetry.is_some() {
        telemetry_begin();
    }
    let mut store = Store::new(0);
    let built = store.build(&source, config).map_err(|e| {
        eprintln!("ompgpu: {e}");
        ExitCode::from(e.exit_code())
    })?;
    let report = built.report.as_ref();
    if let Some(r) = report {
        let c = r.counts;
        eprintln!(
            "[{}] h2s={} h2shared={} spmdized={} csm={} folds={} remarks={}",
            config.label(),
            c.heap_to_stack,
            c.heap_to_shared,
            c.spmdized,
            c.csm_rewritten,
            c.folds_exec_mode + c.folds_parallel_level + c.folds_launch_params,
            r.remarks.len()
        );
        if show_remarks {
            for remark in r.remarks.all() {
                eprintln!("{remark}");
            }
        }
    }
    if time_passes {
        print_time_passes(report);
    }
    let mut metrics = omp_telemetry::MetricsRegistry::new();
    if let Some(r) = report {
        pipeline::record_pipeline_metrics(r, &mut metrics);
    }
    match mode {
        "build" => {
            if emit_ir {
                print!("{}", omp_ir::printer::print_module(&built.module));
            } else {
                for k in &built.module.kernels {
                    println!(
                        "kernel {} ({:?} mode, {} functions in module)",
                        k.source_name,
                        k.exec_mode,
                        built.module.num_functions()
                    );
                }
            }
        }
        "run" => {
            let Some(kernel) = &kernel else {
                eprintln!("ompgpu run: --kernel NAME is required");
                return Err(usage());
            };
            let job = Job {
                knobs,
                readback: match dump {
                    0 => Readback::None,
                    n => Readback::Head(n),
                },
                ..Job::new(
                    Subject::Source {
                        source: &source,
                        kernel,
                        dims,
                        args: &specs,
                    },
                    config,
                )
            };
            let done = job.launch(&mut store, &built).map_err(|e| {
                match &e {
                    JobError::Launch(sim) => {
                        if json {
                            println!("{}", sim.to_json());
                        }
                        eprintln!("ompgpu: launch failed: {sim}");
                    }
                    _ => eprintln!("ompgpu: {e}"),
                }
                ExitCode::from(e.exit_code())
            })?;
            let stats = &done.stats;
            if json {
                println!("{}", done.stats_json());
            } else {
                println!(
                    "kernel time: {} cycles   regs: {}   smem: {} B   heap: {} B",
                    stats.cycles, stats.registers, stats.shared_mem_bytes, stats.heap_bytes
                );
                println!(
                    "insts: {}   mem accesses: {} ({} coalesced / {} scattered)   barriers: {}",
                    stats.instructions,
                    stats.memory_accesses,
                    stats.coalesced_accesses,
                    stats.uncoalesced_accesses,
                    stats.barriers
                );
                if let Some((min, median, max)) = team_spread(&stats.team_cycles) {
                    println!(
                        "team cycles: min {min} / median {median} / max {max} ({} teams)",
                        stats.team_cycles.len()
                    );
                }
            }
            for (i, b) in done.buffers.iter().enumerate() {
                println!("buf{i}{b}");
            }
            stats.snapshot().record_metrics(&mut metrics);
        }
        _ => return Err(usage()),
    }
    if let Some(tpath) = &telemetry {
        telemetry_write(tpath, &metrics).map_err(|e| {
            eprintln!("ompgpu: {e}");
            ExitCode::from(EXIT_BUILD)
        })?;
    }
    Ok(ExitCode::SUCCESS)
}
