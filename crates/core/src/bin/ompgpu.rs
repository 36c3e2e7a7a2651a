//! `ompgpu` — the command-line front end of the pipeline. `ompgpu` with
//! no arguments prints the usage screen (flags, configurations, argument
//! specs, exit codes).
//!
//! `build`, `run`, `profile`, `sanitize` and `verify` are requests: their
//! argv decodes into the same [`Request`] an `ompgpu serve` JSON line
//! does (one field table, [`request::FIELDS`], declares every flag and
//! wire key), and they run through the same reducers the daemon does, on
//! a store that keeps no device. This file only renders the typed
//! results as text: `run --json`, `profile --json` and `sanitize --json`
//! print exactly the daemon's payloads. `run` takes its kernel from
//! `--kernel`; everything else falls back to the source's `// oracle-*:`
//! header (see [`oracle::ExampleSpec`](omp_gpu::oracle::ExampleSpec)).
//!
//! * `profile` prints the cycle-attribution profile (`--json`, a Chrome
//!   trace with `--trace FILE`, a Figure-10-style ablation table with
//!   `--all-configs`); `docs/PROFILING.md`.
//! * `sanitize` prints the device sanitizer's findings
//!   (`docs/SANITIZER.md`); `--self-test` runs a built-in fault-injection
//!   battery instead.
//! * `verify` runs the differential oracle over the four proxies, every
//!   example under `--examples DIR` and every file given, under the six
//!   OpenMP-source configurations, each launch under a watchdog
//!   (`--watchdog SECS`, default 60, `0` disables).
//! * `serve` and `client` run and talk to the compile service
//!   (`docs/SERVE.md`); `json-validate` checks an artifact.
//!
//! Every value is read strictly: a missing or malformed flag value, or a
//! malformed `OMPGPU_JOBS`/`OMPGPU_MAX_INSTS`, is a usage error (exit
//! `2`) naming it, never a silent fallback to the default. The two
//! variables are read here and in `serve`'s session, once each, as the
//! defaults of `--jobs` and `--max-insts`; the simulator reads none.
//! `--telemetry FILE` writes an `ompgpu-telemetry/v1` artifact, or a
//! Chrome trace when FILE ends in `.trace.json` (`docs/TELEMETRY.md`).

use omp_gpu::job::{
    self, EnvOverrides, JobError, JobResult, Store, EXIT_BUILD, EXIT_DIVERGED, EXIT_SIM, EXIT_USAGE,
};
use omp_gpu::oracle::{ArgSpec, BufInit, ORACLE_CONFIGS};
use omp_gpu::request::{self, Request, RequestError, Target};
use omp_gpu::{pipeline, serve, BuildConfig, FaultPlan, LaunchDims, LaunchProfile, OptReport};
use omp_gpu::{Job, Knobs, Mode, SimErrorKind, Subject};
use omp_json::Value;
use omp_telemetry::MetricsRegistry;
use std::process::ExitCode;
use std::slice::Iter;
use std::str::FromStr;

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
         [--jobs N] [--max-insts N] [--json] [--arg SPEC]...\n             \
         [--dump N] [--time-passes] [--telemetry FILE]\n  \
         ompgpu profile <file.c> [--kernel NAME] [--config CFG | --all-configs]\n             \
         [--teams N] [--threads N] [--jobs N] [--arg SPEC]...\n             \
         [--json] [--trace FILE] [--time-passes]\n  \
         ompgpu profile --proxy NAME [--scale small|bench] [--config CFG | --all-configs]\n             \
         [--jobs N] [--json] [--trace FILE] [--time-passes]\n  \
         ompgpu verify [--scale small|bench] [--examples DIR] [--jobs N]\n             \
         [--watchdog SECS] [--telemetry FILE]\n             \
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
         --jobs N: simulator worker threads for independent teams (0 = auto;\n      \
         the OMPGPU_JOBS environment variable is the default)\n\
         --max-insts N: per-thread dynamic instruction budget (runaway guard;\n      \
         the OMPGPU_MAX_INSTS environment variable is the default)\n\
         --watchdog SECS: wall-clock budget per launch (0 = off)\n\
         --telemetry FILE: write spans + metrics as ompgpu-telemetry/v1\n      \
         (or a Chrome trace when FILE ends in .trace.json)\n\n\
         exit codes: 0 ok/clean, 1 compile/IO, 2 usage, 3 simulation,\n      \
         4 oracle divergence, 5 sanitizer findings, 6 unknown schema id,\n      \
         7 deadline exceeded, 8 overloaded (retry), 9 isolated panic"
    );
    ExitCode::from(EXIT_USAGE)
}

/// The value after a flag of `serve` or `client` (daemon settings, not
/// request fields), read as strictly as a request flag.
fn value<'a, T: FromStr>(flag: &'a str, rest: &mut Iter<'a, String>) -> Result<T, ExitCode> {
    request::flag_value(flag, rest).map_err(|e| request_error("", e))
}

/// Reports a request that could not be decoded or run: value and job
/// errors name no subcommand, an unknown flag also prints the usage
/// screen.
fn request_error(op: &str, e: RequestError) -> ExitCode {
    match &e {
        RequestError::Value(..) | RequestError::Job(_) => eprintln!("ompgpu: {e}"),
        RequestError::Usage(m) => eprintln!("ompgpu {op}: {m}"),
        // `build` and `run` keep their historical unscoped line.
        RequestError::UnknownFlag(f) if matches!(op, "build" | "run") => {
            return unknown_flag("", f)
        }
        RequestError::UnknownFlag(f) => return unknown_flag(&format!(" {op}"), f),
    }
    ExitCode::from(e.exit_code())
}

/// An unknown flag: names it, prints the usage screen, exits 2.
fn unknown_flag(command: &str, flag: &str) -> ExitCode {
    eprintln!("ompgpu{command}: unknown flag {flag}");
    usage()
}

/// `ompgpu build|run|profile|sanitize|verify`: one [`Request`] from
/// argv, run through the reducers `ompgpu serve` uses on a store that
/// keeps no device, rendered as text.
fn request_main(op: &str, args: &[String]) -> Result<ExitCode, ExitCode> {
    // Launching subcommands read the `OMPGPU_*` overrides once, as
    // strictly as `serve` does: a malformed one stops them before
    // anything runs, a valid one is the default of every launch.
    let env = match op {
        "build" => EnvOverrides::default(),
        _ => job::env_overrides()
            .map_err(|e| request_error(op, RequestError::Value(EXIT_USAGE, e)))?,
    };
    let req = Request::from_argv(op, args).map_err(|e| request_error(op, e))?;
    if req.targets.is_empty() && !req.self_test {
        let need = match op {
            "profile" => "a source file or --proxy NAME",
            "sanitize" => "a source file, --proxy NAME, or --self-test",
            _ => return Err(usage()),
        };
        eprintln!("ompgpu {op}: need {need}");
        return Err(usage());
    }
    if req.telemetry.is_some() {
        omp_telemetry::clear_spans();
        omp_telemetry::set_enabled(true);
    }
    let (mut store, knobs) = (Store::new(0), req.knobs(env));
    match op {
        "verify" => verify_main(&mut store, &req, &knobs),
        "profile" => profile_main(&mut store, &req, &knobs),
        "sanitize" if req.self_test => Ok(sanitize_self_test(&knobs)),
        "sanitize" => sanitize_main(&mut store, &req, &knobs),
        _ => build_main(&mut store, &req, &knobs),
    }
}

fn verify_main(store: &mut Store, req: &Request, knobs: &Knobs) -> Result<ExitCode, ExitCode> {
    let cases = request::verify(store, req, knobs).map_err(|e| request_error("verify", e))?;
    cases.iter().for_each(|c| print!("{}", c.render()));
    let total = cases.len();
    let pass = cases.iter().filter(|c| c.passed()).count();
    println!("{pass}/{total} cases passed");
    if let Some(tpath) = &req.telemetry {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("verify.cases", total as u64);
        reg.counter_add("verify.passed", pass as u64);
        reg.counter_add("verify.failed", (total - pass) as u64);
        telemetry_write("ompgpu verify", tpath, &reg)?;
    }
    let exit = if pass == total { 0 } else { EXIT_DIVERGED };
    Ok(ExitCode::from(exit))
}

fn sanitize_main(store: &mut Store, req: &Request, knobs: &Knobs) -> Result<ExitCode, ExitCode> {
    let (subject, outcomes) =
        request::sanitize(store, req, knobs).map_err(|e| request_error("sanitize", e))?;
    if req.json {
        println!("{}", pipeline::sanitize_report_json(&subject, &outcomes));
    } else {
        println!("sanitize {subject}:");
        for o in &outcomes {
            print!("{}", o.render());
        }
        let errors: usize = outcomes.iter().map(|o| o.error_findings()).sum();
        let notes = outcomes.iter().map(|o| o.findings.len()).sum::<usize>() - errors;
        let n = outcomes.len();
        println!("{n} configuration(s), {errors} error finding(s), {notes} note(s)");
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
/// same outcome for every worker-thread count. `knobs` brings the
/// worker count and the instruction budget.
fn sanitize_self_test(knobs: &Knobs) -> ExitCode {
    let (jobs, max_insts) = (knobs.jobs, knobs.max_insts);
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
                max_insts,
                fault: fault.clone(),
                ..Knobs::default()
            },
            ..Job::new(subject, BuildConfig::NoOpenmpOpt)
        };
        job.run(&mut store)
    };
    let plan = |arm: fn(&mut FaultPlan)| {
        let mut plan = FaultPlan::default();
        arm(&mut plan);
        plan
    };
    type Scenario = (&'static str, FaultPlan, fn(&SimErrorKind) -> bool);
    let scenarios: [Scenario; 3] = [
        (
            "malloc failure falls out as a structured memory error",
            plan(|p| p.fail_alloc_after = Some(0)),
            |k| matches!(k, SimErrorKind::Mem(_)),
        ),
        (
            "trap at the Nth dynamic instruction",
            plan(|p| p.trap_at_inst = Some(20)),
            |k| matches!(k, SimErrorKind::FaultInjected(_)),
        ),
        ("single-team abort", plan(|p| p.abort_team = Some(2)), |k| {
            matches!(k, SimErrorKind::FaultInjected(_))
        }),
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
        match launch(
            Mode::Sanitize,
            jobs,
            &plan(|p| p.shared_stack_limit = Some(0)),
        ) {
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
    let mut rest = args.iter();
    while let Some(a) = rest.next() {
        match a.as_str() {
            "--socket" => socket = Some(value(a, &mut rest)?),
            "--device-cache" => device_cache = value(a, &mut rest)?,
            "--access-log" => access_log = Some(value(a, &mut rest)?),
            "--queue" => queue = Some(value(a, &mut rest)?),
            "--deadline-ms" => deadline_ms = Some(value(a, &mut rest)?),
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
    let mut rest = args.iter();
    while let Some(a) = rest.next() {
        match a.as_str() {
            "--socket" => socket = Some(value(a, &mut rest)?),
            "--retries" => retries = value(a, &mut rest)?,
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
                .and_then(Value::as_u64);
            if code != Some(serve::EXIT_OVERLOAD as u64) || attempt >= retries {
                print!("{resp}");
                break code;
            }
            let base = parsed
                .as_ref()
                .and_then(|v| v.get("error"))
                .and_then(|e| e.get("retry_after_ms"))
                .and_then(Value::as_u64)
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

/// Drains the tracer and writes the telemetry artifact (`who` names the
/// writer in an error): a Chrome trace-event envelope when `path` ends in
/// `.trace.json` (load it in Perfetto or `chrome://tracing`), otherwise
/// the `ompgpu-telemetry/v1` artifact bundling the spans with a metrics
/// snapshot.
fn telemetry_write(who: &str, path: &str, metrics: &MetricsRegistry) -> Result<(), ExitCode> {
    omp_telemetry::set_enabled(false);
    let spans = omp_telemetry::take_spans();
    let text = if path.ends_with(".trace.json") {
        omp_telemetry::chrome_trace(&spans)
    } else {
        omp_telemetry::telemetry_json(&spans, metrics)
    };
    debug_assert!(omp_json::validate(&text).is_ok());
    std::fs::write(path, text).map_err(|e| {
        eprintln!("{who}: cannot write {path}: {e}");
        ExitCode::from(EXIT_BUILD)
    })
}

// ---------------------------------------------------------------------
// ompgpu json-validate
// ---------------------------------------------------------------------

/// Shape check for schema-bearing artifacts beyond plain JSON syntax.
fn check_artifact_shape(value: &Value, schema: &str) -> Result<(), String> {
    match schema {
        "ompgpu-telemetry/v1" => {
            if value.get("spans").and_then(Value::as_array).is_none() {
                return Err("telemetry artifact lacks a spans array".to_string());
            }
            let metrics = value
                .get("metrics")
                .ok_or_else(|| "telemetry artifact lacks a metrics object".to_string())?;
            for section in ["counters", "gauges", "histograms"] {
                if metrics.get(section).and_then(Value::as_object).is_none() {
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
    let text = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("ompgpu: cannot read {path}: {e}");
        ExitCode::from(EXIT_BUILD)
    })?;
    let values: Vec<(usize, Value)> = match omp_json::parse(&text) {
        Ok(v) => vec![(0, v)],
        Err(whole_file_err) => {
            // Not a single document: accept JSON-lines (every non-empty
            // line its own object), else report the whole-file error.
            let records: Result<Vec<_>, _> = text
                .lines()
                .enumerate()
                .filter(|(_, line)| !line.trim().is_empty())
                .map(|(i, line)| omp_json::parse(line).map(|v| (i + 1, v)))
                .collect();
            match records {
                Ok(records) if records.len() >= 2 => records,
                _ => {
                    eprintln!("ompgpu: {path}: invalid JSON: {whole_file_err}");
                    return Err(ExitCode::from(EXIT_BUILD));
                }
            }
        }
    };
    let mut schemas: Vec<&str> = Vec::new();
    for (line_no, value) in &values {
        let at = (*line_no > 0).then(|| format!(" (line {line_no})"));
        let at = at.unwrap_or_default();
        if let Some(schema) = value.get("schema").and_then(Value::as_str) {
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

fn profile_of(done: &JobResult) -> &LaunchProfile {
    done.profile.as_ref().expect("profiling was enabled")
}

/// Renders the `--all-configs` ablation view: a Figure-10-style summary
/// per configuration plus a side-by-side exclusive-cycle table per
/// function.
fn render_ablation(results: &[(BuildConfig, Result<JobResult, String>)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("ablation summary:\n");
    let _ = writeln!(
        out,
        "  {:<12} {:>12} {:>10} {:>6} {:>12}",
        "CONFIG", "CYCLES", "SMEM B", "REGS", "INSTS"
    );
    for (config, r) in results {
        let name = config.cli_name();
        let _ = match r {
            Ok(p) => {
                let s = &p.stats;
                let (c, m, g, i) = (s.cycles, s.shared_mem_bytes, s.registers, s.instructions);
                writeln!(out, "  {name:<12} {c:>12} {m:>10} {g:>6} {i:>12}")
            }
            Err(e) => writeln!(out, "  {name:<12} failed: {e}"),
        };
    }
    let profiles: Vec<Option<&LaunchProfile>> = results
        .iter()
        .map(|(_, r)| r.as_ref().ok().map(profile_of))
        .collect();
    // Union of profiled functions, in first-seen hot order across the
    // configurations (so the fully optimized column drives the ranking
    // of functions it still contains).
    let mut names: Vec<&str> = Vec::new();
    for f in profiles
        .iter()
        .rev()
        .flatten()
        .flat_map(|p| p.hot_functions())
    {
        if !names.contains(&f.name.as_str()) {
            names.push(&f.name);
        }
    }
    out.push_str("\nexclusive cycles per function (- = not present):\n");
    let _ = write!(out, "  {:<28}", "FUNCTION");
    for (config, _) in results {
        let _ = write!(out, " {:>12}", config.cli_name());
    }
    for name in names {
        let _ = write!(out, "\n  {name:<28}");
        for p in &profiles {
            let f = p.and_then(|p| p.functions.iter().find(|f| f.name == name));
            let cell = f.map_or("-".to_string(), |f| f.exclusive_cycles.to_string());
            let _ = write!(out, " {cell:>12}");
        }
    }
    out.push('\n');
    out
}

/// Writes and validates the Chrome trace-event artifact.
fn write_trace(path: &str, profile: &LaunchProfile) -> Result<(), String> {
    let trace = profile.chrome_trace();
    omp_json::validate(&trace).map_err(|e| format!("internal error: invalid trace JSON: {e}"))?;
    std::fs::write(path, &trace).map_err(|e| format!("cannot write {path}: {e}"))?;
    Ok(())
}

fn profile_main(store: &mut Store, req: &Request, knobs: &Knobs) -> Result<ExitCode, ExitCode> {
    // A source's launch failure reads `launch failed: ...`; a proxy's
    // carries the figures' `OOM/memory: ` tag.
    let from_source = matches!(req.targets[0], Target::Source { .. });
    let mut profile = |config: BuildConfig| match request::launch(store, req, config, knobs) {
        Ok(done) => Ok(Ok(done.result)),
        Err(RequestError::Job(JobError::Launch(sim))) if from_source => {
            Ok(Err(format!("launch failed: {sim}")))
        }
        Err(RequestError::Job(e)) => Ok(Err(e.tagged())),
        Err(e) => Err(request_error("profile", e)),
    };

    if req.all_configs {
        // CUDA-style builds compile a different source; the ablation view
        // covers the OpenMP-source configurations the paper ablates.
        let results = ORACLE_CONFIGS
            .iter()
            .map(|&c| Ok((c, profile(c)?)))
            .collect::<Result<Vec<_>, ExitCode>>()?;
        if req.time_passes {
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

    let profiled = profile(req.config)?.map_err(|e| {
        eprintln!("ompgpu profile: [{}] {e}", req.config.label());
        ExitCode::FAILURE
    })?;
    if req.time_passes {
        print_time_passes(profiled.built.report.as_ref());
    }
    if let Some(path) = &req.trace {
        if let Err(e) = write_trace(path, profile_of(&profiled)) {
            eprintln!("ompgpu profile: {e}");
            return Err(ExitCode::FAILURE);
        }
        eprintln!("trace written to {path} (load in Perfetto or chrome://tracing)");
    }
    let p = profile_of(&profiled);
    match req.json {
        true => println!("{}", p.to_json()),
        false => print!("{}", p.render()),
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
        "serve" => serve_main(&args[1..]),
        "client" => client_main(&args[1..]),
        "json-validate" => json_validate_main(&args[1..]),
        "build" | "run" | "profile" | "sanitize" | "verify" => request_main(mode, &args[1..]),
        _ => Err(usage()),
    };
    done.unwrap_or_else(|code| code)
}

/// `build`, and `run`, which then launches what it built.
fn build_main(store: &mut Store, req: &Request, knobs: &Knobs) -> Result<ExitCode, ExitCode> {
    let config = req.config;
    let built = request::compile(store, req).map_err(|e| request_error(&req.op, e))?;
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
        if req.remarks {
            for remark in r.remarks.all() {
                eprintln!("{remark}");
            }
        }
    }
    if req.time_passes {
        print_time_passes(report);
    }
    let mut metrics = MetricsRegistry::new();
    if let Some(r) = report {
        pipeline::record_pipeline_metrics(r, &mut metrics);
    }
    if req.op == "build" {
        if req.emit_ir {
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
    } else {
        // `run` names its kernel; the rest of the launch may come from
        // the source's `// oracle-*:` header.
        if req.kernel.is_none() {
            eprintln!("ompgpu run: --kernel NAME is required");
            return Err(usage());
        }
        let done = request::launch(store, req, config, knobs).map_err(|e| match e {
            RequestError::Job(JobError::Launch(sim)) => {
                if req.json {
                    println!("{}", sim.to_json());
                }
                eprintln!("ompgpu: launch failed: {sim}");
                ExitCode::from(JobError::Launch(sim).exit_code())
            }
            e => request_error("run", e),
        })?;
        let (done, stats) = (&done.result, &done.result.stats);
        if req.json {
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
            let mut teams = stats.team_cycles.clone();
            teams.sort_unstable();
            if let (Some(min), Some(max)) = (teams.first(), teams.last()) {
                // The lower-middle element for even team counts.
                let (median, n) = (teams[(teams.len() - 1) / 2], teams.len());
                println!("team cycles: min {min} / median {median} / max {max} ({n} teams)");
            }
        }
        for (i, b) in done.buffers.iter().enumerate() {
            println!("buf{i}{b}");
        }
        stats.snapshot().record_metrics(&mut metrics);
    }
    if let Some(tpath) = &req.telemetry {
        telemetry_write("ompgpu", tpath, &metrics)?;
    }
    Ok(ExitCode::SUCCESS)
}
