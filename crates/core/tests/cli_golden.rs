//! Pins the `ompgpu` binary: stdout, stderr and exit code of a fixed
//! matrix of invocations, compared against checked-in transcripts
//! (`tests/golden/cli_*.txt`, one per group). Every simulated quantity
//! is deterministic, so the transcripts are byte-stable; the only
//! host-dependent output — `--time-passes` wall times on stderr — is
//! left out of the matrix.
//!
//! To regenerate after an intentional CLI change:
//!
//! ```text
//! OMP_UPDATE_GOLDEN=1 cargo test -p omp-gpu --test cli_golden
//! ```

mod common;

use common::{c_files, launch_flags, ompgpu, ompgpu_env, repo_root};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// Runs every invocation and renders one transcript.
fn transcript(cases: &[Vec<String>]) -> String {
    let mut out = String::new();
    for args in cases {
        let argv: Vec<&str> = args.iter().map(String::as_str).collect();
        let (code, stdout, stderr) = ompgpu(&argv);
        out.push_str(&format!("### ompgpu {}\nexit: {code}\n", args.join(" ")));
        for (label, text) in [("stdout", stdout), ("stderr", stderr)] {
            out.push_str(&format!("--- {label}\n{text}"));
            if !text.is_empty() && !text.ends_with('\n') {
                out.push('\n');
            }
        }
    }
    out
}

fn check_golden(group: &str, cases: &[Vec<String>]) {
    let text = transcript(cases);
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("cli_{group}.txt"));
    if std::env::var_os("OMP_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, text).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with OMP_UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    if golden != text {
        let line = golden
            .lines()
            .zip(text.lines())
            .position(|(g, t)| g != t)
            .unwrap_or_else(|| golden.lines().count().min(text.lines().count()));
        panic!(
            "cli_{group}: CLI output drifted from the golden transcript at line {}:\n\
             golden: {:?}\nactual: {:?}\n\
             if intentional, regenerate with OMP_UPDATE_GOLDEN=1",
            line + 1,
            golden.lines().nth(line),
            text.lines().nth(line),
        );
    }
}

fn case(head: &[&str], tail: &[String], more: &[&str]) -> Vec<String> {
    head.iter()
        .map(|s| s.to_string())
        .chain(tail.iter().cloned())
        .chain(more.iter().map(|s| s.to_string()))
        .collect()
}

const SAXPY: &str = "examples/omp/saxpy.c";
const BROKEN: &str = "tests/fixtures/cli/broken.c";
const NO_HEADER: &str = "tests/fixtures/cli/no_header.c";
const TOO_DEEP: &str = "tests/fixtures/cli/too_deep.c";

#[test]
fn build() {
    let mut cases = vec![
        case(&["build", SAXPY], &[], &[]),
        case(&["build", SAXPY, "--emit-ir"], &[], &[]),
        case(
            &["build", SAXPY, "--config", "llvm12", "--emit-ir"],
            &[],
            &[],
        ),
        case(
            &["build", SAXPY, "--config", "noopt", "--remarks"],
            &[],
            &[],
        ),
    ];
    for file in c_files("examples/omp") {
        cases.push(case(&["build", &file, "--config", "cuda"], &[], &[]));
    }
    check_golden("build", &cases);
}

#[test]
fn run() {
    let mut cases = Vec::new();
    for file in c_files("examples/omp") {
        let flags = launch_flags(&file);
        cases.push(case(&["run", &file], &flags, &[]));
        cases.push(case(&["run", &file], &flags, &["--json"]));
        cases.push(case(&["run", &file], &flags, &["--dump", "4"]));
    }
    let flags = launch_flags(SAXPY);
    cases.push(case(
        &["run", SAXPY],
        &flags,
        &["--config", "noopt", "--jobs", "3"],
    ));
    cases.push(case(
        &["run", SAXPY],
        &flags,
        &["--config", "cuda", "--json", "--dump", "2"],
    ));
    check_golden("run", &cases);
}

#[test]
fn profile() {
    let mut cases = Vec::new();
    for file in c_files("examples/omp") {
        cases.push(case(&["profile", &file], &[], &[]));
        cases.push(case(&["profile", &file, "--json"], &[], &[]));
    }
    cases.push(case(&["profile", SAXPY, "--all-configs"], &[], &[]));
    cases.push(case(
        &["profile", "examples/omp/task_graph.c", "--all-configs"],
        &[],
        &["--jobs", "2"],
    ));
    cases.push(case(
        &["profile", SAXPY],
        &launch_flags(SAXPY),
        &["--config", "h2s2"],
    ));
    for extra in [&["--json"][..], &["--all-configs"][..], &[][..]] {
        cases.push(case(
            &["profile", "--proxy", "xsbench", "--scale", "small"],
            &[],
            extra,
        ));
    }
    check_golden("profile", &cases);
}

#[test]
fn sanitize() {
    let mut cases = Vec::new();
    for file in c_files("examples/omp")
        .into_iter()
        .chain(c_files("tests/fixtures/sanitize"))
    {
        cases.push(case(&["sanitize", &file], &[], &[]));
        cases.push(case(&["sanitize", &file, "--json"], &[], &[]));
        cases.push(case(&["sanitize", &file, "--all-configs"], &[], &[]));
    }
    cases.push(case(
        &["sanitize", SAXPY, "--all-configs", "--json"],
        &[],
        &["--jobs", "2"],
    ));
    cases.push(case(
        &["sanitize", SAXPY, "--config", "llvm12", "--max-insts", "10"],
        &[],
        &[],
    ));
    for extra in [&["--json"][..], &["--all-configs"][..]] {
        cases.push(case(
            &["sanitize", "--proxy", "xsbench", "--scale", "small"],
            &[],
            extra,
        ));
    }
    cases.push(case(&["sanitize", "--self-test"], &[], &[]));
    cases.push(case(&["sanitize", "--self-test", "--jobs", "3"], &[], &[]));
    check_golden("sanitize", &cases);
}

#[test]
fn verify() {
    let mut files = c_files("examples/omp");
    files.extend(c_files("tests/fixtures/sanitize"));
    let cases = vec![
        case(&["verify"], &files, &[]),
        case(
            &["verify", "--examples", "examples/omp", "--jobs", "2"],
            &[],
            &["--watchdog", "0"],
        ),
    ];
    check_golden("verify", &cases);
}

/// One failing invocation per exit code, plus the usage screen.
#[test]
fn failures() {
    let flags = launch_flags(SAXPY);
    let cases = vec![
        // 1: I/O and compile failures.
        case(&["build", "examples/omp/no_such_file.c"], &[], &[]),
        case(&["build", BROKEN], &[], &[]),
        case(&["build", TOO_DEEP], &[], &[]),
        case(&["profile", "examples/omp/no_such_file.c"], &[], &[]),
        case(&["sanitize", BROKEN], &[], &[]),
        case(&["sanitize", BROKEN, "--json"], &[], &[]),
        case(&["sanitize", NO_HEADER, "--all-configs"], &[], &[]),
        case(&["profile", NO_HEADER], &[], &[]),
        case(&["profile", SAXPY, "--kernel", "nope"], &[], &[]),
        case(
            &["profile", "--proxy", "rsbench", "--scale", "bench"],
            &[],
            &["--config", "noopt"],
        ),
        // 2: usage.
        case(&[], &[], &[]),
        case(&["run", SAXPY], &[], &[]),
        case(&["run", SAXPY, "--bogus"], &[], &[]),
        case(&["profile", SAXPY, "--all-configs", "--json"], &[], &[]),
        case(&["sanitize", "--proxy", "nope"], &[], &[]),
        // 3: launch failures.
        case(&["run", SAXPY, "--kernel", "nope"], &[], &[]),
        case(&["run", SAXPY], &flags, &["--max-insts", "10"]),
        case(&["run", SAXPY], &flags, &["--max-insts", "10", "--json"]),
        case(
            &["run", SAXPY, "--kernel", "saxpy", "--arg", "i64:1"],
            &[],
            &[],
        ),
        case(
            &[
                "run",
                SAXPY,
                "--kernel",
                "saxpy",
                "--arg",
                "buf:f64:100000000",
            ],
            &[],
            &[],
        ),
        case(
            &["sanitize", SAXPY, "--max-insts", "10", "--json"],
            &[],
            &[],
        ),
        // 4: oracle divergence (a subject without a spec header, and one
        // whose header names source that does not compile).
        case(&["verify", NO_HEADER, BROKEN], &[], &[]),
        // 5: sanitizer findings.
        case(&["sanitize", "tests/fixtures/sanitize/race.c"], &[], &[]),
        case(
            &["sanitize", "examples/omp/task_race.c", "--json"],
            &[],
            &[],
        ),
    ];
    check_golden("failures", &cases);
}

/// Every value-taking flag is read strictly: a malformed or missing
/// value is a usage error naming the flag — it never launches with a
/// default in place of what the user typed.
#[test]
fn malformed_flag_values_are_usage_errors() {
    let table: &[(&[&str], &str)] = &[
        (
            &["run", SAXPY, "--teams", "x"],
            "invalid value \"x\" for --teams",
        ),
        (
            &["run", SAXPY, "--threads", "-1"],
            "invalid value \"-1\" for --threads",
        ),
        (
            &["run", SAXPY, "--jobs", "many"],
            "invalid value \"many\" for --jobs",
        ),
        (
            &["run", SAXPY, "--max-insts", "1e9"],
            "invalid value \"1e9\" for --max-insts",
        ),
        (
            &["run", SAXPY, "--dump", "x"],
            "invalid value \"x\" for --dump",
        ),
        (&["run", SAXPY, "--dump"], "missing value for --dump"),
        (&["run", SAXPY, "--kernel"], "missing value for --kernel"),
        (
            &["run", SAXPY, "--config", "o3"],
            "invalid value \"o3\" for --config",
        ),
        (
            &["run", SAXPY, "--arg", "buf:f32:8"],
            "invalid value \"buf:f32:8\" for --arg",
        ),
        (
            &["profile", SAXPY, "--teams", "x"],
            "invalid value \"x\" for --teams",
        ),
        (
            &["profile", SAXPY, "--threads", ""],
            "invalid value \"\" for --threads",
        ),
        (
            &["profile", SAXPY, "--jobs", "x"],
            "invalid value \"x\" for --jobs",
        ),
        (
            &["profile", SAXPY, "--kernel"],
            "missing value for --kernel",
        ),
        (&["profile", SAXPY, "--trace"], "missing value for --trace"),
        (&["profile", "--proxy"], "missing value for --proxy"),
        (
            &["profile", "--proxy", "xsbench", "--scale", "huge"],
            "invalid value \"huge\" for --scale",
        ),
        (&["sanitize", "--proxy"], "missing value for --proxy"),
        (
            &["sanitize", SAXPY, "--jobs", "x"],
            "invalid value \"x\" for --jobs",
        ),
        (
            &["sanitize", SAXPY, "--max-insts", "x"],
            "invalid value \"x\" for --max-insts",
        ),
        (&["verify", "--jobs", "x"], "invalid value \"x\" for --jobs"),
        (
            &["verify", "--watchdog", "soon"],
            "invalid value \"soon\" for --watchdog",
        ),
        // Integers that parse but do not fit their field: a 32-bit
        // geometry, and a watchdog whose milliseconds overflow.
        (
            &["run", SAXPY, "--teams", "4294967298"],
            "invalid value \"4294967298\" for --teams",
        ),
        (
            &["verify", "--watchdog", "18446744073709552"],
            "invalid value \"18446744073709552\" for --watchdog",
        ),
        (&["verify", "--examples"], "missing value for --examples"),
        (
            &["serve", "--socket", "/tmp/s", "--queue", "x"],
            "invalid value \"x\" for --queue",
        ),
        (
            &["client", "--socket", "/tmp/s", "--retries", "x"],
            "invalid value \"x\" for --retries",
        ),
    ];
    for (args, message) in table {
        let (code, stdout, stderr) = ompgpu(args);
        assert_eq!(code, 2, "{args:?} must be a usage error\n{stderr}");
        assert_eq!(stdout, "", "{args:?} must not run anything");
        assert_eq!(stderr, format!("ompgpu: {message}\n"), "{args:?}");
    }
}

/// Every subcommand names an unknown flag on its first stderr line.
/// `run` shares its parser with `build`, whose line carries no
/// subcommand (pinned by `cli_failures.txt`).
#[test]
fn unknown_flags_are_named() {
    let table: &[(&[&str], &str)] = &[
        (&["run", SAXPY, "--bogus"], "ompgpu: unknown flag --bogus"),
        // Only `build` prints IR and remarks.
        (
            &["run", SAXPY, "--emit-ir"],
            "ompgpu: unknown flag --emit-ir",
        ),
        (
            &["run", SAXPY, "--remarks"],
            "ompgpu: unknown flag --remarks",
        ),
        // The execution tier is a test switch, not a flag.
        (
            &["run", SAXPY, "--tier", "interp"],
            "ompgpu: unknown flag --tier",
        ),
        // `build` launches nothing, so it takes no launch flag.
        (
            &["build", SAXPY, "--jobs", "3"],
            "ompgpu: unknown flag --jobs",
        ),
        (
            &["profile", SAXPY, "--bogus"],
            "ompgpu profile: unknown flag --bogus",
        ),
        // Request fields `profile` does not take as flags (the wire's
        // `max_insts` and `watchdog_secs`).
        (
            &["profile", SAXPY, "--max-insts", "10"],
            "ompgpu profile: unknown flag --max-insts",
        ),
        (
            &["profile", SAXPY, "--watchdog", "5"],
            "ompgpu profile: unknown flag --watchdog",
        ),
        (
            &["sanitize", SAXPY, "--bogus"],
            "ompgpu sanitize: unknown flag --bogus",
        ),
        (
            &["verify", "--bogus"],
            "ompgpu verify: unknown flag --bogus",
        ),
        (
            &["verify", "--tier", "compiled"],
            "ompgpu verify: unknown flag --tier",
        ),
        (&["serve", "--bogus"], "ompgpu serve: unknown flag --bogus"),
        (
            &["client", "--bogus"],
            "ompgpu client: unknown flag --bogus",
        ),
    ];
    for (args, first_line) in table {
        let (code, stdout, stderr) = ompgpu(args);
        assert_eq!(code, 2, "{args:?} must be a usage error\n{stderr}");
        assert_eq!(stdout, "", "{args:?} must not run anything");
        assert_eq!(stderr.lines().next(), Some(*first_line), "{args:?}");
    }
}

/// Behaviour that differed between subcommands (or between the CLI and
/// `ompgpu serve`) before both decoded into one request, and now agrees
/// (`docs/ARCHITECTURE.md`, "Job path", lists every such row).
#[test]
fn subcommands_share_one_request_decoder() {
    // Flags may precede the file on `build` and `run` too.
    let after = ompgpu(&["build", SAXPY, "--config", "llvm12", "--emit-ir"]);
    let before = ompgpu(&["build", "--config", "llvm12", "--emit-ir", SAXPY]);
    assert_eq!(after.0, 0, "{}", after.2);
    assert_eq!(before, after);

    // `run --kernel` takes geometry and arguments from the header, like
    // `profile` and a serve `run`.
    let mut spelled = vec!["run".to_string(), SAXPY.to_string(), "--json".to_string()];
    spelled.extend(launch_flags(SAXPY));
    let spelled = ompgpu(&spelled.iter().map(String::as_str).collect::<Vec<_>>());
    let header = ompgpu(&["run", SAXPY, "--json", "--kernel", "saxpy"]);
    assert_eq!(spelled.0, 0, "{}", spelled.2);
    assert_eq!(header, spelled);

    // An unreadable file is one line naming no subcommand, everywhere.
    for op in ["build", "run", "profile", "sanitize", "verify"] {
        let (code, stdout, stderr) = ompgpu(&[op, "examples/omp/no_such_file.c"]);
        assert_eq!((code, stdout.as_str()), (1, ""), "{op}");
        let line = "ompgpu: cannot read examples/omp/no_such_file.c: No such file";
        assert!(stderr.starts_with(line), "{op}: {stderr}");
    }

    // An unknown proxy is a usage error of `profile` as of `sanitize`.
    for op in ["profile", "sanitize"] {
        let (code, stdout, stderr) = ompgpu(&[op, "--proxy", "nope"]);
        let known = "(known: XSBench, RSBench, SU3Bench, miniQMC)";
        assert_eq!((code, stdout.as_str()), (2, ""), "{op}");
        assert_eq!(
            stderr,
            format!("ompgpu {op}: unknown proxy \"nope\" {known}\n")
        );
    }
}

/// One malformed value per `OMPGPU_*` override, with the error it must
/// produce.
const MALFORMED_ENV: [(&str, &str, &str); 2] = [
    (
        "OMPGPU_MAX_INSTS",
        "1e9",
        "invalid OMPGPU_MAX_INSTS \"1e9\": expected a non-negative integer budget",
    ),
    (
        "OMPGPU_JOBS",
        "two",
        "invalid OMPGPU_JOBS \"two\": expected a non-negative integer worker count (0 = auto)",
    ),
];

/// `ompgpu serve` reads its `OMPGPU_*` overrides as strictly as its
/// flags: a malformed one is a structured startup error, never the
/// built-in default, and the socket is never bound.
#[test]
fn malformed_env_overrides_stop_serve_at_startup() {
    for (name, value, message) in MALFORMED_ENV {
        let socket =
            std::env::temp_dir().join(format!("ompgpu-env-{}-{name}.sock", std::process::id()));
        let (code, stdout, stderr) = ompgpu_env(
            &["serve", "--socket", socket.to_str().unwrap()],
            &[(name, value)],
        );
        assert_eq!(code, 2, "{name}={value}");
        assert_eq!(
            stderr,
            format!("ompgpu serve: {message}\n"),
            "{name}={value}"
        );
        assert!(
            stdout.starts_with("{\"schema\":\"ompgpu-serve/v1\",\"ok\":false,\"exit_code\":2,"),
            "{name}={value}: {stdout}"
        );
        assert!(
            stdout.contains(&message.replace('"', "\\\"")),
            "{name}={value}: {stdout}"
        );
        assert!(!socket.exists(), "{name}={value} bound the socket");
    }
}

/// The launching subcommands read the `OMPGPU_*` overrides as strictly
/// as `serve` does: a malformed one is a usage error naming the
/// variable, and nothing runs.
#[test]
fn malformed_env_overrides_stop_launching_subcommands() {
    let commands = [
        case(&["run", SAXPY], &launch_flags(SAXPY), &[]),
        case(&["profile", SAXPY], &[], &[]),
        case(&["sanitize", SAXPY], &[], &[]),
        case(&["verify"], &[], &[]),
    ];
    for (name, value, message) in MALFORMED_ENV {
        for args in &commands {
            let argv: Vec<&str> = args.iter().map(String::as_str).collect();
            let (code, stdout, stderr) = ompgpu_env(&argv, &[(name, value)]);
            assert_eq!(code, 2, "{name}={value} {argv:?}\n{stderr}");
            assert_eq!(stdout, "", "{name}={value} {argv:?} must not run anything");
            assert_eq!(
                stderr,
                format!("ompgpu: {message}\n"),
                "{name}={value} {argv:?}"
            );
        }
    }
}

/// A valid `OMPGPU_MAX_INSTS` is the default budget of every launch the
/// front ends run (the simulator itself reads no environment): `ompgpu
/// run` and a serve `run` without `max_insts` stop at it, and a
/// request's own budget still wins. Subprocesses, because the
/// environment is process-global.
#[test]
fn valid_env_max_insts_is_the_default_budget() {
    let env = [("OMPGPU_MAX_INSTS", "1")];
    let runaway = "instruction budget exceeded (1 per thread)";
    let mut argv = case(&["run", SAXPY], &launch_flags(SAXPY), &[]);
    let run = |argv: &[String]| {
        let argv: Vec<&str> = argv.iter().map(String::as_str).collect();
        ompgpu_env(&argv, &env)
    };
    let (code, _, stderr) = run(&argv);
    assert_eq!(code, 3, "{stderr}");
    assert!(stderr.contains(runaway), "{stderr}");
    argv.extend(["--max-insts".to_string(), "100000".to_string()]);
    let (code, _, stderr) = run(&argv);
    assert_eq!(code, 0, "{stderr}");

    let socket = std::env::temp_dir().join(format!("ompgpu-budget-{}.sock", std::process::id()));
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_ompgpu"))
        .args(["serve", "--socket", socket.to_str().unwrap()])
        .current_dir(repo_root())
        .env_remove("OMPGPU_JOBS")
        .envs(env)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("ompgpu serve starts");
    let replies = (|| {
        for _ in 0..200 {
            if let Ok(stream) = UnixStream::connect(&socket) {
                let mut writer = stream.try_clone().ok()?;
                let run = format!("{{\"op\":\"run\",\"path\":\"{SAXPY}\"}}");
                let own = format!("{{\"op\":\"run\",\"path\":\"{SAXPY}\",\"max_insts\":100000}}");
                for line in [run, own, "{\"op\":\"shutdown\"}".to_string()] {
                    writeln!(writer, "{line}").ok()?;
                }
                return BufReader::new(stream)
                    .lines()
                    .take(3)
                    .collect::<Result<Vec<_>, _>>()
                    .ok();
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        None
    })();
    let replies = replies.unwrap_or_else(|| {
        let _ = daemon.kill();
        panic!("no replies from ompgpu serve on {}", socket.display())
    });
    assert!(daemon.wait().expect("daemon exits").success());
    assert!(
        replies[0].contains("\"ok\":false,\"exit_code\":3,"),
        "{}",
        replies[0]
    );
    assert!(replies[0].contains(runaway), "{}", replies[0]);
    assert!(replies[1].contains("\"ok\":true"), "{}", replies[1]);
}

/// A source nested past the frontend's limit is answered by the daemon
/// like any other compile error, and the daemon keeps serving: before
/// the limit, 700 nested parentheses overflowed the executor's stack
/// and aborted the process.
#[test]
fn daemon_answers_an_over_deep_source_then_serves_on() {
    let socket = std::env::temp_dir().join(format!("ompgpu-deep-{}.sock", std::process::id()));
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_ompgpu"))
        .args(["serve", "--socket", socket.to_str().unwrap()])
        .current_dir(repo_root())
        .env_remove("OMPGPU_JOBS")
        .env_remove("OMPGPU_MAX_INSTS")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("ompgpu serve starts");
    let replies = (|| {
        for _ in 0..200 {
            if let Ok(stream) = UnixStream::connect(&socket) {
                let mut writer = stream.try_clone().ok()?;
                let compile = format!("{{\"op\":\"compile\",\"path\":\"{TOO_DEEP}\"}}");
                for line in [&compile, "{\"op\":\"ping\"}", "{\"op\":\"shutdown\"}"] {
                    writeln!(writer, "{line}").ok()?;
                }
                return BufReader::new(stream)
                    .lines()
                    .take(3)
                    .collect::<Result<Vec<_>, _>>()
                    .ok();
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        None
    })();
    let replies = replies.unwrap_or_else(|| {
        let _ = daemon.kill();
        panic!("no replies from ompgpu serve on {}", socket.display())
    });
    assert!(daemon.wait().expect("daemon exits").success());
    assert!(
        replies[0].contains("\"ok\":false,\"exit_code\":1,"),
        "{}",
        replies[0]
    );
    assert!(
        replies[0].contains("nesting deeper than 256 levels"),
        "{}",
        replies[0]
    );
    assert!(replies[1].contains("\"ok\":true"), "{}", replies[1]);
}
