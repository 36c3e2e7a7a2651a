//! The CLI and the daemon are two renderings of one job: for every
//! oracle example, what `ompgpu run|profile|sanitize --json` prints is
//! byte-for-byte the payload a serve session answers with — cold and
//! warm — and `ompgpu verify`'s text block carries exactly the serve
//! `verify` payload's per-configuration numbers and failures.

mod common;

use common::{c_files, launch_flags, ompgpu, repo_root};
use omp_gpu::serve::Session;
use omp_gpu::BuildConfig;
use omp_json::Value;

/// Sends `request` twice (cold, then warm) and returns both replies.
fn cold_and_warm(session: &mut Session, request: &str) -> [String; 2] {
    [
        session.handle_line(request).0,
        session.handle_line(request).0,
    ]
}

/// The absolute spelling of a repo-relative path (the in-process session
/// resolves `"path"` against the test's working directory, not the
/// repository root the CLI child runs from).
fn abs(file: &str) -> String {
    repo_root().join(file).display().to_string()
}

fn cli_stdout(args: &[&str], flags: &[String]) -> String {
    let argv: Vec<&str> = args
        .iter()
        .copied()
        .chain(flags.iter().map(String::as_str))
        .collect();
    let (_, stdout, _) = ompgpu(&argv);
    stdout.trim_end().to_string()
}

#[test]
fn run_json_is_the_serve_stats_payload() {
    let mut session = Session::default();
    for file in c_files("examples/omp") {
        let cli = cli_stdout(&["run", &file, "--json"], &launch_flags(&file));
        assert!(cli.starts_with('{'), "{file}: {cli}");
        for reply in cold_and_warm(
            &mut session,
            &format!("{{\"op\":\"run\",\"path\":{:?}}}", abs(&file)),
        ) {
            assert!(
                reply.contains(&format!("\"stats\":{cli}}}}}")),
                "{file}: serve `run` result.stats differs from `ompgpu run --json`\n\
                 cli:   {cli}\nserve: {reply}"
            );
        }
    }
}

#[test]
fn profile_json_is_the_serve_profile_payload() {
    let mut session = Session::default();
    for file in c_files("examples/omp") {
        let cli = cli_stdout(&["profile", &file, "--json"], &[]);
        assert!(cli.starts_with('{'), "{file}: {cli}");
        let request = format!("{{\"op\":\"profile\",\"path\":{:?}}}", abs(&file));
        for reply in cold_and_warm(&mut session, &request) {
            assert!(
                reply.ends_with(&format!("\"profile\":{cli}}}}}")),
                "{file}: serve `profile` result.profile differs from `ompgpu profile --json`"
            );
        }
    }
}

#[test]
fn sanitize_json_is_the_serve_result() {
    let mut session = Session::default();
    for file in c_files("examples/omp") {
        for all_configs in [false, true] {
            let extra: Vec<String> = all_configs
                .then(|| "--all-configs".to_string())
                .into_iter()
                .collect();
            let cli = cli_stdout(&["sanitize", &file, "--json"], &extra);
            // The CLI names the subject by the path it was given.
            let request = format!(
                "{{\"op\":\"sanitize\",\"path\":{:?},\"name\":{file:?},\
                 \"all_configs\":{all_configs}}}",
                abs(&file)
            );
            for reply in cold_and_warm(&mut session, &request) {
                assert!(
                    reply.ends_with(&format!("\"result\":{cli}}}")),
                    "{file}: serve `sanitize` result differs from `ompgpu sanitize --json`\n\
                     cli:   {cli}\nserve: {reply}"
                );
            }
        }
    }
}

/// Renders a serve `verify` payload the way `OracleCase::render`
/// prints the same case.
fn render_case(result: &Value) -> String {
    let strings = |key: &str| -> Vec<String> {
        result
            .get(key)
            .and_then(Value::as_array)
            .expect("string array")
            .iter()
            .map(|v| v.as_str().expect("string").to_string())
            .collect()
    };
    let configs = result.get("configs").and_then(Value::as_array).unwrap();
    let executed = configs.iter().filter(|c| c.get("stats").is_some()).count();
    let mut out = format!(
        "{} {} ({executed}/{} configs executed)\n",
        if result.get("passed").and_then(Value::as_bool).unwrap() {
            "PASS"
        } else {
            "FAIL"
        },
        result.get("name").and_then(Value::as_str).unwrap(),
        configs.len()
    );
    for c in configs {
        let name = c.get("config").and_then(Value::as_str).unwrap();
        let label = BuildConfig::from_cli_name(name).expect("config").label();
        let num = |s: &Value, k: &str| s.get(k).and_then(Value::as_u64).unwrap();
        match (c.get("stats"), c.get("error").and_then(Value::as_str)) {
            (Some(s), _) => out.push_str(&format!(
                "  {label:<40} cycles={:<10} heap={:<8} smem={:<6} galloc={}\n",
                num(s, "cycles"),
                num(s, "heap_bytes"),
                num(s, "shared_mem_bytes"),
                num(s, "globalization_allocs")
            )),
            (None, Some(e)) => out.push_str(&format!("  {label:<40} error: {e}\n")),
            (None, None) => panic!("config entry without stats or error"),
        }
    }
    for e in strings("expected_failures") {
        out.push_str(&format!("  (expected) {e}\n"));
    }
    for f in strings("failures") {
        out.push_str(&format!("  DIVERGENCE: {f}\n"));
    }
    out
}

#[test]
fn verify_text_is_the_serve_verify_payload() {
    let mut files = c_files("examples/omp");
    files.push("tests/fixtures/cli/broken.c".to_string());
    files.push("tests/fixtures/cli/no_header.c".to_string());
    let cli = cli_stdout(&["verify"], &files);
    let mut session = Session::default();
    for file in &files {
        let request = format!("{{\"op\":\"verify\",\"path\":{:?}}}", abs(file));
        let replies = cold_and_warm(&mut session, &request);
        let payload = |reply: &str| -> Value {
            let v = omp_json::parse(reply).expect("reply is JSON");
            v.get("result").expect("verify carries a result").clone()
        };
        let (cold, warm) = (payload(&replies[0]), payload(&replies[1]));
        assert_eq!(cold.to_json(), warm.to_json(), "{file}: warm != cold");
        let block = render_case(&cold);
        assert!(
            cli.contains(&block),
            "{file}: `ompgpu verify` does not print the serve payload's case:\n{block}\n\
             cli output:\n{cli}"
        );
    }
}
