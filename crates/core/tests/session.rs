//! Serve-session determinism: the property the whole compile service
//! rests on is that answering from a warm cache is unobservable.
//!
//! For every configuration of the ablation matrix and every request
//! type, a warmed [`Session`] must return a `result` payload
//! byte-identical to the cold computation — and the warm pass must
//! actually hit the caches (otherwise the property would hold
//! vacuously). Separately, the store's module tiers must stay bounded
//! under a stream of new sources.

use omp_gpu::job::{EnvOverrides, MODULE_TIER_CAPACITY};
use omp_gpu::oracle::ORACLE_CONFIGS;
use omp_gpu::request::{self, Request};
use omp_gpu::serve::Session;
use omp_gpu::{BuildConfig, Store};
use omp_json::Value;
use std::time::Duration;

const SRC: &str = r#"
// oracle-kernel: blend
// oracle-teams: 4
// oracle-threads: 8
// oracle-arg: buf f64 64 pseudo
// oracle-arg: buf f64 64 iota
// oracle-arg: f64 0.75
// oracle-arg: i64 64
void blend(double* a, double* b, double f, long n) {
  #pragma omp target teams distribute parallel for
  for (long i = 0; i < n; i++) {
    a[i] = a[i] * f + b[i] * (1.0 - f);
  }
}
"#;

/// Builds the request corpus: every cacheable op for every OpenMP
/// configuration, plus one `verify` (which sweeps all six internally).
fn corpus() -> Vec<String> {
    let mut lines = Vec::new();
    let escaped = omp_json::escape(SRC);
    for config in ORACLE_CONFIGS {
        for op in ["compile", "run", "profile", "sanitize"] {
            lines.push(format!(
                "{{\"op\":\"{op}\",\"source\":\"{escaped}\",\"name\":\"blend\",\
                 \"config\":\"{}\",\"dump\":8}}",
                config.cli_name()
            ));
        }
    }
    lines.push(format!(
        "{{\"op\":\"verify\",\"source\":\"{escaped}\",\"name\":\"blend\"}}"
    ));
    lines
}

fn result_payload(response: &str) -> String {
    let v = omp_json::parse(response).expect("response parses");
    assert_eq!(
        v.get("schema").and_then(Value::as_str),
        Some("ompgpu-serve/v1")
    );
    let exit = v.get("exit_code").and_then(Value::as_u64).unwrap();
    assert_eq!(exit, 0, "request must succeed, got: {response}");
    v.get("result")
        .expect("successful response has a result")
        .to_json()
}

fn tier_hits(response: &str, tier: &str) -> u64 {
    omp_json::parse(response)
        .ok()
        .and_then(|v| v.get("cache")?.get(tier)?.get("hits")?.as_u64())
        .unwrap_or(0)
}

#[test]
fn warm_session_is_byte_identical_to_cold_across_the_matrix() {
    let mut session = Session::default();
    let corpus = corpus();

    let cold: Vec<String> = corpus
        .iter()
        .map(|line| session.handle_line(line).0)
        .collect();
    let warm: Vec<String> = corpus
        .iter()
        .map(|line| session.handle_line(line).0)
        .collect();

    for ((line, cold), warm) in corpus.iter().zip(&cold).zip(&warm) {
        assert_eq!(
            result_payload(cold),
            result_payload(warm),
            "cold and warm results differ for request {line}"
        );
        // The property must not hold vacuously: every warm request
        // answers from the frontend and optimized tiers.
        assert!(
            tier_hits(warm, "frontend") > 0,
            "warm request missed the frontend tier: {line}"
        );
        assert!(
            tier_hits(warm, "optimized") > 0,
            "warm request missed the optimized tier: {line}"
        );
    }
    assert!(
        session.stats().cache.device.hits > 0,
        "the warm pass never reused a warmed device"
    );
}

/// A multi-kernel async pipeline: `run` requests for it launch the
/// whole two-node plan.
const PIPE_SRC: &str = r#"
// oracle-kernel: pipe
// oracle-arg: buf f64 32 pseudo
// oracle-arg: buf f64 32 zero
// oracle-arg: i64 32
void pipe(double* a, double* b, long n) {
  #pragma omp target teams distribute parallel for nowait depend(inout: a) num_teams(2) thread_limit(8)
  for (long i = 0; i < n; i++) { a[i] = a[i] + 1.0; }
  #pragma omp target teams distribute parallel for nowait depend(in: a) depend(out: b) num_teams(2) thread_limit(8)
  for (long i = 0; i < n; i++) { b[i] = a[i] * 2.0; }
}
"#;

#[test]
fn multi_kernel_runs_are_byte_identical_warm_and_cold() {
    let mut session = Session::default();
    let escaped = omp_json::escape(PIPE_SRC);
    let run = format!(
        "{{\"op\":\"run\",\"source\":\"{escaped}\",\"name\":\"pipe\",\
         \"config\":\"dev\",\"dump\":8}}"
    );

    let cold = session.handle_line(&run).0;
    let warm = session.handle_line(&run).0;
    assert_eq!(
        result_payload(&cold),
        result_payload(&warm),
        "a warm multi-kernel run must be byte-identical to the cold one"
    );
    for tier in ["frontend", "optimized", "device"] {
        assert!(
            tier_hits(&warm, tier) > 0,
            "warm run missed the {tier} tier"
        );
    }

    // The envelope accounts for exactly the three store tiers.
    let v = omp_json::parse(&warm).unwrap();
    let Some(Value::Object(cache)) = v.get("cache") else {
        panic!("envelope carries no cache object: {warm}");
    };
    let keys: Vec<&str> = cache.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["frontend", "optimized", "device"]);
}

/// A source whose header does not parse fails every configuration of a
/// `sanitize` alike, in a report — on the wire as in `ompgpu sanitize`.
#[test]
fn a_malformed_header_fails_every_sanitize_config_alike() {
    let mut session = Session::default();
    let line = "{\"op\":\"sanitize\",\"source\":\"void k() {}\",\"all_configs\":true}";
    let v = omp_json::parse(&session.handle_line(line).0).unwrap();
    assert_eq!(v.get("exit_code").and_then(Value::as_u64), Some(1));
    let configs = v.get("result").and_then(|r| r.get("configs"));
    let configs = configs.and_then(Value::as_array).expect("a report");
    assert_eq!(configs.len(), ORACLE_CONFIGS.len());
    for c in configs {
        assert_eq!(
            c.get("setup_error").and_then(Value::as_str),
            Some("spec error: missing `// oracle-kernel:` directive")
        );
    }
}

/// `ompgpu run` argv and a serve `run` line decode into one request:
/// the same launch, under the same 60 s default watchdog, falling back
/// to the source's header for whatever neither names.
#[test]
fn argv_and_wire_decode_to_the_same_request() {
    let path = std::env::temp_dir().join(format!("ompgpu-request-{}.c", std::process::id()));
    std::fs::write(&path, SRC).unwrap();
    let path = path.display().to_string();
    let argv: Vec<String> = [
        &path,
        "--kernel",
        "blend",
        "--jobs",
        "2",
        "--max-insts",
        "900",
    ]
    .map(String::from)
    .to_vec();
    let cli = Request::from_argv("run", &argv).expect("argv decodes");
    let line = format!(
        "{{\"op\":\"run\",\"path\":{path:?},\"kernel\":\"blend\",\"jobs\":2,\"max_insts\":900}}"
    );
    let wire = Request::decode(&line).2.expect("the line decodes");
    let env = EnvOverrides::default();
    let (a, b) = (cli.knobs(env), wire.knobs(env));
    assert_eq!(a.watchdog, Some(Duration::from_secs(60)));
    assert_eq!(
        (a.jobs, a.max_insts, a.watchdog),
        (b.jobs, b.max_insts, b.watchdog)
    );
    assert_eq!(
        (cli.config, &cli.kernel, cli.dump),
        (wire.config, &wire.kernel, wire.dump)
    );
    let mut store = Store::new(0);
    let [cli, wire] = [cli, wire].map(|r| {
        let done = request::launch(&mut store, &r, r.config, &r.knobs(env)).expect("launch");
        (done.kernel, done.result.stats_json())
    });
    assert_eq!(cli, wire);
    std::fs::remove_file(&path).unwrap();
}

/// A wire value is read by the parser its flag uses, so a rejected one
/// reads like the CLI's `invalid value "o3" for --config` (exit 2).
#[test]
fn wire_values_are_rejected_in_the_flags_words() {
    let mut session = Session::default();
    let known = "ping, compile, run, verify, profile, sanitize, metrics, stats, shutdown";
    let unknown_op = format!("unknown op \"frob\" (known: {known})");
    for (fields, message) in [
        ("\"op\":\"frob\"", unknown_op.as_str()),
        ("\"op\":7", "field \"op\" must be a string"),
        (
            "\"op\":\"run\",\"source\":\"x\",\"config\":\"o3\"",
            "invalid value \"o3\" for field \"config\"",
        ),
        (
            "\"op\":\"run\",\"source\":\"x\",\"args\":[\"buf:f32:8\"]",
            "invalid value \"buf:f32:8\" for field \"args\"",
        ),
        (
            "\"op\":\"run\",\"source\":\"x\",\"args\":\"i64:1\"",
            "field \"args\" must be an array of strings",
        ),
        (
            "\"op\":\"run\",\"source\":\"x\",\"teams\":-1",
            "field \"teams\" must be an integer",
        ),
    ] {
        let v = omp_json::parse(&session.handle_line(&format!("{{{fields}}}")).0).unwrap();
        let error = v.get("error").and_then(|e| e.get("message"));
        assert_eq!(error.and_then(Value::as_str), Some(message), "{fields}");
        assert_eq!(v.get("exit_code").and_then(Value::as_u64), Some(2));
    }
    // A launch with no kernel names the wire's field, where `ompgpu
    // profile` names its flag (`cli_failures.txt`).
    let line = "{\"op\":\"run\",\"source\":\"void k() {}\"}";
    let v = omp_json::parse(&session.handle_line(line).0).unwrap();
    let error = v.get("error").and_then(|e| e.get("message"));
    assert_eq!(
        error.and_then(Value::as_str),
        Some("need a \"kernel\" field (or an `// oracle-kernel:` header)")
    );
}

/// A one-kernel source, distinct for every `i`.
fn tiny_source(i: usize) -> String {
    format!(
        "void k(double* a) {{\n  #pragma omp target teams distribute parallel for\n  \
         for (long i = 0; i < 4; i++) {{ a[i] = a[i] * {i}.0; }}\n}}\n"
    )
}

#[test]
fn module_tiers_stay_bounded_under_churn() {
    let config = BuildConfig::LlvmDev;
    let mut store = Store::new(0);
    let oldest = store.build(&tiny_source(0), config).unwrap().compile_json();
    for i in 1..=MODULE_TIER_CAPACITY {
        store.build(&tiny_source(i), config).unwrap();
    }
    let [frontend, optimized, _] = store.entries();
    assert_eq!(frontend, MODULE_TIER_CAPACITY);
    assert_eq!(optimized, MODULE_TIER_CAPACITY);

    let before = store.trace();
    store
        .build(&tiny_source(MODULE_TIER_CAPACITY), config)
        .unwrap();
    let after = store.trace();
    assert_eq!(after.frontend.hits, before.frontend.hits + 1);
    assert_eq!(after.optimized.hits, before.optimized.hits + 1);

    // The oldest source was evicted: it rebuilds cold, to the same bytes.
    let rebuilt = store.build(&tiny_source(0), config).unwrap();
    let cold = store.trace();
    assert_eq!(cold.frontend.misses, after.frontend.misses + 1);
    assert_eq!(cold.optimized.misses, after.optimized.misses + 1);
    assert_eq!(rebuilt.compile_json(), oldest);
    assert_eq!(store.entries()[..2], [MODULE_TIER_CAPACITY; 2]);
}

#[test]
fn cli_names_round_trip() {
    for config in BuildConfig::ALL {
        assert_eq!(
            BuildConfig::from_cli_name(config.cli_name()),
            Some(config),
            "cli name {:?} does not round-trip",
            config.cli_name()
        );
    }
    assert_eq!(BuildConfig::from_cli_name("nope"), None);
}

/// A source nested to the frontend's limit builds and runs on a thread
/// with the executor's stack, in a debug build too; one level deeper is
/// a compile error (exit 1) naming the limit, not a stack overflow that
/// would abort the daemon. Every shape of nesting is checked: an
/// expression in parentheses, a statement in blocks, a flat operator
/// chain, groups nested in a chain, and a chain of indexes.
#[test]
fn sources_at_the_nesting_limit_run_on_the_executor_stack() {
    use omp_frontend::parser::MAX_NESTING;
    // Levels open around the nested part: the `target` pragma, the
    // loop, its body, the assignment statement, the assignment and its
    // right side.
    const AROUND: u32 = 6;
    let source = |nested: String| {
        format!(
            "// oracle-kernel: deep\n// oracle-teams: 1\n// oracle-threads: 2\n\
             // oracle-arg: buf f64 2 zero\n// oracle-arg: i64 2\n\
             void deep(double* a, long n) {{\n\
             #pragma omp target teams distribute parallel for\n\
             for (long i = 0; i < n; i++) {{\n{nested}\n}}\n}}\n"
        )
    };
    // Each shape nests `k` levels past `AROUND`.
    type Shape = fn(usize) -> String;
    let shapes: [(&str, Shape); 5] = [
        ("parens", |k| {
            format!("a[i] = {}1.0{};", "(".repeat(k), ")".repeat(k))
        }),
        // The assignment pushes its left side `a[i]` a level below
        // itself, so one block fewer reaches the limit.
        ("blocks", |k| {
            format!("{}a[i] = 1.0;{}", "{ ".repeat(k - 1), " }".repeat(k - 1))
        }),
        ("chain", |k| format!("a[i] = 1.0{};", " * 1.0".repeat(k))),
        // Groups of ten factors, each a parenthesis and nine operators
        // deeper than the one inside it, then a chain.
        ("groups", |k| {
            let g = (k - 1) / 10;
            let close = format!("{})", " * 1.0".repeat(9));
            let chain = " * 1.0".repeat(k - 10 * g);
            format!("a[i] = {}1.0{}{chain};", "(".repeat(g), close.repeat(g))
        }),
        // No pointer can be indexed twice, so at the limit the type
        // check rejects the chain, after every walk over it.
        ("indexes", |k| format!("a[i] = a{};", "[0]".repeat(k))),
    ];
    let deepest = (MAX_NESTING - AROUND) as usize;
    let sources: Vec<String> = shapes
        .iter()
        .flat_map(|(_, shape)| [source(shape(deepest)), source(shape(deepest + 1))])
        .collect();
    let answers = std::thread::Builder::new()
        .stack_size(omp_gpu::serve::EXECUTOR_STACK_BYTES)
        .spawn(move || {
            let mut session = Session::new(1);
            sources
                .iter()
                .map(|src| {
                    let line = format!(
                        "{{\"op\":\"run\",\"source\":\"{}\",\"dump\":2}}",
                        omp_json::escape(src)
                    );
                    session.handle_line(&line).0
                })
                .collect::<Vec<_>>()
        })
        .expect("spawn a thread with the executor's stack")
        .join()
        .expect("the session answers");
    let limit = format!("nesting deeper than {MAX_NESTING} levels");
    for ((name, _), pair) in shapes.iter().zip(answers.chunks(2)) {
        let (at_limit, past_limit) = (&pair[0], &pair[1]);
        if *name == "indexes" {
            assert!(
                at_limit.contains("\"ok\":false,\"exit_code\":1,"),
                "{name}: {at_limit}"
            );
            assert!(
                at_limit.contains("indexing a non-pointer value"),
                "{name}: {at_limit}"
            );
        } else {
            assert!(at_limit.contains("\"ok\":true"), "{name}: {at_limit}");
            assert!(at_limit.contains("[1.0,1.0]"), "{name}: {at_limit}");
        }
        assert!(
            past_limit.contains("\"ok\":false,\"exit_code\":1,"),
            "{name}: {past_limit}"
        );
        assert!(past_limit.contains(&limit), "{name}: {past_limit}");
    }
}
