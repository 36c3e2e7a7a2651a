//! Serve-session determinism: the property the whole compile service
//! rests on is that answering from a warm cache is unobservable.
//!
//! For every configuration of the ablation matrix and every request
//! type, a warmed [`Session`] must return a `result` payload
//! byte-identical to the cold computation — and the warm pass must
//! actually hit the caches (otherwise the property would hold
//! vacuously). Separately, configuration fingerprints must be pairwise
//! distinct, so no two build configurations can ever alias one cache
//! entry.

use omp_gpu::oracle::ORACLE_CONFIGS;
use omp_gpu::serve::Session;
use omp_gpu::BuildConfig;
use omp_json::Value;

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

#[test]
fn fingerprints_are_pairwise_distinct() {
    // Every pair of configurations differs in at least one frontend or
    // optimizer field, so every pair of fingerprints must differ —
    // aliasing two configs to one optimized-cache entry would serve one
    // config's artifacts for the other.
    for a in BuildConfig::ALL {
        for b in BuildConfig::ALL {
            if a != b {
                assert_ne!(
                    a.fingerprint(),
                    b.fingerprint(),
                    "configs {:?} and {:?} share a cache fingerprint",
                    a,
                    b
                );
            }
        }
    }
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
