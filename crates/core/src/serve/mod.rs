//! The compile service: `ompgpu serve`.
//!
//! A [`Session`] is a long-lived compilation context around one
//! [`Store`](crate::job::Store): the frontend, optimized and device
//! cache tiers every request's jobs run against (`docs/SERVE.md` has
//! the full protocol specification). A line decodes into the
//! [`Request`](crate::request::Request) an `ompgpu` argv does, and each
//! op runs the reducer the CLI runs: `protocol` (envelopes), `session`
//! (accounting, deadlines, panic isolation, payloads), `executor` (FIFO
//! thread) and `transport` (Unix socket).
//!
//! Requests arrive as JSON-lines (`ompgpu-serve/v1`); each response
//! carries per-request cache hit/miss accounting in its envelope and a
//! deterministic `result` payload: for every request type except
//! `stats`, the `result` object from a warm cache is byte-identical to
//! the cold one (the envelope's `cache` field is the only part allowed
//! to differ). Wall-clock quantities (pass timings) are deliberately
//! excluded from every payload.
//!
//! [`spawn_executor`] runs a session on a dedicated thread behind an
//! MPSC queue: requests from any number of clients are serialized FIFO
//! and drained in batches, which is both the concurrency story (the
//! session needs no locks) and the determinism story (arrival order is
//! execution order). [`serve_unix`] exposes the executor on a Unix
//! socket for `ompgpu serve` / `ompgpu client`.

mod executor;
mod protocol;
mod session;
mod transport;

pub use crate::job::TierStats;
pub use executor::{spawn_executor, ExecutorHandle, ServeJob};
pub use protocol::{
    ALL_OPS, DEFAULT_DEADLINE_MS, DEFAULT_DEVICE_CAPACITY, DEFAULT_QUEUE_CAPACITY, EXIT_BUILD,
    EXIT_DIVERGED, EXIT_FINDINGS, EXIT_INTERNAL, EXIT_OK, EXIT_OVERLOAD, EXIT_SIM, EXIT_TIMEOUT,
    EXIT_USAGE, MAX_FRAME_BYTES, RETRY_AFTER_MS, SCHEMA,
};
pub use session::{ExecShared, Session, SessionStats};
pub use transport::serve_unix;

#[cfg(test)]
mod tests {
    use super::transport::{read_frame, Frame};
    use super::*;
    use crate::job::{parse_jobs, parse_max_insts};
    use omp_json::Value;
    use std::sync::atomic::Ordering;
    use std::sync::{mpsc, Arc};

    const SRC: &str = r#"
// oracle-kernel: scale
// oracle-teams: 2
// oracle-threads: 8
// oracle-arg: buf f64 32 iota
// oracle-arg: f64 3.0
// oracle-arg: i64 32
void scale(double* a, double f, long n) {
  #pragma omp target teams distribute parallel for
  for (long i = 0; i < n; i++) { a[i] = a[i] * f; }
}
"#;

    fn request(session: &mut Session, json: &str) -> Value {
        let (resp, _) = session.handle_line(json);
        omp_json::parse(&resp).expect("response is valid JSON")
    }

    fn result_of(v: &Value) -> String {
        v.get("result").expect("result present").to_json()
    }

    #[test]
    fn ping_stats_and_unknown_op() {
        let mut s = Session::default();
        let v = request(&mut s, "{\"op\":\"ping\",\"id\":7}");
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("id").and_then(Value::as_u64), Some(7));
        assert_eq!(v.get("schema").and_then(Value::as_str), Some(SCHEMA));
        let v = request(&mut s, "{\"op\":\"nope\"}");
        assert_eq!(v.get("exit_code").and_then(Value::as_u64), Some(2));
        let v = request(&mut s, "not json");
        assert_eq!(v.get("exit_code").and_then(Value::as_u64), Some(2));
        let v = request(&mut s, "{\"op\":\"stats\"}");
        assert_eq!(
            v.get("result")
                .and_then(|r| r.get("requests"))
                .and_then(Value::as_u64),
            Some(4),
            "stats counts every request including itself"
        );
    }

    #[test]
    fn compile_hits_cache_with_identical_result() {
        let mut s = Session::default();
        let line = format!(
            "{{\"op\":\"compile\",\"source\":{:?},\"config\":\"dev\"}}",
            SRC
        );
        let cold = request(&mut s, &line);
        assert_eq!(cold.get("ok").and_then(Value::as_bool), Some(true));
        let cache = cold.get("cache").unwrap();
        assert_eq!(
            cache
                .get("optimized")
                .and_then(|t| t.get("misses"))
                .and_then(Value::as_u64),
            Some(1)
        );
        let warm = request(&mut s, &line);
        let cache = warm.get("cache").unwrap();
        assert_eq!(
            cache
                .get("optimized")
                .and_then(|t| t.get("hits"))
                .and_then(Value::as_u64),
            Some(1)
        );
        assert_eq!(
            result_of(&cold),
            result_of(&warm),
            "cold and warm compile results must be byte-identical"
        );
    }

    #[test]
    fn run_via_oracle_header_is_warm_deterministic() {
        let mut s = Session::default();
        let line = format!("{{\"op\":\"run\",\"source\":{:?},\"dump\":4}}", SRC);
        let cold = request(&mut s, &line);
        assert_eq!(
            cold.get("exit_code").and_then(Value::as_u64),
            Some(0),
            "{}",
            cold.to_json()
        );
        let warm = request(&mut s, &line);
        assert_eq!(
            warm.get("cache")
                .and_then(|c| c.get("device"))
                .and_then(|t| t.get("hits"))
                .and_then(Value::as_u64),
            Some(1),
            "second run must reuse the warmed device"
        );
        assert_eq!(result_of(&cold), result_of(&warm));
    }

    #[test]
    fn verify_passes_and_is_warm_deterministic() {
        let mut s = Session::default();
        let line = format!(
            "{{\"op\":\"verify\",\"source\":{:?},\"name\":\"scale\"}}",
            SRC
        );
        let cold = request(&mut s, &line);
        assert_eq!(
            cold.get("exit_code").and_then(Value::as_u64),
            Some(0),
            "{}",
            cold.to_json()
        );
        assert_eq!(
            cold.get("result")
                .and_then(|r| r.get("passed"))
                .and_then(Value::as_bool),
            Some(true)
        );
        let warm = request(&mut s, &line);
        assert_eq!(result_of(&cold), result_of(&warm));
        assert!(
            warm.get("cache")
                .and_then(|c| c.get("device"))
                .and_then(|t| t.get("hits"))
                .and_then(Value::as_u64)
                .unwrap()
                > 0
        );
    }

    #[test]
    fn executor_round_trip_and_shutdown() {
        let (handle, thread) = spawn_executor(Session::default());
        assert!(!handle.is_shut_down());
        let resp = handle.request("{\"op\":\"ping\",\"id\":1}");
        assert!(resp.contains("\"pong\":true"));
        let resp = handle.request("{\"op\":\"shutdown\",\"id\":2}");
        assert!(resp.contains("\"shutting_down\":true"));
        assert!(
            handle.is_shut_down(),
            "shutdown flag is visible to connection threads once the response is out"
        );
        let session = thread.join().unwrap();
        assert_eq!(session.stats().requests, 2);
        // Post-shutdown requests fail gracefully.
        let resp = handle.request("{\"op\":\"ping\"}");
        assert!(resp.contains("session is shut down"));
    }

    #[test]
    fn full_queue_sheds_with_structured_overload() {
        // An executor handle over a capacity-1 queue nobody drains:
        // the first job parks in the buffer, the second is shed.
        let (tx, _rx) = mpsc::sync_channel::<ServeJob>(1);
        let handle = ExecutorHandle {
            tx,
            shared: Arc::new(ExecShared::default()),
        };
        let (reply_tx, _reply_rx) = mpsc::channel();
        handle
            .sender()
            .try_send(ServeJob::new("{\"op\":\"ping\"}".into(), reply_tx))
            .expect("first job fits");
        let resp = handle.request("{\"op\":\"ping\",\"id\":9}");
        let v = omp_json::parse(&resp).expect("shed envelope is valid JSON");
        assert_eq!(v.get("schema").and_then(Value::as_str), Some(SCHEMA));
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(
            v.get("exit_code").and_then(Value::as_u64),
            Some(EXIT_OVERLOAD as u64)
        );
        assert_eq!(v.get("id").and_then(Value::as_u64), Some(9), "id echoed");
        assert_eq!(v.get("op").and_then(Value::as_str), Some("ping"));
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("retry_after_ms"))
                .and_then(Value::as_u64),
            Some(RETRY_AFTER_MS)
        );
        assert_eq!(handle.shared().shed.load(Ordering::Relaxed), 1);
        // Retries back off and are counted; the queue never drains, so
        // the final answer is still the overload envelope.
        let resp = handle.request_with_retry("{\"op\":\"ping\"}", 2);
        assert!(resp.contains("server overloaded"));
        assert_eq!(handle.shared().retries.load(Ordering::Relaxed), 2);
        assert_eq!(handle.shared().shed.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn deadline_zero_times_out_before_dispatch() {
        let mut s = Session::default();
        let line = format!(
            "{{\"op\":\"run\",\"source\":{:?},\"deadline_ms\":0,\"id\":3}}",
            SRC
        );
        let v = request(&mut s, &line);
        assert_eq!(
            v.get("exit_code").and_then(Value::as_u64),
            Some(EXIT_TIMEOUT as u64)
        );
        let msg = v
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Value::as_str)
            .unwrap();
        assert_eq!(msg, "request deadline of 0 ms exceeded");
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("detail"))
                .and_then(|d| d.get("kind"))
                .and_then(Value::as_str),
            Some("deadline-exceeded")
        );
        assert_eq!(s.stats().timeouts, 1);
        // Nothing was dispatched: every tier is untouched and the
        // session is still usable.
        assert_eq!(s.stats().cache.frontend, TierStats::default());
        let v = request(&mut s, &format!("{{\"op\":\"run\",\"source\":{:?}}}", SRC));
        assert_eq!(v.get("exit_code").and_then(Value::as_u64), Some(0));
    }

    #[test]
    fn deadline_mid_launch_times_out_and_quarantines_device() {
        // A kernel that runs far longer than the 50 ms deadline; the
        // watchdog is narrowed to the remaining deadline budget and the
        // expiry is reported as deadline-exceeded, not a generic
        // simulation failure.
        let slow = SRC
            .replace("oracle-arg: i64 32", "oracle-arg: i64 2000000000")
            .replace("a[i] = a[i] * f", "a[0] = a[0] + f");
        let mut s = Session::default();
        let line = format!(
            "{{\"op\":\"run\",\"source\":{:?},\"deadline_ms\":50,\"watchdog_secs\":60,\
             \"max_insts\":400000000000}}",
            slow
        );
        let v = request(&mut s, &line);
        assert_eq!(
            v.get("exit_code").and_then(Value::as_u64),
            Some(EXIT_TIMEOUT as u64),
            "{}",
            v.to_json()
        );
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("detail"))
                .and_then(|d| d.get("kind"))
                .and_then(Value::as_str),
            Some("deadline-exceeded")
        );
        assert_eq!(s.stats().timeouts, 1);
        // The interrupted device was quarantined, so a healthy run of
        // the same source builds a cold device again...
        let ok_line = format!("{{\"op\":\"run\",\"source\":{:?},\"dump\":2}}", SRC);
        let healthy = request(&mut s, &ok_line);
        assert_eq!(healthy.get("exit_code").and_then(Value::as_u64), Some(0));
        // ...and its result is byte-identical to a fresh session's.
        let mut fresh = Session::default();
        let reference = request(&mut fresh, &ok_line);
        assert_eq!(result_of(&healthy), result_of(&reference));
    }

    #[test]
    fn injected_faults_degrade_each_stage_cleanly() {
        let mut s = Session::default();
        let fault_line = |stage: &str| {
            format!(
                "{{\"op\":\"run\",\"source\":{:?},\"fault\":{{\"stage\":{:?}}}}}",
                SRC, stage
            )
        };
        for (stage, exit) in [
            ("frontend", EXIT_BUILD),
            ("optimize", EXIT_BUILD),
            ("device", EXIT_SIM),
        ] {
            let v = request(&mut s, &fault_line(stage));
            assert_eq!(
                v.get("exit_code").and_then(Value::as_u64),
                Some(exit as u64),
                "stage {stage}: {}",
                v.to_json()
            );
            let msg = v
                .get("error")
                .and_then(|e| e.get("message"))
                .and_then(Value::as_str)
                .unwrap();
            assert!(msg.contains(stage), "stage {stage}: {msg}");
        }
        // Error-mode launch faults go through the simulator's own
        // FaultPlan, so the failure surfaces as a structured
        // ompgpu-error/v1 fault-injected diagnostic.
        let v = request(&mut s, &fault_line("launch"));
        assert_eq!(
            v.get("exit_code").and_then(Value::as_u64),
            Some(EXIT_SIM as u64)
        );
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("detail"))
                .and_then(|d| d.get("kind"))
                .and_then(Value::as_str),
            Some("fault-injected")
        );
        // No failed request may populate a cache tier.
        assert_eq!(
            s.stats().cache.frontend.hits,
            0,
            "no tier served a warm entry"
        );
        let clean = request(&mut s, &format!("{{\"op\":\"run\",\"source\":{:?}}}", SRC));
        assert_eq!(
            clean
                .get("cache")
                .and_then(|c| c.get("frontend"))
                .and_then(|t| t.get("misses"))
                .and_then(Value::as_u64),
            Some(1),
            "faulted requests left no frontend entry behind"
        );
        // Unknown stages and modes are usage errors.
        let v = request(
            &mut s,
            &format!(
                "{{\"op\":\"run\",\"source\":{:?},\"fault\":{{\"stage\":\"nope\"}}}}",
                SRC
            ),
        );
        assert_eq!(v.get("exit_code").and_then(Value::as_u64), Some(2));
    }

    #[test]
    fn replay_is_not_a_fault_stage() {
        let mut s = Session::default();
        let v = request(
            &mut s,
            &format!(
                "{{\"op\":\"run\",\"source\":{:?},\"fault\":{{\"stage\":\"replay\"}}}}",
                SRC
            ),
        );
        assert_eq!(
            v.get("exit_code").and_then(Value::as_u64),
            Some(EXIT_USAGE as u64)
        );
        let msg = v
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Value::as_str)
            .unwrap();
        assert_eq!(
            msg,
            "unknown fault stage \"replay\" (known: frontend, optimize, device, launch)"
        );
    }

    #[test]
    fn out_of_range_and_mistyped_wire_values_are_usage_errors() {
        let mut s = Session::default();
        // Each integer fits a u64 but not its field: 4294967298 teams
        // used to launch 2 teams, and a watchdog whose milliseconds
        // overflow used to launch with no watchdog at all. `02` is not
        // JSON (RFC 8259) and used to launch 2 teams. 200,000 nested
        // arrays used to overflow the stack and abort the daemon.
        let deep = "[".repeat(200_000);
        for (op, field, value) in [
            ("run", "teams", "4294967298"),
            ("run", "threads", "4294967296"),
            ("profile", "jobs", "4294967297"),
            ("run", "watchdog_secs", "18446744073709552"),
            ("sanitize", "all_configs", "\"yes\""),
            ("run", "teams", "02"),
            ("run", "teams", deep.as_str()),
        ] {
            let line = format!("{{\"op\":\"{op}\",\"source\":{SRC:?},\"{field}\":{value}}}");
            let v = request(&mut s, &line);
            let message = v.get("error").and_then(|e| e.get("message"));
            let expected = match (field, value) {
                ("all_configs", _) => "field \"all_configs\" must be a boolean".to_string(),
                (_, "02") => format!(
                    "malformed request JSON: leading zero in number at byte {}",
                    line.len() - "02}".len()
                ),
                // The request object is one level; the 128th is the
                // array 127 bytes into the value.
                (_, v) if v.starts_with('[') => format!(
                    "malformed request JSON: nesting deeper than 128 at byte {}",
                    line.len() - v.len() - 1 + 127
                ),
                _ => format!("invalid value \"{value}\" for field \"{field}\""),
            };
            assert_eq!(message.and_then(Value::as_str), Some(expected.as_str()));
            assert_eq!(v.get("exit_code").and_then(Value::as_u64), Some(2));
        }
        // The largest watchdog whose milliseconds still fit is accepted.
        let line =
            format!("{{\"op\":\"run\",\"source\":{SRC:?},\"watchdog_secs\":18446744073709551}}");
        let v = request(&mut s, &line);
        assert_eq!(v.get("exit_code").and_then(Value::as_u64), Some(0));
    }

    #[test]
    fn panic_is_isolated_and_rolls_back_every_tier() {
        let mut s = Session::default();
        let line = format!(
            "{{\"op\":\"compile\",\"source\":{:?},\"fault\":{{\"stage\":\"optimize\",\"mode\":\"panic\"}}}}",
            SRC
        );
        let v = request(&mut s, &line);
        assert_eq!(
            v.get("exit_code").and_then(Value::as_u64),
            Some(EXIT_INTERNAL as u64)
        );
        let msg = v
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Value::as_str)
            .unwrap();
        assert_eq!(
            msg,
            "internal: request panicked: injected panic at optimize stage"
        );
        assert_eq!(s.stats().panics, 1);
        // The frontend insertion made before the panic was rolled back:
        // a clean compile misses cold again, and its result is
        // byte-identical to a fresh session's.
        let clean_line = format!("{{\"op\":\"compile\",\"source\":{:?}}}", SRC);
        let clean = request(&mut s, &clean_line);
        assert_eq!(
            clean
                .get("cache")
                .and_then(|c| c.get("frontend"))
                .and_then(|t| t.get("misses"))
                .and_then(Value::as_u64),
            Some(1)
        );
        let mut fresh = Session::default();
        let reference = request(&mut fresh, &clean_line);
        assert_eq!(result_of(&clean), result_of(&reference));
    }

    #[test]
    fn oversized_frames_are_rejected_structurally() {
        let mut s = Session::default();
        let huge = format!(
            "{{\"op\":\"ping\",\"pad\":\"{}\"}}",
            "x".repeat(MAX_FRAME_BYTES)
        );
        let v = request(&mut s, &huge);
        assert_eq!(v.get("exit_code").and_then(Value::as_u64), Some(2));
        let msg = v
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Value::as_str)
            .unwrap();
        assert!(msg.starts_with("frame too large:"), "{msg}");
        let v = request(&mut s, "{\"op\":\"ping\"}");
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
    }

    #[test]
    fn read_frame_bounds_the_line_buffer() {
        use std::io::Cursor;
        let mut data = Vec::new();
        data.extend_from_slice(&[b'a'; 100]);
        data.push(b'\n');
        data.extend_from_slice(b"ok\n");
        data.extend_from_slice(b"tail-no-newline");
        let mut reader = Cursor::new(data);
        match read_frame(&mut reader, 10) {
            Frame::TooLarge(n) => assert_eq!(n, 100),
            _ => panic!("oversized line must be rejected"),
        }
        match read_frame(&mut reader, 10) {
            Frame::Line(l) => assert_eq!(l, "ok", "connection stays usable after overflow"),
            _ => panic!("short line after overflow must parse"),
        }
        match read_frame(&mut reader, 1024) {
            Frame::Line(l) => assert_eq!(l, "tail-no-newline"),
            _ => panic!("trailing unterminated line is returned at EOF"),
        }
        match read_frame(&mut reader, 1024) {
            Frame::Eof => {}
            _ => panic!("exhausted reader yields Eof"),
        }
    }

    #[test]
    fn env_override_parsers_are_strict() {
        assert_eq!(parse_max_insts("123"), Ok(123));
        assert!(parse_max_insts("").is_err());
        assert!(parse_max_insts("12k").is_err());
        assert!(parse_max_insts("-5").is_err());
        assert_eq!(parse_jobs("0"), Ok(0));
        assert_eq!(parse_jobs("4"), Ok(4));
        assert!(parse_jobs("").is_err());
        assert!(parse_jobs("two").is_err());
        assert!(parse_jobs("-1").is_err());
    }

    /// Parse Prometheus text exposition into (plain samples, bucket samples).
    ///
    /// Plain samples map a metric name (including `_sum`/`_count` suffixes)
    /// to its value; bucket samples map `(name, le)` to a cumulative count.
    fn parse_prometheus(
        text: &str,
    ) -> (
        std::collections::BTreeMap<String, u64>,
        std::collections::BTreeMap<(String, String), u64>,
    ) {
        let mut plain = std::collections::BTreeMap::new();
        let mut buckets = std::collections::BTreeMap::new();
        for line in text.lines() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (name_part, value_part) = line.rsplit_once(' ').expect("sample has a value");
            let value: u64 = value_part.parse().expect("sample value parses as u64");
            if let Some(idx) = name_part.find('{') {
                let name = &name_part[..idx];
                let labels = name_part[idx..]
                    .strip_prefix("{le=\"")
                    .and_then(|s| s.strip_suffix("\"}"))
                    .expect("only le labels are emitted");
                assert!(name.ends_with("_bucket"), "labelled sample is a bucket");
                buckets.insert((name.to_string(), labels.to_string()), value);
            } else {
                plain.insert(name_part.to_string(), value);
            }
        }
        (plain, buckets)
    }

    #[test]
    fn metrics_exposition_is_consistent() {
        let mut s = Session::default();
        request(&mut s, "{\"op\":\"ping\"}");
        let line = format!("{{\"op\":\"run\",\"source\":{:?}}}", SRC);
        request(&mut s, &line);
        request(&mut s, &line);
        request(&mut s, "{\"op\":\"nonsense\"}");
        let resp = request(&mut s, "{\"op\":\"metrics\"}");
        let result = resp.get("result").expect("metrics returns a result");
        let prom = result
            .get("prometheus")
            .and_then(Value::as_str)
            .expect("prometheus text rendering");
        let json = result.get("metrics").expect("json rendering");

        let (plain, buckets) = parse_prometheus(prom);

        // Deterministic counters derived from SessionStats.
        let counters = json
            .get("counters")
            .and_then(Value::as_object)
            .expect("counters object");
        assert!(!counters.is_empty());
        for (name, value) in counters {
            let v = value.as_u64().expect("counter is u64");
            let sanitized = omp_telemetry::sanitize_metric_name(name);
            assert_eq!(
                plain.get(&sanitized).copied(),
                Some(v),
                "counter {name} must match between renderings"
            );
        }
        assert_eq!(
            counters
                .iter()
                .find(|(k, _)| k == "serve.requests")
                .and_then(|(_, v)| v.as_u64()),
            Some(5),
            "metrics request counts itself"
        );
        assert_eq!(
            counters
                .iter()
                .find(|(k, _)| k == "serve.ops.metrics")
                .and_then(|(_, v)| v.as_u64()),
            Some(1)
        );
        assert_eq!(
            counters
                .iter()
                .find(|(k, _)| k == "serve.errors")
                .and_then(|(_, v)| v.as_u64()),
            Some(1),
            "the unknown op is the only error"
        );

        // Gauges appear in both renderings too.
        for (name, value) in json.get("gauges").and_then(Value::as_object).unwrap() {
            let v = value.as_i64().expect("gauge is i64");
            let sanitized = omp_telemetry::sanitize_metric_name(name);
            assert_eq!(plain.get(&sanitized).copied(), Some(v as u64));
        }

        // Histograms: _count/_sum and cumulative buckets must agree with the
        // JSON rendering's non-cumulative, non-empty bucket map.
        let histograms = json
            .get("histograms")
            .and_then(Value::as_object)
            .expect("histograms object");
        assert!(
            histograms
                .iter()
                .any(|(k, _)| k == "serve.service_micros.run"),
            "per-op latency histogram is exported"
        );
        for (name, h) in histograms {
            let sanitized = omp_telemetry::sanitize_metric_name(name);
            let count = h.get("count").and_then(Value::as_u64).unwrap();
            let sum = h.get("sum").and_then(Value::as_u64).unwrap();
            assert_eq!(
                plain.get(&format!("{sanitized}_count")).copied(),
                Some(count)
            );
            assert_eq!(plain.get(&format!("{sanitized}_sum")).copied(), Some(sum));
            let bucket_name = format!("{sanitized}_bucket");
            assert_eq!(
                buckets
                    .get(&(bucket_name.clone(), "+Inf".to_string()))
                    .copied(),
                Some(count),
                "{name}: +Inf bucket is the total count"
            );
            // De-cumulate the finite text buckets and compare with JSON.
            let mut finite: Vec<(u64, u64)> = buckets
                .iter()
                .filter(|((n, le), _)| n == &bucket_name && le != "+Inf")
                .map(|((_, le), v)| (le.parse::<u64>().expect("finite bound"), *v))
                .collect();
            finite.sort_unstable();
            let mut prev = 0u64;
            let mut derived: Vec<(String, u64)> = Vec::new();
            for (bound, cumulative) in finite {
                let per_bucket = cumulative - prev;
                prev = cumulative;
                if per_bucket > 0 {
                    derived.push((bound.to_string(), per_bucket));
                }
            }
            let json_buckets: Vec<(String, u64)> = h
                .get("buckets")
                .and_then(Value::as_object)
                .unwrap()
                .iter()
                .filter(|(k, _)| k != "inf")
                .map(|(k, v)| (k.clone(), v.as_u64().unwrap()))
                .collect();
            assert_eq!(derived, json_buckets, "{name}: bucket counts must agree");
        }
    }

    #[test]
    fn access_log_writes_one_record_per_request() {
        let path = std::env::temp_dir().join(format!(
            "ompgpu_access_log_test_{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let mut s = Session::default();
        s.set_access_log(&path).expect("access log opens");
        request(&mut s, "{\"op\":\"ping\",\"id\":7}");
        let (resp, _) = s.handle_line("not json");
        assert!(resp.contains("\"ok\":false"));
        let log = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = log.lines().collect();
        assert_eq!(lines.len(), 2, "one record per request");
        let first = omp_json::parse(lines[0]).expect("access-log line is valid JSON");
        assert_eq!(
            first.get("schema").and_then(Value::as_str),
            Some(omp_telemetry::ACCESS_LOG_SCHEMA)
        );
        assert_eq!(first.get("id").and_then(Value::as_u64), Some(7));
        assert_eq!(first.get("op").and_then(Value::as_str), Some("ping"));
        assert_eq!(first.get("ok").and_then(Value::as_bool), Some(true));
        assert!(first.get("bytes").and_then(Value::as_u64).unwrap() > 0);
        let second = omp_json::parse(lines[1]).unwrap();
        assert_eq!(second.get("ok").and_then(Value::as_bool), Some(false));
        assert!(second.get("op").unwrap().as_str().is_none(), "op is null");
    }

    #[test]
    fn device_lru_evicts_oldest() {
        let mut s = Session::new(1);
        let src_b = SRC.replace("scale", "scale2");
        let line_a = format!("{{\"op\":\"run\",\"source\":{:?}}}", SRC);
        let line_b = format!("{{\"op\":\"run\",\"source\":{:?}}}", src_b);
        request(&mut s, &line_a);
        request(&mut s, &line_b);
        let third = request(&mut s, &line_a);
        assert_eq!(
            third
                .get("cache")
                .and_then(|c| c.get("device"))
                .and_then(|t| t.get("misses"))
                .and_then(Value::as_u64),
            Some(1),
            "capacity-1 LRU must have evicted the first device"
        );
        assert_eq!(s.stats().cache.device.hits, 0);
    }
}
