//! The `ompgpu-serve/v1` wire vocabulary: constants, the dispatched
//! [`Outcome`], and the response envelope. Requests decode through
//! [`Request::decode`](crate::request::Request::decode).

use crate::job::{JobError, TierCounts};
use crate::request::RequestError;
use omp_json::{JsonWriter, Value};

pub use crate::job::{
    EXIT_BUILD, EXIT_DIVERGED, EXIT_FINDINGS, EXIT_OK, EXIT_SIM, EXIT_TIMEOUT, EXIT_USAGE,
};

/// Schema identifier carried by every response envelope.
pub const SCHEMA: &str = "ompgpu-serve/v1";

/// Every request type the protocol accepts, in documentation order.
pub const ALL_OPS: [&str; 9] = [
    "ping", "compile", "run", "verify", "profile", "sanitize", "metrics", "stats", "shutdown",
];

// Exit codes 0-5 and 7 are the job path's (re-exported above); 6 is
// `ompgpu json-validate`'s unknown-schema exit, which serve never
// produces.
/// Admission control shed the request (executor queue full); retry
/// after the `retry_after_ms` hint in the error object.
pub const EXIT_OVERLOAD: u8 = 8;
/// Request execution panicked. The panic is isolated: the session rolls
/// back the request's cache insertions and stays usable.
pub const EXIT_INTERNAL: u8 = 9;

/// Default server-side request deadline (queue wait plus execution) in
/// milliseconds, applied when a request carries no `deadline_ms` field.
/// `0` disables the default.
pub const DEFAULT_DEADLINE_MS: u64 = 300_000;

/// Default bound on the executor's admission queue. A request arriving
/// while the queue holds this many is shed with [`EXIT_OVERLOAD`]
/// instead of waiting unboundedly.
pub const DEFAULT_QUEUE_CAPACITY: usize = 256;

/// Backoff hint carried by a shed response (`error.retry_after_ms`) and
/// the base delay of [`ExecutorHandle::request_with_retry`].
pub const RETRY_AFTER_MS: u64 = 25;

/// Upper bound on one request frame (a single JSON line), in bytes.
/// Longer frames are answered with a structured usage error instead of
/// being buffered without bound.
pub const MAX_FRAME_BYTES: usize = 4 * 1024 * 1024;

/// Default capacity of the warm-device LRU: enough to keep the whole
/// six-configuration ablation matrix of one subject warm, plus slack.
pub const DEFAULT_DEVICE_CAPACITY: usize = 8;

/// Outcome of one dispatched request: exit code plus either a `result`
/// payload or an error (`message`, optional structured `detail`).
pub(super) struct Outcome {
    pub exit_code: u8,
    pub result: Option<String>,
    pub error: Option<(String, Option<String>)>,
}

impl Outcome {
    pub fn ok(result: String) -> Outcome {
        Outcome::ok_with_exit(EXIT_OK, result)
    }

    pub fn ok_with_exit(exit_code: u8, result: String) -> Outcome {
        Outcome {
            exit_code,
            result: Some(result),
            error: None,
        }
    }

    pub fn fail(exit_code: u8, message: String) -> Outcome {
        Outcome {
            exit_code,
            result: None,
            error: Some((message, None)),
        }
    }
}

/// A failed request: a job's stage decides the exit code, and a launch
/// failure carries the simulator's structured `ompgpu-error/v1`
/// diagnostic as the error's `detail`.
impl From<RequestError> for Outcome {
    fn from(e: RequestError) -> Outcome {
        let detail = match &e {
            RequestError::Job(JobError::Launch(sim)) => Some(sim.to_json()),
            _ => None,
        };
        Outcome {
            exit_code: e.exit_code(),
            result: None,
            error: Some((e.to_string(), detail)),
        }
    }
}

/// Writes the envelope's `id` and `op` members (`null` when unknown).
pub(super) fn write_id_op(w: &mut JsonWriter, id: Option<u64>, op: Option<&str>) {
    w.key("id");
    match id {
        Some(n) => w.u64(n),
        None => w.null(),
    };
    w.key("op");
    match op {
        Some(o) => w.string(o),
        None => w.null(),
    };
}

/// Serializes one response envelope. `cache` is the request's tier
/// trace (absent when the request never reached a session);
/// `retry_after_ms` rides in the error object of a shed request.
pub(super) fn envelope(
    id: Option<u64>,
    op: Option<&str>,
    cache: Option<&TierCounts>,
    outcome: &Outcome,
    retry_after_ms: Option<u64>,
) -> String {
    let mut w = JsonWriter::with_capacity(512);
    w.begin_object();
    w.key("schema").string(SCHEMA);
    write_id_op(&mut w, id, op);
    w.key("ok").bool(outcome.exit_code == EXIT_OK);
    w.key("exit_code").u64(outcome.exit_code as u64);
    if let Some(cache) = cache {
        w.key("cache");
        cache.write_json(&mut w);
    }
    if let Some(r) = &outcome.result {
        w.key("result").raw(r);
    }
    if let Some((msg, detail)) = &outcome.error {
        w.key("error").begin_object();
        w.key("message").string(msg);
        if let Some(d) = detail {
            w.key("detail").raw(d);
        }
        if let Some(ms) = retry_after_ms {
            w.key("retry_after_ms").u64(ms);
        }
        w.end_object();
    }
    w.end_object();
    w.finish()
}

/// An envelope for failures that happen outside the session (shed or
/// shut down — the request never reached the executor, so there is no
/// `cache` trace). Echoes `id`/`op` when the request line parses; this
/// is a cold path, so the extra parse is fine.
pub(super) fn synthesized_envelope(
    line: &str,
    exit_code: u8,
    message: &str,
    retry_after_ms: Option<u64>,
) -> String {
    let parsed = omp_json::parse(line).ok();
    let member = |key: &str| parsed.as_ref().and_then(|v| v.get(key));
    let op = member("op")
        .and_then(Value::as_str)
        .filter(|o| ALL_OPS.contains(o));
    envelope(
        member("id").and_then(Value::as_u64),
        op,
        None,
        &Outcome::fail(exit_code, message.to_string()),
        retry_after_ms,
    )
}

pub(super) fn overload_envelope(line: &str) -> String {
    synthesized_envelope(
        line,
        EXIT_OVERLOAD,
        &format!("server overloaded: executor queue is full, retry after {RETRY_AFTER_MS} ms"),
        Some(RETRY_AFTER_MS),
    )
}

pub(super) fn shutdown_envelope(line: &str) -> String {
    synthesized_envelope(line, EXIT_USAGE, "session is shut down", None)
}
