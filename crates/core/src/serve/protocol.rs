//! The `ompgpu-serve/v1` wire vocabulary: constants, the decoded
//! [`Request`], the dispatched [`Outcome`], and the response envelope.

use crate::config::BuildConfig;
use crate::job::{JobError, Stage, StageFault, TierCounts};
use crate::oracle::ArgSpec;
use omp_json::{JsonWriter, Value};
use std::path::Path;

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

/// Default per-launch wall-clock watchdog, in seconds.
pub(super) const DEFAULT_WATCHDOG_SECS: u64 = 60;

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

/// One decoded request. Field meanings are per-op; see `docs/SERVE.md`.
pub(super) struct Request {
    pub id: Option<u64>,
    pub op: String,
    pub source: Option<String>,
    /// Report name: explicit `name`, else the `path` file stem, else
    /// `"<inline>"`.
    pub subject: String,
    pub config: BuildConfig,
    pub all_configs: bool,
    pub kernel: Option<String>,
    pub teams: Option<u32>,
    pub threads: Option<u32>,
    pub args: Option<Vec<ArgSpec>>,
    pub jobs: Option<u32>,
    pub watchdog_secs: u64,
    pub max_insts: Option<u64>,
    pub dump: usize,
    /// Total request budget (queue wait + execution) in milliseconds;
    /// `None` falls back to the session default.
    pub deadline_ms: Option<u64>,
    /// Seeded stage fault (chaos testing only). The `launch` stage in
    /// error mode is injected through the simulator's own
    /// [`FaultPlan`](omp_gpusim::FaultPlan), so the fault crosses the
    /// serve/device boundary the way a real device fault would.
    pub fault: Option<StageFault>,
}

/// A request failure before dispatch: `(exit_code, message)`.
pub(super) struct RequestError(pub u8, pub String);

pub(super) fn usage(message: impl Into<String>) -> RequestError {
    RequestError(EXIT_USAGE, message.into())
}

fn field_u64(v: &Value, key: &str) -> Result<Option<u64>, RequestError> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(x) => x
            .as_u64()
            .map(Some)
            .ok_or_else(|| usage(format!("field {key:?} must be an integer"))),
    }
}

fn field_str<'v>(v: &'v Value, key: &str) -> Result<Option<&'v str>, RequestError> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(x) => x
            .as_str()
            .map(Some)
            .ok_or_else(|| usage(format!("field {key:?} must be a string"))),
    }
}

impl Request {
    /// Decodes one frame; a rejected frame comes back as the `id` and
    /// `op` it could still be attributed to plus the usage error.
    pub fn decode(line: &str) -> Result<Request, (Option<u64>, Option<String>, Outcome)> {
        let reject = |message: String| (None, None, Outcome::fail(EXIT_USAGE, message));
        if line.len() > MAX_FRAME_BYTES {
            return Err(reject(format!(
                "frame too large: {} bytes exceeds the {MAX_FRAME_BYTES}-byte limit",
                line.len()
            )));
        }
        let v =
            omp_json::parse(line).map_err(|e| reject(format!("malformed request JSON: {e}")))?;
        Request::from_value(&v).map_err(|e| {
            (
                v.get("id").and_then(Value::as_u64),
                v.get("op").and_then(Value::as_str).map(str::to_string),
                e.into(),
            )
        })
    }

    fn from_value(v: &Value) -> Result<Request, RequestError> {
        let op = field_str(v, "op")?
            .ok_or_else(|| usage("missing \"op\" field"))?
            .to_string();
        if !ALL_OPS.contains(&op.as_str()) {
            return Err(usage(format!(
                "unknown op {op:?} (known: {})",
                ALL_OPS.join(", ")
            )));
        }
        let id = field_u64(v, "id")?;
        let inline = field_str(v, "source")?.map(str::to_string);
        let path = field_str(v, "path")?.map(str::to_string);
        if inline.is_some() && path.is_some() {
            return Err(usage("give either \"source\" or \"path\", not both"));
        }
        let mut subject = field_str(v, "name")?.map(str::to_string);
        let source = match (inline, &path) {
            (Some(s), _) => Some(s),
            (None, Some(p)) => {
                subject = subject.or_else(|| Some(crate::oracle::subject_name(Path::new(p))));
                Some(
                    std::fs::read_to_string(p)
                        .map_err(|e| RequestError(EXIT_BUILD, format!("cannot read {p}: {e}")))?,
                )
            }
            (None, None) => None,
        };
        let config = match field_str(v, "config")? {
            None => BuildConfig::LlvmDev,
            Some(s) => BuildConfig::from_cli_name(s).ok_or_else(|| {
                usage(format!(
                    "unknown config {s:?} (known: {})",
                    BuildConfig::ALL.map(BuildConfig::cli_name).join(", ")
                ))
            })?,
        };
        let args = match v.get("args") {
            None | Some(Value::Null) => None,
            Some(Value::Array(items)) => {
                let mut specs = Vec::with_capacity(items.len());
                for item in items {
                    let s = item
                        .as_str()
                        .ok_or_else(|| usage("\"args\" entries must be strings"))?;
                    specs.push(
                        ArgSpec::parse_colon(s)
                            .ok_or_else(|| usage(format!("malformed arg spec {s:?}")))?,
                    );
                }
                Some(specs)
            }
            Some(_) => return Err(usage("\"args\" must be an array of spec strings")),
        };
        let fault = match v.get("fault") {
            None | Some(Value::Null) => None,
            Some(f) => {
                let stage_name = field_str(f, "stage")?
                    .ok_or_else(|| usage("\"fault\" needs a \"stage\" field"))?;
                let stage = Stage::parse(stage_name).ok_or_else(|| {
                    usage(format!(
                        "unknown fault stage {stage_name:?} (known: {})",
                        Stage::ALL.map(Stage::name).join(", ")
                    ))
                })?;
                let panic = match field_str(f, "mode")? {
                    None | Some("error") => false,
                    Some("panic") => true,
                    Some(m) => {
                        return Err(usage(format!(
                            "unknown fault mode {m:?} (known: error, panic)"
                        )))
                    }
                };
                Some(StageFault { stage, panic })
            }
        };
        Ok(Request {
            id,
            op,
            source,
            subject: subject.unwrap_or_else(|| "<inline>".to_string()),
            config,
            all_configs: v
                .get("all_configs")
                .and_then(Value::as_bool)
                .unwrap_or(false),
            kernel: field_str(v, "kernel")?.map(str::to_string),
            teams: field_u64(v, "teams")?.map(|n| n as u32),
            threads: field_u64(v, "threads")?.map(|n| n as u32),
            args,
            jobs: field_u64(v, "jobs")?.map(|n| n as u32),
            watchdog_secs: field_u64(v, "watchdog_secs")?.unwrap_or(DEFAULT_WATCHDOG_SECS),
            max_insts: field_u64(v, "max_insts")?,
            dump: field_u64(v, "dump")?.unwrap_or(0) as usize,
            deadline_ms: field_u64(v, "deadline_ms")?,
            fault,
        })
    }

    pub fn source(&self) -> Result<&str, RequestError> {
        self.source.as_deref().ok_or_else(|| {
            usage(format!(
                "op {:?} needs a \"source\" or \"path\" field",
                self.op
            ))
        })
    }
}

/// Outcome of one dispatched request: exit code plus either a `result`
/// payload or an error (`message`, optional structured `detail`).
pub(super) struct Outcome {
    pub exit_code: u8,
    pub result: Option<String>,
    pub error: Option<(String, Option<String>)>,
}

impl Outcome {
    pub fn ok(result: String) -> Outcome {
        Outcome {
            exit_code: EXIT_OK,
            result: Some(result),
            error: None,
        }
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

    pub fn fail_with_detail(exit_code: u8, message: String, detail: String) -> Outcome {
        Outcome {
            exit_code,
            result: None,
            error: Some((message, Some(detail))),
        }
    }
}

impl From<RequestError> for Outcome {
    fn from(e: RequestError) -> Outcome {
        Outcome::fail(e.0, e.1)
    }
}

/// A failed job: the stage decides the exit code, and a launch failure
/// carries the simulator's structured `ompgpu-error/v1` diagnostic.
impl From<JobError> for Outcome {
    fn from(e: JobError) -> Outcome {
        match &e {
            JobError::Launch(sim) => {
                Outcome::fail_with_detail(e.exit_code(), e.to_string(), sim.to_json())
            }
            _ => Outcome::fail(e.exit_code(), e.to_string()),
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
