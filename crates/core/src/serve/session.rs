//! The long-lived compile session: request accounting, deadlines and
//! panic isolation around the [`request`] reducers on one [`Store`].

use super::protocol::*;
use crate::job::{env_overrides, EnvOverrides, JobError, Knobs, Stage, Store, TierCounts};
use crate::pipeline;
use crate::request::{self, Launched, Request, RequestError};
use omp_gpusim::{SimError, SimErrorKind};
use omp_json::JsonWriter;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Cumulative accounting of one [`Session`], surfaced by the `stats`
/// request and rendered per request into each response envelope (the
/// per-request slice is the store's [`Store::trace`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Hits and misses of the store's cache tiers over its lifetime.
    pub cache: TierCounts,
    /// Requests handled (including malformed ones).
    pub requests: u64,
    /// Requests that produced a non-zero exit code.
    pub errors: u64,
    /// Per-op request counts, keyed by the op's stable [`ALL_OPS`]
    /// name (not positionally — the protocol gaining an op must never
    /// silently re-index existing counters).
    pub ops: std::collections::BTreeMap<&'static str, u64>,
    /// Executor batches drained (one batch per wake-up).
    pub batches: u64,
    /// Requests drained across all batches.
    pub batched_requests: u64,
    /// Requests that exceeded their deadline, whether while queued or
    /// mid-execution (exit code [`EXIT_TIMEOUT`]).
    pub timeouts: u64,
    /// Requests whose execution panicked; the panic was isolated and
    /// the session kept running (exit code [`EXIT_INTERNAL`]).
    pub panics: u64,
}

impl SessionStats {
    /// Total cache hits across all tiers (the quantity the CI smoke
    /// test asserts is positive on a warm second pass).
    pub fn total_hits(&self) -> u64 {
        self.cache.tiers().iter().map(|(_, t)| t.hits).sum()
    }
}

/// Accounting shared between the executor thread, its handles, and the
/// connection threads. Shedding and client retries happen *outside* the
/// session (a shed request never reaches it), so they live in atomics
/// here and are folded into the `stats`/`metrics` renderings at read
/// time.
#[derive(Debug, Default)]
pub struct ExecShared {
    /// Requests shed by admission control (executor queue full).
    pub shed: AtomicU64,
    /// Retries performed by [`ExecutorHandle::request_with_retry`]
    /// after shed submissions.
    pub retries: AtomicU64,
    /// Set once the executor has processed a `shutdown` request (or
    /// exited for any reason); connection threads poll this instead of
    /// re-parsing every response JSON on the hot path.
    pub shutdown: AtomicBool,
}

/// A long-lived compile-service session: the artifact [`Store`] plus
/// request accounting. Not internally synchronized — wrap it in
/// [`spawn_executor`](super::spawn_executor) to share it across clients.
pub struct Session {
    store: Store,
    stats: SessionStats,
    /// Live latency/batch-size histograms (wall clock — informational).
    /// Deterministic counters are *not* stored here: the `metrics` op
    /// derives them from [`SessionStats`] at render time so the two
    /// expositions can never drift apart.
    metrics: omp_telemetry::MetricsRegistry,
    /// Opt-in JSON-lines access log, one record per request.
    access_log: Option<std::io::BufWriter<std::fs::File>>,
    /// Shed/retry/shutdown accounting shared with executor handles.
    shared: Arc<ExecShared>,
    /// Bound of the executor admission queue ([`spawn_executor`]).
    pub(super) queue_capacity: usize,
    /// Server-side default deadline in milliseconds (0 = none) for
    /// requests without a `deadline_ms` field.
    default_deadline_ms: u64,
    /// Deadline of the in-flight request: (total budget ms, budget
    /// remaining at dispatch). Set around `dispatch` only.
    current_deadline: Option<(u64, u64)>,
    /// The `OMPGPU_*` defaults, resolved (and validated) once at
    /// construction.
    env: EnvOverrides,
}

impl Default for Session {
    fn default() -> Session {
        Session::new(DEFAULT_DEVICE_CAPACITY)
    }
}

impl Session {
    /// Creates a session whose warm-device LRU holds up to
    /// `device_capacity` entries (minimum 1). Panics on an invalid
    /// `OMPGPU_*` environment override; daemons should prefer
    /// [`Session::try_new`] and report the structured error.
    pub fn new(device_capacity: usize) -> Session {
        Session::try_new(device_capacity).expect("invalid OMPGPU_* environment override")
    }

    /// Like [`Session::new`], but an invalid `OMPGPU_MAX_INSTS` or
    /// `OMPGPU_JOBS` override is a structured startup error instead of
    /// being silently swallowed into the default. The session reads
    /// both once, here: they are the defaults of every request that
    /// carries no `max_insts` or `jobs`.
    pub fn try_new(device_capacity: usize) -> Result<Session, String> {
        let env = env_overrides()?;
        Ok(Session {
            store: Store::new(device_capacity.max(1)),
            stats: SessionStats::default(),
            metrics: omp_telemetry::MetricsRegistry::new(),
            access_log: None,
            shared: Arc::new(ExecShared::default()),
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            default_deadline_ms: DEFAULT_DEADLINE_MS,
            current_deadline: None,
            env,
        })
    }

    /// Cumulative session statistics.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// The shed/retry/shutdown accounting shared with executor handles.
    pub fn shared(&self) -> Arc<ExecShared> {
        Arc::clone(&self.shared)
    }

    /// Sets the executor admission-queue bound (minimum 1) used by
    /// [`spawn_executor`].
    pub fn set_queue_capacity(&mut self, n: usize) {
        self.queue_capacity = n.max(1);
    }

    /// Sets the server-side default deadline in milliseconds applied to
    /// requests without a `deadline_ms` field (0 disables it).
    pub fn set_default_deadline_ms(&mut self, ms: u64) {
        self.default_deadline_ms = ms;
    }

    /// Opens (appending) the JSON-lines access log at `path`; every
    /// subsequent request writes one `ompgpu-access-log/v1` record.
    pub fn set_access_log(&mut self, path: &Path) -> Result<(), String> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open access log {}: {e}", path.display()))?;
        self.access_log = Some(std::io::BufWriter::new(file));
        Ok(())
    }

    /// Records one executor batch of `n` requests.
    pub fn note_batch(&mut self, n: usize) {
        self.stats.batches += 1;
        self.stats.batched_requests += n as u64;
        self.metrics.observe("serve.batch_size", n as u64);
    }

    // -- request handling ---------------------------------------------

    /// Handles one JSON-lines request, returning the serialized response
    /// envelope and whether this request shuts the session down.
    pub fn handle_line(&mut self, line: &str) -> (String, bool) {
        self.handle_line_timed(line, 0)
    }

    /// Like [`Session::handle_line`], with the request's executor-queue
    /// wait (microseconds) supplied by the caller so it can be folded
    /// into the latency histograms and the access log.
    pub fn handle_line_timed(&mut self, line: &str, queue_micros: u64) -> (String, bool) {
        let t0 = std::time::Instant::now();
        self.store.begin(None);
        self.stats.requests += 1;
        let mut panicked = false;
        let (id, op, outcome) = match Request::decode(line) {
            (id, op, Err(e)) => (id, op, e.into()),
            (_, _, Ok(req)) => {
                if let Some(name) = ALL_OPS.iter().find(|o| **o == req.op) {
                    *self.stats.ops.entry(name).or_insert(0) += 1;
                }
                let _span = omp_telemetry::span_lazy("serve", || format!("serve.{}", req.op));
                let outcome = self.execute(&req, queue_micros / 1000, &mut panicked);
                (req.id, Some(req.op), outcome)
            }
        };
        if outcome.exit_code == EXIT_TIMEOUT {
            self.stats.timeouts += 1;
        }
        if panicked {
            self.stats.panics += 1;
        }
        // The failure-consistency rule: a failed request must never
        // populate a cache tier, and a panicking or timed-out request's
        // devices are quarantined, so the warm==cold byte-identity
        // invariant survives a fault that left a device mid-launch.
        self.store.finish(
            outcome.error.is_some(),
            panicked || outcome.exit_code == EXIT_TIMEOUT,
        );
        let trace = self.store.trace();
        self.stats.cache = self.store.totals();
        if outcome.exit_code != EXIT_OK && outcome.result.is_none() {
            self.stats.errors += 1;
        }
        let service_micros = t0.elapsed().as_micros() as u64;
        self.metrics.observe("serve.queue_micros", queue_micros);
        let op = op.as_deref();
        self.metrics.observe(
            &format!("serve.service_micros.{}", op.unwrap_or("invalid")),
            service_micros,
        );
        let shutdown = op == Some("shutdown") && outcome.exit_code == EXIT_OK;
        let response = envelope(id, op, Some(&trace), &outcome, None);
        self.log_access(
            id,
            op,
            &outcome,
            queue_micros,
            service_micros,
            response.len(),
        );
        (response, shutdown)
    }

    /// Dispatches `req` under its deadline, isolating a panic.
    fn execute(&mut self, req: &Request, queued_ms: u64, panicked: &mut bool) -> Outcome {
        // An error-mode `launch` fault goes through the simulator's own
        // fault plan instead (see `knobs`).
        self.store
            .begin(req.fault.filter(|f| f.stage != Stage::Launch || f.panic));
        let deadline_ms = req
            .deadline_ms
            .or((self.default_deadline_ms > 0).then_some(self.default_deadline_ms));
        if let Some(ms) = deadline_ms.filter(|ms| queued_ms >= *ms) {
            // Expired while queued: never dispatched, so the caches and
            // devices are untouched.
            return RequestError::Job(JobError::Launch(SimError::deadline_exceeded(ms))).into();
        }
        self.current_deadline = deadline_ms.map(|ms| (ms, ms - queued_ms));
        // A panicking op must not take down the executor. `finish`
        // restores consistency, so resuming on the &mut session is sound
        // despite the unwind.
        let dispatched =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.dispatch(req)));
        self.current_deadline = None;
        dispatched.unwrap_or_else(|payload| {
            *panicked = true;
            let message = payload
                .downcast_ref::<&'static str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("<non-string panic payload>");
            Outcome::fail(
                EXIT_INTERNAL,
                format!("internal: request panicked: {message}"),
            )
        })
    }

    /// Writes one access-log record, if the log is enabled.
    fn log_access(
        &mut self,
        id: Option<u64>,
        op: Option<&str>,
        outcome: &Outcome,
        queue_micros: u64,
        service_micros: u64,
        bytes: usize,
    ) {
        let Some(out) = self.access_log.as_mut() else {
            return;
        };
        let ts_micros = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        let mut w = JsonWriter::with_capacity(256);
        w.begin_object();
        w.key("schema").string(omp_telemetry::ACCESS_LOG_SCHEMA);
        w.key("ts_micros").u64(ts_micros);
        write_id_op(&mut w, id, op);
        w.key("ok").bool(outcome.exit_code == EXIT_OK);
        w.key("exit_code").u64(outcome.exit_code as u64);
        w.key("cache");
        self.store.trace().write_json(&mut w);
        w.key("queue_micros").u64(queue_micros);
        w.key("service_micros").u64(service_micros);
        w.key("bytes").u64(bytes as u64);
        w.end_object();
        let _ = writeln!(out, "{}", w.finish());
        let _ = out.flush();
    }

    fn dispatch(&mut self, req: &Request) -> Outcome {
        let (knobs, deadline_ms) = self.knobs(req);
        let store = &mut self.store;
        let done: Result<Outcome, RequestError> = match req.op.as_str() {
            "ping" => Ok(Outcome::ok("{\"pong\":true}".to_string())),
            "metrics" => Ok(Outcome::ok(self.render_metrics())),
            "stats" => Ok(Outcome::ok(self.render_stats())),
            "shutdown" => Ok(Outcome::ok("{\"shutting_down\":true}".to_string())),
            "compile" => request::compile(store, req).map(|b| Outcome::ok(b.compile_json())),
            "run" | "profile" => request::launch(store, req, req.config, &knobs)
                .map_err(|e| deadline_expiry(e, deadline_ms))
                .map(|done| Outcome::ok(launch_json(req, &done))),
            "verify" => request::verify(store, req, &knobs).map(|cases| {
                let exit = if cases[0].passed() {
                    EXIT_OK
                } else {
                    EXIT_DIVERGED
                };
                Outcome::ok_with_exit(exit, cases[0].to_json())
            }),
            "sanitize" => request::sanitize(store, req, &knobs).map(|(subject, outcomes)| {
                Outcome::ok_with_exit(
                    pipeline::sanitize_exit_code(&outcomes),
                    pipeline::sanitize_report_json(&subject, &outcomes),
                )
            }),
            _ => unreachable!("op validated by the field table"),
        };
        done.unwrap_or_else(Outcome::from)
    }

    /// The device knobs of `req`. The effective wall-clock watchdog is
    /// the tighter of the request's `watchdog_secs` budget and the
    /// remaining request deadline; the second value is the deadline's
    /// total budget when the deadline is the binding constraint, so a
    /// watchdog expiry can be reported as the deadline expiring.
    fn knobs(&self, req: &Request) -> (Knobs, Option<u64>) {
        let mut knobs = req.knobs(self.env);
        let watchdog_ms = knobs.watchdog.map(|w| w.as_millis() as u64);
        match self.current_deadline {
            Some((total, remaining)) if watchdog_ms.is_none_or(|w| remaining <= w) => {
                knobs.watchdog = Some(Duration::from_millis(remaining));
                (knobs, Some(total))
            }
            _ => (knobs, None),
        }
    }

    /// The current metrics registry: the live latency/batch-size
    /// histograms plus every deterministic counter and gauge derived
    /// from [`SessionStats`] at call time. Deriving (rather than
    /// double-booking) keeps the `metrics` exposition consistent with
    /// the `stats` op by construction.
    pub fn metrics_registry(&self) -> omp_telemetry::MetricsRegistry {
        let mut reg = self.metrics.clone();
        reg.counter_add("serve.requests", self.stats.requests);
        reg.counter_add("serve.errors", self.stats.errors);
        for op in ALL_OPS {
            reg.counter_add(
                &format!("serve.ops.{op}"),
                self.stats.ops.get(op).copied().unwrap_or(0),
            );
        }
        for (tier, t) in self.stats.cache.tiers() {
            reg.counter_add(&format!("serve.cache.{tier}.hits"), t.hits);
            reg.counter_add(&format!("serve.cache.{tier}.misses"), t.misses);
        }
        reg.counter_add("serve.batches", self.stats.batches);
        reg.counter_add("serve.batched_requests", self.stats.batched_requests);
        reg.counter_add("serve.timeout", self.stats.timeouts);
        reg.counter_add("serve.panic", self.stats.panics);
        reg.counter_add("serve.shed", self.shared.shed.load(Ordering::Relaxed));
        reg.counter_add("serve.retries", self.shared.retries.load(Ordering::Relaxed));
        reg.gauge_set("serve.device_entries", self.store.entries()[2] as i64);
        reg.gauge_set("serve.device_capacity", self.store.device_capacity() as i64);
        reg
    }

    /// The `metrics` result payload: the Prometheus text exposition and
    /// the JSON rendering of one registry snapshot.
    fn render_metrics(&self) -> String {
        let reg = self.metrics_registry();
        let mut w = JsonWriter::with_capacity(2048);
        w.begin_object();
        w.key("prometheus").string(&reg.render_prometheus());
        w.key("metrics");
        reg.write_json(&mut w);
        w.end_object();
        w.finish()
    }

    fn render_stats(&self) -> String {
        let mut w = JsonWriter::with_capacity(512);
        w.begin_object();
        w.key("requests").u64(self.stats.requests);
        w.key("errors").u64(self.stats.errors);
        w.key("ops").begin_object();
        for name in ALL_OPS {
            w.key(name)
                .u64(self.stats.ops.get(name).copied().unwrap_or(0));
        }
        w.end_object();
        w.key("cache");
        self.stats.cache.write_json(&mut w);
        w.key("total_hits").u64(self.stats.total_hits());
        w.key("device_entries").usize(self.store.entries()[2]);
        w.key("device_capacity").usize(self.store.device_capacity());
        w.key("batches").u64(self.stats.batches);
        w.key("batched_requests").u64(self.stats.batched_requests);
        w.key("timeouts").u64(self.stats.timeouts);
        w.key("panics").u64(self.stats.panics);
        w.key("shed").u64(self.shared.shed.load(Ordering::Relaxed));
        w.key("retries")
            .u64(self.shared.retries.load(Ordering::Relaxed));
        w.end_object();
        w.finish()
    }
}

/// A watchdog timeout that fired under a binding request deadline *is*
/// the deadline expiring: report the dedicated error and exit code
/// instead of a generic simulation failure.
fn deadline_expiry(e: RequestError, deadline_ms: Option<u64>) -> RequestError {
    match (e, deadline_ms) {
        (RequestError::Job(JobError::Launch(e)), Some(total))
            if matches!(e.kind, SimErrorKind::Timeout { .. }) =>
        {
            JobError::Launch(SimError::deadline_exceeded(total).with_threads(e.threads)).into()
        }
        (e, _) => e,
    }
}

/// The `run`/`profile` payload.
fn launch_json(req: &Request, done: &Launched) -> String {
    let mut w = JsonWriter::with_capacity(1024);
    w.begin_object();
    w.key("config").string(req.config.cli_name());
    w.key("kernel").string(&done.kernel);
    w.key("stats").raw(&done.result.stats_json());
    if let Some(profile) = &done.result.profile {
        w.key("profile").raw(&profile.to_json());
    }
    if req.op == "run" && req.dump > 0 {
        w.key("dump").begin_array();
        for b in &done.result.buffers {
            b.write_json(&mut w);
        }
        w.end_array();
    }
    w.end_object();
    w.finish()
}
