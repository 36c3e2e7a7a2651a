//! Unified telemetry for the workspace: a span tracer, a metrics
//! registry, and the shared Chrome trace-event writers.
//!
//! Three pieces, all dependency-free beyond `omp-json`:
//!
//! - [`trace`]: the Chrome trace-event object shapes (`M` metadata,
//!   `X` duration spans, `i` instants) that `gpusim`'s profiler has
//!   always emitted, factored out so every trace producer writes
//!   byte-identical events.
//! - the **span tracer** ([`span`], [`take_spans`]): opt-in
//!   (`set_enabled`), process-global, with parent links maintained
//!   per thread. Disabled it costs one relaxed atomic load per call
//!   site; spans record *wall-clock* time and are therefore
//!   informational only — they must never feed a bit-identity
//!   fingerprint.
//! - the [`MetricsRegistry`]: named counters, gauges, and
//!   power-of-two log-bucketed latency histograms with p50/p90/p99
//!   summaries, rendered as Prometheus text and as JSON. Registries
//!   are plain values owned by their producer (no global state), so
//!   counters populated from deterministic sources stay bit-identical
//!   across `--jobs`, tiers, and eager-vs-replay.
//!
//! The `ompgpu-telemetry/v1` artifact ([`telemetry_json`]) bundles the
//! collected spans with a registry snapshot; [`chrome_trace`] renders
//! the same spans as a Perfetto-loadable trace.

use omp_json::JsonWriter;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Schema identifier of the telemetry artifact.
pub const TELEMETRY_SCHEMA: &str = "ompgpu-telemetry/v1";
/// Schema identifier of one serve access-log record.
pub const ACCESS_LOG_SCHEMA: &str = "ompgpu-access-log/v1";

// ---------------------------------------------------------------------
// Chrome trace-event writers
// ---------------------------------------------------------------------

/// The Chrome trace-event object shapes shared by every trace producer
/// in the workspace (the profiler's launch timeline and the span
/// tracer's pipeline timeline). Loadable in Perfetto and
/// `chrome://tracing`.
pub mod trace {
    use omp_json::JsonWriter;

    /// An `M` metadata event: names the process (`tid` = `None`) or
    /// one thread track.
    pub fn meta_event(w: &mut JsonWriter, name: &str, tid: Option<u32>, value: &str) {
        w.begin_object();
        w.key("name").string(name);
        w.key("ph").string("M");
        w.key("pid").u32(0);
        if let Some(tid) = tid {
            w.key("tid").u32(tid);
        }
        w.key("args").begin_object();
        w.key("name").string(value);
        w.end_object();
        w.end_object();
    }

    /// An `X` complete-duration event on track `tid` spanning
    /// `start..end` (the format's microsecond fields; producers may map
    /// model cycles onto them).
    pub fn span_event(w: &mut JsonWriter, name: &str, cat: &str, tid: u32, start: u64, end: u64) {
        w.begin_object();
        w.key("name").string(name);
        w.key("cat").string(cat);
        w.key("ph").string("X");
        w.key("pid").u32(0);
        w.key("tid").u32(tid);
        w.key("ts").u64(start);
        w.key("dur").u64(end.saturating_sub(start));
        w.end_object();
    }

    /// An `i` thread-scoped instant event, optionally annotated with a
    /// byte count in its `args`.
    pub fn instant_event(
        w: &mut JsonWriter,
        name: &str,
        cat: &str,
        tid: u32,
        ts: u64,
        bytes: Option<u64>,
    ) {
        w.begin_object();
        w.key("name").string(name);
        w.key("cat").string(cat);
        w.key("ph").string("i");
        w.key("s").string("t");
        w.key("pid").u32(0);
        w.key("tid").u32(tid);
        w.key("ts").u64(ts);
        if let Some(bytes) = bytes {
            w.key("args").begin_object();
            w.key("bytes").u64(bytes);
            w.end_object();
        }
        w.end_object();
    }
}

// ---------------------------------------------------------------------
// Span tracer
// ---------------------------------------------------------------------

/// One finished span. `parent` is 0 for root spans; `track` is a small
/// per-thread index assigned in first-use order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: u64,
    pub name: String,
    pub cat: String,
    pub start_micros: u64,
    pub dur_micros: u64,
    pub track: u32,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TRACK: AtomicU32 = AtomicU32::new(0);

struct TraceStore {
    epoch: Instant,
    spans: Vec<SpanRecord>,
}

fn store() -> &'static Mutex<TraceStore> {
    static STORE: OnceLock<Mutex<TraceStore>> = OnceLock::new();
    STORE.get_or_init(|| {
        Mutex::new(TraceStore {
            epoch: Instant::now(),
            spans: Vec::new(),
        })
    })
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TRACK: RefCell<Option<u32>> = const { RefCell::new(None) };
}

/// Turns the span tracer on or off. Off (the default) every [`span`]
/// call site reduces to one relaxed atomic load.
pub fn set_enabled(on: bool) {
    if on {
        // Touch the store so the epoch exists before the first span.
        let _ = store();
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the tracer is currently collecting spans.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// RAII guard for an in-flight span; the span is recorded when the
/// guard drops. A no-op while the tracer is disabled.
#[must_use = "the span ends when this guard drops"]
pub struct Span(Option<ActiveSpan>);

struct ActiveSpan {
    id: u64,
    parent: u64,
    name: String,
    cat: String,
    start_micros: u64,
    track: u32,
}

/// Opens a span named `name` in category `cat` on the current thread.
/// The innermost open span on this thread becomes its parent.
pub fn span(name: &str, cat: &str) -> Span {
    if !enabled() {
        return Span(None);
    }
    span_owned(name.to_string(), cat)
}

/// Like [`span`] but the name is built lazily, so call sites with
/// formatted names pay nothing while the tracer is off.
pub fn span_lazy(cat: &str, name: impl FnOnce() -> String) -> Span {
    if !enabled() {
        return Span(None);
    }
    span_owned(name(), cat)
}

fn span_owned(name: String, cat: &str) -> Span {
    let start_micros = store()
        .lock()
        .map(|s| s.epoch.elapsed().as_micros() as u64)
        .unwrap_or(0);
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = SPAN_STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    let track = TRACK.with(|t| {
        *t.borrow_mut()
            .get_or_insert_with(|| NEXT_TRACK.fetch_add(1, Ordering::Relaxed))
    });
    Span(Some(ActiveSpan {
        id,
        parent,
        name,
        cat: cat.to_string(),
        start_micros,
        track,
    }))
}

/// Records an already-completed span retroactively from its start
/// `Instant` — for call sites that already time themselves (the pass
/// manager) and only learn the span's name after the fact. The
/// innermost open span on this thread becomes the parent.
pub fn record_completed(name: &str, cat: &str, started: Instant) {
    if enabled() {
        record_interval(name, cat, started, started.elapsed());
    }
}

/// Records a span that began at `started` and lasted `dur` — for work
/// that ran in slices interleaved with other work (the cleanup passes,
/// which alternate per function) and is reported as one span of the
/// summed length. The innermost open span on this thread becomes the
/// parent.
pub fn record_interval(name: &str, cat: &str, started: Instant, dur: Duration) {
    if !enabled() {
        return;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0));
    let track = TRACK.with(|t| {
        *t.borrow_mut()
            .get_or_insert_with(|| NEXT_TRACK.fetch_add(1, Ordering::Relaxed))
    });
    if let Ok(mut store) = store().lock() {
        let start = started.saturating_duration_since(store.epoch);
        store.spans.push(SpanRecord {
            id,
            parent,
            name: name.to_string(),
            cat: cat.to_string(),
            start_micros: start.as_micros() as u64,
            dur_micros: dur.as_micros() as u64,
            track,
        });
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(active) = self.0.take() else {
            return;
        };
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.last() == Some(&active.id) {
                s.pop();
            } else {
                // Out-of-order drop (guards dropped in non-LIFO order):
                // remove the id wherever it sits.
                s.retain(|&id| id != active.id);
            }
        });
        if let Ok(mut store) = store().lock() {
            let end = store.epoch.elapsed().as_micros() as u64;
            store.spans.push(SpanRecord {
                id: active.id,
                parent: active.parent,
                name: active.name,
                cat: active.cat,
                start_micros: active.start_micros,
                dur_micros: end.saturating_sub(active.start_micros),
                track: active.track,
            });
        }
    }
}

/// Drains every finished span collected so far, ordered by start time
/// (ties broken by span id).
pub fn take_spans() -> Vec<SpanRecord> {
    let mut spans = store()
        .lock()
        .map(|mut s| std::mem::take(&mut s.spans))
        .unwrap_or_default();
    spans.sort_by_key(|s| (s.start_micros, s.id));
    spans
}

/// Discards any finished spans collected so far.
pub fn clear_spans() {
    let _ = take_spans();
}

/// Renders spans as a Chrome trace-event JSON document (Perfetto-
/// loadable), one track per recording thread, using the shared
/// [`trace`] writers.
pub fn chrome_trace(spans: &[SpanRecord]) -> String {
    let mut w = JsonWriter::with_capacity(4096);
    w.begin_object();
    w.key("displayTimeUnit").string("ms");
    w.key("traceEvents").begin_array();
    trace::meta_event(&mut w, "process_name", None, "ompgpu");
    let mut tracks: Vec<u32> = spans.iter().map(|s| s.track).collect();
    tracks.sort_unstable();
    tracks.dedup();
    for &t in &tracks {
        trace::meta_event(&mut w, "thread_name", Some(t), &format!("thread {t}"));
    }
    for s in spans {
        trace::span_event(
            &mut w,
            &s.name,
            &s.cat,
            s.track,
            s.start_micros,
            s.start_micros + s.dur_micros,
        );
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// Renders the `ompgpu-telemetry/v1` artifact: the collected spans
/// (with parent links) plus a metrics-registry snapshot.
pub fn telemetry_json(spans: &[SpanRecord], metrics: &MetricsRegistry) -> String {
    let mut w = JsonWriter::with_capacity(4096);
    w.begin_object();
    w.key("schema").string(TELEMETRY_SCHEMA);
    w.key("spans").begin_array();
    for s in spans {
        w.begin_object();
        w.key("id").u64(s.id);
        w.key("parent").u64(s.parent);
        w.key("name").string(&s.name);
        w.key("cat").string(&s.cat);
        w.key("start_micros").u64(s.start_micros);
        w.key("dur_micros").u64(s.dur_micros);
        w.key("track").u32(s.track);
        w.end_object();
    }
    w.end_array();
    w.key("metrics");
    metrics.write_json(&mut w);
    w.end_object();
    w.finish()
}

// ---------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------

/// Number of log₂ buckets: bucket `i ≥ 1` holds values in
/// `[2^(i-1), 2^i)`; bucket 0 holds zero. The last bucket absorbs
/// everything at or above `2^(BUCKETS-2)`.
pub const HISTOGRAM_BUCKETS: usize = 33;

/// A log₂-bucketed (HDR-style) histogram of `u64` observations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    pub count: u64,
    pub sum: u64,
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl Histogram {
    fn bucket_index(v: u64) -> usize {
        ((64 - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Inclusive upper bound of bucket `i` (`2^i - 1`); the overflow
    /// bucket has no finite bound (`u64::MAX`).
    pub fn bucket_bound(i: usize) -> u64 {
        if i >= HISTOGRAM_BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    pub fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.buckets[Self::bucket_index(v)] += 1;
    }

    /// The upper bound of the bucket containing the `q`-quantile
    /// observation (`q` in `0..=1`). Zero when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= target {
                return Self::bucket_bound(i);
            }
        }
        Self::bucket_bound(HISTOGRAM_BUCKETS - 1)
    }

    fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }
}

/// Named counters, gauges, and latency histograms. A plain value —
/// producers own their registry, merge them explicitly, and render on
/// demand; iteration order is always name-sorted so every rendering is
/// deterministic for identical contents.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Adds `v` to the named monotonic counter.
    pub fn counter_add(&mut self, name: &str, v: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += v;
    }

    /// Current value of a counter (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets the named gauge to `v`.
    pub fn gauge_set(&mut self, name: &str, v: i64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Current value of a gauge (`None` if absent).
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    /// Records one observation into the named histogram.
    pub fn observe(&mut self, name: &str, v: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .observe(v);
    }

    /// The named histogram, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Folds `other` into `self`: counters and histogram buckets add,
    /// gauges take `other`'s value.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Writes the JSON rendering into an open writer position:
    /// `{"counters":{...},"gauges":{...},"histograms":{name:{count,
    /// sum,p50,p90,p99,buckets:{le:count}}}}`, everything name-sorted,
    /// bucket keys being each bucket's inclusive upper bound (the
    /// overflow bucket is keyed `"inf"`), only non-empty buckets shown.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("counters").begin_object();
        for (k, v) in &self.counters {
            w.key(k).u64(*v);
        }
        w.end_object();
        w.key("gauges").begin_object();
        for (k, v) in &self.gauges {
            w.key(k).i64(*v);
        }
        w.end_object();
        w.key("histograms").begin_object();
        for (k, h) in &self.histograms {
            w.key(k).begin_object();
            w.key("count").u64(h.count);
            w.key("sum").u64(h.sum);
            w.key("p50").u64(h.quantile(0.50));
            w.key("p90").u64(h.quantile(0.90));
            w.key("p99").u64(h.quantile(0.99));
            w.key("buckets").begin_object();
            for (i, &n) in h.buckets.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                if i >= HISTOGRAM_BUCKETS - 1 {
                    w.key("inf").u64(n);
                } else {
                    w.key(&Histogram::bucket_bound(i).to_string()).u64(n);
                }
            }
            w.end_object();
            w.end_object();
        }
        w.end_object();
        w.end_object();
    }

    /// The JSON rendering as a standalone compact document.
    pub fn render_json(&self) -> String {
        let mut w = JsonWriter::with_capacity(1024);
        self.write_json(&mut w);
        w.finish()
    }

    /// The Prometheus text-exposition rendering: counters and gauges as
    /// single samples, histograms as cumulative `_bucket{le="..."}`
    /// series plus `_sum`/`_count`. Metric names are sanitized to the
    /// Prometheus charset (`[a-zA-Z0-9_:]`).
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (k, v) in &self.counters {
            let name = sanitize_metric_name(k);
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {v}");
        }
        for (k, v) in &self.gauges {
            let name = sanitize_metric_name(k);
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {v}");
        }
        for (k, h) in &self.histograms {
            let name = sanitize_metric_name(k);
            let _ = writeln!(out, "# TYPE {name} histogram");
            let top = h
                .buckets
                .iter()
                .rposition(|&n| n != 0)
                .map_or(0, |i| i.min(HISTOGRAM_BUCKETS - 2));
            let mut cum = 0u64;
            for i in 0..=top {
                cum += h.buckets[i];
                let _ = writeln!(
                    out,
                    "{name}_bucket{{le=\"{}\"}} {cum}",
                    Histogram::bucket_bound(i)
                );
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{name}_sum {}", h.sum);
            let _ = writeln!(out, "{name}_count {}", h.count);
        }
        out
    }
}

/// Maps a metric name onto the Prometheus charset: every byte outside
/// `[a-zA-Z0-9_:]` becomes `_`.
pub fn sanitize_metric_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// The fixed example registry rendered in `docs/TELEMETRY.md`; the
/// doc-drift test replays both renderings byte-for-byte.
pub fn example_registry() -> MetricsRegistry {
    let mut m = MetricsRegistry::new();
    m.counter_add("serve.requests", 11);
    m.counter_add("serve.errors", 2);
    m.counter_add("serve.cache.device.hits", 3);
    m.gauge_set("serve.device_entries", 1);
    for v in [90, 120, 700, 1300, 1350, 6000] {
        m.observe("serve.service_micros.run", v);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, OnceLock};

    /// The tracer is process-global; tests that enable it serialize on
    /// this lock so concurrent test threads don't cross-contaminate.
    fn tracer_lock() -> &'static Mutex<()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
    }

    #[test]
    fn spans_record_parent_links_and_drain() {
        let _guard = tracer_lock().lock().unwrap();
        set_enabled(true);
        clear_spans();
        {
            let _outer = span("outer", "test");
            let _inner = span("inner", "test");
        }
        set_enabled(false);
        let spans = take_spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.cat, "test");
        assert!(inner.start_micros >= outer.start_micros);
        // Drained: a second take returns nothing.
        assert!(take_spans().is_empty());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let _guard = tracer_lock().lock().unwrap();
        set_enabled(false);
        clear_spans();
        {
            let _s = span("ghost", "test");
            let _l = span_lazy("test", || unreachable!("lazy name built while disabled"));
        }
        assert!(take_spans().is_empty());
    }

    #[test]
    fn chrome_trace_and_artifact_validate() {
        let spans = vec![
            SpanRecord {
                id: 1,
                parent: 0,
                name: "compile".into(),
                cat: "pipeline".into(),
                start_micros: 0,
                dur_micros: 120,
                track: 0,
            },
            SpanRecord {
                id: 2,
                parent: 1,
                name: "gvn".into(),
                cat: "pass".into(),
                start_micros: 10,
                dur_micros: 30,
                track: 0,
            },
        ];
        let trace = chrome_trace(&spans);
        omp_json::validate(&trace).unwrap();
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("\"ph\":\"X\""));
        let artifact = telemetry_json(&spans, &example_registry());
        omp_json::validate(&artifact).unwrap();
        let v = omp_json::parse(&artifact).unwrap();
        assert_eq!(
            v.get("schema").and_then(omp_json::Value::as_str),
            Some(TELEMETRY_SCHEMA)
        );
        assert_eq!(
            v.get("spans")
                .and_then(omp_json::Value::as_array)
                .map(<[omp_json::Value]>::len),
            Some(2)
        );
        assert!(v.get("metrics").is_some());
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::default();
        for v in [0, 1, 1, 2, 3, 4, 100] {
            h.observe(v);
        }
        assert_eq!(h.count, 7);
        assert_eq!(h.sum, 111);
        assert_eq!(h.buckets[0], 1); // 0
        assert_eq!(h.buckets[1], 2); // 1, 1
        assert_eq!(h.buckets[2], 2); // 2, 3
        assert_eq!(h.buckets[3], 1); // 4
        assert_eq!(h.buckets[7], 1); // 100 in [64,128)
        assert_eq!(h.quantile(0.5), Histogram::bucket_bound(2));
        assert_eq!(h.quantile(0.99), Histogram::bucket_bound(7));
        assert_eq!(Histogram::bucket_bound(3), 7);
        assert_eq!(Histogram::bucket_bound(HISTOGRAM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn registry_renderings_are_consistent() {
        let m = example_registry();
        let json = m.render_json();
        omp_json::validate(&json).unwrap();
        let v = omp_json::parse(&json).unwrap();
        assert_eq!(
            v.get("counters")
                .and_then(|c| c.get("serve.requests"))
                .and_then(omp_json::Value::as_u64),
            Some(11)
        );
        let text = m.render_prometheus();
        assert!(text.contains("# TYPE serve_requests counter\nserve_requests 11\n"));
        assert!(text.contains("# TYPE serve_device_entries gauge\nserve_device_entries 1\n"));
        assert!(text.contains("# TYPE serve_service_micros_run histogram\n"));
        assert!(text.contains("serve_service_micros_run_bucket{le=\"+Inf\"} 6\n"));
        assert!(text.contains("serve_service_micros_run_sum 9560\n"));
        assert!(text.contains("serve_service_micros_run_count 6\n"));
        // Cumulative bucket counts end at the total count.
        let last_finite = text
            .lines()
            .rev()
            .find(|l| l.starts_with("serve_service_micros_run_bucket{le=\"") && !l.contains("+Inf"))
            .unwrap();
        assert!(last_finite.ends_with(" 6"));
    }

    #[test]
    fn registry_merge_and_determinism() {
        let mut a = example_registry();
        let b = example_registry();
        a.merge(&b);
        assert_eq!(a.counter("serve.requests"), 22);
        assert_eq!(a.histogram("serve.service_micros.run").unwrap().count, 12);
        // Two identically-populated registries render identically,
        // independent of insertion order.
        let mut x = MetricsRegistry::new();
        x.counter_add("b", 2);
        x.counter_add("a", 1);
        let mut y = MetricsRegistry::new();
        y.counter_add("a", 1);
        y.counter_add("b", 2);
        assert_eq!(x, y);
        assert_eq!(x.render_json(), y.render_json());
        assert_eq!(x.render_prometheus(), y.render_prometheus());
    }

    #[test]
    fn sanitizer_maps_to_prometheus_charset() {
        assert_eq!(
            sanitize_metric_name("serve.cache.device.hits"),
            "serve_cache_device_hits"
        );
        assert_eq!(sanitize_metric_name("a-b c:d_e9"), "a_b_c:d_e9");
    }
}
