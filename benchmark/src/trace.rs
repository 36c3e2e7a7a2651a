//! Reading the span tree of a traced run.
//!
//! The benchmark opens `bench.<workload>.pass` around every pass and
//! `bench.<layer>.<call>` around every call into a layer's public
//! function; the program's own spans nest under those through the
//! tracer's per-thread parent links. A span's self time is its duration
//! minus the part of it its children cover, and it is charged to the
//! layer of the nearest `bench.<layer>.*` span at or above it.

use omp_telemetry::SpanRecord;
use std::collections::{BTreeMap, HashMap};

/// Prefix of every span the benchmark opens itself.
const BENCH_PREFIX: &str = "bench.";

/// The layer self time outside any `bench.<layer>.*` span is charged to:
/// the pass loop's own checks and bookkeeping.
pub const HARNESS: &str = "harness";

/// The layer of a benchmark span name: `bench.gpusim.launch.XSBench` →
/// `gpusim`. `None` for the program's own spans and for pass spans.
fn layer_of(name: &str) -> Option<&str> {
    let rest = name.strip_prefix(BENCH_PREFIX)?;
    if rest.ends_with(".pass") {
        return None;
    }
    rest.split('.').next()
}

/// The spans of a traced run, with what the metrics need precomputed.
pub struct SpanTable {
    spans: Vec<SpanRecord>,
    /// Self time in microseconds, parallel to `spans`.
    self_micros: Vec<u64>,
    /// Index of the pass span each span sits under, parallel to `spans`.
    pass_of: Vec<Option<usize>>,
    /// Charged layer, parallel to `spans`.
    layer: Vec<String>,
    /// Indices of the pass spans, by start time.
    passes: Vec<usize>,
}

/// Self time of a span: its duration minus the union of its children's
/// intervals, clipped to the span. Children may overlap (worker threads
/// are not traced today, but a child recorded retroactively can start a
/// microsecond early), so this merges intervals, not durations.
pub fn self_micros(span: &SpanRecord, children: &[&SpanRecord]) -> u64 {
    let (lo, hi) = (span.start_micros, span.start_micros + span.dur_micros);
    let mut cuts: Vec<(u64, u64)> = children
        .iter()
        .map(|c| {
            (
                c.start_micros.clamp(lo, hi),
                (c.start_micros + c.dur_micros).clamp(lo, hi),
            )
        })
        .collect();
    cuts.sort_unstable();
    let mut covered = 0;
    let mut edge = lo;
    for (start, end) in cuts {
        if end > edge {
            covered += end - start.max(edge);
            edge = end;
        }
    }
    span.dur_micros - covered
}

impl SpanTable {
    pub fn new(spans: Vec<SpanRecord>, pass_span: &str) -> SpanTable {
        let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        let mut children: Vec<Vec<&SpanRecord>> = vec![Vec::new(); spans.len()];
        for s in &spans {
            if let Some(&p) = index.get(&s.parent) {
                children[p].push(s);
            }
        }
        let self_micros = spans
            .iter()
            .zip(&children)
            .map(|(s, c)| self_micros(s, c))
            .collect();

        // A parent opens before its children and `take_spans` sorts by
        // start time, but a retroactive child may sort first: resolve
        // through the parent chain, not by position.
        let mut pass_of = vec![None; spans.len()];
        let mut layer = vec![String::new(); spans.len()];
        for i in 0..spans.len() {
            let mut at = Some(i);
            let mut found_layer: Option<&str> = None;
            while let Some(j) = at {
                if spans[j].name == pass_span {
                    pass_of[i] = Some(j);
                    break;
                }
                if found_layer.is_none() {
                    found_layer = layer_of(&spans[j].name);
                }
                at = index.get(&spans[j].parent).copied();
            }
            layer[i] = match (found_layer, pass_of[i]) {
                (Some(l), _) => l.to_string(),
                (None, Some(_)) => HARNESS.to_string(),
                // Outside every pass and every benchmark span: another
                // thread (the serve executor) or set-up. Keep the
                // program's own category so the table still names it.
                (None, None) => format!("detached:{}", spans[i].cat),
            };
        }
        let passes = (0..spans.len())
            .filter(|&i| spans[i].name == pass_span)
            .collect();
        SpanTable {
            spans,
            self_micros,
            pass_of,
            layer,
            passes,
        }
    }

    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    pub fn traced_passes(&self) -> usize {
        self.passes.len()
    }

    /// Spans recorded inside the traced passes, pass spans included.
    pub fn spans_in_passes(&self) -> usize {
        self.pass_of.iter().flatten().count()
    }

    /// Per traced pass, the summed duration in milliseconds of the spans
    /// under it whose name is `name` or starts with `name.`; the median
    /// over passes.
    pub fn ms_per_pass(&self, name: &str) -> f64 {
        let mut sums: BTreeMap<usize, u64> = self.passes.iter().map(|&p| (p, 0)).collect();
        for (i, s) in self.spans.iter().enumerate() {
            if let (Some(p), true) = (self.pass_of[i], matches(&s.name, name)) {
                *sums.entry(p).or_default() += s.dur_micros;
            }
        }
        let ms: Vec<f64> = sums.values().map(|&us| us as f64 / 1e3).collect();
        crate::stats::median(&ms)
    }

    /// Summed duration in milliseconds of every span named `name` (or
    /// `name.*`) outside the passes: set-up and probe calls.
    pub fn ms_outside_passes(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .enumerate()
            .filter(|(i, s)| self.pass_of[*i].is_none() && matches(&s.name, name))
            .map(|(_, s)| s.dur_micros as f64 / 1e3)
            .sum()
    }

    /// Self time per layer in milliseconds, largest first: over the spans
    /// of all traced passes (`in_passes`), or over the spans no pass
    /// contains — the serve executor's thread, set-up and probes. A pass
    /// span's own self time counts as [`HARNESS`].
    pub fn layer_self_ms(&self, in_passes: bool) -> Vec<(String, f64)> {
        let mut by_layer: BTreeMap<&str, u64> = BTreeMap::new();
        for i in 0..self.spans.len() {
            if self.pass_of[i].is_some() == in_passes {
                *by_layer.entry(&self.layer[i]).or_default() += self.self_micros[i];
            }
        }
        let mut rows: Vec<(String, f64)> = by_layer
            .into_iter()
            .map(|(l, us)| (l.to_string(), us as f64 / 1e3))
            .collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        rows
    }
}

fn matches(span_name: &str, name: &str) -> bool {
    span_name
        .strip_prefix(name)
        .is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.to_string(),
            cat: "test".to_string(),
            start_micros: start,
            dur_micros: dur,
            track: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let parent = span(1, 0, "p", 100, 100);
        let a = span(2, 1, "a", 110, 30);
        // Overlaps `a` by 10 and runs 20 past the parent's end.
        let b = span(3, 1, "b", 130, 90);
        assert_eq!(self_micros(&parent, &[]), 100);
        assert_eq!(self_micros(&parent, &[&a]), 70);
        assert_eq!(self_micros(&parent, &[&b, &a]), 10);
    }

    /// pass(0..1000) ▸ bench.frontend.parse(0..300) ▸ frontend.parse(50..250)
    ///               ▸ bench.gpusim.launch.X(400..900) ▸ launch k(450..850)
    /// plus an executor-thread root outside the pass.
    fn table() -> SpanTable {
        SpanTable::new(
            vec![
                span(1, 0, "bench.w.pass", 0, 1000),
                span(2, 1, "bench.frontend.parse", 0, 300),
                span(3, 2, "frontend.parse", 50, 200),
                span(4, 1, "bench.gpusim.launch.X", 400, 500),
                span(5, 4, "launch k", 450, 400),
                span(6, 0, "serve.run", 2000, 70),
                span(7, 0, "bench.gpusim.device_new", 3000, 40),
            ],
            "bench.w.pass",
        )
    }

    #[test]
    fn self_time_is_charged_to_the_nearest_benchmark_layer() {
        let t = table();
        assert_eq!(t.traced_passes(), 1);
        assert_eq!(t.spans_in_passes(), 5);
        assert_eq!(
            t.layer_self_ms(true),
            vec![
                ("gpusim".to_string(), 0.5),
                ("frontend".to_string(), 0.3),
                (HARNESS.to_string(), 0.2),
            ]
        );
        let total: f64 = t.layer_self_ms(true).iter().map(|r| r.1).sum();
        assert_eq!(total, 1.0, "the pass lasted 1000 us");
        assert_eq!(
            t.layer_self_ms(false),
            vec![
                ("detached:test".to_string(), 0.07),
                ("gpusim".to_string(), 0.04),
            ]
        );
    }

    #[test]
    fn name_sums_follow_dotted_prefixes_and_pass_membership() {
        let t = table();
        assert_eq!(t.ms_per_pass("bench.gpusim.launch"), 0.5);
        assert_eq!(t.ms_per_pass("bench.gpusim.launch.X"), 0.5);
        assert_eq!(t.ms_per_pass("bench.gpusim.la"), 0.0);
        assert_eq!(t.ms_per_pass("bench.gpusim.device_new"), 0.0);
        assert_eq!(t.ms_outside_passes("bench.gpusim.device_new"), 0.04);
    }
}
