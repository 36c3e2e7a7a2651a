//! The measuring loop shared by every workload: set-up, warm-up round,
//! ten timed rounds, the invariants that fail a run instead of letting it
//! report numbers, and the traced variant that yields per-layer metrics.

use crate::metrics::Values;
use crate::stats::{median, quiet_round_median};
use crate::trace::{SpanTable, HARNESS};
use std::time::Instant;

/// Timed rounds per run. Fixed: the estimator is a minimum over rounds,
/// so its bias depends on their number.
pub const ROUNDS: usize = 10;

/// Set-ups per untraced run; `setup_s` is their median. Each is a full
/// set-up with its warm-up round; all but the last are torn down again.
pub const SETUPS: usize = 3;

/// What one pass did, apart from how long it took. Everything but
/// `failed` must repeat exactly on every pass of a client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PassCounts {
    /// Ops attempted.
    pub ops: u64,
    /// Ops whose result failed its check, errored, timed out or was shed.
    pub failed: u64,
    /// Simulated cycles of all launches of the pass.
    pub sim_cycles: u64,
    /// Hash of the pass's other exact counts (instructions out of the
    /// optimizer, simulated instructions, runs answered, …).
    pub fingerprint: u64,
}

/// One timed pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PassSample {
    /// Which closed-loop client ran the pass; 0 for in-process workloads.
    /// Each client has its own request stream, so passes compare within
    /// a client.
    pub client: usize,
    pub ms: f64,
    pub counts: PassCounts,
}

/// `passes` consecutive passes. For the serve workloads every client
/// contributes its passes and `wall_s` is the slowest client's time.
pub struct Round {
    pub passes: Vec<PassSample>,
    pub wall_s: f64,
}

/// Which spans feed which per-layer time metrics.
pub struct SpanMap {
    /// `(span name or dotted prefix, metric)`: summed per pass, median
    /// over traced passes.
    pub per_pass: &'static [(&'static str, &'static str)],
    /// The same for spans outside the passes (set-up, probes): summed.
    pub outside: &'static [(&'static str, &'static str)],
    /// Layers this workload exists to stress; their share of the traced
    /// pass is reported as `bench.own_layer_share`.
    pub own_layers: &'static [&'static str],
}

pub trait Workload {
    /// Name of the span opened around each pass.
    fn pass_span(&self) -> &'static str;

    /// Hash of every generated input, for checking that seeds matter.
    fn corpus_hash(&self) -> u64;

    fn round(&mut self, passes: usize) -> Result<Round, String>;

    /// Called after warm-up, before the first timed round.
    fn begin_window(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Called after the last timed round: fails the run when a
    /// window-level invariant is broken (a cold cache on `serve_warm`, a
    /// shed request), and reports the exact counts of one pass.
    fn end_window(&mut self, out: &mut Values) -> Result<(), String>;

    fn span_map(&self) -> SpanMap;

    /// Traced run only: measurements outside the passes (the same
    /// launches on one worker, the same requests without the socket).
    /// Runs with the tracer on and must open no pass span.
    fn probe(&mut self, out: &mut Values) -> Result<(), String>;

    /// Traced run only, called last: ratios of the counts, span times and
    /// probe results `out` holds by then.
    fn derive(&self, out: &mut Values);

    /// Stops whatever set-up started (the daemon) and waits for it.
    fn finish(self: Box<Self>) -> Result<(), String> {
        Ok(())
    }
}

/// Runs `passes` passes of an in-process workload, each under its span.
pub fn timed_round(
    passes: usize,
    pass_span: &str,
    mut pass: impl FnMut() -> Result<PassCounts, String>,
) -> Result<Round, String> {
    let started = Instant::now();
    let mut samples = Vec::with_capacity(passes);
    for _ in 0..passes {
        let t = Instant::now();
        let counts = {
            let _span = omp_telemetry::span(pass_span, "bench");
            pass()?
        };
        samples.push(PassSample {
            client: 0,
            ms: t.elapsed().as_secs_f64() * 1e3,
            counts,
        });
    }
    Ok(Round {
        passes: samples,
        wall_s: started.elapsed().as_secs_f64(),
    })
}

/// The timed rounds of one run.
pub struct Window {
    pub rounds: Vec<Round>,
}

impl Window {
    pub fn attempted(&self) -> u64 {
        self.samples().map(|p| p.counts.ops).sum()
    }

    pub fn failed(&self) -> u64 {
        self.samples().map(|p| p.counts.failed).sum()
    }

    fn samples(&self) -> impl Iterator<Item = &PassSample> {
        self.rounds.iter().flat_map(|r| &r.passes)
    }

    /// Quiet-round median pass time over the rounds `keep` selects.
    pub fn pass_ms(&self, keep: impl Fn(usize) -> bool) -> f64 {
        let rounds: Vec<Vec<f64>> = self
            .rounds
            .iter()
            .enumerate()
            .filter(|(i, _)| keep(*i))
            .map(|(_, r)| r.passes.iter().map(|p| p.ms).collect())
            .collect();
        quiet_round_median(&rounds)
    }

    /// Median pass time of each round, in milliseconds.
    pub fn round_ms(&self) -> Vec<f64> {
        self.rounds
            .iter()
            .map(|r| median(&r.passes.iter().map(|p| p.ms).collect::<Vec<_>>()))
            .collect()
    }

    /// Ops per second in the round where that quotient is highest.
    pub fn ops_per_s(&self) -> f64 {
        self.rounds
            .iter()
            .map(|r| r.passes.iter().map(|p| p.counts.ops).sum::<u64>() as f64 / r.wall_s)
            .fold(0.0, f64::max)
    }

    /// Simulated cycles of one pass, summed over the clients. Every pass
    /// of a client must have done the same work: one that differs from
    /// its client's first means the samples are not comparable, so the run
    /// is void.
    pub fn sim_cycles(&self) -> Result<u64, String> {
        let mut firsts: Vec<&PassSample> = Vec::new();
        for (i, p) in self.samples().enumerate() {
            let Some(first) = firsts.iter().find(|f| f.client == p.client) else {
                firsts.push(p);
                continue;
            };
            let same = |c: &PassCounts| (c.ops, c.sim_cycles, c.fingerprint);
            if same(&p.counts) != same(&first.counts) {
                return Err(format!(
                    "pass {i} differs from its client's first: {:?} against {:?}",
                    p.counts, first.counts
                ));
            }
        }
        if firsts.is_empty() {
            return Err("no timed pass ran".into());
        }
        Ok(firsts.iter().map(|f| f.counts.sim_cycles).sum())
    }
}

fn run_window(
    w: &mut dyn Workload,
    passes: usize,
    mut before_round: impl FnMut(usize),
) -> Result<Window, String> {
    w.begin_window()?;
    let mut rounds = Vec::with_capacity(ROUNDS);
    for i in 0..ROUNDS {
        before_round(i);
        rounds.push(w.round(passes)?);
    }
    let window = Window { rounds };
    window.sim_cycles()?;
    Ok(window)
}

/// Set-up plus the warm-up round, which is charged to set-up: it fills
/// lazily built state (compiled blocks, worker pools, cache tiers) that a
/// user pays for once. With `traced`, the tracer is on while the workload
/// is made, so the set-up calls into each layer land in the trace, and
/// off again for the warm-up passes, which are not samples.
fn set_up(
    make: &dyn Fn() -> Result<Box<dyn Workload>, String>,
    passes: usize,
    traced: bool,
) -> Result<Box<dyn Workload>, String> {
    omp_telemetry::set_enabled(traced);
    let made = make();
    omp_telemetry::set_enabled(false);
    let mut w = made?;
    let warm = w.round(passes)?;
    let failed: u64 = warm.passes.iter().map(|p| p.counts.failed).sum();
    if failed > 0 {
        return Err(format!("{failed} ops failed their check during warm-up"));
    }
    Ok(w)
}

pub struct Outcome {
    pub values: Values,
    /// Median pass time of each timed round, in order: how quiet the host
    /// was while the run lasted.
    pub round_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Simulated cycles of one pass, summed over the clients.
    pub sim_cycles: u64,
    pub corpus_hash: u64,
}

impl Outcome {
    fn new(values: Values, window: &Window, corpus_hash: u64) -> Result<Outcome, String> {
        Ok(Outcome {
            values,
            round_ms: window.round_ms(),
            attempted: window.attempted(),
            failed: window.failed(),
            sim_cycles: window.sim_cycles()?,
            corpus_hash,
        })
    }
}

/// The untraced run: the end-to-end metrics.
pub fn run_untraced(
    make: &dyn Fn() -> Result<Box<dyn Workload>, String>,
    passes: usize,
) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        if let Some(previous) = kept.take() {
            Workload::finish(previous)?;
        }
        let t = Instant::now();
        kept = Some(set_up(make, passes, false)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut w = kept.expect("SETUPS is at least 1");
    let window = run_window(w.as_mut(), passes, |_| {})?;
    // Only for the invariants it checks; the counts belong to the traced run.
    w.end_window(&mut Values::default())?;
    let corpus_hash = w.corpus_hash();
    w.finish()?;

    let mut values = Values::default();
    values.set("pass_ms", window.pass_ms(|_| true));
    values.set("ops_per_s", window.ops_per_s());
    values.set("peak_rss_mb", peak_rss_mib()?);
    values.set("setup_s", median(&setups));
    Outcome::new(values, &window, corpus_hash)
}

pub struct TracedOutcome {
    pub outcome: Outcome,
    pub spans: SpanTable,
}

/// The traced run: one set-up with the tracer on, then traced and
/// untraced rounds in turn, so the two share whatever the host is doing
/// and their ratio is the tracing overhead.
pub fn run_traced(
    make: &dyn Fn() -> Result<Box<dyn Workload>, String>,
    passes: usize,
) -> Result<TracedOutcome, String> {
    let traced = |round: usize| round.is_multiple_of(2);
    omp_telemetry::clear_spans();
    let mut w = set_up(make, passes, true)?;
    let window = run_window(w.as_mut(), passes, |i| {
        omp_telemetry::set_enabled(traced(i))
    })?;
    let mut values = Values::default();
    values.set("gpusim.sim_cycles", window.sim_cycles()? as f64);
    w.end_window(&mut values)?;
    // Probes run traced so their calls land in the trace beside the
    // passes they explain; they open no pass span.
    omp_telemetry::set_enabled(true);
    let probed = w.probe(&mut values);
    omp_telemetry::set_enabled(false);
    probed?;
    let spans = SpanTable::new(omp_telemetry::take_spans(), w.pass_span());

    let map = w.span_map();
    for (span, metric) in map.per_pass {
        values.set(metric, spans.ms_per_pass(span));
    }
    for (span, metric) in map.outside {
        values.set(metric, spans.ms_outside_passes(span));
    }
    w.derive(&mut values);

    let traced_ms = window.pass_ms(traced);
    values.set(
        "telemetry.trace_overhead",
        traced_ms / window.pass_ms(|i| !traced(i)),
    );
    values.set("bench.traced_pass_ms", traced_ms);
    values.set(
        "telemetry.spans",
        spans.spans_in_passes() as f64 / spans.traced_passes().max(1) as f64,
    );
    let layers = spans.layer_self_ms(true);
    let total: f64 = layers.iter().map(|l| l.1).sum();
    let share = |keep: &dyn Fn(&str) -> bool| -> f64 {
        let kept: f64 = layers.iter().filter(|l| keep(&l.0)).map(|l| l.1).sum();
        kept / total.max(f64::MIN_POSITIVE)
    };
    values.set("bench.layer_coverage", share(&|l| l != HARNESS));
    values.set(
        "bench.own_layer_share",
        share(&|l| map.own_layers.contains(&l)),
    );
    values.set(
        "bench.fail_ratio",
        window.failed() as f64 / window.attempted().max(1) as f64,
    );

    let corpus_hash = w.corpus_hash();
    w.finish()?;
    Ok(TracedOutcome {
        outcome: Outcome::new(values, &window, corpus_hash)?,
        spans,
    })
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(ms: f64, sim_cycles: u64) -> PassSample {
        PassSample {
            client: 0,
            ms,
            counts: PassCounts {
                ops: 4,
                failed: 0,
                sim_cycles,
                fingerprint: 7,
            },
        }
    }

    #[test]
    fn window_reports_quiet_round_and_best_throughput() {
        let w = Window {
            rounds: vec![
                Round {
                    passes: vec![sample(20.0, 9), sample(22.0, 9)],
                    wall_s: 0.042,
                },
                Round {
                    passes: vec![sample(10.0, 9), sample(12.0, 9)],
                    wall_s: 0.022,
                },
            ],
        };
        assert_eq!(w.pass_ms(|_| true), 11.0);
        assert_eq!(w.pass_ms(|i| i == 0), 21.0);
        assert_eq!(w.ops_per_s(), 8.0 / 0.022);
        assert_eq!(w.attempted(), 16);
        assert_eq!(w.sim_cycles(), Ok(9));
    }

    #[test]
    fn a_pass_with_other_cycles_voids_the_run() {
        let w = Window {
            rounds: vec![Round {
                passes: vec![sample(1.0, 9), sample(1.0, 10)],
                wall_s: 0.002,
            }],
        };
        let err = w.sim_cycles().unwrap_err();
        assert!(err.contains("sim_cycles: 10"), "{err}");
    }

    #[test]
    fn peak_rss_is_readable_and_positive() {
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
