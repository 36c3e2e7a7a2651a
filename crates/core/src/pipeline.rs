//! The compile → optimize → simulate pipeline.

use crate::config::BuildConfig;
use crate::job::{JobError, Outcome, EXIT_BUILD, EXIT_FINDINGS, EXIT_OK, EXIT_SIM};
use omp_frontend::CompileError;
use omp_ir::Module;
use omp_opt::{OptReport, PassTiming};
use std::collections::HashMap;
use std::fmt;
use std::time::Instant;

/// A compilation failure anywhere in the pipeline.
#[derive(Debug)]
pub enum BuildError {
    /// Frontend diagnostics.
    Compile(CompileError),
    /// Post-optimization IR verification failure (optimizer bug).
    Verify(String),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Compile(e) => write!(f, "compile error: {e}"),
            BuildError::Verify(e) => write!(f, "post-optimization verification failed: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Runs only the frontend for `source` under `config`.
///
/// The frontend output depends on `config` solely through its
/// [`FrontendOptions`](omp_frontend::FrontendOptions) (in practice: the
/// globalization scheme), which is what lets the job
/// [`Store`](crate::job::Store)'s frontend tier serve many
/// configurations of one source from at most two frontend runs, each
/// feeding a clone to [`optimize`].
pub fn compile_frontend(source: &str, config: BuildConfig) -> Result<Module, BuildError> {
    let _span = omp_telemetry::span("frontend.compile", "pipeline");
    let fe = config.frontend_options("bench");
    omp_frontend::compile(source, &fe).map_err(BuildError::Compile)
}

/// The mid-end pass manager: owns the pass ordering for one
/// [`BuildConfig`], shares one [`omp_passes::AnalysisCache`] across the
/// classic passes, and folds their statistics into the optimizer's
/// structured remark stream.
///
/// Schedule for configurations with an OpenMP optimizer config:
///
/// 1. **early inliner** — exposes foldable `__kmpc_*` patterns and
///    deglobalization candidates to `openmp-opt` (conservative: callees
///    with structural OpenMP calls are kept outlined);
/// 2. **openmp-opt** — the paper's OpenMP-aware passes;
/// 3. **late inliner** — cleans up outlined parallel regions the OpenMP
///    passes specialized or left behind;
/// 4. **cleanup** (mem2reg/constprop/DCE/simplify-cfg to fixpoint) — so
///    GVN and LICM see promoted SSA form;
/// 5. **GVN**, **LICM**, **GVN** — redundancy elimination, invariant
///    hoisting, then a second GVN round to merge hoisted duplicates;
/// 6. **final cleanup** — removes code the scalar passes made dead.
///
/// The call graph, effect summaries, execution domains, dominator trees
/// and loop forests are cached between passes, `openmp-opt`'s sub-passes
/// included; each pass invalidates what it mutated, and the cleanup
/// pipeline, which does not track which bodies it rewrote, invalidates
/// everything when it changed anything (`docs/ARCHITECTURE.md` has the
/// table).
///
/// `Llvm12Baseline` and `CudaStyle` deliberately bypass the mid-end and
/// keep the legacy cleanup-only pipeline: the CUDA configuration is the
/// yardstick every ratio is measured against, and the LLVM 12 baseline
/// models a toolchain that predates these passes.
struct PassManager {
    cache: omp_passes::AnalysisCache,
    remarks: Vec<omp_opt::Remark>,
    cleanup: omp_passes::PipelineStats,
    timings: Vec<PassTiming>,
}

/// Running totals keyed by function name, kept in first-seen (module
/// layout) order; the index makes a lookup one hash, not a scan.
#[derive(Default)]
struct NamedTotals<T> {
    rows: Vec<(String, T)>,
    index: HashMap<String, usize>,
}

impl<T: Default> NamedTotals<T> {
    fn row(&mut self, name: String) -> &mut T {
        let at = *self.index.entry(name.clone()).or_insert_with(|| {
            self.rows.push((name, T::default()));
            self.rows.len() - 1
        });
        &mut self.rows[at].1
    }
}

/// Live IR size: defined functions, their blocks, and instructions.
#[derive(Debug, Clone, Copy)]
struct ModuleShape {
    funcs: usize,
    blocks: usize,
    insts: usize,
}

fn module_shape(m: &Module) -> ModuleShape {
    let mut s = ModuleShape {
        funcs: 0,
        blocks: 0,
        insts: 0,
    };
    for id in m.func_ids() {
        let f = m.func(id);
        if f.is_declaration() {
            continue;
        }
        s.funcs += 1;
        s.blocks += f.num_blocks();
        s.insts += f.num_insts();
    }
    s
}

impl PassManager {
    fn new() -> PassManager {
        PassManager {
            cache: omp_passes::AnalysisCache::new(),
            remarks: Vec::new(),
            cleanup: omp_passes::PipelineStats::default(),
            timings: Vec::new(),
        }
    }

    /// Records one run of a stage. Repeated runs of the same stage (the
    /// GVN → LICM → cleanup fixpoint rounds) merge into one entry: wall
    /// time and `runs` accumulate, the before-shape keeps the first
    /// observation and the after-shape the last.
    fn record(&mut self, pass: &str, t0: Instant, before: ModuleShape, after: ModuleShape) {
        omp_telemetry::record_completed(pass, "pass", t0);
        let nanos = t0.elapsed().as_nanos() as u64;
        match self.timings.iter_mut().find(|t| t.pass == pass) {
            Some(t) => {
                t.wall_nanos += nanos;
                t.runs += 1;
                t.insts_after = after.insts;
                t.blocks_after = after.blocks;
                t.funcs_after = after.funcs;
            }
            None => self.timings.push(PassTiming {
                pass: pass.to_string(),
                wall_nanos: nanos,
                runs: 1,
                insts_before: before.insts,
                insts_after: after.insts,
                blocks_before: before.blocks,
                blocks_after: after.blocks,
                funcs_before: before.funcs,
                funcs_after: after.funcs,
            }),
        }
    }

    /// Runs the full schedule, returning the report with the classic
    /// passes' remarks merged in.
    fn run(mut self, module: &mut Module, cfg: &omp_opt::OpenMpOptConfig) -> OptReport {
        let (before, t0) = (module_shape(module), Instant::now());
        self.inline_step(
            module,
            &omp_passes::InlineOptions::pre_openmp_opt(),
            "early",
        );
        self.record("early-inline", t0, before, module_shape(module));
        let (before, t0) = (module_shape(module), Instant::now());
        let mut report = omp_opt::run_with_cache(module, cfg, &mut self.cache);
        self.record("openmp-opt", t0, before, module_shape(module));
        let (before, t0) = (module_shape(module), Instant::now());
        self.inline_step(
            module,
            &omp_passes::InlineOptions::post_openmp_opt(),
            "late",
        );
        self.record("late-inline", t0, before, module_shape(module));
        self.cleanup_step(module);
        self.gvn_licm_steps(module);
        // Stage summaries as OMP230 analysis remarks. The message carries
        // run counts and IR deltas only — never wall time — so remark
        // streams stay deterministic run to run.
        {
            use omp_opt::remarks::{ids, passes};
            for t in &self.timings {
                self.remarks.push(
                    omp_opt::Remark::new(
                        ids::PASS_TIMING,
                        omp_opt::RemarkKind::Analysis,
                        "<module>",
                        format!(
                            "stage '{}' ran {}x: {} -> {} instructions, \
                             {} -> {} blocks, {} -> {} functions",
                            t.pass,
                            t.runs,
                            t.insts_before,
                            t.insts_after,
                            t.blocks_before,
                            t.blocks_after,
                            t.funcs_before,
                            t.funcs_after
                        ),
                    )
                    .in_pass(passes::PIPELINE)
                    .at(t.pass.clone()),
                );
            }
        }
        report.pass_timings = std::mem::take(&mut self.timings);
        for r in self.remarks {
            report.remarks.push(r);
        }
        report.cleanup += self.cleanup;
        report
    }

    fn inline_step(&mut self, module: &mut Module, opts: &omp_passes::InlineOptions, stage: &str) {
        use omp_opt::remarks::{actions, ids, passes};
        for d in omp_passes::inline::run(module, &mut self.cache, opts) {
            let r = if d.inlined {
                omp_opt::Remark::new(
                    ids::INLINED,
                    omp_opt::RemarkKind::Passed,
                    d.caller,
                    format!(
                        "inlined '{}' ({} instructions, {}, {} stage)",
                        d.callee, d.callee_insts, d.reason, stage
                    ),
                )
                .with_action(actions::INLINE)
                .with_bytes(d.callee_insts as u64)
            } else {
                omp_opt::Remark::new(
                    ids::INLINE_SKIPPED,
                    omp_opt::RemarkKind::Missed,
                    d.caller,
                    format!(
                        "kept call to '{}' ({} instructions, {}, {} stage)",
                        d.callee, d.callee_insts, d.reason, stage
                    ),
                )
                .with_action(actions::KEEP_CALL)
            };
            self.remarks.push(r.in_pass(passes::INLINE).at(d.callee));
        }
    }

    fn cleanup_step(&mut self, module: &mut Module) {
        let (before, t0) = (module_shape(module), Instant::now());
        let round = omp_passes::run_pipeline(module);
        if round.changed() {
            self.cache.invalidate_all();
        }
        self.cleanup += round;
        self.record("cleanup", t0, before, module_shape(module));
    }

    /// Iterates GVN → LICM → cleanup to a bounded fixpoint: forwarding
    /// loads kills stores, dead stores de-escape the allocas whose
    /// address they captured, and the next round forwards through the
    /// newly private memory. Per function, all rounds are reported as
    /// one GVN remark and one LICM remark.
    fn gvn_licm_steps(&mut self, module: &mut Module) {
        use omp_opt::remarks::{actions, ids, passes};
        // Per function over all rounds: [eliminated, forwarded, dead
        // stores] and hoisted.
        let mut gvn: NamedTotals<[usize; 3]> = NamedTotals::default();
        let mut licm: NamedTotals<usize> = NamedTotals::default();
        for _ in 0..6 {
            let mut changed = 0usize;
            let (before, t0) = (module_shape(module), Instant::now());
            for s in omp_passes::gvn::run(module, &mut self.cache) {
                let round = [s.eliminated, s.loads_forwarded, s.dead_stores];
                changed += round.iter().sum::<usize>();
                for (total, n) in gvn.row(s.function).iter_mut().zip(round) {
                    *total += n;
                }
            }
            self.record("gvn", t0, before, module_shape(module));
            let (before, t0) = (module_shape(module), Instant::now());
            for s in omp_passes::licm::run(module, &mut self.cache) {
                changed += s.hoisted;
                *licm.row(s.function) += s.hoisted;
            }
            self.record("licm", t0, before, module_shape(module));
            self.cleanup_step(module);
            if changed == 0 {
                break;
            }
        }
        for (function, [eliminated, forwarded, dead_stores]) in gvn.rows {
            self.remarks.push(
                omp_opt::Remark::new(
                    ids::CSE_ELIMINATED,
                    omp_opt::RemarkKind::Passed,
                    function,
                    format!(
                        "eliminated {eliminated} redundant instructions, \
                         forwarded {forwarded} loads, \
                         removed {dead_stores} dead stores"
                    ),
                )
                .in_pass(passes::GVN)
                .with_action(actions::CSE),
            );
        }
        for (function, hoisted) in licm.rows {
            self.remarks.push(
                omp_opt::Remark::new(
                    ids::LOOP_INVARIANT_HOISTED,
                    omp_opt::RemarkKind::Passed,
                    function,
                    format!("hoisted {hoisted} loop-invariant instructions"),
                )
                .in_pass(passes::LICM)
                .with_action(actions::HOIST),
            );
        }
    }
}

/// Optimizes and verifies a frontend module under `config`, returning
/// the final module and the optimizer's report (when the mid-end ran).
pub fn optimize(
    mut module: Module,
    config: BuildConfig,
) -> Result<(Module, Option<OptReport>), BuildError> {
    let _span = omp_telemetry::span_lazy("pipeline", || format!("optimize {}", config.cli_name()));
    let report = match config.opt_config() {
        Some(cfg) => Some(PassManager::new().run(&mut module, &cfg)),
        None => {
            omp_passes::run_pipeline(&mut module);
            None
        }
    };
    let errs = omp_ir::verifier::verify_module(&module);
    if !errs.is_empty() {
        let msgs: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
        return Err(BuildError::Verify(msgs.join("; ")));
    }
    Ok((module, report))
}

/// Compiles `source` under `config`, returning the optimized module and
/// the optimizer's report (when the OpenMP pass ran).
pub fn build(source: &str, config: BuildConfig) -> Result<(Module, Option<OptReport>), BuildError> {
    optimize(compile_frontend(source, config)?, config)
}

/// Folds an optimizer report into a metrics registry: per-pass run
/// counts and IR deltas. Every recorded value is deterministic — wall
/// time is deliberately excluded, so registries built from the same
/// source and configuration are bit-identical across `--jobs` and
/// tiers.
pub fn record_pipeline_metrics(report: &OptReport, reg: &mut omp_telemetry::MetricsRegistry) {
    for t in &report.pass_timings {
        let p = &t.pass;
        reg.counter_add(&format!("pipeline.pass.{p}.runs"), t.runs as u64);
        reg.counter_add(
            &format!("pipeline.pass.{p}.insts_removed"),
            t.insts_before.saturating_sub(t.insts_after) as u64,
        );
        reg.counter_add(
            &format!("pipeline.pass.{p}.insts_added"),
            t.insts_after.saturating_sub(t.insts_before) as u64,
        );
        reg.counter_add(
            &format!("pipeline.pass.{p}.blocks_removed"),
            t.blocks_before.saturating_sub(t.blocks_after) as u64,
        );
    }
    reg.counter_add("pipeline.remarks", report.remarks.len() as u64);
}

/// Renders the pass-timing table printed by `--time-passes`. Wall times
/// are host measurements and vary run to run; the IR deltas are
/// deterministic.
pub fn render_pass_timings(timings: &[PassTiming]) -> String {
    if timings.is_empty() {
        return "pass timings: (mid-end did not run for this configuration)\n".to_string();
    }
    let mut out = String::new();
    out.push_str("pass timings (wall time is host-side; IR deltas are before -> after):\n");
    out.push_str(&format!(
        "  {:<13} {:>10} {:>5}  {:>15}  {:>13}  {:>11}\n",
        "STAGE", "WALL", "RUNS", "INSTS", "BLOCKS", "FUNCS"
    ));
    for t in timings {
        out.push_str(&format!(
            "  {:<13} {:>10} {:>5}  {:>6} -> {:<6}  {:>5} -> {:<5}  {:>4} -> {:<4}\n",
            t.pass,
            format_nanos(t.wall_nanos),
            t.runs,
            t.insts_before,
            t.insts_after,
            t.blocks_before,
            t.blocks_after,
            t.funcs_before,
            t.funcs_after,
        ));
    }
    let total: u64 = timings.iter().map(|t| t.wall_nanos).sum();
    out.push_str(&format!(
        "  total mid-end wall time: {}\n",
        format_nanos(total)
    ));
    out
}

fn format_nanos(n: u64) -> String {
    if n >= 1_000_000_000 {
        format!("{:.3}s", n as f64 / 1e9)
    } else if n >= 1_000_000 {
        format!("{:.3}ms", n as f64 / 1e6)
    } else {
        format!("{:.1}us", n as f64 / 1e3)
    }
}

/// Serializes the outcomes of [`Mode::Sanitize`](crate::job::Mode) jobs
/// as one `ompgpu-sanitize/v1` document. A failed launch is an `error`
/// object; a subject that never launched (spec, build or staging
/// failure) a `setup_error` string.
pub fn sanitize_report_json(subject: &str, outcomes: &[Outcome]) -> String {
    let mut w = omp_json::JsonWriter::with_capacity(1024);
    w.begin_object();
    w.key("schema").string("ompgpu-sanitize/v1");
    w.key("subject").string(subject);
    w.key("clean").bool(outcomes.iter().all(Outcome::is_clean));
    w.key("configs").begin_array();
    for o in outcomes {
        w.begin_object();
        w.key("config").string(o.config.label());
        w.key("clean").bool(o.is_clean());
        match &o.result {
            Ok(_) => {}
            Err(JobError::Launch(e)) => {
                w.key("error").raw(&e.to_json());
            }
            Err(e) => {
                w.key("setup_error").string(&e.to_string());
            }
        }
        w.key("findings").begin_array();
        for f in o.findings() {
            f.write_json(&mut w);
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// The exit code of a sanitize report: findings outrank launch
/// failures, which outrank subjects that never launched.
pub fn sanitize_exit_code(outcomes: &[Outcome]) -> u8 {
    let any = |f: fn(&Outcome) -> bool| outcomes.iter().any(f);
    if any(|o| o.error_findings() > 0) {
        EXIT_FINDINGS
    } else if any(|o| matches!(o.result, Err(JobError::Launch(_)))) {
        EXIT_SIM
    } else if any(|o| o.result.is_err()) {
        EXIT_BUILD
    } else {
        EXIT_OK
    }
}
