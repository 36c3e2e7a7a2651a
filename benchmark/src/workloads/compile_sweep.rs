//! `compile_sweep`: `pipeline::build` over proxies, examples and two
//! generated translation units. No launch, so all time is frontend,
//! passes, openmp-opt, analysis and the IR verifier.

use super::fingerprint;
use crate::gen::{translation_unit, Rng};
use crate::harness::{timed_round, PassCounts, Round, SpanMap, Workload};
use crate::metrics::Values;
use omp_gpu::oracle::ORACLE_CONFIGS;
use omp_gpu::{pipeline, BuildConfig, Scale};
use omp_ir::printer::print_module;
use omp_ir::verifier::verify_module;
use omp_ir::Module;
use omp_opt::OptReport;
use std::time::Instant;

/// The `examples/omp` corpus, by name: a file added there later does not
/// silently change what this workload measures.
const EXAMPLES: [&str; 9] = [
    "guarded_stores.c",
    "local_array.c",
    "math_chain.c",
    "runtime_queries.c",
    "saxpy.c",
    "task_graph.c",
    "task_pipeline.c",
    "task_race.c",
    "team_shared.c",
];

/// Configurations the generated units are built under: the full
/// pipeline, the legacy globalization scheme with no mid-end, and the
/// mid-end with every OpenMP optimization off.
const GENERATED_CONFIGS: [BuildConfig; 3] = [
    BuildConfig::LlvmDev,
    BuildConfig::Llvm12Baseline,
    BuildConfig::NoOpenmpOpt,
];

/// The mid-end stages `OptReport::pass_timings` names, and the metric each
/// is summed into. A stage added later is not reported until it is listed
/// here and in the catalogue.
const STAGES: [(&str, &str); 6] = [
    ("early-inline", "pipeline.stage_ms.early-inline"),
    ("openmp-opt", "pipeline.stage_ms.openmp-opt"),
    ("late-inline", "pipeline.stage_ms.late-inline"),
    ("cleanup", "pipeline.stage_ms.cleanup"),
    ("gvn", "pipeline.stage_ms.gvn"),
    ("licm", "pipeline.stage_ms.licm"),
];

/// One `pipeline::build`.
struct Op {
    source: usize,
    /// `proxies`, `examples`, `gen_small` or `gen_large`: the suffix of
    /// the `pipeline.build_ms.*` metric the build is charged to.
    group: &'static str,
    config: BuildConfig,
    /// Hash of the printed IR the first pass produced; every later pass
    /// must print the same module.
    first_ir: Option<u64>,
}

pub struct CompileSweep {
    sources: Vec<String>,
    ops: Vec<Op>,
    corpus_hash: u64,
    /// Exact counts and stage times of the last pass.
    last: Values,
    /// What only the last traced pass knows: it alone sees the frontend's
    /// output and times each build.
    splits: Values,
}

impl CompileSweep {
    pub fn new(seed: u64) -> Result<CompileSweep, String> {
        let rng = Rng::new(seed);
        let mut units: Vec<(String, &'static str, &[BuildConfig])> = Vec::new();
        for app in omp_gpu::all_proxies(Scale::Bench) {
            units.push((app.openmp_source(), "proxies", &ORACLE_CONFIGS));
            units.push((app.cuda_source(), "proxies", &[BuildConfig::CudaStyle]));
        }
        for name in EXAMPLES {
            let path = format!("examples/omp/{name}");
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {path} (run from the repository root): {e}"))?;
            units.push((text, "examples", &ORACLE_CONFIGS));
        }
        let small = translation_unit(&mut rng.fork(1), "gs", 8);
        let large = translation_unit(&mut rng.fork(2), "gl", 128);
        let corpus_hash = omp_json::fnv1a((small.clone() + &large).as_bytes());
        units.push((small, "gen_small", &GENERATED_CONFIGS));
        units.push((large, "gen_large", &GENERATED_CONFIGS));

        let (mut sources, mut ops) = (Vec::new(), Vec::new());
        for (source, group, configs) in units {
            ops.extend(configs.iter().map(|&config| Op {
                source: sources.len(),
                group,
                config,
                first_ir: None,
            }));
            sources.push(source);
        }
        rng.fork(3).shuffle(&mut ops);
        Ok(CompileSweep {
            sources,
            ops,
            corpus_hash,
            last: Values::default(),
            splits: Values::default(),
        })
    }

    fn pass(&mut self) -> Result<PassCounts, String> {
        let traced = omp_telemetry::enabled();
        let (mut v, mut splits) = (Values::default(), Values::default());
        let (mut failed, mut source_bytes) = (0, 0);
        for op in &mut self.ops {
            let source = &self.sources[op.source];
            source_bytes += source.len() as u64;
            let started = Instant::now();
            let built = if traced {
                build_in_stages(source, op.config, &mut splits)
            } else {
                pipeline::build(source, op.config).map_err(|e| e.to_string())
            };
            let ok = match built {
                Ok((module, report)) => {
                    let errors = {
                        let _s = omp_telemetry::span("bench.ir.verify", "bench");
                        verify_module(&module)
                    };
                    let printed = {
                        let _s = omp_telemetry::span("bench.ir.print", "bench");
                        print_module(&module)
                    };
                    let ir = omp_json::fnv1a(printed.as_bytes());
                    count(&mut v, &module, report.as_ref());
                    errors.is_empty() && *op.first_ir.get_or_insert(ir) == ir
                }
                Err(_) => false,
            };
            failed += u64::from(!ok);
            if traced {
                splits.add(
                    &format!("pipeline.build_ms.{}", op.group),
                    started.elapsed().as_secs_f64() * 1e3,
                );
            }
        }
        let counts = PassCounts {
            ops: self.ops.len() as u64,
            failed,
            sim_cycles: 0,
            fingerprint: fingerprint(&[
                v.get("pipeline.ir_insts_out") as u64,
                v.get("openmp-opt.remarks") as u64,
                source_bytes,
            ]),
        };
        v.set("frontend.src_kb", source_bytes as f64 / 1024.0);
        self.last = v;
        if traced {
            self.splits = splits;
        }
        Ok(counts)
    }
}

/// `pipeline::build` taken apart at the layer boundaries it hides:
/// `build` is `optimize(compile(source))` and `compile` is
/// `lower_program(parse_program(source))`, so this does the same work
/// with a span around each layer's share.
fn build_in_stages(
    source: &str,
    config: BuildConfig,
    splits: &mut Values,
) -> Result<(Module, Option<OptReport>), String> {
    let program = {
        let _s = omp_telemetry::span("bench.frontend.parse", "bench");
        omp_frontend::parse_program(source).map_err(|e| e.to_string())?
    };
    let module = {
        let _s = omp_telemetry::span("bench.frontend.lower", "bench");
        omp_frontend::lower_program(&program, &config.frontend_options("bench"))
            .map_err(|e| e.to_string())?
    };
    splits.add("frontend.ir_insts", module.total_insts() as f64);
    let _s = omp_telemetry::span("bench.pipeline.optimize", "bench");
    pipeline::optimize(module, config).map_err(|e| e.to_string())
}

fn count(v: &mut Values, module: &Module, report: Option<&OptReport>) {
    v.add("pipeline.ir_insts_out", module.total_insts() as f64);
    let Some(report) = report else { return };
    let c = &report.counts;
    v.add("openmp-opt.applied.heap_to_stack", c.heap_to_stack as f64);
    v.add("openmp-opt.applied.heap_to_shared", c.heap_to_shared as f64);
    v.add("openmp-opt.applied.spmdized", c.spmdized as f64);
    v.add("openmp-opt.applied.csm_rewritten", c.csm_rewritten as f64);
    v.add(
        "openmp-opt.applied.folds",
        (c.folds_exec_mode + c.folds_parallel_level + c.folds_launch_params) as f64,
    );
    v.add("openmp-opt.remarks", report.remarks.len() as f64);
    for t in &report.pass_timings {
        if let Some((_, metric)) = STAGES.iter().find(|(stage, _)| *stage == t.pass) {
            v.add(metric, t.wall_nanos as f64 / 1e6);
        }
    }
}

impl Workload for CompileSweep {
    fn pass_span(&self) -> &'static str {
        "bench.compile_sweep.pass"
    }

    fn corpus_hash(&self) -> u64 {
        self.corpus_hash
    }

    fn round(&mut self, passes: usize) -> Result<Round, String> {
        timed_round(passes, self.pass_span(), || self.pass())
    }

    fn end_window(&mut self, out: &mut Values) -> Result<(), String> {
        out.merge(&self.last);
        out.merge(&self.splits);
        Ok(())
    }

    fn span_map(&self) -> SpanMap {
        SpanMap {
            per_pass: &[
                ("bench.frontend.parse", "frontend.parse_ms"),
                ("bench.frontend.lower", "frontend.lower_ms"),
                ("bench.pipeline.optimize", "pipeline.optimize_ms"),
                ("bench.ir.verify", "ir.verify_ms"),
                ("bench.ir.print", "ir.print_ms"),
            ],
            outside: &[],
            own_layers: &["frontend", "pipeline", "ir"],
        }
    }

    fn probe(&mut self, _out: &mut Values) -> Result<(), String> {
        Ok(())
    }

    fn derive(&self, _out: &mut Values) {}
}
