//! Module-scale properties of the optimizer: what a translation unit of
//! many kernels must have in common with its kernels compiled one at a
//! time, and what must not grow with the number of kernels.
//!
//! `openmp-opt` shares one set of module-wide analyses (call graph,
//! effect summaries, execution domains) across all kernels of a unit. A
//! summary that goes stale between two kernels, or an analysis rebuilt
//! per kernel, shows up here first.

mod common;

use common::{cycling_unit, unit_of};
use omp_gpu::{pipeline, BuildConfig};
use omp_opt::OptCounts;
use proptest::prelude::*;

const CONFIGS: [BuildConfig; 2] = [BuildConfig::LlvmDev, BuildConfig::NoOpenmpOpt];

fn counts(source: &str, config: BuildConfig) -> OptCounts {
    let (_, report) = pipeline::build(source, config).unwrap_or_else(|e| panic!("{e}"));
    report.expect("the mid-end ran").counts
}

fn sum(a: OptCounts, b: OptCounts) -> OptCounts {
    OptCounts {
        internalized: a.internalized + b.internalized,
        heap_to_stack: a.heap_to_stack + b.heap_to_stack,
        heap_to_shared: a.heap_to_shared + b.heap_to_shared,
        spmdized: a.spmdized + b.spmdized,
        csm_possible: a.csm_possible + b.csm_possible,
        csm_rewritten: a.csm_rewritten + b.csm_rewritten,
        csm_with_fallback: a.csm_with_fallback + b.csm_with_fallback,
        folds_exec_mode: a.folds_exec_mode + b.folds_exec_mode,
        folds_parallel_level: a.folds_parallel_level + b.folds_parallel_level,
        folds_launch_params: a.folds_launch_params + b.folds_launch_params,
        guard_regions: a.guard_regions + b.guard_regions,
        broadcasts: a.broadcasts + b.broadcasts,
    }
}

/// The kernels of these units share nothing, so optimizing them together
/// must do to each exactly what optimizing it alone does.
fn assert_kernels_are_independent(shapes: &[usize]) {
    for config in CONFIGS {
        let alone = shapes
            .iter()
            .map(|&shape| counts(&unit_of(&[shape]), config))
            .fold(OptCounts::default(), sum);
        assert_eq!(
            counts(&unit_of(shapes), config),
            alone,
            "{} over shapes {shapes:?}",
            config.cli_name()
        );
    }
}

#[test]
fn unit_counts_are_the_sum_of_its_kernels_compiled_alone() {
    let shapes: Vec<usize> = (0..16).map(|n| n % 4).collect();
    assert_kernels_are_independent(&shapes);
    // Not vacuous: the unit exercises every counter family the four
    // shapes reach.
    let c = counts(&cycling_unit(16), BuildConfig::LlvmDev);
    assert_eq!(
        (c.spmdized, c.guard_regions, c.folds_exec_mode),
        (12, 4, 16)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn any_shape_sequence_optimizes_kernel_by_kernel(
        shapes in prop::collection::vec(0usize..4, 1..9),
    ) {
        assert_kernels_are_independent(&shapes);
    }
}

/// The tier-1 scaling gate: the number of module-wide analyses built
/// inside `openmp-opt` is a constant of the pipeline, not a function of
/// how many kernels the unit has. Counts, not wall time.
#[test]
fn analysis_builds_inside_openmp_opt_do_not_scale_with_kernel_count() {
    let builds = |kernels: usize| {
        let config = BuildConfig::LlvmDev;
        let mut module = pipeline::compile_frontend(&cycling_unit(kernels), config).unwrap();
        let mut cache = omp_passes::AnalysisCache::new();
        let opt = config.opt_config().expect("dev runs openmp-opt");
        let report = omp_opt::run_with_cache(&mut module, &opt, &mut cache);
        assert_eq!(report.counts.spmdized, kernels / 4 * 3);
        // openmp-opt asks for module-wide analyses only, so every build
        // the cache counted is one of those.
        cache.computed
    };
    let (small, large) = (builds(8), builds(64));
    assert_eq!(small, large, "analysis builds at 8 vs 64 kernels");
    assert!(small > 0, "openmp-opt built its analyses through the cache");
}

/// Two generic kernels whose parallel regions meet in one module
/// (`tests/fixtures/multi_kernel/shared_region.c`): the custom state
/// machine numbers regions module-wide, so each kernel dispatches its
/// own regions under every configuration and on both tiers.
#[test]
fn kernels_sharing_a_region_dispatch_their_own() {
    use omp_gpu::job::Buffer;
    use omp_gpu::oracle::{ArgSpec, BufInit, ORACLE_CONFIGS};
    use omp_gpu::{Job, Knobs, LaunchDims, Readback, Store, Subject, Tier};

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/multi_kernel/shared_region.c"
    );
    let source = std::fs::read_to_string(path).unwrap();
    let args = [
        ArgSpec::BufF64(16, BufInit::Zero),
        ArgSpec::I64(2),
        ArgSpec::I64(8),
    ];
    let mut store = Store::new(0);
    for config in ORACLE_CONFIGS {
        for tier in [Tier::Interp, Tier::Compiled] {
            for (kernel, expect) in [("ka", 101.0), ("kb", 108.0)] {
                let job = Job {
                    readback: Readback::All,
                    knobs: Knobs {
                        tier: Some(tier),
                        ..Knobs::default()
                    },
                    ..Job::new(
                        Subject::Source {
                            source: &source,
                            kernel,
                            dims: LaunchDims {
                                teams: Some(2),
                                threads: Some(8),
                            },
                            args: &args,
                        },
                        config,
                    )
                };
                let at = format!("{kernel} under {} on {tier:?}", config.cli_name());
                let r = job
                    .run(&mut store)
                    .unwrap_or_else(|e| panic!("{at}: {e:?}"));
                assert_eq!(r.buffers, [Buffer::F64(vec![expect; 16])], "{at}");
                let mut ids: Vec<i64> = r
                    .built
                    .module
                    .parallel_region_ids
                    .iter()
                    .map(|&(id, _)| id)
                    .collect();
                let n = ids.len();
                ids.dedup();
                assert_eq!(ids, (1..=n as i64).collect::<Vec<_>>(), "{at}");
            }
        }
    }
}
