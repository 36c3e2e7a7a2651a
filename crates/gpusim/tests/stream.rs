//! Streams, launch plans, and task-graph capture-and-replay: the
//! determinism invariant (bit-identical outputs/stats across `--jobs`,
//! tiers, and eager-vs-replay), overlap in the cycle makespan, stream
//! assignment, and cross-kernel race detection on `depend` edges.

use omp_frontend::{compile, FrontendOptions};
use omp_gpusim::{
    Device, DeviceConfig, FaultPlan, FindingKind, LaunchDims, ProfileMode, RtVal, SanitizeMode,
    StatsSnapshot, Tier,
};

/// Producer/producer/consumer: the first two targets are independent
/// (`nowait`, disjoint `depend(out)`), the third waits on both.
const PIPELINE_SRC: &str = r#"
void pipeline(double* a, double* b, double* c, long n) {
  #pragma omp target teams distribute parallel for nowait num_teams(2) thread_limit(8) depend(out: a)
  for (long i = 0; i < n; i++) { a[i] = (double)i + 1.0; }
  #pragma omp target teams distribute parallel for nowait num_teams(2) thread_limit(8) depend(out: b)
  for (long i = 0; i < n; i++) { b[i] = (double)i * 2.0; }
  #pragma omp target teams distribute parallel for nowait num_teams(2) thread_limit(8) depend(in: a, b) depend(out: c)
  for (long i = 0; i < n; i++) { c[i] = a[i] + b[i]; }
}
"#;

/// The same pipeline inside a `taskgraph` capture-and-replay region.
const GRAPH_SRC: &str = r#"
void pipeline(double* a, double* b, double* c, long n) {
  #pragma omp taskgraph
  {
    #pragma omp target teams distribute parallel for nowait num_teams(2) thread_limit(8) depend(out: a)
    for (long i = 0; i < n; i++) { a[i] = (double)i + 1.0; }
    #pragma omp target teams distribute parallel for nowait num_teams(2) thread_limit(8) depend(out: b)
    for (long i = 0; i < n; i++) { b[i] = (double)i * 2.0; }
    #pragma omp target teams distribute parallel for nowait num_teams(2) thread_limit(8) depend(in: a, b) depend(out: c)
    for (long i = 0; i < n; i++) { c[i] = a[i] + b[i]; }
  }
}
"#;

/// Two unordered `nowait` targets writing the same buffer: a seeded
/// cross-kernel race for the sanitizer.
const RACY_SRC: &str = r#"
void racy(double* a, long n) {
  #pragma omp target teams distribute parallel for nowait num_teams(1) thread_limit(4)
  for (long i = 0; i < n; i++) { a[i] = 1.0; }
  #pragma omp target teams distribute parallel for nowait num_teams(1) thread_limit(4)
  for (long i = 0; i < n; i++) { a[i] = 2.0; }
}
"#;

/// The racy pair, ordered by a `depend(out)` chain — no race.
const ORDERED_SRC: &str = r#"
void ordered(double* a, long n) {
  #pragma omp target teams distribute parallel for nowait num_teams(1) thread_limit(4) depend(out: a)
  for (long i = 0; i < n; i++) { a[i] = 1.0; }
  #pragma omp target teams distribute parallel for nowait num_teams(1) thread_limit(4) depend(out: a)
  for (long i = 0; i < n; i++) { a[i] = 2.0; }
}
"#;

/// A four-node `nowait depend(inout)` chain, four teams per node. Node 0
/// allocates nothing; nodes 1 and 3 globalize one capture per
/// distribute iteration (no mid-end runs), so an allocation fault fails
/// the plan after node 0 committed. Node 2 runs the longest threads.
const FAULTY_CHAIN_SRC: &str = r#"
void chain(double* a, long n) {
  #pragma omp target teams distribute parallel for nowait depend(inout: a) num_teams(4) thread_limit(4)
  for (long i = 0; i < n; i++) { a[i] = a[i] + 1.0; }
  #pragma omp target teams distribute nowait depend(inout: a) num_teams(4) thread_limit(4)
  for (long b = 0; b < n / 4; b++) {
    double tv = (double)b;
    #pragma omp parallel for
    for (long t = 0; t < 4; t++) { a[b * 4 + t] = a[b * 4 + t] + tv; }
  }
  #pragma omp target teams distribute parallel for nowait depend(inout: a) num_teams(4) thread_limit(4)
  for (long i = 0; i < n; i++) {
    double s = a[i];
    for (long k = 0; k < 16; k++) { s = s * 0.5 + 1.0; }
    a[i] = s;
  }
  #pragma omp target teams distribute nowait depend(inout: a) num_teams(4) thread_limit(4)
  for (long b = 0; b < n / 4; b++) {
    double tv = (double)b;
    #pragma omp parallel for
    for (long t = 0; t < 4; t++) { a[b * 4 + t] = a[b * 4 + t] - tv; }
  }
}
"#;

const N: usize = 64;

fn compile_src(src: &str) -> omp_ir::Module {
    compile(src, &FrontendOptions::default()).expect("source compiles")
}

/// Runs the pipeline plan under one configuration and returns the
/// output buffer bits plus the stats snapshot.
fn run_pipeline(src: &str, jobs: u32, tier: Tier, replay: bool) -> (Vec<u64>, StatsSnapshot) {
    let module = compile_src(src);
    let mut dev = Device::new(&module, DeviceConfig::default()).unwrap();
    dev.set_jobs(jobs);
    dev.set_tier(tier);
    let a = dev.alloc_f64(&[0.0; N]).unwrap();
    let b = dev.alloc_f64(&[0.0; N]).unwrap();
    let c = dev.alloc_f64(&[0.0; N]).unwrap();
    let args = [
        RtVal::Ptr(a),
        RtVal::Ptr(b),
        RtVal::Ptr(c),
        RtVal::I64(N as i64),
    ];
    let stats = if replay {
        let graph = dev
            .capture_graph("pipeline", &args, LaunchDims::default())
            .unwrap();
        dev.replay_graph(&graph).unwrap()
    } else {
        dev.launch_plan("pipeline", &args, LaunchDims::default())
            .unwrap()
    };
    let out = dev.read_f64(c, N).unwrap();
    (out.iter().map(|v| v.to_bits()).collect(), stats.snapshot())
}

#[test]
fn multi_target_function_lowers_to_one_plan() {
    let module = compile_src(PIPELINE_SRC);
    assert_eq!(module.kernels.len(), 3);
    assert!(module
        .kernels
        .iter()
        .all(|k| k.source_name == "pipeline" && k.launch.nowait));
    let dev = Device::new(&module, DeviceConfig::default()).unwrap();
    let args = [RtVal::Ptr(0), RtVal::Ptr(0), RtVal::Ptr(0), RtVal::I64(0)];
    let plan = dev
        .resolve_plan("pipeline", &args, LaunchDims::default())
        .unwrap();
    assert_eq!(plan.num_nodes(), 3);
    // Producers are independent; the consumer waits for both.
    assert!(plan.nodes()[0].deps().is_empty());
    assert!(plan.nodes()[1].deps().is_empty());
    assert_eq!(plan.nodes()[2].deps(), &[0, 1]);
    // Independent producers land on distinct streams.
    assert_eq!(plan.num_streams(), 2);
    assert_ne!(plan.nodes()[0].stream(), plan.nodes()[1].stream());
}

#[test]
fn producer_consumer_plan_computes_and_overlaps() {
    let module = compile_src(PIPELINE_SRC);
    let mut dev = Device::new(&module, DeviceConfig::default()).unwrap();
    let a = dev.alloc_f64(&[0.0; N]).unwrap();
    let b = dev.alloc_f64(&[0.0; N]).unwrap();
    let c = dev.alloc_f64(&[0.0; N]).unwrap();
    let args = [
        RtVal::Ptr(a),
        RtVal::Ptr(b),
        RtVal::Ptr(c),
        RtVal::I64(N as i64),
    ];
    let stats = dev
        .launch_plan("pipeline", &args, LaunchDims::default())
        .unwrap();
    let out = dev.read_f64(c, N).unwrap();
    for (i, &v) in out.iter().enumerate() {
        assert_eq!(v, (i as f64 + 1.0) + i as f64 * 2.0, "c[{i}]");
    }
    // The plan ran all teams of all three nodes.
    assert_eq!(stats.team_cycles.len(), 6);
    // Overlap is modelled in the makespan: the two independent
    // producers run concurrently on disjoint SMs, so the plan is
    // strictly cheaper than the serialized sum of its nodes ...
    let node_cycles: Vec<u64> = (0..3)
        .map(|k| {
            let name = if k == 0 {
                "__omp_offloading_pipeline".to_string()
            } else {
                format!("__omp_offloading_pipeline.{k}")
            };
            let mut d2 = Device::new(&module, DeviceConfig::default()).unwrap();
            let a = d2.alloc_f64(&[0.0; N]).unwrap();
            let b = d2.alloc_f64(&[0.0; N]).unwrap();
            let c = d2.alloc_f64(&[0.0; N]).unwrap();
            d2.launch(
                &name,
                &[
                    RtVal::Ptr(a),
                    RtVal::Ptr(b),
                    RtVal::Ptr(c),
                    RtVal::I64(N as i64),
                ],
                LaunchDims::default(),
            )
            .unwrap()
            .cycles
        })
        .collect();
    let serial: u64 = node_cycles.iter().sum();
    assert!(stats.cycles < serial, "{} !< {serial}", stats.cycles);
    // ... but never cheaper than its critical path.
    assert!(stats.cycles >= node_cycles[0].max(node_cycles[1]) + node_cycles[2]);
}

#[test]
fn plan_is_bit_identical_across_jobs_tiers_and_replay() {
    let (out_base, snap_base) = run_pipeline(PIPELINE_SRC, 1, Tier::Interp, false);
    for (jobs, tier, replay) in [
        (4, Tier::Interp, false),
        (1, Tier::Interp, true),
        (4, Tier::Interp, true),
        (1, Tier::Compiled, false),
        (4, Tier::Compiled, true),
    ] {
        let (out, snap) = run_pipeline(PIPELINE_SRC, jobs, tier, replay);
        assert_eq!(
            out, out_base,
            "output @ jobs={jobs} tier={tier:?} replay={replay}"
        );
        // Tier-dependent fields are normalized for cross-tier
        // comparison; within one tier the snapshots are fully equal.
        let mut norm = snap.clone();
        norm.tier = snap_base.tier;
        norm.superinstructions = snap_base.superinstructions;
        assert_eq!(
            norm, snap_base,
            "stats @ jobs={jobs} tier={tier:?} replay={replay}"
        );
        if tier == Tier::Interp {
            assert_eq!(snap, snap_base);
        }
    }
}

#[test]
fn taskgraph_region_replays_bit_identically() {
    let module = compile_src(GRAPH_SRC);
    assert!(module.kernels.iter().all(|k| k.launch.graph == Some(0)));
    // The first in-graph node carries the region's entry fence.
    assert!(module.kernels[0].launch.wait_before);
    let (out_eager, snap_eager) = run_pipeline(GRAPH_SRC, 2, Tier::Compiled, false);
    let (out_replay, snap_replay) = run_pipeline(GRAPH_SRC, 2, Tier::Compiled, true);
    assert_eq!(out_eager, out_replay);
    assert_eq!(snap_eager, snap_replay);
    // Replaying the same captured graph repeatedly is idempotent.
    let mut dev = Device::new(&module, DeviceConfig::default()).unwrap();
    dev.set_jobs(2);
    let a = dev.alloc_f64(&[0.0; N]).unwrap();
    let b = dev.alloc_f64(&[0.0; N]).unwrap();
    let c = dev.alloc_f64(&[0.0; N]).unwrap();
    let args = [
        RtVal::Ptr(a),
        RtVal::Ptr(b),
        RtVal::Ptr(c),
        RtVal::I64(N as i64),
    ];
    let graph = dev
        .capture_graph("pipeline", &args, LaunchDims::default())
        .unwrap();
    let s1 = dev.replay_graph(&graph).unwrap().snapshot();
    let o1 = dev.read_f64(c, N).unwrap();
    let s2 = dev.replay_graph(&graph).unwrap().snapshot();
    let o2 = dev.read_f64(c, N).unwrap();
    assert_eq!(s1, s2);
    assert_eq!(o1, o2);
}

#[test]
fn single_node_plan_is_exactly_a_plain_launch() {
    let src = r#"
void fill(double* a, long n) {
  #pragma omp target teams distribute parallel for num_teams(2) thread_limit(8)
  for (long i = 0; i < n; i++) { a[i] = (double)i * 3.0; }
}
"#;
    let module = compile_src(src);
    let mut d1 = Device::new(&module, DeviceConfig::default()).unwrap();
    let a1 = d1.alloc_f64(&[0.0; N]).unwrap();
    let s1 = d1
        .launch(
            "fill",
            &[RtVal::Ptr(a1), RtVal::I64(N as i64)],
            LaunchDims::default(),
        )
        .unwrap();
    let mut d2 = Device::new(&module, DeviceConfig::default()).unwrap();
    let a2 = d2.alloc_f64(&[0.0; N]).unwrap();
    let s2 = d2
        .launch_plan(
            "fill",
            &[RtVal::Ptr(a2), RtVal::I64(N as i64)],
            LaunchDims::default(),
        )
        .unwrap();
    assert_eq!(s1.snapshot(), s2.snapshot());
    assert_eq!(d1.read_f64(a1, N).unwrap(), d2.read_f64(a2, N).unwrap());
    // A replayed single-node graph reports the same statistics too.
    let mut d3 = Device::new(&module, DeviceConfig::default()).unwrap();
    let a3 = d3.alloc_f64(&[0.0; N]).unwrap();
    let graph = d3
        .capture_graph(
            "fill",
            &[RtVal::Ptr(a3), RtVal::I64(N as i64)],
            LaunchDims::default(),
        )
        .unwrap();
    let s3 = d3.replay_graph(&graph).unwrap();
    assert_eq!(s3.snapshot(), s1.snapshot());
    assert_eq!(d3.read_f64(a3, N).unwrap(), d1.read_f64(a1, N).unwrap());
}

#[test]
fn sync_targets_serialize_onto_one_stream() {
    let src = r#"
void chain(double* a, long n) {
  #pragma omp target teams distribute parallel for num_teams(2) thread_limit(4)
  for (long i = 0; i < n; i++) { a[i] = 1.0; }
  #pragma omp target teams distribute parallel for num_teams(2) thread_limit(4)
  for (long i = 0; i < n; i++) { a[i] = a[i] + 1.0; }
}
"#;
    let module = compile_src(src);
    let mut dev = Device::new(&module, DeviceConfig::default()).unwrap();
    let a = dev.alloc_f64(&[0.0; N]).unwrap();
    let args = [RtVal::Ptr(a), RtVal::I64(N as i64)];
    let plan = dev
        .resolve_plan("chain", &args, LaunchDims::default())
        .unwrap();
    assert_eq!(plan.nodes()[1].deps(), &[0]);
    assert_eq!(plan.num_streams(), 1);
    dev.launch_plan("chain", &args, LaunchDims::default())
        .unwrap();
    assert!(dev.read_f64(a, N).unwrap().iter().all(|&v| v == 2.0));
}

#[test]
fn cross_kernel_race_is_detected_on_missing_depend_edge() {
    let module = compile_src(RACY_SRC);
    let mut dev = Device::new(&module, DeviceConfig::default()).unwrap();
    dev.set_sanitize(SanitizeMode::On);
    let a = dev.alloc_f64(&[0.0; N]).unwrap();
    let args = [RtVal::Ptr(a), RtVal::I64(N as i64)];
    let (_, findings) = dev
        .launch_plan_checked("racy", &args, LaunchDims::default())
        .unwrap();
    let races: Vec<_> = findings
        .iter()
        .filter(|f| f.kind == FindingKind::CrossKernelRace)
        .collect();
    assert_eq!(races.len(), 1);
    assert_eq!(races[0].kind.id(), 304);
    assert!(races[0].message.contains("no ordering edge"));
    // Execution stays sequential and deterministic despite the race:
    // the later node's writes win.
    assert!(dev.read_f64(a, N).unwrap().iter().all(|&v| v == 2.0));
    // The depend-ordered variant is clean.
    let module2 = compile_src(ORDERED_SRC);
    let mut dev3 = Device::new(&module2, DeviceConfig::default()).unwrap();
    dev3.set_sanitize(SanitizeMode::On);
    let a3 = dev3.alloc_f64(&[0.0; N]).unwrap();
    let (_, ordered_findings) = dev3
        .launch_plan_checked(
            "ordered",
            &[RtVal::Ptr(a3), RtVal::I64(N as i64)],
            LaunchDims::default(),
        )
        .unwrap();
    assert!(ordered_findings
        .iter()
        .all(|f| f.kind != FindingKind::CrossKernelRace));
}

#[test]
fn plan_profile_exposes_stream_tracks() {
    let module = compile_src(PIPELINE_SRC);
    let mut dev = Device::new(&module, DeviceConfig::default()).unwrap();
    dev.set_profile(ProfileMode::On);
    let a = dev.alloc_f64(&[0.0; N]).unwrap();
    let b = dev.alloc_f64(&[0.0; N]).unwrap();
    let c = dev.alloc_f64(&[0.0; N]).unwrap();
    let args = [
        RtVal::Ptr(a),
        RtVal::Ptr(b),
        RtVal::Ptr(c),
        RtVal::I64(N as i64),
    ];
    let (stats, profile) = dev
        .launch_plan_profiled("pipeline", &args, LaunchDims::default())
        .unwrap();
    let profile = profile.expect("profiling was enabled");
    assert_eq!(profile.streams.len(), 3);
    assert_eq!(profile.cycles, stats.cycles);
    // The consumer starts after both producers finish.
    let consumer = &profile.streams[2];
    assert!(profile.streams[..2].iter().all(|p| p.end <= consumer.start));
    let trace = profile.chrome_trace();
    assert!(trace.contains("\"stream 0\""));
    assert!(trace.contains("\"stream 1\""));
    assert!(trace.contains("\"cat\":\"stream\""));
    let json = profile.to_json();
    assert!(json.contains("\"streams\":["));
}

#[test]
fn superinstruction_counters_report_tier1_hits() {
    let src = r#"
void fill(double* a, long n) {
  #pragma omp target teams distribute parallel for num_teams(2) thread_limit(8)
  for (long i = 0; i < n; i++) { a[i] = a[i] + 1.0; }
}
"#;
    let module = compile_src(src);
    let mut dev = Device::new(&module, DeviceConfig::default()).unwrap();
    dev.set_tier(Tier::Compiled);
    let a = dev.alloc_f64(&[0.0; N]).unwrap();
    let stats = dev
        .launch(
            "fill",
            &[RtVal::Ptr(a), RtVal::I64(N as i64)],
            LaunchDims::default(),
        )
        .unwrap();
    let si = stats.snapshot().superinstructions;
    assert!(
        si.iter().sum::<u64>() > 0,
        "tier 1 executed no compiled steps at all: {si:?}"
    );
    assert!(si[1] > 0, "a[i] = a[i] + 1.0 should fuse load+bin+store");
    // The interpreter tier executes no compiled steps.
    let mut d0 = Device::new(&module, DeviceConfig::default()).unwrap();
    d0.set_tier(Tier::Interp);
    let a0 = d0.alloc_f64(&[0.0; N]).unwrap();
    let s0 = d0
        .launch(
            "fill",
            &[RtVal::Ptr(a0), RtVal::I64(N as i64)],
            LaunchDims::default(),
        )
        .unwrap();
    assert_eq!(s0.snapshot().superinstructions, [0; 4]);
}

/// Regression stress for the executor's phaser, through each of its
/// three callers: a replay, an eager plan and a single launch. With
/// short nodes and several workers, a fast worker can register for the
/// *next* phase while the current sealer is still waking waiters. An
/// early version consumed that registration and left the worker parked
/// forever; hammering launches makes such a missed wake a hang here
/// instead of a flake in the field.
#[test]
fn every_caller_survives_repeated_phaser_rendezvous() {
    let src = r#"
void chain(double* a, long n) {
  #pragma omp taskgraph
  {
    #pragma omp target teams distribute parallel for nowait num_teams(4) thread_limit(1) depend(inout: a)
    for (long i = 0; i < n; i++) { a[i] = a[i] + 1.0; }
    #pragma omp target teams distribute parallel for nowait num_teams(4) thread_limit(1) depend(inout: a)
    for (long i = 0; i < n; i++) { a[i] = a[i] * 2.0; }
    #pragma omp target teams distribute parallel for nowait num_teams(4) thread_limit(1) depend(inout: a)
    for (long i = 0; i < n; i++) { a[i] = a[i] - 0.5; }
    #pragma omp target teams distribute parallel for nowait num_teams(4) thread_limit(1) depend(inout: a)
    for (long i = 0; i < n; i++) { a[i] = a[i] + 3.0; }
  }
}
"#;
    let module = compile_src(src);
    let mut dev = Device::new(&module, DeviceConfig::default()).unwrap();
    dev.set_jobs(4);
    dev.set_tier(Tier::Compiled);
    let a = dev.alloc_f64(&[0.0; 4]).unwrap();
    let args = [RtVal::Ptr(a), RtVal::I64(4)];
    let dims = LaunchDims::default();
    let graph = dev.capture_graph("chain", &args, dims).unwrap();
    type Caller = fn(&mut Device, &omp_gpusim::CapturedGraph, &[RtVal]) -> StatsSnapshot;
    let callers: [(&str, Caller); 3] = [
        ("replay", |d, g, _| d.replay_graph(g).unwrap().snapshot()),
        ("eager plan", |d, _, args| {
            d.launch_plan("chain", args, LaunchDims::default())
                .unwrap()
                .snapshot()
        }),
        ("single launch", |d, _, args| {
            d.launch("__omp_offloading_chain", args, LaunchDims::default())
                .unwrap()
                .snapshot()
        }),
    ];
    for (what, call) in callers {
        let reference = call(&mut dev, &graph, &args);
        for _ in 0..400 {
            let stats = call(&mut dev, &graph, &args);
            assert_eq!(stats, reference, "{what} drifted between iterations");
        }
    }
}

/// Runs [`FAULTY_CHAIN_SRC`] under `fault`, eagerly or as a replay, and
/// returns the plan's error, the buffer it left behind, and the buffer
/// after the same device ran the plan again with the fault disarmed.
fn run_faulty_chain(fault: &FaultPlan, jobs: u32, replay: bool) -> (String, Vec<u64>, Vec<u64>) {
    let module = compile_src(FAULTY_CHAIN_SRC);
    let mut dev = Device::new(&module, DeviceConfig::default()).unwrap();
    dev.set_jobs(jobs);
    dev.set_fault_plan(fault.clone());
    let init: Vec<f64> = (0..N).map(|i| i as f64).collect();
    let a = dev.alloc_f64(&init).unwrap();
    let args = [RtVal::Ptr(a), RtVal::I64(N as i64)];
    let graph = dev
        .capture_graph("chain", &args, LaunchDims::default())
        .unwrap();
    let launch = |dev: &mut Device| match replay {
        true => dev.replay_graph(&graph),
        false => dev.launch_plan("chain", &args, LaunchDims::default()),
    };
    let bits = |dev: &mut Device| -> Vec<u64> {
        let out = dev.read_f64(a, N).unwrap();
        out.iter().map(|v| v.to_bits()).collect()
    };
    let err = launch(&mut dev).expect_err("the fault must fail the plan");
    let failed = bits(&mut dev);
    // Disarmed, the same device runs the whole plan: no parked worker,
    // no leaked launch state.
    dev.set_fault_plan(FaultPlan::default());
    launch(&mut dev).expect("a disarmed device launches cleanly");
    (err.to_string(), failed, bits(&mut dev))
}

/// A fault inside a plan fails it the same way for every executor: the
/// same error (the lowest failing team of the first failing node) and
/// the same committed bytes, eager or replayed, at every worker count.
/// `abort_team: Some(0)` fails the team the calling thread runs itself.
#[test]
fn faults_inside_plans_fail_alike_across_jobs_and_replay() {
    let init: Vec<u64> = (0..N).map(|i| (i as f64).to_bits()).collect();
    let faults = [
        FaultPlan {
            abort_team: Some(0),
            ..FaultPlan::default()
        },
        FaultPlan {
            abort_team: Some(1),
            ..FaultPlan::default()
        },
        FaultPlan {
            trap_at_inst: Some(600),
            ..FaultPlan::default()
        },
        FaultPlan {
            fail_alloc_after: Some(0),
            ..FaultPlan::default()
        },
    ];
    for fault in &faults {
        let reference = run_faulty_chain(fault, 1, false);
        for jobs in [1, 2, 3] {
            for replay in [false, true] {
                assert_eq!(
                    run_faulty_chain(fault, jobs, replay),
                    reference,
                    "{fault:?} @ jobs={jobs} replay={replay}"
                );
            }
        }
        // Aborts fail node 0, so nothing commits; the later faults land
        // after node 0 committed its writes.
        let committed = fault.abort_team.is_none();
        assert_eq!(reference.1 != init, committed, "{fault:?}: {}", reference.0);
    }
}
