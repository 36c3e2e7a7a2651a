//! Tests of the cycle-attribution profiler: zero observable effect when
//! off, exact accounting invariants when on, deterministic merges
//! across worker-thread counts, and well-formed trace artifacts.

use omp_frontend::{compile, FrontendOptions, GlobalizationScheme};
use omp_gpusim::{Device, DeviceConfig, Launch, LaunchDims, LaunchProfile, ProfileMode, RtVal};
use std::sync::Arc;

fn build(src: &str) -> Arc<omp_ir::Module> {
    let m = compile(src, &FrontendOptions::default()).unwrap();
    omp_ir::verifier::assert_valid(&m);
    Arc::new(m)
}

fn build_legacy(src: &str) -> Arc<omp_ir::Module> {
    let opts = FrontendOptions {
        globalization: GlobalizationScheme::Legacy,
        ..FrontendOptions::default()
    };
    let m = compile(src, &opts).unwrap();
    omp_ir::verifier::assert_valid(&m);
    Arc::new(m)
}

fn dims(teams: u32, threads: u32) -> LaunchDims {
    LaunchDims {
        teams: Some(teams),
        threads: Some(threads),
    }
}

/// A generic-mode kernel: worker state machine, parallel-region
/// dispatch, barriers, and runtime queries all exercise the profiler.
const GENERIC_SRC: &str = r#"
void work(double* a, double* b, long n) {
  #pragma omp target teams
  {
    #pragma omp parallel
    {
      long me = (long)omp_get_thread_num();
      long nt = (long)omp_get_num_threads();
      for (long i = me; i < n; i += nt) {
        a[i] = a[i] * 2.0 + b[i];
      }
    }
  }
}
"#;

/// Launches `GENERIC_SRC` on a fresh device and returns what the caller
/// wants to compare.
fn launch_generic(
    m: &Arc<omp_ir::Module>,
    mode: ProfileMode,
    jobs: u32,
) -> (omp_gpusim::KernelStats, Option<LaunchProfile>, Vec<f64>) {
    let mut dev = Device::new(
        Arc::clone(m),
        DeviceConfig {
            num_sms: 4,
            ..DeviceConfig::default()
        },
    )
    .unwrap();
    dev.set_profile(mode);
    dev.set_jobs(jobs);
    let n = 64usize;
    let a: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let b: Vec<f64> = (0..n).map(|i| (i * 3) as f64).collect();
    let ab = dev.alloc_f64(&a).unwrap();
    let bb = dev.alloc_f64(&b).unwrap();
    let Launch { stats, profile, .. } = dev
        .launch(
            "work",
            &[RtVal::Ptr(ab), RtVal::Ptr(bb), RtVal::I64(n as i64)],
            dims(6, 8),
        )
        .unwrap();
    let out = dev.read_f64(ab, n).unwrap();
    (stats, profile, out)
}

#[test]
fn profile_off_leaves_stats_and_results_identical() {
    let m = build(GENERIC_SRC);
    let (off_stats, off_profile, off_out) = launch_generic(&m, ProfileMode::Off, 1);
    let (on_stats, on_profile, on_out) = launch_generic(&m, ProfileMode::On, 1);
    assert!(off_profile.is_none(), "Off must not produce a profile");
    assert!(on_profile.is_some(), "On must produce a profile");
    assert_eq!(off_out, on_out, "profiling must not change results");
    // The profiler observes the tier that was asked for: the same
    // superinstruction counters, nothing normalised.
    assert!(on_stats.snapshot().superinstructions.iter().any(|&n| n > 0));
    assert_eq!(
        off_stats.snapshot(),
        on_stats.snapshot(),
        "profiling must not change statistics"
    );
    assert_eq!(off_stats.team_cycles, on_stats.team_cycles);
    assert_eq!(off_stats.coalesced_accesses, on_stats.coalesced_accesses);
    assert_eq!(
        off_stats.uncoalesced_accesses,
        on_stats.uncoalesced_accesses
    );
}

#[test]
fn accounting_invariants_hold() {
    let m = build(GENERIC_SRC);
    let (stats, profile, _) = launch_generic(&m, ProfileMode::On, 1);
    let p = profile.unwrap();

    // Every thread-cycle is attributed exactly once: to a function's
    // exclusive cycles (a charge) or its stall cycles (a barrier/join
    // alignment) — and, independently, to exactly one instruction class.
    let excl: u64 = p.functions.iter().map(|f| f.exclusive_cycles).sum();
    let stall: u64 = p.functions.iter().map(|f| f.stall_cycles).sum();
    let class_sum: u64 = p.class_cycles.iter().sum();
    assert_eq!(excl + stall, p.total_thread_cycles);
    assert_eq!(class_sum, p.total_thread_cycles);
    assert!(p.total_thread_cycles > 0);

    // The "runtime" class is exactly the per-entry-point cycle table.
    let runtime_class = p.class_cycles[omp_gpusim::profile::CLASS_NAMES
        .iter()
        .position(|&n| n == "runtime")
        .unwrap()];
    let rtl_sum: u64 = p.rtl.iter().map(|r| r.cycles).sum();
    assert_eq!(runtime_class, rtl_sum);

    // Inclusive covers exclusive + stall per function; the kernel entry
    // is on every stack for every cycle.
    for f in &p.functions {
        assert!(
            f.inclusive_cycles >= f.exclusive_cycles + f.stall_cycles,
            "{}: inclusive {} < exclusive {} + stall {}",
            f.name,
            f.inclusive_cycles,
            f.exclusive_cycles,
            f.stall_cycles
        );
    }
    let kernel_row = p
        .functions
        .iter()
        .find(|f| f.name.contains("__omp_offloading"))
        .expect("kernel entry profiled");
    assert_eq!(kernel_row.inclusive_cycles, p.total_thread_cycles);

    // Event counts line up with the statistics counters.
    let barrier_events: usize = p.teams.iter().map(|t| t.barriers.len()).sum();
    assert_eq!(barrier_events as u64, stats.barriers);
    let coal: u64 = p.functions.iter().map(|f| f.coalesced_accesses).sum();
    let uncoal: u64 = p.functions.iter().map(|f| f.uncoalesced_accesses).sum();
    assert_eq!(coal, stats.coalesced_accesses);
    assert_eq!(uncoal, stats.uncoalesced_accesses);

    // Generic-mode dispatch ran parallel regions, and they were tracked.
    assert!(stats.parallel_regions > 0);
    assert!(p.teams.iter().any(|t| !t.regions.is_empty()));
    assert_eq!(p.cycles, stats.cycles);
}

#[test]
fn globalization_allocs_are_tracked() {
    // Legacy globalization shares a per-thread slot through the runtime
    // stack, producing globalization allocations.
    let m = build_legacy(
        r#"
void share(long* out, long n) {
  #pragma omp target teams
  {
    long x = 7;
    #pragma omp parallel
    {
      long me = (long)omp_get_thread_num();
      out[me] = x + me;
    }
  }
}
"#,
    );
    let mut dev = Device::new(Arc::clone(&m), DeviceConfig::default()).unwrap();
    dev.set_profile(ProfileMode::On);
    let out = dev.alloc_i64(&[0; 8]).unwrap();
    let Launch { stats, profile, .. } = dev
        .launch("share", &[RtVal::Ptr(out), RtVal::I64(8)], dims(2, 4))
        .unwrap();
    let p = profile.unwrap();
    assert!(stats.globalization_allocs > 0, "legacy scheme globalizes");
    let alloc_events: usize = p.teams.iter().map(|t| t.allocs.len()).sum();
    assert_eq!(alloc_events as u64, stats.globalization_allocs);
    assert!(p
        .teams
        .iter()
        .flat_map(|t| &t.allocs)
        .all(|&(_, bytes)| bytes > 0));
}

#[test]
fn team_tracks_are_monotone_and_bounded() {
    let m = build(GENERIC_SRC);
    let (stats, profile, _) = launch_generic(&m, ProfileMode::On, 1);
    let p = profile.unwrap();
    assert_eq!(p.teams.len(), stats.team_cycles.len());
    // Per SM: teams run back-to-back in team-id order, never overlapping.
    let mut sm_cursor = vec![0u64; p.num_sms as usize];
    for (i, t) in p.teams.iter().enumerate() {
        assert_eq!(t.team as usize, i);
        assert_eq!(t.sm, (i as u32) % p.num_sms);
        assert_eq!(
            t.start, sm_cursor[t.sm as usize],
            "team {i} must start where its SM left off"
        );
        assert!(t.end >= t.start);
        assert_eq!(t.end - t.start, stats.team_cycles[i]);
        sm_cursor[t.sm as usize] = t.end;
        for r in &t.regions {
            assert!(r.start >= t.start && r.end <= t.end && r.start <= r.end);
        }
        for &b in &t.barriers {
            assert!(b >= t.start && b <= t.end);
        }
        for &(c, _) in &t.allocs {
            assert!(c >= t.start && c <= t.end);
        }
    }
    assert_eq!(sm_cursor.iter().max().copied().unwrap_or(0), stats.cycles);
}

#[test]
fn profiles_are_bit_identical_across_jobs() {
    let m = build(GENERIC_SRC);
    let (stats1, p1, out1) = launch_generic(&m, ProfileMode::On, 1);
    let (stats4, p4, out4) = launch_generic(&m, ProfileMode::On, 4);
    let (p1, p4) = (p1.unwrap(), p4.unwrap());
    assert_eq!(out1, out4);
    assert_eq!(stats1.snapshot(), stats4.snapshot());
    assert_eq!(p1, p4, "profile must not depend on host parallelism");
    assert_eq!(p1.to_json(), p4.to_json());
    assert_eq!(p1.chrome_trace(), p4.chrome_trace());
}

#[test]
fn artifacts_are_valid_json() {
    let m = build(GENERIC_SRC);
    let (_, profile, _) = launch_generic(&m, ProfileMode::On, 2);
    let p = profile.unwrap();
    let json = p.to_json();
    omp_json::validate(&json).expect("profile JSON must validate");
    assert!(json.starts_with("{\"schema\":\"ompgpu-profile/v1\""));
    let trace = p.chrome_trace();
    omp_json::validate(&trace).expect("chrome trace must validate");
    assert!(trace.contains("\"traceEvents\""));
    // Every SM with a team gets a named track, every team a span.
    for t in &p.teams {
        assert!(trace.contains(&format!("\"name\":\"team {}\"", t.team)));
    }
    assert!(trace.contains("\"name\":\"SM 0\""));
}

#[test]
fn hot_functions_rank_by_exclusive_cycles() {
    let m = build(GENERIC_SRC);
    let (_, profile, _) = launch_generic(&m, ProfileMode::On, 1);
    let p = profile.unwrap();
    let hot = p.hot_functions();
    assert!(!hot.is_empty());
    for w in hot.windows(2) {
        assert!(
            w[0].exclusive_cycles > w[1].exclusive_cycles
                || (w[0].exclusive_cycles == w[1].exclusive_cycles && w[0].name <= w[1].name)
        );
    }
}
