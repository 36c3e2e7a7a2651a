//! Device reuse: after [`Device::reset`], a warmed device must be
//! byte-identical to a freshly constructed one — same buffer addresses,
//! same outputs, same statistics, and the same bytes everywhere in the
//! global arena (reset clears only the extent that was written, so a
//! write it lost track of would survive as a stale byte). The serve
//! session's warm-device LRU depends on exactly this invariant.

use omp_frontend::{compile, FrontendOptions};
use omp_gpusim::mem::global_addr;
use omp_gpusim::{Device, DeviceConfig, LaunchDims, OwnedDevice, RtVal, StatsSnapshot};
use proptest::prelude::*;
use std::sync::Arc;

/// Uses a module-level global (init data) plus globalized captures, so
/// reset has real state to restore.
const SRC: &str = r#"
void scale_add(double* a, double f, long n) {
  #pragma omp target teams distribute
  for (long b = 0; b < n / 4; b++) {
    double base = f * (double)b;
    #pragma omp parallel for
    for (long t = 0; t < 4; t++) {
      a[b * 4 + t] = base + (double)t;
    }
  }
}
"#;

fn run_once(dev: &mut Device) -> (u64, Vec<f64>, StatsSnapshot) {
    let buf = dev.alloc_f64(&[1.5; 64]).unwrap();
    let stats = dev
        .launch(
            "scale_add",
            &[RtVal::Ptr(buf), RtVal::F64(3.0), RtVal::I64(64)],
            LaunchDims {
                teams: Some(4),
                threads: Some(4),
            },
        )
        .unwrap();
    let out = dev.read_f64(buf, 64).unwrap();
    (buf, out, stats.snapshot())
}

#[test]
fn reset_restores_fresh_device_state() {
    let module = compile(SRC, &FrontendOptions::default()).unwrap();
    let mut fresh = Device::new(&module, DeviceConfig::default()).unwrap();
    let cold = run_once(&mut fresh);

    let mut reused = Device::new(&module, DeviceConfig::default()).unwrap();
    // Dirty the device: extra allocations shift the bump cursor, a
    // launch leaves high-water marks and global-memory contents behind.
    let _scratch = reused.alloc_f64(&[9.0; 128]).unwrap();
    let _ = run_once(&mut reused);
    reused.reset();
    let warm = run_once(&mut reused);

    assert_eq!(cold.0, warm.0, "buffer addresses must match after reset");
    assert_eq!(
        cold.1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        warm.1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "outputs must be bit-identical after reset"
    );
    assert_eq!(cold.2, warm.2, "stats snapshots must match after reset");
    assert_eq!(
        cold.2.to_json(),
        warm.2.to_json(),
        "serialized stats must be byte-identical after reset"
    );
}

#[test]
fn reset_applies_to_owned_devices_too() {
    let module = Arc::new(compile(SRC, &FrontendOptions::default()).unwrap());
    let mut owned = OwnedDevice::new(Arc::clone(&module), DeviceConfig::default()).unwrap();
    let first = owned.with(run_once);
    owned.with(|d| d.reset());
    let second = owned.with(run_once);
    assert_eq!(first.0, second.0);
    assert_eq!(first.2, second.2);
    assert_eq!(
        first.1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        second.1.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    );
}

/// A two-node `nowait` chain over one buffer: a multi-node plan, which
/// commits through the stream executor's merge, not `Device::launch`'s.
const CHAIN_SRC: &str = r#"
void chain(double* a, long n) {
  #pragma omp target teams distribute parallel for nowait depend(inout: a) num_teams(2) thread_limit(8)
  for (long i = 0; i < n; i++) { a[i] = a[i] + 1.0; }
  #pragma omp target teams distribute parallel for nowait depend(inout: a) num_teams(2) thread_limit(8)
  for (long i = 0; i < n; i++) { a[i] = a[i] * 2.0; }
}
"#;

/// `scale_add` and `chain` in one module, plus an initialized
/// global-space global (placed at arena offset 0) so a fresh arena is
/// not all zeros and reset has an initializer to re-apply.
fn arena_module() -> omp_ir::Module {
    let mut m = compile(&format!("{SRC}{CHAIN_SRC}"), &FrontendOptions::default()).unwrap();
    m.add_global(omp_ir::Global {
        name: "seed".into(),
        size: 16,
        align: 8,
        space: omp_ir::AddrSpace::Global,
        init: Some((1..=16).collect()),
        is_const: false,
    });
    m
}

/// Every byte of `[0, global_mem_bytes + global_heap_bytes)`.
fn arena(dev: &mut Device) -> Vec<i64> {
    let cfg = dev.config();
    let words = (cfg.global_mem_bytes + cfg.global_heap_bytes) / 8;
    dev.read_i64(global_addr(0), words as usize).unwrap()
}

/// What a freshly constructed device looks like: its whole arena and
/// the address its first allocation gets.
struct Fresh {
    arena: Vec<i64>,
    first_alloc: u64,
}

impl Fresh {
    fn of(module: &omp_ir::Module, cfg: DeviceConfig) -> Fresh {
        let mut dev = Device::new(module, cfg).unwrap();
        Fresh {
            arena: arena(&mut dev),
            first_alloc: dev.alloc(8).unwrap(),
        }
    }

    /// Resets `dev` and checks it against the fresh device.
    fn check_reset(&self, dev: &mut Device, after: &str) {
        dev.reset();
        let got = arena(dev);
        if got != self.arena {
            let at = (0..got.len()).find(|&i| got[i] != self.arena[i]).unwrap();
            panic!(
                "after {after}: stale arena word at byte {}: {:#x}, fresh device has {:#x}",
                at * 8,
                got[at],
                self.arena[at]
            );
        }
        assert_eq!(dev.alloc(8).unwrap(), self.first_alloc, "after {after}");
        dev.reset();
    }
}

fn scale_add_at(dev: &mut Device, ptr: u64, teams: u32) -> Result<(), omp_gpusim::SimError> {
    dev.launch(
        "scale_add",
        &[RtVal::Ptr(ptr), RtVal::F64(3.0), RtVal::I64(64)],
        LaunchDims {
            teams: Some(teams),
            threads: Some(4),
        },
    )
    .map(|_| ())
}

#[test]
fn reset_restores_the_whole_arena() {
    let module = arena_module();
    let cfg = DeviceConfig::default();
    let heap_base = cfg.global_mem_bytes;
    let arena_end = cfg.global_mem_bytes + cfg.global_heap_bytes;
    let max_insts = cfg.max_insts_per_thread;

    let fresh = Fresh::of(&module, cfg.clone());
    assert_eq!(fresh.arena[0].to_le_bytes(), [1, 2, 3, 4, 5, 6, 7, 8]);

    // One device through every scenario: a byte any reset misses also
    // fails every later check.
    let mut dev = Device::new(&module, cfg).unwrap();
    let dev = &mut dev;

    dev.write_f64(global_addr(heap_base - 8), &[f64::MAX])
        .unwrap();
    fresh.check_reset(dev, "a host write just below heap_base");

    dev.write_f64(global_addr(heap_base), &[f64::MAX]).unwrap();
    dev.write_f64(global_addr(arena_end - 8), &[f64::MAX])
        .unwrap();
    fresh.check_reset(dev, "host writes into the heap region");

    dev.write_f64(global_addr(0), &[f64::MAX, f64::MAX])
        .unwrap();
    fresh.check_reset(dev, "a host write over a global's initializer");

    // A kernel storing through a pointer nobody allocated, far above
    // the bump cursor: the last 64 doubles below the heap.
    let wild = global_addr(heap_base - 64 * 8);
    scale_add_at(dev, wild, 4).unwrap();
    assert_eq!(dev.read_f64(wild, 64).unwrap()[63], 3.0 * 15.0 + 3.0);
    fresh.check_reset(dev, "a kernel store far above the cursor");

    let buf = dev.alloc_f64(&[1.5; 64]).unwrap();
    dev.set_max_insts(10);
    scale_add_at(dev, buf, 4).unwrap_err();
    dev.set_max_insts(max_insts);
    scale_add_at(dev, buf, 4).unwrap();
    fresh.check_reset(dev, "a failed then a successful launch");

    let dims = LaunchDims::default();
    let buf = dev.alloc_f64(&[1.5; 64]).unwrap();
    let args = [RtVal::Ptr(buf), RtVal::I64(64)];
    dev.launch_plan("chain", &args, dims).unwrap();
    assert_eq!(dev.read_f64(buf, 64).unwrap(), vec![5.0; 64]);
    fresh.check_reset(dev, "a multi-node launch_plan");

    let buf = dev.alloc_f64(&[1.5; 64]).unwrap();
    let args = [RtVal::Ptr(buf), RtVal::I64(64)];
    let graph = dev.capture_graph("chain", &args, dims).unwrap();
    assert_eq!(graph.plan().num_nodes(), 2);
    dev.replay_graph(&graph).unwrap();
    dev.replay_graph(&graph).unwrap();
    assert_eq!(dev.read_f64(buf, 64).unwrap(), vec![12.0; 64]);
    fresh.check_reset(dev, "two graph replays");

    dev.reset();
    fresh.check_reset(dev, "two consecutive resets");
}

/// Reset shows up in a trace as its own span, nested under whatever
/// span the caller has open (`serve.<op>` in the daemon).
#[test]
fn reset_opens_a_span_under_the_callers() {
    let module = arena_module();
    let mut dev = Device::new(&module, small_cfg()).unwrap();
    omp_telemetry::set_enabled(true);
    {
        let _request = omp_telemetry::span("reset-test-request", "test");
        dev.reset();
    }
    omp_telemetry::set_enabled(false);
    // Tests on other threads may have traced resets of their own while
    // the tracer was on; ours is the one under our request span.
    let spans = omp_telemetry::take_spans();
    let request = spans
        .iter()
        .find(|s| s.name == "reset-test-request")
        .expect("request span recorded");
    assert!(spans
        .iter()
        .any(|s| s.name == "device.reset" && s.cat == "gpusim" && s.parent == request.id));
}

/// One step of a random device history.
#[derive(Debug, Clone)]
enum Op {
    /// Allocate and fill a buffer of this many doubles.
    Alloc(usize),
    /// Host-write one double at this arena word (heap region included).
    Write(u64),
    /// `scale_add` over 64 doubles starting at this arena word; `true`
    /// fails the launch part-way (instruction budget 10).
    Launch(u64, bool),
    /// The two-node `chain`, eager or captured and replayed, over 64
    /// doubles starting at this arena word.
    Chain(u64, bool),
    Reset,
}

/// A small arena keeps whole-arena comparisons cheap, and no shared
/// memory sends every globalized variable to the heap region, whose
/// stores must never survive a launch.
fn small_cfg() -> DeviceConfig {
    DeviceConfig {
        global_mem_bytes: 256 << 10,
        global_heap_bytes: 64 << 10,
        shared_mem_per_team: 0,
        ..DeviceConfig::default()
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let cfg = small_cfg();
    let arena_words = (cfg.global_mem_bytes + cfg.global_heap_bytes) / 8;
    // Launch targets stay below the heap so the kernels succeed.
    let target_words = cfg.global_mem_bytes / 8 - 64;
    prop_oneof![
        (1usize..600).prop_map(Op::Alloc),
        (0..arena_words).prop_map(Op::Write),
        (0..target_words, any::<bool>()).prop_map(|(w, fail)| Op::Launch(w, fail)),
        (0..target_words, any::<bool>()).prop_map(|(w, replay)| Op::Chain(w, replay)),
        Just(Op::Reset),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever a device has been through, a reset leaves its arena and
    /// bump cursor equal to a fresh device's.
    #[test]
    fn reset_after_any_history_matches_a_fresh_device(
        ops in proptest::collection::vec(op_strategy(), 1..12),
        jobs in 1u32..3,
    ) {
        let module = arena_module();
        let fresh = Fresh::of(&module, small_cfg());

        let mut dev = Device::new(&module, small_cfg()).unwrap();
        dev.set_jobs(jobs);
        for op in &ops {
            // Errors (exhausted arena, blown budget) are part of the
            // history, not failures of the property.
            match *op {
                Op::Alloc(n) => {
                    let _ = dev.alloc_f64(&vec![-1.0; n]);
                }
                Op::Write(w) => dev.write_f64(global_addr(w * 8), &[-1.0]).unwrap(),
                Op::Launch(w, fail) => {
                    dev.set_max_insts(if fail { 10 } else { 1_000_000 });
                    let r = scale_add_at(&mut dev, global_addr(w * 8), 3);
                    prop_assert_eq!(r.is_err(), fail);
                }
                Op::Chain(w, replay) => {
                    dev.set_max_insts(1_000_000);
                    let args = [RtVal::Ptr(global_addr(w * 8)), RtVal::I64(64)];
                    let dims = LaunchDims::default();
                    if replay {
                        let graph = dev.capture_graph("chain", &args, dims).unwrap();
                        dev.replay_graph(&graph).unwrap();
                    } else {
                        dev.launch_plan("chain", &args, dims).unwrap();
                    }
                }
                Op::Reset => dev.reset(),
            }
        }
        fresh.check_reset(&mut dev, &format!("{ops:?}"));
    }
}
