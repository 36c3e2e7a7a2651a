//! Integration tests: source → IR shape checks.

use omp_frontend::{compile, FrontendOptions, GlobalizationScheme};
use omp_ir::{printer::print_module, verifier, ExecMode};

fn simplified() -> FrontendOptions {
    FrontendOptions::default()
}

fn legacy() -> FrontendOptions {
    FrontendOptions {
        globalization: GlobalizationScheme::Legacy,
        ..FrontendOptions::default()
    }
}

const FIG1: &str = r#"
double compute(long seed);
void combine(double* a, double* b);

void fig1(long nblocks, long nthreads) {
  #pragma omp target teams distribute
  for (long block_id = 0; block_id < nblocks; block_id++) {
    double team_val = compute(block_id);
    #pragma omp parallel for
    for (long thread_id = 0; thread_id < nthreads; thread_id++) {
      double thread_val = compute(thread_id);
      combine(&team_val, &thread_val);
    }
  }
}
"#;

#[test]
fn fig1_generic_kernel_shape() {
    let m = compile(FIG1, &simplified()).unwrap();
    verifier::assert_valid(&m);
    assert_eq!(m.kernels.len(), 1);
    let k = &m.kernels[0];
    assert_eq!(k.exec_mode, ExecMode::Generic);
    assert_eq!(k.source_name, "fig1");
    let text = print_module(&m);
    // Worker state machine present.
    assert!(text.contains("__kmpc_kernel_parallel"));
    assert!(text.contains("__kmpc_get_parallel_args"));
    // Parallel dispatch with a function-pointer token.
    assert!(text.contains("__kmpc_parallel_51"));
    assert!(text.contains("__omp_outlined."));
    // team_val and thread_val are globalized (captured / address taken).
    assert!(text.contains("__kmpc_alloc_shared"));
    assert!(text.contains("__kmpc_free_shared"));
    // Worksharing queries (chunks are computed inline from these).
    assert!(text.contains("omp_get_num_teams"));
    assert!(text.contains("omp_get_num_threads"));
}

#[test]
fn fig1_legacy_uses_data_sharing_stack() {
    let m = compile(FIG1, &legacy()).unwrap();
    verifier::assert_valid(&m);
    let text = print_module(&m);
    assert!(text.contains("__kmpc_data_sharing_coalesced_push_stack"));
    assert!(text.contains("__kmpc_data_sharing_pop_stack"));
    assert!(text.contains("__kmpc_is_spmd_exec_mode"));
    assert!(text.contains("__kmpc_in_active_parallel"));
    assert!(!text.contains("__kmpc_alloc_shared"));
}

#[test]
fn cuda_mode_never_globalizes() {
    let opts = FrontendOptions {
        cuda_mode: true,
        ..FrontendOptions::default()
    };
    let m = compile(FIG1, &opts).unwrap();
    verifier::assert_valid(&m);
    let text = print_module(&m);
    assert!(!text.contains("__kmpc_alloc_shared"));
    assert!(!text.contains("__kmpc_data_sharing_coalesced_push_stack"));
}

#[test]
fn spmd_kernel_has_no_worker_loop() {
    let src = r#"
void axpy(double* x, double* y, double a, long n) {
  #pragma omp target teams distribute parallel for
  for (long i = 0; i < n; i++) {
    y[i] = a * x[i] + y[i];
  }
}
"#;
    let m = compile(src, &simplified()).unwrap();
    verifier::assert_valid(&m);
    assert_eq!(m.kernels[0].exec_mode, ExecMode::Spmd);
    let text = print_module(&m);
    assert!(!text.contains("__kmpc_kernel_parallel"));
    assert!(!text.contains("__kmpc_parallel_51"));
    // SPMD init mode constant is 2.
    assert!(text.contains("call @__kmpc_target_init(i32 2)"));
}

#[test]
fn fig3_spmd_globalizes_escaping_local() {
    // Figure 3 of the paper: cross-thread sharing in SPMD mode.
    let src = r#"
void store_addr(long* cell, int* p);
int load_through(long* cell);
void fig3(long* ptr_cell, int* out) {
  #pragma omp target parallel
  {
    int lcl = 42 + omp_get_thread_num();
    #pragma omp barrier
    if (omp_get_thread_num() == 0) {
      store_addr(ptr_cell, &lcl);
    }
    #pragma omp barrier
    out[omp_get_thread_num()] = load_through(ptr_cell);
  }
}
"#;
    let m = compile(src, &simplified()).unwrap();
    verifier::assert_valid(&m);
    let text = print_module(&m);
    // lcl is address-taken => globalized even in SPMD mode.
    assert!(text.contains("__kmpc_alloc_shared"));
    assert!(text.contains("__kmpc_barrier"));
    // Legacy scheme would (unsoundly) use an alloca in SPMD mode.
    let ml = compile(src, &legacy()).unwrap();
    let tl = print_module(&ml);
    assert!(tl.contains("alloca"));
}

#[test]
fn num_teams_and_thread_limit_recorded() {
    let src = r#"
void k(double* a) {
  #pragma omp target teams distribute num_teams(16) thread_limit(64)
  for (long i = 0; i < 100; i++) { a[i] = 0.0; }
}
"#;
    let m = compile(src, &simplified()).unwrap();
    assert_eq!(m.kernels[0].num_teams, Some(16));
    assert_eq!(m.kernels[0].thread_limit, Some(64));
}

#[test]
fn assumptions_map_to_attrs() {
    let src = r#"
#pragma omp assume ext_spmd_amenable
void ext_helper(double* p);
void k(double* a, long n) {
  #pragma omp target teams distribute
  for (long i = 0; i < n; i++) { ext_helper(a); }
}
"#;
    let m = compile(src, &simplified()).unwrap();
    let f = m.func(m.function_id("ext_helper").unwrap());
    assert!(f.attrs.spmd_amenable);
}

#[test]
fn noescape_param_attr_propagates() {
    let src = "void reader(noescape double* p); void f(double* q) { reader(q); }";
    let m = compile(src, &simplified()).unwrap();
    let f = m.func(m.function_id("reader").unwrap());
    assert!(f.param_attrs[0].noescape);
}

#[test]
fn device_function_with_escaping_locals_matches_fig4() {
    // The paper's Figure 4a: device function with two escaping locals.
    let src = r#"
void combine(float* a, double* b);
double device_function(float arg) {
  double lcl = 1.5;
  combine(&arg, &lcl);
  return lcl;
}
"#;
    let m = compile(src, &simplified()).unwrap();
    verifier::assert_valid(&m);
    let text = print_module(&m);
    // Two allocations: 4 bytes (arg) and 8 bytes (lcl), like Fig. 4c.
    assert!(text.contains("call @__kmpc_alloc_shared(i64 4)"));
    assert!(text.contains("call @__kmpc_alloc_shared(i64 8)"));
    assert!(text.contains("__kmpc_free_shared"));
}

/// The legacy aggregate's slots follow the order in which lowering asks
/// for storage: an escaping loop variable, an escaping array (12 bytes,
/// padded to 16), an escaping scalar, then a parallel region's capture
/// struct. The region's own locals and its nested region's capture
/// struct belong to the outlined function's aggregate. Each slot shows
/// in the IR as `prefix * warp + size * lane`.
#[test]
fn legacy_slots_follow_storage_requests() {
    let src = r#"
void use(long* p);
void fill(int* b);
void f(long n) {
  for (long i = 0; i < n; i++) { use(&i); }
  int buf[3];
  fill(buf);
  double acc = 0.0;
  #pragma omp parallel
  {
    long t = n;
    use(&t);
    #pragma omp parallel
    { acc = (double)t; }
  }
}
"#;
    let m = compile(src, &legacy()).unwrap();
    verifier::assert_valid(&m);
    let text = print_module(&m);
    // Per function with an aggregate: its size and, per slot, the
    // constant operands of `prefix * warp` and `size * lane`.
    let int_after = |line: &str, marker: &str| -> Option<u64> {
        let rest = line.split(marker).nth(1)?;
        rest.split([' ', ',']).next()?.parse().ok()
    };
    let aggregates: Vec<(u64, Vec<u64>)> = text
        .split("\ndefine ")
        .filter_map(|f| {
            let total = f.lines().find_map(|l| int_after(l, " alloca "))?;
            let slots = f
                .lines()
                .filter_map(|l| int_after(l, "mul i64 i64 "))
                .collect();
            Some((total, slots))
        })
        .collect();
    assert_eq!(
        aggregates,
        [
            (48, vec![0, 8, 8, 12, 24, 8, 32, 16]),
            (24, vec![0, 8, 8, 16]),
        ]
    );
}

#[test]
fn errors_are_reported() {
    let bad = "void f() { undefined_fn(); }";
    let err = compile(bad, &simplified()).unwrap_err();
    assert!(err.message.contains("undeclared function"));
    let bad2 = "int f() { return; }";
    assert!(compile(bad2, &simplified()).is_err());
    let bad3 = "void f(int x) { int x; }"; // shadowing
    assert!(compile(bad3, &simplified()).is_err());
    let bad4 = "void f() { return 1; }";
    assert!(compile(bad4, &simplified()).is_err());
    let bad5 = "void f() { break; }";
    assert!(compile(bad5, &simplified()).is_err());
}

#[test]
fn sequential_control_flow_lowers() {
    let src = r#"
long collatz_steps(long n) {
  long steps = 0;
  while (n > 1) {
    if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }
    steps += 1;
    if (steps > 10000) { break; }
  }
  return steps;
}
"#;
    let m = compile(src, &simplified()).unwrap();
    verifier::assert_valid(&m);
}

#[test]
fn local_arrays_and_pointer_arith() {
    let src = r#"
double sum16(double* p) {
  double acc = 0.0;
  for (int i = 0; i < 16; i++) {
    acc += p[i] + *(p + i);
  }
  return acc;
}
"#;
    let m = compile(src, &simplified()).unwrap();
    verifier::assert_valid(&m);
}

#[test]
fn combined_distribute_parallel_for_is_spmd() {
    let src = r#"
void k(double* a, long n) {
  #pragma omp target teams distribute parallel for num_teams(4) thread_limit(32)
  for (long i = 0; i < n; i++) { a[i] = (double)i; }
}
"#;
    let m = compile(src, &simplified()).unwrap();
    verifier::assert_valid(&m);
    assert_eq!(m.kernels[0].exec_mode, ExecMode::Spmd);
    let text = print_module(&m);
    // Combined: team chunk then thread chunk, computed inline.
    assert!(text.contains("omp_get_team_num"));
    assert!(text.contains("omp_get_thread_num"));
}

#[test]
fn return_inside_target_region_rejected() {
    let src = r#"
void k(double* a) {
  #pragma omp target teams
  { return; }
}
"#;
    assert!(compile(src, &simplified()).is_err());
}
