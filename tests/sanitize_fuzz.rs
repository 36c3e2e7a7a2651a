//! Differential sanitizer fuzzing: random well-formed (race-free by
//! construction) dialect programs are run under the whole ablation
//! matrix with the sanitizer on, and the set of finding kinds reported
//! under any optimized configuration must be a subset of what the
//! unoptimized `Llvm12Baseline` reports. The optimizer may remove
//! synchronization hazards (e.g. by promoting runtime globalization
//! away) but must never *introduce* one.

use omp_gpu::oracle::ExampleSpec;
use omp_gpu::{BuildConfig, Job, JobError, Mode, Store};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// A small integer expression over `x`, `i` with wrapping-safe
/// rendering (divisors forced odd, literals small).
#[derive(Debug, Clone)]
enum E {
    X,
    I,
    Lit(i64),
    Add(Box<E>, Box<E>),
    Mul(Box<E>, Box<E>),
    RemSafe(Box<E>, Box<E>),
}

impl E {
    fn to_c(&self) -> String {
        match self {
            E::X => "x".into(),
            E::I => "i".into(),
            E::Lit(v) => format!("{v}"),
            E::Add(a, b) => format!("({} + {})", a.to_c(), b.to_c()),
            E::Mul(a, b) => format!("({} * {})", a.to_c(), b.to_c()),
            E::RemSafe(a, b) => format!("({} % (({} | 1)))", a.to_c(), b.to_c()),
        }
    }
}

fn expr_strategy() -> impl Strategy<Value = E> {
    let leaf = prop_oneof![Just(E::X), Just(E::I), (-20i64..20).prop_map(E::Lit)];
    leaf.prop_recursive(2, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Mul(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| E::RemSafe(Box::new(a), Box::new(b))),
        ]
    })
}

/// The well-formed program shapes the fuzzer draws from. Every shape is
/// race-free: threads write disjoint elements, and any cross-thread
/// read is ordered by a barrier.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// SPMD disjoint writes: `out[i] = expr`.
    Disjoint,
    /// SPMD publish/barrier/consume: each thread writes its own slot,
    /// a barrier publishes, then each thread reads a neighbour's slot.
    PublishConsume,
    /// Generic-mode distribute + nested parallel-for, disjoint writes.
    Generic,
}

fn source(shape: Shape, e: &E, teams: u32, threads: u32) -> String {
    let n = (teams * threads) as i64;
    let header = format!(
        "// oracle-kernel: k\n// oracle-teams: {teams}\n// oracle-threads: {threads}\n\
         // oracle-arg: buf i64 {n}\n// oracle-arg: i64 3\n// oracle-arg: i64 {n}\n"
    );
    let expr = e.to_c();
    let body = match shape {
        Shape::Disjoint => format!(
            r#"
void k(long* out, long x, long n) {{
  #pragma omp target teams distribute parallel for
  for (long i = 0; i < n; i++) {{
    out[i] = {expr};
  }}
}}
"#
        ),
        Shape::PublishConsume => format!(
            r#"
void k(long* out, long x, long n) {{
  #pragma omp target parallel
  {{
    long i = (long)omp_get_thread_num();
    out[i] = {expr};
    #pragma omp barrier
    long peer = (i + 1) % (long)omp_get_num_threads();
    long v = out[peer];
    #pragma omp barrier
    out[i] = v;
  }}
}}
"#
        ),
        Shape::Generic => format!(
            r#"
void k(long* out, long x, long n) {{
  #pragma omp target teams distribute
  for (long b = 0; b < 2; b++) {{
    long base = b * (n / 2);
    #pragma omp parallel for
    for (long j = 0; j < n / 2; j++) {{
      long i = base + j;
      out[i] = {expr};
    }}
  }}
}}
"#
        ),
    };
    header + &body
}

/// The finding-kind names a run reports (plus an `error:` pseudo-kind
/// when the launch itself fails, so a config that errors out can never
/// look "cleaner" than one that runs).
fn finding_kinds(src: &str, config: BuildConfig) -> BTreeSet<String> {
    let spec = ExampleSpec::parse(src).expect("generated header");
    let job = Job {
        mode: Mode::Sanitize,
        ..Job::new(spec.subject(src), config)
    };
    let out = job.outcome(&mut Store::new(0));
    let mut kinds: BTreeSet<String> = out
        .findings()
        .iter()
        .map(|f| f.kind.name().to_string())
        .collect();
    match &out.result {
        Ok(_) => {}
        Err(JobError::Launch(e)) => {
            kinds.insert(format!("error:{}", e.kind.name()));
        }
        Err(e) => panic!(
            "generated program failed to build under {}: {e}",
            config.label()
        ),
    }
    kinds
}

const OPTIMIZED: [BuildConfig; 5] = [
    BuildConfig::NoOpenmpOpt,
    BuildConfig::H2S2,
    BuildConfig::H2S2Rtc,
    BuildConfig::H2S2RtcCsm,
    BuildConfig::LlvmDev,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn optimizer_never_introduces_sanitizer_findings(
        e in expr_strategy(),
        shape_ix in 0usize..3,
        teams in 1u32..3,
        threads in prop_oneof![Just(2u32), Just(4u32)],
    ) {
        let shape = [Shape::Disjoint, Shape::PublishConsume, Shape::Generic][shape_ix];
        let src = source(shape, &e, teams, threads);
        let baseline = finding_kinds(&src, BuildConfig::Llvm12Baseline);
        for config in OPTIMIZED {
            let kinds = finding_kinds(&src, config);
            prop_assert!(
                kinds.is_subset(&baseline),
                "{} introduced findings absent at the baseline: {:?} (baseline {:?})\nprogram:\n{}",
                config.label(),
                kinds,
                baseline,
                src
            );
        }
    }
}
