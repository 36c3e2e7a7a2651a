//! Property-based soundness tests: random programs and random launch
//! geometries must compute identical results under every optimization
//! configuration, and must agree with a host-side evaluation.

use omp_gpu::{pipeline, BuildConfig, Device, LaunchDims, RtVal};
use proptest::prelude::*;
use std::sync::Arc;

/// A small integer expression over three variables, mirrored between
/// the mini-C source and a host evaluator with wrapping semantics.
#[derive(Debug, Clone)]
enum E {
    X,
    Y,
    I,
    Lit(i64),
    Add(Box<E>, Box<E>),
    Sub(Box<E>, Box<E>),
    Mul(Box<E>, Box<E>),
    RemSafe(Box<E>, Box<E>),
}

impl E {
    fn to_c(&self) -> String {
        match self {
            E::X => "x".into(),
            E::Y => "y".into(),
            E::I => "i".into(),
            E::Lit(v) => format!("{v}"),
            E::Add(a, b) => format!("({} + {})", a.to_c(), b.to_c()),
            E::Sub(a, b) => format!("({} - {})", a.to_c(), b.to_c()),
            E::Mul(a, b) => format!("({} * {})", a.to_c(), b.to_c()),
            // `| 1` keeps the divisor nonzero in both worlds.
            E::RemSafe(a, b) => format!("({} % (({} | 1)))", a.to_c(), b.to_c()),
        }
    }

    fn eval(&self, x: i64, y: i64, i: i64) -> i64 {
        match self {
            E::X => x,
            E::Y => y,
            E::I => i,
            E::Lit(v) => *v,
            E::Add(a, b) => a.eval(x, y, i).wrapping_add(b.eval(x, y, i)),
            E::Sub(a, b) => a.eval(x, y, i).wrapping_sub(b.eval(x, y, i)),
            E::Mul(a, b) => a.eval(x, y, i).wrapping_mul(b.eval(x, y, i)),
            E::RemSafe(a, b) => {
                let d = b.eval(x, y, i) | 1;
                let n = a.eval(x, y, i);
                // i64::MIN % -1 is the only remaining trap; the IR's
                // folder refuses it and the kernel would trap, so the
                // generator below keeps literals small enough that it
                // cannot occur in practice.
                n.wrapping_rem(d)
            }
        }
    }
}

fn expr_strategy() -> impl Strategy<Value = E> {
    let leaf = prop_oneof![
        Just(E::X),
        Just(E::Y),
        Just(E::I),
        (-50i64..50).prop_map(E::Lit),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Mul(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| E::RemSafe(Box::new(a), Box::new(b))),
        ]
    })
}

fn kernel_source(e: &E, generic: bool) -> String {
    if generic {
        format!(
            r#"
void k(long* out, long x, long y, long n) {{
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
"#,
            expr = e.to_c()
        )
    } else {
        format!(
            r#"
void k(long* out, long x, long y, long n) {{
  #pragma omp target teams distribute parallel for
  for (long i = 0; i < n; i++) {{
    out[i] = {expr};
  }}
}}
"#,
            expr = e.to_c()
        )
    }
}

fn run_kernel(
    src: &str,
    cfg: BuildConfig,
    x: i64,
    y: i64,
    n: usize,
    teams: u32,
    threads: u32,
) -> Vec<i64> {
    let (m, _) = pipeline::build(src, cfg).unwrap();
    let mut dev = Device::new(Arc::new(m), Default::default()).unwrap();
    let out = dev.alloc_i64(&vec![0; n]).unwrap();
    dev.launch(
        "k",
        &[
            RtVal::Ptr(out),
            RtVal::I64(x),
            RtVal::I64(y),
            RtVal::I64(n as i64),
        ],
        LaunchDims {
            teams: Some(teams),
            threads: Some(threads),
        },
    )
    .unwrap();
    dev.read_i64(out, n).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// SPMD-source kernels over random expressions and geometries agree
    /// with the host evaluator under both the disabled and the full
    /// pipeline.
    #[test]
    fn spmd_kernels_match_host_eval(
        e in expr_strategy(),
        x in -100i64..100,
        y in -100i64..100,
        n in 1usize..40,
        teams in 1u32..4,
        threads in 1u32..16,
    ) {
        let src = kernel_source(&e, false);
        let expected: Vec<i64> = (0..n as i64).map(|i| e.eval(x, y, i)).collect();
        for cfg in [BuildConfig::NoOpenmpOpt, BuildConfig::LlvmDev] {
            let got = run_kernel(&src, cfg, x, y, n, teams, threads);
            prop_assert_eq!(&got, &expected, "config {:?}", cfg);
        }
    }

    /// Generic-mode kernels (worker state machine, SPMDization paths)
    /// agree across the LLVM 12 baseline, the unoptimized simplified
    /// scheme, the CSM-only pipeline, and the full pipeline.
    #[test]
    fn generic_kernels_agree_across_configs(
        e in expr_strategy(),
        x in -100i64..100,
        y in -100i64..100,
        halfn in 1usize..12,
        threads in 2u32..12,
    ) {
        let n = 2 * halfn;
        let src = kernel_source(&e, true);
        let expected: Vec<i64> = (0..n as i64).map(|i| e.eval(x, y, i)).collect();
        for cfg in [
            BuildConfig::Llvm12Baseline,
            BuildConfig::NoOpenmpOpt,
            BuildConfig::H2S2RtcCsm,
            BuildConfig::LlvmDev,
        ] {
            let got = run_kernel(&src, cfg, x, y, n, 2, threads);
            prop_assert_eq!(&got, &expected, "config {:?}", cfg);
        }
    }
}
