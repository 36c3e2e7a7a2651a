//! Language-feature coverage: each construct of the dialect is compiled
//! AND executed on the simulator, checking results against hand
//! evaluation.

use omp_frontend::{compile, FrontendOptions};
use omp_gpusim::{Device, LaunchDims, RtVal};
use std::sync::Arc;

fn run_i64(src: &str, kernel: &str, args: &[RtVal], n: usize) -> Vec<i64> {
    let m = compile(src, &FrontendOptions::default()).unwrap();
    omp_ir::verifier::assert_valid(&m);
    let mut dev = Device::new(Arc::new(m), Default::default()).unwrap();
    let out = dev.alloc_i64(&vec![0; n]).unwrap();
    let mut full = vec![RtVal::Ptr(out)];
    full.extend_from_slice(args);
    dev.launch(
        kernel,
        &full,
        LaunchDims {
            teams: Some(1),
            threads: Some(4),
        },
    )
    .unwrap();
    dev.read_i64(out, n).unwrap()
}

fn run_f64(src: &str, kernel: &str, args: &[RtVal], n: usize) -> Vec<f64> {
    let m = compile(src, &FrontendOptions::default()).unwrap();
    omp_ir::verifier::assert_valid(&m);
    let mut dev = Device::new(Arc::new(m), Default::default()).unwrap();
    let out = dev.alloc_f64(&vec![0.0; n]).unwrap();
    let mut full = vec![RtVal::Ptr(out)];
    full.extend_from_slice(args);
    dev.launch(
        kernel,
        &full,
        LaunchDims {
            teams: Some(1),
            threads: Some(4),
        },
    )
    .unwrap();
    dev.read_f64(out, n).unwrap()
}

#[test]
fn while_break_continue_inside_worksharing() {
    let src = r#"
void k(long* out, long n) {
  #pragma omp target teams distribute parallel for
  for (long i = 0; i < n; i++) {
    long acc = 0;
    long j = 0;
    while (j < 100) {
      j = j + 1;
      if (j % 2 == 0) { continue; }
      if (j > i + 5) { break; }
      acc += j;
    }
    out[i] = acc;
  }
}
"#;
    let got = run_i64(src, "k", &[RtVal::I64(8)], 8);
    let expect: Vec<i64> = (0..8i64)
        .map(|i| {
            let mut acc = 0;
            let mut j = 0;
            while j < 100 {
                j += 1;
                if j % 2 == 0 {
                    continue;
                }
                if j > i + 5 {
                    break;
                }
                acc += j;
            }
            acc
        })
        .collect();
    assert_eq!(got, expect);
}

#[test]
fn logical_operators_short_circuit() {
    // The right-hand side would divide by zero if evaluated eagerly.
    let src = r#"
void k(long* out, long n) {
  #pragma omp target teams distribute parallel for
  for (long i = 0; i < n; i++) {
    long d = i; // zero for i == 0
    if (d != 0 && 100 / d > 20) {
      out[i] = 1;
    } else {
      out[i] = 2;
    }
    if (d == 0 || 100 / d < 3) {
      out[i] = out[i] + 10;
    }
  }
}
"#;
    let got = run_i64(src, "k", &[RtVal::I64(6)], 6);
    let expect: Vec<i64> = (0..6i64)
        .map(|i| {
            let mut v = if i != 0 && 100 / i > 20 { 1 } else { 2 };
            if i == 0 || 100 / i < 3 {
                v += 10;
            }
            v
        })
        .collect();
    assert_eq!(got, expect);
}

#[test]
fn float_literal_suffix_and_f32_arithmetic() {
    let src = r#"
void k(double* out, long n) {
  #pragma omp target teams distribute parallel for
  for (long i = 0; i < n; i++) {
    float f = 1.5f;
    float g = (float)i * f;
    out[i] = (double)g + 0.25;
  }
}
"#;
    let got = run_f64(src, "k", &[RtVal::I64(5)], 5);
    for (i, v) in got.iter().enumerate() {
        let g = i as f32 * 1.5f32;
        assert_eq!(*v, g as f64 + 0.25, "element {i}");
    }
}

#[test]
fn compound_assignment_on_array_elements() {
    let src = r#"
void k(long* out, long n) {
  #pragma omp target teams distribute parallel for
  for (long i = 0; i < n; i++) {
    out[i] = 10;
    out[i] += i;
    out[i] *= 2;
    out[i] -= 1;
    out[i] /= 3;
  }
}
"#;
    let got = run_i64(src, "k", &[RtVal::I64(7)], 7);
    let expect: Vec<i64> = (0..7i64).map(|i| ((10 + i) * 2 - 1) / 3).collect();
    assert_eq!(got, expect);
}

#[test]
fn unary_operators() {
    let src = r#"
void k(long* out, long n) {
  #pragma omp target teams distribute parallel for
  for (long i = 0; i < n; i++) {
    long a = -i;
    long b = ~i;
    long c = (long)(!(i > 2));
    out[i] = a * 1000000 + (b & 255) * 1000 + c;
  }
}
"#;
    let got = run_i64(src, "k", &[RtVal::I64(5)], 5);
    let expect: Vec<i64> = (0..5i64)
        .map(|i| -i * 1_000_000 + (!i & 255) * 1000 + i64::from(i <= 2))
        .collect();
    assert_eq!(got, expect);
}

#[test]
fn shifts_and_bitwise() {
    let src = r#"
void k(long* out, long n) {
  #pragma omp target teams distribute parallel for
  for (long i = 0; i < n; i++) {
    long x = (i << 3) | 5;
    long y = (x ^ 12) & 62;
    out[i] = y >> 1;
  }
}
"#;
    let got = run_i64(src, "k", &[RtVal::I64(6)], 6);
    let expect: Vec<i64> = (0..6i64)
        .map(|i| ((((i << 3) | 5) ^ 12) & 62) >> 1)
        .collect();
    assert_eq!(got, expect);
}

#[test]
fn early_return_in_device_function_frees_globalized_storage() {
    let src = r#"
static long classify(double v, double* scratch) {
  scratch[0] = v;
  if (v < 0.0) { return -1; }
  if (v > 10.0) { return 1; }
  return 0;
}
void k(long* out, long n) {
  #pragma omp target teams distribute parallel for
  for (long i = 0; i < n; i++) {
    double buf[2];
    out[i] = classify((double)i * 4.0 - 2.0, buf);
  }
}
"#;
    let got = run_i64(src, "k", &[RtVal::I64(6)], 6);
    let expect: Vec<i64> = (0..6i64)
        .map(|i| {
            let v = i as f64 * 4.0 - 2.0;
            if v < 0.0 {
                -1
            } else if v > 10.0 {
                1
            } else {
                0
            }
        })
        .collect();
    assert_eq!(got, expect);
}

#[test]
fn inclusive_loops_and_explicit_steps() {
    let src = r#"
void k(long* out, long n) {
  #pragma omp target teams distribute parallel for
  for (long i = 0; i < n; i++) {
    long s = 0;
    for (long j = 2; j <= 20; j += 3) {
      s += j;
    }
    out[i] = s + i;
  }
}
"#;
    let got = run_i64(src, "k", &[RtVal::I64(4)], 4);
    let base: i64 = (0..).map(|k| 2 + 3 * k).take_while(|&j| j <= 20).sum();
    let expect: Vec<i64> = (0..4i64).map(|i| base + i).collect();
    assert_eq!(got, expect);
}

#[test]
fn worksharing_loop_with_nonunit_step() {
    let src = r#"
void k(long* out, long n) {
  #pragma omp target teams distribute parallel for
  for (long i = 1; i < n; i += 4) {
    out[i] = i * 10;
  }
}
"#;
    let got = run_i64(src, "k", &[RtVal::I64(20)], 20);
    for (i, v) in got.iter().enumerate() {
        let expect = if i >= 1 && (i - 1) % 4 == 0 {
            i as i64 * 10
        } else {
            0
        };
        assert_eq!(*v, expect, "element {i}");
    }
}

#[test]
fn math_library_coverage() {
    let src = r#"
void k(double* out, long n) {
  #pragma omp target teams distribute parallel for
  for (long i = 0; i < n; i++) {
    double x = (double)(i + 1) * 0.7;
    out[i] = pow(x, 2.0) + log(x) + floor(x) + fmin(x, 1.0) + sin(x) * cos(x);
  }
}
"#;
    let got = run_f64(src, "k", &[RtVal::I64(4)], 4);
    for (i, v) in got.iter().enumerate() {
        let x = (i + 1) as f64 * 0.7;
        let expect = x.powf(2.0) + x.ln() + x.floor() + x.min(1.0) + x.sin() * x.cos();
        assert!((v - expect).abs() < 1e-12, "element {i}: {v} vs {expect}");
    }
}
