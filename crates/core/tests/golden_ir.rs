//! Golden printer→parser round-trip tests over real compiler output.
//!
//! For each proxy benchmark the frontend IR (both globalization
//! schemes) and the fully optimized IR are printed, compared against a
//! checked-in golden file, parsed back, and re-printed — asserting that
//! (a) the textual IR is stable and reviewable in diffs, and (b) the
//! parser accepts everything the printer emits, byte-for-byte
//! (`parse(print(m))` prints identically).
//!
//! To regenerate after an intentional IR change:
//!
//! ```text
//! OMP_UPDATE_GOLDEN=1 cargo test -p omp-gpu --test golden_ir
//! ```

mod common;

use omp_gpu::{all_proxies, pipeline, BuildConfig, Scale};
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn check_golden(file: &str, text: &str) {
    let path = golden_dir().join(file);
    if std::env::var_os("OMP_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create golden dir");
        std::fs::write(&path, text).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with OMP_UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    if golden != text {
        // Locate the first differing line for an actionable message.
        let (mut line, mut a, mut b) = (0, "", "");
        for (i, (g, t)) in golden.lines().zip(text.lines()).enumerate() {
            if g != t {
                (line, a, b) = (i + 1, g, t);
                break;
            }
        }
        panic!(
            "{file} drifted from its golden file (first diff at line {line}:\n\
             golden: {a}\n\
             actual: {b}\n\
             ); if intentional, regenerate with OMP_UPDATE_GOLDEN=1"
        );
    }
}

fn roundtrip(name: &str, m: &omp_gpu::Module) {
    let printed = omp_ir::printer::print_module(m);
    check_golden(&format!("{name}.ir"), &printed);
    let reparsed = omp_ir::parser::parse_module(&printed)
        .unwrap_or_else(|e| panic!("{name}: printer output does not parse: {e}"));
    omp_ir::verifier::assert_valid(&reparsed);
    let reprinted = omp_ir::printer::print_module(&reparsed);
    assert_eq!(
        printed, reprinted,
        "{name}: print→parse→print is not a fixpoint"
    );
}

#[test]
fn proxy_frontend_ir_roundtrips_simplified_scheme() {
    for app in all_proxies(Scale::Small) {
        let (m, _) = pipeline::build(&app.openmp_source(), BuildConfig::NoOpenmpOpt)
            .unwrap_or_else(|e| panic!("{}: {e}", app.name()));
        roundtrip(&format!("{}_frontend", app.name().to_lowercase()), &m);
    }
}

#[test]
fn proxy_frontend_ir_roundtrips_legacy_scheme() {
    for app in all_proxies(Scale::Small) {
        let (m, _) = pipeline::build(&app.openmp_source(), BuildConfig::Llvm12Baseline)
            .unwrap_or_else(|e| panic!("{}: {e}", app.name()));
        roundtrip(&format!("{}_legacy", app.name().to_lowercase()), &m);
    }
}

#[test]
fn proxy_optimized_ir_roundtrips() {
    for app in all_proxies(Scale::Small) {
        let (m, _) = pipeline::build(&app.openmp_source(), BuildConfig::LlvmDev)
            .unwrap_or_else(|e| panic!("{}: {e}", app.name()));
        roundtrip(&format!("{}_dev", app.name().to_lowercase()), &m);
    }
}

/// A 16-kernel unit, the module size no other golden reaches: module-wide
/// analyses are shared across its kernels, so its IR, its remark stream
/// and its counters pin what that sharing must not change.
#[test]
fn many_kernel_unit_ir_and_report_are_stable() {
    let source = common::cycling_unit(16);
    for (config, tag) in [
        (BuildConfig::LlvmDev, "dev"),
        (BuildConfig::Llvm12Baseline, "llvm12"),
        (BuildConfig::NoOpenmpOpt, "noopt"),
    ] {
        let (m, report) =
            pipeline::build(&source, config).unwrap_or_else(|e| panic!("unit16 {tag}: {e}"));
        roundtrip(&format!("unit16_{tag}"), &m);
        // The LLVM 12 baseline bypasses the mid-end: no report.
        if let Some(report) = report {
            let text = format!("{}{:?}\n", report.remarks.to_json_lines(), report.counts);
            check_golden(&format!("unit16_{tag}.report"), &text);
        }
    }
}
