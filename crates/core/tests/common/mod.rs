//! Shared helpers for the tests that drive the `ompgpu` binary or the
//! sanitizer.
#![allow(dead_code)]

use omp_gpu::oracle::{ArgSpec, BufInit, ExampleSpec};
use omp_gpu::{BuildConfig, Job, Knobs, Mode, Outcome, Store};
use std::path::PathBuf;
use std::process::Command;

/// The repository root; every child process runs from here so paths in
/// its output (`sanitize examples/omp/saxpy.c:`) are stable.
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Runs `ompgpu ARGS` from the repository root with every `OMPGPU_*`
/// override cleared; returns `(exit code, stdout, stderr)`.
pub fn ompgpu(args: &[&str]) -> (i32, String, String) {
    ompgpu_env(args, &[])
}

/// Like [`ompgpu`], with `env` set after the `OMPGPU_*` overrides are
/// cleared.
pub fn ompgpu_env(args: &[&str], env: &[(&str, &str)]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ompgpu"))
        .args(args)
        .current_dir(repo_root())
        .env_remove("OMPGPU_JOBS")
        .env_remove("OMPGPU_MAX_INSTS")
        .envs(env.iter().copied())
        .output()
        .expect("ompgpu binary runs");
    (
        out.status.code().expect("ompgpu exits with a code"),
        String::from_utf8(out.stdout).expect("stdout is UTF-8"),
        String::from_utf8(out.stderr).expect("stderr is UTF-8"),
    )
}

/// Repo-relative paths of every `.c` file in `dir`, sorted.
pub fn c_files(dir: &str) -> Vec<String> {
    let mut files: Vec<String> = std::fs::read_dir(repo_root().join(dir))
        .unwrap_or_else(|e| panic!("cannot read {dir}: {e}"))
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|f| f.ends_with(".c"))
        .map(|f| format!("{dir}/{f}"))
        .collect();
    files.sort();
    files
}

/// A sanitized run of `source`, whose `// oracle-*:` header gives the
/// kernel, geometry and arguments, under `config` on a fresh store.
pub fn sanitized(source: &str, config: BuildConfig, knobs: &Knobs) -> Outcome {
    let spec = ExampleSpec::parse(source).unwrap_or_else(|e| panic!("spec header: {e}"));
    let job = Job {
        mode: Mode::Sanitize,
        knobs: knobs.clone(),
        ..Job::new(spec.subject(source), config)
    };
    job.outcome(&mut Store::new(0))
}

pub fn read(path: &str) -> String {
    std::fs::read_to_string(repo_root().join(path))
        .unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// The `run`/`profile` flags that spell out a file's `// oracle-*:`
/// header (`run` needs `--kernel`; the rest falls back to the header).
pub fn launch_flags(path: &str) -> Vec<String> {
    let spec = ExampleSpec::parse(&read(path)).unwrap_or_else(|e| panic!("{path}: {e}"));
    let mut flags = vec!["--kernel".to_string(), spec.kernel];
    if let Some(t) = spec.teams {
        flags.extend(["--teams".to_string(), t.to_string()]);
    }
    if let Some(t) = spec.threads {
        flags.extend(["--threads".to_string(), t.to_string()]);
    }
    let init = |i: BufInit| match i {
        BufInit::Zero => "zero",
        BufInit::Iota => "iota",
        BufInit::Pseudo => "pseudo",
    };
    for a in spec.args {
        flags.push("--arg".to_string());
        flags.push(match a {
            ArgSpec::BufF64(n, i) => format!("buf:f64:{n}:{}", init(i)),
            ArgSpec::BufI64(n, i) => format!("buf:i64:{n}:{}", init(i)),
            ArgSpec::I64(v) => format!("i64:{v}"),
            ArgSpec::I32(v) => format!("i32:{v}"),
            ArgSpec::F64(v) => format!("f64:{v:?}"),
        });
    }
    flags
}

/// The four single-kernel shapes of `examples/omp`, one per optimizer
/// path (SPMD at the source, escaping local array, team-shared scalar,
/// guarded stores), as `(file, kernel function)`.
pub const KERNEL_SHAPES: [(&str, &str); 4] = [
    ("saxpy.c", "saxpy"),
    ("local_array.c", "local_array"),
    ("team_shared.c", "team_shared"),
    ("guarded_stores.c", "guarded"),
];

/// A translation unit with one kernel per entry of `shapes` (indices
/// into [`KERNEL_SHAPES`]): the example file with its comment header
/// dropped and its function renamed `k_<position>`.
pub fn unit_of(shapes: &[usize]) -> String {
    let mut unit = String::new();
    for (n, &shape) in shapes.iter().enumerate() {
        let (file, kernel) = KERNEL_SHAPES[shape];
        for line in read(&format!("examples/omp/{file}")).lines() {
            if !line.starts_with("//") {
                unit += &line.replace(&format!("void {kernel}("), &format!("void k_{n}("));
                unit.push('\n');
            }
        }
    }
    unit
}

/// `kernels` kernels cycling through the four shapes in order.
pub fn cycling_unit(kernels: usize) -> String {
    unit_of(&(0..kernels).map(|n| n % 4).collect::<Vec<_>>())
}
