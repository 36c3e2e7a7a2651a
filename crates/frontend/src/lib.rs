//! # omp-frontend
//!
//! A mini-C OpenMP frontend that lowers to the `omp-ir` representation
//! exactly the way Clang lowers OpenMP device code — runtime calls,
//! outlined parallel regions, worker state machines, and (crucially for
//! the paper *"Efficient Execution of OpenMP on GPUs"*, CGO 2022)
//! **globalization** of locals that may be shared across threads.
//!
//! The dialect supports the constructs the paper's four proxy
//! applications need:
//!
//! * `int/long/float/double`, pointers, local arrays, canonical `for`
//!   loops, `if`/`while`/`break`/`continue`/`return`, calls, math
//!   intrinsics;
//! * `#pragma omp target teams [distribute] [parallel for]` with
//!   `num_teams`/`thread_limit`, `#pragma omp parallel [for]` with
//!   `num_threads`, `#pragma omp barrier`;
//! * `#pragma omp assume ext_spmd_amenable | ext_no_openmp | pure`
//!   preceding a declaration (OpenMP 5.1 assumptions, Section IV-D);
//! * `noescape` parameter qualifiers.
//!
//! A function whose body is a single target directive becomes a GPU
//! kernel; its parameters are the kernel launch arguments.
//!
//! ```
//! use omp_frontend::{compile, FrontendOptions};
//!
//! let src = r#"
//! void axpy(double* x, double* y, double a, long n) {
//!   #pragma omp target teams distribute parallel for
//!   for (long i = 0; i < n; i++) {
//!     y[i] = a * x[i] + y[i];
//!   }
//! }
//! "#;
//! let module = compile(src, &FrontendOptions::default()).unwrap();
//! assert_eq!(module.kernels.len(), 1);
//! omp_ir::verifier::assert_valid(&module);
//! ```

pub mod ast;
pub mod error;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod token;

mod capture;
mod expr;
mod storage;

pub use error::CompileError;
pub use lower::{compile, lower_program, FrontendOptions, GlobalizationScheme};
pub use parser::parse_program;
