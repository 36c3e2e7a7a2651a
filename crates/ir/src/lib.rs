//! # omp-ir
//!
//! A typed SSA intermediate representation for the `omp-gpu` compiler —
//! the substrate on which the paper *"Efficient Execution of OpenMP on
//! GPUs"* (CGO 2022) performs its OpenMP-aware inter-procedural analyses
//! and optimizations.
//!
//! The IR is deliberately LLVM-shaped but small:
//!
//! * scalar types only ([`Type`]); aggregates are byte blobs addressed via
//!   [`InstKind::Gep`];
//! * per-function instruction arenas ([`Function`]) with stable ids;
//! * modules ([`Module`]) carrying globals (with [`AddrSpace`]) and
//!   per-kernel metadata ([`KernelInfo`], [`ExecMode`]);
//! * the OpenMP device runtime ABI ([`omprtl`]) shared between frontend,
//!   optimizer and GPU simulator;
//! * a round-tripping textual format ([`printer`], [`parser`]) and a
//!   [`verifier`];
//! * the one definition of scalar semantics ([`scalar`]): what a
//!   `Bin`, `Cmp`, `Cast` or GEP offset computes on an [`RtVal`],
//!   shared by the constant folder ([`fold`]) and the GPU simulator.
//!
//! ## Example
//!
//! ```
//! use omp_ir::{Builder, Function, Module, Type, Value, BinOp};
//!
//! let mut m = Module::new("example");
//! let f = m.add_function(Function::definition("inc", vec![Type::I32], Type::I32));
//! let mut b = Builder::at_entry(&mut m, f);
//! let v = b.bin(BinOp::Add, Type::I32, Value::Arg(0), Value::i32(1));
//! b.ret(Some(v));
//! omp_ir::verifier::assert_valid(&m);
//! assert!(omp_ir::printer::print_module(&m).contains("add i32 %arg0, i32 1"));
//! ```

pub mod builder;
pub mod dom;
pub mod fold;
pub mod function;
pub mod inst;
pub mod module;
pub mod omprtl;
pub mod parser;
pub mod printer;
pub mod scalar;
pub mod types;
pub mod value;
pub mod verifier;

pub use builder::Builder;
pub use dom::DomTree;
pub use function::{BlockData, FuncAttrs, Function, Linkage, ParamAttrs};
pub use inst::{BinOp, CastOp, CmpOp, InstKind, Terminator};
pub use module::{AddrSpace, DependKind, ExecMode, Global, KernelInfo, LaunchAttrs, Module};
pub use omprtl::{math_fn_signature, RtlFn};
pub use types::Type;
pub use value::{BlockId, FuncId, GlobalId, InstId, RtVal, Value};
