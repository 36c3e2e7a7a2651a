//! # omp-passes
//!
//! Generic middle-end transformations for the `omp-gpu` compiler. The
//! paper's OpenMP-specific optimizations (crate `omp-opt`) expose
//! opportunities — e.g. HeapToStack produces `alloca`s and runtime-call
//! folding produces constants — and these passes realize them:
//!
//! * [`mem2reg`] — promote memory to SSA registers;
//! * [`constprop`] — constant propagation + branch folding;
//! * [`dce`] — dead code elimination;
//! * [`simplify_cfg`] — unreachable-block removal and block merging.
//!
//! [`run_pipeline`] iterates them to a fixpoint, mirroring how LLVM's
//! default pipeline cleans up after `OpenMPOpt`.
//!
//! The classic mid-end (run by the pass manager in `omp-gpu`'s
//! `pipeline` module around `omp-opt`) adds:
//!
//! * [`inline`] — size-budgeted function inlining, run both before and
//!   after the OpenMP-aware passes;
//! * [`gvn`] — global value numbering / CSE with block-local load
//!   forwarding;
//! * [`licm`] — loop-invariant code motion over the natural-loop forest
//!   from `omp-analysis`;
//! * [`cache`] — the [`AnalysisCache`] those passes share.

pub mod cache;
pub mod constprop;
pub mod dce;
pub mod gvn;
pub mod inline;
pub mod licm;
pub mod mem2reg;
pub mod simplify_cfg;

pub use cache::AnalysisCache;
pub use gvn::GvnStats;
pub use inline::{InlineDecision, InlineOptions};
pub use licm::LicmStats;

use omp_ir::{FuncId, Module};
use std::time::{Duration, Instant};

/// Statistics from one pipeline run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Allocas promoted to SSA values.
    pub promoted_allocas: usize,
    /// Instructions folded to constants.
    pub folded: usize,
    /// Dead instructions removed.
    pub dce_removed: usize,
    /// Blocks removed or merged.
    pub blocks_removed: usize,
    /// Number of fixpoint iterations executed (of the function that
    /// needed the most).
    pub iterations: usize,
}

impl PipelineStats {
    /// Whether the run rewrote anything, i.e. whether analyses computed
    /// before it are stale.
    pub fn changed(&self) -> bool {
        self.promoted_allocas + self.folded + self.dce_removed + self.blocks_removed > 0
    }
}

impl std::ops::AddAssign for PipelineStats {
    fn add_assign(&mut self, round: PipelineStats) {
        self.promoted_allocas += round.promoted_allocas;
        self.folded += round.folded;
        self.dce_removed += round.dce_removed;
        self.blocks_removed += round.blocks_removed;
        self.iterations += round.iterations;
    }
}

/// One function-local cleanup pass: returns how much it changed.
type FunctionPass = fn(&mut Module, FuncId) -> usize;

/// The cleanup passes in round order, each with the span that carries
/// its share of a [`run_pipeline`] call.
const CLEANUP: [(&str, FunctionPass); 4] = [
    ("cleanup.mem2reg", mem2reg::run_function),
    ("cleanup.constprop", constprop::run_function),
    ("cleanup.dce", dce::run_function),
    ("cleanup.simplify-cfg", simplify_cfg::run_function),
];

/// Runs the cleanup pipeline (mem2reg, constprop, DCE, simplify-cfg)
/// until nothing changes (bounded by a generous iteration cap). The
/// four passes are function-local, so each function is iterated to its
/// own fixpoint: a function that is done is not visited again because
/// another one still changes.
pub fn run_pipeline(m: &mut Module) -> PipelineStats {
    let traced = omp_telemetry::enabled();
    let started = Instant::now();
    let mut spent = [Duration::ZERO; 4];
    // A module without definitions still counts its one (empty) round.
    let mut totals = [0usize; 4];
    let mut iterations = 1;
    for fid in m.func_ids().collect::<Vec<_>>() {
        if m.func(fid).is_declaration() {
            continue;
        }
        for round in 1..=16 {
            iterations = iterations.max(round);
            let mut changed = 0;
            for (k, (_, pass)) in CLEANUP.iter().enumerate() {
                let t0 = traced.then(Instant::now);
                let n = pass(m, fid);
                if let Some(t0) = t0 {
                    spent[k] += t0.elapsed();
                }
                totals[k] += n;
                changed += n;
            }
            if changed == 0 {
                break;
            }
        }
    }
    if traced {
        // One span per pass, laid end to end from the start of the call:
        // their lengths are exact, their positions are not.
        let mut at = started;
        for ((name, _), d) in CLEANUP.iter().zip(spent) {
            omp_telemetry::record_interval(name, "pass", at, d);
            at += d;
        }
    }
    PipelineStats {
        promoted_allocas: totals[0],
        folded: totals[1],
        dce_removed: totals[2],
        blocks_removed: totals[3],
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omp_ir::{BinOp, Builder, CmpOp, Function, Terminator, Type, Value};

    /// End-to-end: a memory-based accumulator with a constant bound
    /// collapses to straight-line code.
    #[test]
    fn pipeline_reaches_fixpoint_and_simplifies() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![], Type::I32));
        let mut b = Builder::at_entry(&mut m, f);
        let p = b.alloca(4, 4);
        b.store(Value::i32(5), p);
        let v = b.load(Type::I32, p);
        let c = b.cmp(CmpOp::Sgt, Type::I32, v, Value::i32(3));
        let yes = b.new_block();
        let no = b.new_block();
        b.cond_br(c, yes, no);
        b.switch_to(yes);
        let r = b.bin(BinOp::Mul, Type::I32, v, Value::i32(2));
        b.ret(Some(r));
        b.switch_to(no);
        b.ret(Some(Value::i32(0)));
        let stats = run_pipeline(&mut m);
        assert!(stats.promoted_allocas >= 1);
        assert!(stats.folded >= 1);
        omp_ir::verifier::assert_valid(&m);
        let fun = m.func(f);
        assert_eq!(fun.num_blocks(), 1);
        match &fun.block(fun.entry()).term {
            Terminator::Ret(Some(v)) => assert_eq!(*v, Value::i32(10)),
            t => panic!("{t:?}"),
        }
    }

    #[test]
    fn pipeline_is_idempotent() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![Type::I32], Type::I32));
        let mut b = Builder::at_entry(&mut m, f);
        let v = b.bin(BinOp::Add, Type::I32, Value::Arg(0), Value::i32(1));
        b.ret(Some(v));
        let s1 = run_pipeline(&mut m);
        let text1 = omp_ir::printer::print_module(&m);
        let s2 = run_pipeline(&mut m);
        let text2 = omp_ir::printer::print_module(&m);
        assert_eq!(text1, text2);
        assert_eq!(s1.folded, 0);
        assert_eq!(s2.iterations, 1);
    }
}
