//! The cycle cost model.
//!
//! Abstract cycles calibrated to first-order GPU folklore. Absolute
//! numbers are not meaningful — the paper's evaluation is reproduced as
//! *relative* kernel times, and what matters is the ordering of costs:
//! registers << shared memory << coalesced global << uncoalesced global,
//! and cheap context queries << runtime allocation << parallel-region
//! dispatch.

use omp_ir::{BinOp, RtlFn};

/// A scattered shared-memory access hits the same banks from several
/// lanes, so it is serialized into this many `shared_access`es.
pub(crate) const BANK_CONFLICT_REPLAYS: u64 = 8;

/// Cycle costs of the simulated device.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Simple integer ALU op.
    pub int_op: u64,
    /// Simple floating-point op.
    pub float_op: u64,
    /// Integer/float divide, remainder.
    pub div_op: u64,
    /// Transcendental / math intrinsic call (sqrt, exp, ...).
    pub math_fn: u64,
    /// Branch / compare / select / cast.
    pub simple_op: u64,
    /// Pointer<->integer reinterpretation (`inttoptr`, `ptrtoint`).
    /// Free: on real GPUs these are register renames, not ALU work
    /// (LLVM's TTI likewise prices no-op casts at zero). Keeping them
    /// free also keeps the custom state-machine rewrite — which
    /// materializes integer region tokens as `inttoptr` — from being
    /// charged for instructions a real backend would fold away.
    pub ptr_reinterpret: u64,
    /// Direct call overhead (frame setup).
    pub call: u64,
    /// Additional penalty for an indirect call through a pointer.
    pub indirect_call_penalty: u64,
    /// Shared-memory access.
    pub shared_access: u64,
    /// Thread-local (alloca) access — local memory is DRAM-backed but
    /// perfectly interleaved per thread.
    pub local_access: u64,
    /// Global-memory access when the warp's lanes access consecutive
    /// addresses (coalesced).
    pub global_coalesced: u64,
    /// Global-memory access with a scattered pattern.
    pub global_uncoalesced: u64,
    /// Team-wide barrier.
    pub barrier: u64,
    /// `__kmpc_target_init` in generic mode (worker setup).
    pub target_init_generic: u64,
    /// `__kmpc_target_init` in SPMD mode.
    pub target_init_spmd: u64,
    /// Main-thread side of a generic parallel dispatch (handshake).
    pub parallel_dispatch_generic: u64,
    /// Per-thread cost of an SPMD parallel region entry.
    pub parallel_dispatch_spmd: u64,
    /// Worker wake-up from `__kmpc_kernel_parallel`.
    pub worker_wakeup: u64,
    /// `__kmpc_alloc_shared` (simplified globalization).
    pub alloc_shared: u64,
    /// `__kmpc_free_shared`.
    pub free_shared: u64,
    /// `__kmpc_data_sharing_coalesced_push_stack` (legacy).
    pub push_stack: u64,
    /// `__kmpc_data_sharing_pop_stack`.
    pub pop_stack: u64,
    /// Context queries (`omp_get_thread_num`, mode checks, ...).
    pub context_query: u64,
    /// Worksharing chunk helpers.
    pub chunk_helper: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            int_op: 1,
            float_op: 2,
            div_op: 10,
            math_fn: 20,
            simple_op: 1,
            ptr_reinterpret: 0,
            call: 5,
            indirect_call_penalty: 60,
            shared_access: 8,
            local_access: 12,
            global_coalesced: 25,
            global_uncoalesced: 300,
            barrier: 30,
            target_init_generic: 60,
            target_init_spmd: 20,
            parallel_dispatch_generic: 4000,
            parallel_dispatch_spmd: 20,
            worker_wakeup: 400,
            alloc_shared: 250,
            free_shared: 60,
            push_stack: 90,
            pop_stack: 45,
            context_query: 6,
            chunk_helper: 12,
        }
    }
}

impl CostModel {
    /// Cost of a binary operation.
    pub fn bin_cost(&self, op: BinOp) -> u64 {
        match op {
            BinOp::SDiv | BinOp::UDiv | BinOp::SRem | BinOp::URem | BinOp::FDiv | BinOp::FRem => {
                self.div_op
            }
            op if op.is_float() => self.float_op,
            _ => self.int_op,
        }
    }

    /// Fixed cost of a runtime call, excluding memory effects and
    /// synchronization (which the interpreter adds separately).
    pub fn rtl_cost(&self, f: RtlFn) -> u64 {
        match f {
            RtlFn::TargetInit => 0, // charged by mode in the interpreter
            RtlFn::TargetDeinit => self.context_query,
            RtlFn::Parallel51 => 0, // charged by mode in the interpreter
            RtlFn::KernelParallel => self.context_query,
            RtlFn::KernelEndParallel => self.context_query,
            RtlFn::GetParallelArgs => self.context_query,
            RtlFn::AllocShared => self.alloc_shared,
            RtlFn::FreeShared => self.free_shared,
            RtlFn::DataSharingPushStack => self.push_stack,
            RtlFn::DataSharingPopStack => self.pop_stack,
            RtlFn::Barrier | RtlFn::BarrierSimpleSpmd => self.barrier,
            RtlFn::StaticChunkLb
            | RtlFn::StaticChunkUb
            | RtlFn::DistributeChunkLb
            | RtlFn::DistributeChunkUb => self.chunk_helper,
            _ => self.context_query,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_hierarchy_ordering() {
        let c = CostModel::default();
        assert!(c.shared_access < c.local_access);
        assert!(c.local_access < c.global_uncoalesced);
        assert!(c.global_coalesced < c.global_uncoalesced);
    }

    #[test]
    fn dispatch_cost_ordering() {
        let c = CostModel::default();
        assert!(c.parallel_dispatch_spmd < c.parallel_dispatch_generic);
        assert!(c.context_query < c.alloc_shared);
    }

    #[test]
    fn bin_costs() {
        let c = CostModel::default();
        assert_eq!(c.bin_cost(BinOp::Add), c.int_op);
        assert_eq!(c.bin_cost(BinOp::FMul), c.float_op);
        assert_eq!(c.bin_cost(BinOp::SDiv), c.div_op);
        assert_eq!(c.bin_cost(BinOp::FDiv), c.div_op);
    }
}
