//! Modules: translation units holding functions, globals and kernel
//! metadata.

use crate::function::Function;
use crate::types::Type;
use crate::value::{FuncId, GlobalId};
use std::collections::HashMap;

/// Memory space a global variable lives in. Mirrors the GPU memory
/// hierarchy from Figure 2 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AddrSpace {
    /// Device global memory: visible to all teams, high latency.
    Global,
    /// Per-team shared memory (CUDA `__shared__`): visible to the team's
    /// threads, low latency, a scarce per-SM resource.
    Shared,
}

/// A module-level global variable.
#[derive(Debug, Clone)]
pub struct Global {
    /// Symbol name, unique within the module.
    pub name: String,
    /// Size in bytes.
    pub size: u64,
    /// Alignment in bytes.
    pub align: u64,
    /// Which memory the variable lives in.
    pub space: AddrSpace,
    /// Optional initializer bytes (length `<= size`; the rest is zero).
    pub init: Option<Vec<u8>>,
    /// Whether stores to this global are disallowed.
    pub is_const: bool,
}

/// The execution mode of a kernel (paper Section IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// Generic mode: one main thread executes sequential code; worker
    /// threads wait in a state machine for parallel regions.
    Generic,
    /// SPMD mode: all threads are active from kernel launch.
    Spmd,
}

/// Dependence kind of one `depend(...)` clause item.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DependKind {
    /// `depend(in: x)` — the region reads `x`.
    In,
    /// `depend(out: x)` — the region writes `x`.
    Out,
    /// `depend(inout: x)` — the region reads and writes `x`.
    Inout,
}

impl DependKind {
    /// Stable lowercase spelling (textual IR and diagnostics).
    pub fn name(self) -> &'static str {
        match self {
            DependKind::In => "in",
            DependKind::Out => "out",
            DependKind::Inout => "inout",
        }
    }

    /// Parses the textual spelling.
    pub fn parse(s: &str) -> Option<DependKind> {
        Some(match s {
            "in" => DependKind::In,
            "out" => DependKind::Out,
            "inout" => DependKind::Inout,
            _ => return None,
        })
    }

    /// Whether two accesses of these kinds on the same variable order
    /// the regions (at least one side writes).
    pub fn conflicts_with(self, other: DependKind) -> bool {
        !(self == DependKind::In && other == DependKind::In)
    }
}

/// Host-side launch attributes of one target region: the async-offload
/// clauses (`nowait`, `depend`), a `taskwait` fence preceding the
/// region, and `taskgraph` membership. All default-false/empty for a
/// plain synchronous `target`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LaunchAttrs {
    /// `nowait` was present: the launch may overlap with siblings.
    pub nowait: bool,
    /// `depend(kind: var)` items, as host-function parameter indices.
    pub depends: Vec<(DependKind, u32)>,
    /// A `taskwait` directive immediately precedes this region.
    pub wait_before: bool,
    /// `taskgraph` region index within the host function, when the
    /// region is part of a capture-and-replay graph.
    pub graph: Option<u32>,
}

/// Per-kernel metadata attached by the frontend and updated by the
/// optimizer (e.g. SPMDization flips `exec_mode`).
#[derive(Debug, Clone)]
pub struct KernelInfo {
    /// The kernel entry function.
    pub func: FuncId,
    /// Current execution mode.
    pub exec_mode: ExecMode,
    /// `num_teams(N)` clause if constant.
    pub num_teams: Option<u32>,
    /// `thread_limit(N)` clause if constant.
    pub thread_limit: Option<u32>,
    /// Source-level name of the originating target region (diagnostics).
    pub source_name: String,
    /// Async-offload launch attributes (`nowait`, `depend`, `taskwait`,
    /// `taskgraph`). Kernels sharing a `source_name` form one host
    /// launch plan, in `Module::kernels` order.
    pub launch: LaunchAttrs,
}

/// A translation unit.
#[derive(Debug, Clone, Default)]
pub struct Module {
    /// Module (source file) name, used in remarks.
    pub name: String,
    functions: Vec<Function>,
    globals: Vec<Global>,
    /// Kernels defined in this module.
    pub kernels: Vec<KernelInfo>,
    /// Mapping from state-machine region ids to parallel-region
    /// functions, installed by the custom state-machine rewrite when it
    /// replaces function-pointer work tokens with small integers. The
    /// device runtime (simulator) consults it to resolve id tokens.
    /// Transient metadata: not part of the textual format.
    pub parallel_region_ids: Vec<(i64, FuncId)>,
    by_name: HashMap<String, FuncId>,
}

impl Module {
    /// Creates an empty module.
    pub fn new(name: impl Into<String>) -> Module {
        Module {
            name: name.into(),
            ..Module::default()
        }
    }

    /// Adds a function; its name must be unique. Returns its id.
    pub fn add_function(&mut self, f: Function) -> FuncId {
        assert!(
            !self.by_name.contains_key(&f.name),
            "duplicate function name: {}",
            f.name
        );
        let id = FuncId::from_index(self.functions.len());
        self.by_name.insert(f.name.clone(), id);
        self.functions.push(f);
        id
    }

    /// Looks up a function by name.
    pub fn function_id(&self, name: &str) -> Option<FuncId> {
        self.by_name.get(name).copied()
    }

    /// Returns the id of the function named `name`, declaring it with the
    /// given signature if it does not exist yet.
    pub fn get_or_declare(&mut self, name: &str, params: Vec<Type>, ret: Type) -> FuncId {
        if let Some(id) = self.function_id(name) {
            return id;
        }
        self.add_function(Function::declaration(name, params, ret))
    }

    /// Immutable access to a function.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.functions[id.index()]
    }

    /// Mutable access to a function.
    pub fn func_mut(&mut self, id: FuncId) -> &mut Function {
        &mut self.functions[id.index()]
    }

    /// Renames a function, keeping the name index consistent.
    pub fn rename_function(&mut self, id: FuncId, new_name: impl Into<String>) {
        let new_name = new_name.into();
        assert!(
            !self.by_name.contains_key(&new_name),
            "duplicate function name: {new_name}"
        );
        let old = std::mem::replace(&mut self.functions[id.index()].name, new_name.clone());
        self.by_name.remove(&old);
        self.by_name.insert(new_name, id);
    }

    /// All function ids.
    pub fn func_ids(&self) -> impl Iterator<Item = FuncId> {
        (0..self.functions.len()).map(FuncId::from_index)
    }

    /// Number of functions (declarations included).
    pub fn num_functions(&self) -> usize {
        self.functions.len()
    }

    /// Adds a global variable. Returns its id.
    pub fn add_global(&mut self, g: Global) -> GlobalId {
        let id = GlobalId::from_index(self.globals.len());
        self.globals.push(g);
        id
    }

    /// Immutable access to a global.
    pub fn global(&self, id: GlobalId) -> &Global {
        &self.globals[id.index()]
    }

    /// All global ids.
    pub fn global_ids(&self) -> impl Iterator<Item = GlobalId> {
        (0..self.globals.len()).map(GlobalId::from_index)
    }

    /// Looks up a global by name.
    pub fn global_id(&self, name: &str) -> Option<GlobalId> {
        self.globals
            .iter()
            .position(|g| g.name == name)
            .map(GlobalId::from_index)
    }

    /// Total bytes of statically allocated shared memory.
    pub fn static_shared_bytes(&self) -> u64 {
        self.globals
            .iter()
            .filter(|g| g.space == AddrSpace::Shared)
            .map(|g| g.size)
            .sum()
    }

    /// The kernel metadata for `func`, if it is a kernel entry.
    pub fn kernel_for(&self, func: FuncId) -> Option<&KernelInfo> {
        self.kernels.iter().find(|k| k.func == func)
    }

    /// Mutable kernel metadata for `func`.
    pub fn kernel_for_mut(&mut self, func: FuncId) -> Option<&mut KernelInfo> {
        self.kernels.iter_mut().find(|k| k.func == func)
    }

    /// Whether `func` is a kernel entry point.
    pub fn is_kernel(&self, func: FuncId) -> bool {
        self.kernel_for(func).is_some()
    }

    /// Resolves a state-machine region id installed by the custom
    /// state-machine rewrite.
    pub fn region_for_id(&self, id: i64) -> Option<FuncId> {
        self.parallel_region_ids
            .iter()
            .find(|(i, _)| *i == id)
            .map(|(_, f)| *f)
    }

    /// Total number of instructions across all function bodies.
    pub fn total_insts(&self) -> usize {
        self.functions.iter().map(|f| f.num_insts()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup_functions() {
        let mut m = Module::new("test");
        let id = m.add_function(Function::declaration("foo", vec![Type::I32], Type::Void));
        assert_eq!(m.function_id("foo"), Some(id));
        assert_eq!(m.function_id("bar"), None);
        assert_eq!(m.func(id).name, "foo");
        assert_eq!(m.num_functions(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate function name")]
    fn duplicate_function_panics() {
        let mut m = Module::new("test");
        m.add_function(Function::declaration("foo", vec![], Type::Void));
        m.add_function(Function::declaration("foo", vec![], Type::Void));
    }

    #[test]
    fn get_or_declare_idempotent() {
        let mut m = Module::new("test");
        let a = m.get_or_declare("f", vec![Type::I32], Type::I32);
        let b = m.get_or_declare("f", vec![Type::I32], Type::I32);
        assert_eq!(a, b);
        assert_eq!(m.num_functions(), 1);
    }

    #[test]
    fn rename_function_updates_index() {
        let mut m = Module::new("test");
        let id = m.add_function(Function::declaration("old", vec![], Type::Void));
        m.rename_function(id, "new");
        assert_eq!(m.function_id("new"), Some(id));
        assert_eq!(m.function_id("old"), None);
        assert_eq!(m.func(id).name, "new");
    }

    #[test]
    fn globals_and_shared_accounting() {
        let mut m = Module::new("test");
        m.add_global(Global {
            name: "a".into(),
            size: 1024,
            align: 8,
            space: AddrSpace::Global,
            init: None,
            is_const: false,
        });
        let s = m.add_global(Global {
            name: "b".into(),
            size: 256,
            align: 8,
            space: AddrSpace::Shared,
            init: None,
            is_const: false,
        });
        assert_eq!(m.static_shared_bytes(), 256);
        assert_eq!(m.global_id("b"), Some(s));
        assert_eq!(m.global(s).size, 256);
    }

    #[test]
    fn kernel_metadata() {
        let mut m = Module::new("test");
        let f = m.add_function(Function::definition("k", vec![], Type::Void));
        m.kernels.push(KernelInfo {
            func: f,
            exec_mode: ExecMode::Generic,
            num_teams: Some(4),
            thread_limit: None,
            source_name: "target region".into(),
            launch: Default::default(),
        });
        assert!(m.is_kernel(f));
        assert_eq!(m.kernel_for(f).unwrap().num_teams, Some(4));
        m.kernel_for_mut(f).unwrap().exec_mode = ExecMode::Spmd;
        assert_eq!(m.kernel_for(f).unwrap().exec_mode, ExecMode::Spmd);
    }
}
