//! Call graph construction and inter-procedural reachability.

use omp_ir::{FuncId, InstKind, Module, Value};
use std::collections::{HashMap, HashSet, VecDeque};

/// The module call graph.
///
/// Tracks direct call edges, indirect call sites, and address-taken
/// functions (a function whose address flows anywhere other than the
/// callee slot of a call). Address-taken functions are conservatively
/// treated as potential targets of every indirect call — this is also
/// the source of the "spurious call edges" register-pressure problem the
/// paper's custom state-machine rewrite eliminates (Section IV-B2).
#[derive(Debug, Clone, PartialEq)]
pub struct CallGraph {
    /// Direct callees of each function (deduplicated).
    pub callees: HashMap<FuncId, Vec<FuncId>>,
    /// Direct callers of each function (deduplicated).
    pub callers: HashMap<FuncId, Vec<FuncId>>,
    /// Functions containing at least one indirect call.
    pub has_indirect_call: HashSet<FuncId>,
    /// Functions whose address is taken outside a direct-call callee slot.
    pub address_taken: HashSet<FuncId>,
}

impl CallGraph {
    /// Builds the call graph of `m`.
    pub fn build(m: &Module) -> CallGraph {
        let mut callees: HashMap<FuncId, HashSet<FuncId>> = HashMap::new();
        let mut has_indirect_call = HashSet::new();
        let mut address_taken = HashSet::new();
        for fid in m.func_ids() {
            let f = m.func(fid);
            let entry = callees.entry(fid).or_default();
            if f.is_declaration() {
                continue;
            }
            let mut local_callees = HashSet::new();
            let mut local_indirect = false;
            let mut local_taken: Vec<FuncId> = Vec::new();
            f.for_each_inst(|_, _, kind| {
                if let InstKind::Call { callee, args, .. } = kind {
                    match callee {
                        Value::Func(c) => {
                            local_callees.insert(*c);
                        }
                        _ => local_indirect = true,
                    }
                    for a in args {
                        if let Value::Func(t) = a {
                            local_taken.push(*t);
                        }
                    }
                } else {
                    kind.for_each_operand(|v| {
                        if let Value::Func(t) = v {
                            local_taken.push(t);
                        }
                    });
                }
                // Terminators cannot reference functions except through
                // values, which are covered above.
            });
            // Also scan terminator operands (e.g. `ret @f`).
            for b in f.block_ids() {
                f.block(b).term.for_each_operand(|v| {
                    if let Value::Func(t) = v {
                        local_taken.push(t);
                    }
                });
            }
            entry.extend(local_callees);
            if local_indirect {
                has_indirect_call.insert(fid);
            }
            address_taken.extend(local_taken);
        }
        let mut callers: HashMap<FuncId, HashSet<FuncId>> = HashMap::new();
        for (&f, cs) in &callees {
            for &c in cs {
                callers.entry(c).or_default().insert(f);
            }
        }
        CallGraph {
            callees: callees
                .into_iter()
                .map(|(k, v)| {
                    let mut v: Vec<_> = v.into_iter().collect();
                    v.sort();
                    (k, v)
                })
                .collect(),
            callers: callers
                .into_iter()
                .map(|(k, v)| {
                    let mut v: Vec<_> = v.into_iter().collect();
                    v.sort();
                    (k, v)
                })
                .collect(),
            has_indirect_call,
            address_taken,
        }
    }

    /// Direct callees of `f` (empty if none).
    pub fn callees_of(&self, f: FuncId) -> &[FuncId] {
        self.callees.get(&f).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Direct callers of `f` (empty if none).
    pub fn callers_of(&self, f: FuncId) -> &[FuncId] {
        self.callers.get(&f).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The set of functions transitively reachable from `roots` through
    /// direct call edges; if a reached function performs indirect calls,
    /// all address-taken functions become reachable as well.
    pub fn reachable_from(&self, roots: impl IntoIterator<Item = FuncId>) -> HashSet<FuncId> {
        let mut out: HashSet<FuncId> = HashSet::new();
        let mut q: VecDeque<FuncId> = roots.into_iter().collect();
        let mut indirect_expanded = false;
        for &r in &q {
            out.insert(r);
        }
        while let Some(f) = q.pop_front() {
            for &c in self.callees_of(f) {
                if out.insert(c) {
                    q.push_back(c);
                }
            }
            if self.has_indirect_call.contains(&f) && !indirect_expanded {
                indirect_expanded = true;
                for &t in &self.address_taken {
                    if out.insert(t) {
                        q.push_back(t);
                    }
                }
            }
        }
        out
    }

    /// Whether `f` can reach itself through its own callees.
    pub fn is_recursive(&self, f: FuncId) -> bool {
        self.reachable_from(self.callees_of(f).iter().copied())
            .contains(&f)
    }

    /// For every function, which kernels (by index into `m.kernels`) may
    /// reach it. Used by runtime-call folding: a query can be folded only
    /// if every kernel reaching it agrees on the answer (Section IV-C).
    pub fn kernels_reaching(&self, m: &Module) -> HashMap<FuncId, Vec<usize>> {
        let mut out: HashMap<FuncId, Vec<usize>> = HashMap::new();
        for (ki, k) in m.kernels.iter().enumerate() {
            for f in self.reachable_from([k.func]) {
                out.entry(f).or_default().push(ki);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omp_ir::{Builder, ExecMode, Function, KernelInfo, Type};

    fn module_with_chain() -> (Module, FuncId, FuncId, FuncId) {
        // k -> a -> b
        let mut m = Module::new("t");
        let b_id = m.add_function(Function::definition("b", vec![], Type::Void));
        {
            let mut bb = Builder::at_entry(&mut m, b_id);
            bb.ret(None);
        }
        let a_id = m.add_function(Function::definition("a", vec![], Type::Void));
        {
            let mut bb = Builder::at_entry(&mut m, a_id);
            bb.call(b_id, vec![]);
            bb.ret(None);
        }
        let k_id = m.add_function(Function::definition("k", vec![], Type::Void));
        {
            let mut bb = Builder::at_entry(&mut m, k_id);
            bb.call(a_id, vec![]);
            bb.ret(None);
        }
        (m, k_id, a_id, b_id)
    }

    #[test]
    fn direct_edges() {
        let (m, k, a, b) = module_with_chain();
        let cg = CallGraph::build(&m);
        assert_eq!(cg.callees_of(k), &[a]);
        assert_eq!(cg.callees_of(a), &[b]);
        assert_eq!(cg.callers_of(b), &[a]);
        assert!(cg.callees_of(b).is_empty());
        assert!(cg.has_indirect_call.is_empty());
        assert!(cg.address_taken.is_empty());
    }

    #[test]
    fn reachability() {
        let (m, k, a, b) = module_with_chain();
        let cg = CallGraph::build(&m);
        let r = cg.reachable_from([k]);
        assert!(r.contains(&k) && r.contains(&a) && r.contains(&b));
        let r = cg.reachable_from([a]);
        assert!(!r.contains(&k));
        assert!(!cg.is_recursive(a));
    }

    #[test]
    fn recursion_through_a_callee() {
        let (mut m, k, a, b) = module_with_chain();
        // Close the cycle a -> b -> a; k only calls into it.
        let entry = m.func(b).entry();
        let mut bb = Builder::at(&mut m, b, entry);
        bb.call(a, vec![]);
        bb.ret(None);
        let cg = CallGraph::build(&m);
        assert!(cg.is_recursive(a) && cg.is_recursive(b));
        assert!(!cg.is_recursive(k));
    }

    #[test]
    fn address_taken_and_indirect() {
        let (mut m, k, _a, b) = module_with_chain();
        // Add a function whose address is passed as an argument, and an
        // indirect call in k.
        let t_id = m.add_function(Function::definition("t", vec![], Type::Void));
        {
            let mut bb = Builder::at_entry(&mut m, t_id);
            bb.ret(None);
        }
        let sink = m.add_function(Function::declaration("sink", vec![Type::Ptr], Type::Void));
        {
            let kf = m.func(k).entry();
            let mut bb = Builder::at(&mut m, k, kf);
            bb.call(sink, vec![Value::Func(t_id)]);
            let p = bb.alloca(8, 8);
            bb.call_indirect(p, vec![], Type::Void);
            bb.ret(None);
        }
        let cg = CallGraph::build(&m);
        assert!(cg.address_taken.contains(&t_id));
        assert!(!cg.address_taken.contains(&b));
        assert!(cg.has_indirect_call.contains(&k));
        // t is reachable from k via the indirect call expansion.
        let r = cg.reachable_from([k]);
        assert!(r.contains(&t_id));
    }

    #[test]
    fn kernels_reaching_maps_functions_to_kernels() {
        let (mut m, k, a, b) = module_with_chain();
        m.kernels.push(KernelInfo {
            func: k,
            exec_mode: ExecMode::Generic,
            num_teams: None,
            thread_limit: None,
            source_name: "k".into(),
            launch: Default::default(),
        });
        let cg = CallGraph::build(&m);
        let kr = cg.kernels_reaching(&m);
        assert_eq!(kr[&a], vec![0]);
        assert_eq!(kr[&b], vec![0]);
        assert_eq!(kr[&k], vec![0]);
    }
}
