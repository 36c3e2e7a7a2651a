//! Analysis caching across the mid-end and `openmp-opt`.
//!
//! The pass manager (`omp-gpu`'s `pipeline` module) owns one
//! [`AnalysisCache`] per optimization run and hands it to every pass,
//! `openmp-opt` included. Passes request the module analyses (call
//! graph, effect summaries, execution domains) and the per-function
//! ones (dominator trees, loop forests) through it; results are computed
//! lazily, shared across passes, and invalidated precisely when a pass
//! mutates the IR (per function for CFG-local analyses, module-wide for
//! everything derived from function bodies and call edges).
//!
//! Debug builds rebuild a module analysis every time a cached one is
//! served and assert the two are equal, so a pass that forgets to
//! invalidate fails the first test that reaches it; release builds pay
//! nothing.

use omp_analysis::{CallGraph, Effects, ExecutionDomains, LoopForest};
use omp_ir::{DomTree, FuncId, Module};
use std::collections::HashMap;

/// Lazily computed, mutation-invalidated analysis results.
#[derive(Debug, Default)]
pub struct AnalysisCache {
    call_graph: Option<CallGraph>,
    effects: Option<Effects>,
    domains: Option<ExecutionDomains>,
    doms: HashMap<FuncId, DomTree>,
    loops: HashMap<FuncId, LoopForest>,
    /// Analyses computed since construction (cache misses).
    pub computed: usize,
    /// Analyses served from the cache (cache hits).
    pub hits: usize,
}

impl AnalysisCache {
    /// Creates an empty cache.
    pub fn new() -> AnalysisCache {
        AnalysisCache::default()
    }

    /// The module call graph (cached until [`invalidate_call_graph`]
    /// or [`invalidate_all`] is called).
    ///
    /// [`invalidate_call_graph`]: AnalysisCache::invalidate_call_graph
    /// [`invalidate_all`]: AnalysisCache::invalidate_all
    pub fn call_graph(&mut self, m: &Module) -> &CallGraph {
        let (computed, hits) = (&mut self.computed, &mut self.hits);
        serve(&mut self.call_graph, computed, hits, "call graph", || {
            CallGraph::build(m)
        })
    }

    /// The inter-procedural effect summaries, same lifetime as the call
    /// graph.
    pub fn effects(&mut self, m: &Module) -> &Effects {
        self.call_graph(m);
        let cg = self.call_graph.as_ref().expect("built above");
        let (computed, hits) = (&mut self.computed, &mut self.hits);
        serve(&mut self.effects, computed, hits, "effects", || {
            Effects::compute(m, cg)
        })
    }

    /// The call graph together with the execution domains computed from
    /// it, same lifetime as the call graph.
    pub fn domains(&mut self, m: &Module) -> (&CallGraph, &ExecutionDomains) {
        self.call_graph(m);
        let cg = self.call_graph.as_ref().expect("built above");
        let (computed, hits) = (&mut self.computed, &mut self.hits);
        let domains = serve(
            &mut self.domains,
            computed,
            hits,
            "execution domains",
            || ExecutionDomains::compute(m, cg),
        );
        (cg, domains)
    }

    /// The dominator tree of `f` (must be a definition).
    pub fn dom(&mut self, m: &Module, f: FuncId) -> &DomTree {
        match self.doms.entry(f) {
            std::collections::hash_map::Entry::Vacant(e) => {
                self.computed += 1;
                e.insert(DomTree::compute(m.func(f)))
            }
            std::collections::hash_map::Entry::Occupied(e) => {
                self.hits += 1;
                e.into_mut()
            }
        }
    }

    /// The loop forest of `f` (must be a definition). Computes (and
    /// caches) the dominator tree as a prerequisite.
    pub fn loop_forest(&mut self, m: &Module, f: FuncId) -> &LoopForest {
        if self.loops.contains_key(&f) {
            self.hits += 1;
        } else {
            self.dom(m, f);
            let forest = LoopForest::compute(m.func(f), &self.doms[&f]);
            self.loops.insert(f, forest);
            self.computed += 1;
        }
        &self.loops[&f]
    }

    /// Drops what depends on the body of `f` after a pass mutated it
    /// without adding or removing a call or a function reference: its
    /// CFG-derived analyses, and the module analyses that read
    /// instructions (effects, execution domains). The call graph stays.
    pub fn invalidate_function(&mut self, f: FuncId) {
        self.doms.remove(&f);
        self.loops.remove(&f);
        self.effects = None;
        self.domains = None;
    }

    /// Drops the call graph, and with it the effects and execution
    /// domains, after call edges or function references changed
    /// (inlining, devirtualization, dead-call elimination,
    /// deglobalization, folding). Per-function analyses stay.
    pub fn invalidate_call_graph(&mut self) {
        self.call_graph = None;
        self.effects = None;
        self.domains = None;
    }

    /// Drops everything (after a pass that rewrote function bodies
    /// without tracking which).
    pub fn invalidate_all(&mut self) {
        self.invalidate_call_graph();
        self.doms.clear();
        self.loops.clear();
    }
}

/// Serves one module analysis from its slot, building it on a miss. On
/// a hit, debug builds build it again and require the two to be equal.
fn serve<'a, T: PartialEq + std::fmt::Debug>(
    slot: &'a mut Option<T>,
    computed: &mut usize,
    hits: &mut usize,
    what: &str,
    build: impl Fn() -> T,
) -> &'a T {
    match slot {
        None => *computed += 1,
        Some(cached) => {
            debug_assert_eq!(*cached, build(), "stale {what} served");
            *hits += 1;
        }
    }
    slot.get_or_insert_with(build)
}

#[cfg(test)]
mod tests {
    use super::*;
    use omp_ir::{Builder, Function, Type};

    fn module() -> (Module, FuncId) {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![], Type::Void));
        let mut b = Builder::at_entry(&mut m, f);
        b.ret(None);
        (m, f)
    }

    #[test]
    fn caches_and_invalidates() {
        let (m, f) = module();
        let mut cache = AnalysisCache::new();
        cache.dom(&m, f);
        assert_eq!((cache.computed, cache.hits), (1, 0));
        cache.dom(&m, f);
        assert_eq!((cache.computed, cache.hits), (1, 1));
        cache.loop_forest(&m, f);
        // Loop forest reuses the cached dominator tree.
        assert_eq!((cache.computed, cache.hits), (2, 2));
        cache.invalidate_function(f);
        cache.dom(&m, f);
        assert_eq!(cache.computed, 3);
    }

    #[test]
    fn call_graph_is_cached_separately() {
        let (m, f) = module();
        let mut cache = AnalysisCache::new();
        cache.call_graph(&m);
        cache.call_graph(&m);
        assert_eq!((cache.computed, cache.hits), (1, 1));
        cache.invalidate_function(f);
        cache.call_graph(&m);
        assert_eq!(cache.hits, 2, "function invalidation keeps the call graph");
        cache.invalidate_call_graph();
        cache.call_graph(&m);
        assert_eq!(cache.computed, 2);
    }

    #[test]
    fn module_analyses_share_the_call_graph_and_its_lifetime() {
        let (m, _) = module();
        let mut cache = AnalysisCache::new();
        cache.effects(&m);
        // Call graph and effects built; domains reuse the graph.
        assert_eq!((cache.computed, cache.hits), (2, 0));
        cache.domains(&m);
        assert_eq!((cache.computed, cache.hits), (3, 1));
        cache.effects(&m);
        assert_eq!((cache.computed, cache.hits), (3, 3));
        cache.invalidate_call_graph();
        cache.domains(&m);
        assert_eq!(cache.computed, 5, "both rebuilt after invalidation");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale call graph served")]
    fn debug_builds_catch_a_missing_invalidation() {
        let (mut m, f) = module();
        let mut cache = AnalysisCache::new();
        cache.call_graph(&m);
        let g = m.add_function(Function::declaration("g", vec![], Type::Void));
        let entry = m.func(f).entry();
        Builder::at(&mut m, f, entry).call(g, vec![]);
        cache.call_graph(&m);
    }
}
