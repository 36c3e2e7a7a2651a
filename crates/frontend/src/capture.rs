//! Syntactic analyses the frontend performs before lowering:
//!
//! * which variables a `parallel` region captures (free variables);
//! * which locals "escape" — their address is taken, they are passed to
//!   a callee as a pointer, or they are captured by a parallel region —
//!   and therefore must be globalized on the GPU (paper Section IV-A:
//!   "the front-end can only perform simple intra-procedural analysis ...
//!   it will introduce globalization whenever it is possible that a
//!   variable could be shared between threads");
//! * the sizes of the per-function legacy globalization aggregate
//!   (LLVM 12 scheme, Figure 4b).

use crate::ast::*;
use std::collections::HashSet;

/// A captured variable together with whether the region assigns to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Capture {
    /// Variable name.
    pub(crate) name: String,
    /// Whether the region body assigns to the variable itself
    /// (`x = ...`, `x += ...`); writes through pointers or array
    /// elements do not count.
    pub(crate) assigned: bool,
}

/// The free variables of a parallel region body with per-variable
/// assignment flags, used to decide by-value vs by-reference capture:
/// names in `outer` referenced inside the region (including nested
/// regions) that are not declared within it. Order is first-reference
/// order, deterministic. Shadowing is approximated name-wise (the
/// dialect forbids shadowing; see `lower`).
pub(crate) fn captured_with_flags(body: &Stmt, outer: &HashSet<String>) -> Vec<Capture> {
    let mut declared = HashSet::new();
    let mut assigned = HashSet::new();
    let mut referenced: Vec<&str> = Vec::new();
    walk(
        body,
        |s| {
            declared.extend(s.declared_name());
            true
        },
        |e| match e {
            Expr::Ident(n) => referenced.push(n),
            Expr::Assign { lhs, .. } => {
                if let Expr::Ident(n) = lhs.as_ref() {
                    assigned.insert(n.as_str());
                }
            }
            _ => {}
        },
    );
    let mut seen = HashSet::new();
    referenced
        .into_iter()
        .filter(|n| outer.contains(*n) && !declared.contains(n) && seen.insert(*n))
        .map(|n| Capture {
            name: n.to_string(),
            assigned: assigned.contains(n),
        })
        .collect()
}

/// The names of [`captured_with_flags`].
pub(crate) fn captured_vars(body: &Stmt, outer: &HashSet<String>) -> Vec<String> {
    captured_with_flags(body, outer)
        .into_iter()
        .map(|c| c.name)
        .collect()
}

/// The variables of one function, as lowering needs them.
pub(crate) struct Locals {
    /// Every name the function binds: parameters, locals and loop
    /// variables.
    pub(crate) names: HashSet<String>,
    /// The names that must be globalized: address-taken,
    /// array-passed-to-call, or captured *by reference* by a parallel
    /// region (assigned in the region, address-taken, or an array whose
    /// storage worker threads touch). Scalars that regions only read
    /// are captured by value and stay private — mirroring Clang, where
    /// firstprivate-style captures do not globalize the original.
    pub(crate) escaping: HashSet<String>,
}

/// Computes the [`Locals`] of `f`.
pub(crate) fn locals(f: &FuncDecl) -> Locals {
    let mut names: HashSet<String> = f.params.iter().map(|p| p.name.clone()).collect();
    let mut escaping = HashSet::new();
    let Some(body) = &f.body else {
        return Locals { names, escaping };
    };
    let mut arrays = HashSet::new();
    let mut passed: Vec<&str> = Vec::new();
    walk(
        body,
        |s| {
            if let Stmt::VarDecl {
                name,
                array: Some(_),
                ..
            } = s
            {
                arrays.insert(name.as_str());
            }
            names.extend(s.declared_name().map(str::to_string));
            true
        },
        |e| match e {
            Expr::Unary {
                op: UnaryOp::Addr,
                expr,
            } => {
                if let Expr::Ident(n) = expr.as_ref() {
                    escaping.insert(n.clone());
                }
            }
            Expr::Call { args, .. } => passed.extend(args.iter().filter_map(|a| match a {
                Expr::Ident(n) => Some(n.as_str()),
                _ => None,
            })),
            _ => {}
        },
    );
    // A local array passed bare decays to a pointer to its storage;
    // pointers and scalars passed bare go by value.
    escaping.extend(
        passed
            .into_iter()
            .filter(|n| arrays.contains(n))
            .map(str::to_string),
    );
    let mut regions = Vec::new();
    collect_parallel_regions(body, &mut regions);
    for r in regions {
        for c in captured_with_flags(r, &names) {
            if c.assigned || arrays.contains(c.name.as_str()) {
                escaping.insert(c.name);
            }
        }
    }
    Locals { names, escaping }
}

/// Collects all parallel-region bodies (including nested ones),
/// outermost first.
pub(crate) fn collect_parallel_regions<'a>(s: &'a Stmt, out: &mut Vec<&'a Stmt>) {
    walk(
        s,
        |s| {
            if let Stmt::Omp {
                directive: OmpDirective::Parallel { .. },
                body: Some(b),
            } = s
            {
                out.push(b);
            }
            true
        },
        |_| {},
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn escaping_locals(f: &FuncDecl) -> HashSet<String> {
        locals(f).escaping
    }

    fn func(src: &str) -> FuncDecl {
        let p = parse_program(src).unwrap();
        match p.decls.into_iter().next().unwrap() {
            Decl::Func(f) => f,
        }
    }

    #[test]
    fn address_of_marks_escaping() {
        let f = func("void f() { double x = 1.0; double y = 2.0; use(&x); y = y + 1.0; }");
        let esc = escaping_locals(&f);
        assert!(esc.contains("x"));
        assert!(!esc.contains("y"));
    }

    #[test]
    fn array_passed_to_call_escapes() {
        let f = func("void f() { double buf[8]; fill(buf); double z[4]; z[0] = 1.0; }");
        let esc = escaping_locals(&f);
        assert!(esc.contains("buf"));
        assert!(!esc.contains("z"), "locally indexed array stays private");
    }

    #[test]
    fn captured_by_parallel_region_escapes() {
        let f = func(
            r#"
void f(long n) {
  double team_val = 1.0;
  double priv = 0.0;
  #pragma omp parallel for
  for (long i = 0; i < n; i++) {
    double thread_val = team_val * 2.0;
    priv = priv; // not referenced in region otherwise
  }
}
"#,
        );
        let esc = escaping_locals(&f);
        // team_val is only read by the region: captured by value, stays
        // private (no globalization).
        assert!(!esc.contains("team_val"));
        // priv is assigned inside the region: by-reference capture.
        assert!(esc.contains("priv"));
        assert!(!esc.contains("thread_val"));
        assert!(!esc.contains("i"));
    }

    #[test]
    fn captured_vars_ordered_and_scoped() {
        let p = parse_program(
            r#"
void f(double* data, long n) {
  double a = 1.0;
  long b = 2;
  #pragma omp parallel for
  for (long i = 0; i < n; i++) {
    double local = a;
    data[i] = local + (double)b + (double)n;
  }
}
"#,
        )
        .unwrap();
        let Decl::Func(f) = &p.decls[0];
        let mut regions = Vec::new();
        collect_parallel_regions(f.body.as_ref().unwrap(), &mut regions);
        assert_eq!(regions.len(), 1);
        let outer: HashSet<String> = ["data", "n", "a", "b"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let caps = captured_vars(regions[0], &outer);
        assert_eq!(caps, vec!["n", "a", "data", "b"]);
    }

    #[test]
    fn nested_parallel_regions_collected() {
        let f = func(
            r#"
void f(long n) {
  #pragma omp parallel
  {
    #pragma omp parallel
    { long x = n; }
  }
}
"#,
        );
        let mut regions = Vec::new();
        collect_parallel_regions(f.body.as_ref().unwrap(), &mut regions);
        assert_eq!(regions.len(), 2);
        let esc = escaping_locals(&f);
        // n is only read: by-value capture, not globalized.
        assert!(!esc.contains("n"));
    }

    /// Captures come in first-reference order, which fixes the slot
    /// order of the capture struct in the IR: a `for` header's bounds
    /// and step before its body, an assignment's left side before its
    /// right side, an index's base before the index, and call
    /// arguments left to right.
    #[test]
    fn capture_order_is_first_reference_order() {
        let f = func(
            r#"
void f(double* d, long lo, long hi, long st, double x, double y, double u, double v) {
  #pragma omp parallel
  {
    for (long i = hi; i < st; i += lo) {
      v = u;
      g(y, d[i], x);
    }
  }
}
"#,
        );
        let mut regions = Vec::new();
        collect_parallel_regions(f.body.as_ref().unwrap(), &mut regions);
        let outer: HashSet<String> = f.params.iter().map(|p| p.name.clone()).collect();
        let caps = captured_with_flags(regions[0], &outer);
        let names: Vec<&str> = caps.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["hi", "st", "lo", "v", "u", "y", "d", "x"]);
        let assigned: Vec<&str> = caps
            .iter()
            .filter(|c| c.assigned)
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(assigned, ["v"]);
    }

    #[test]
    fn induction_variable_of_worksharing_loop_is_private() {
        let f = func(
            r#"
void f(double* d, long n) {
  #pragma omp parallel for
  for (long i = 0; i < n; i++) { d[i] = (double)i; }
}
"#,
        );
        let esc = escaping_locals(&f);
        assert!(!esc.contains("i"));
        assert!(esc.contains("d") || !esc.contains("d")); // params may escape via capture
    }
}
