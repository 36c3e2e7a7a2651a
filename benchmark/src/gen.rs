//! Seeded input generators.
//!
//! Everything the program under test receives that is not a proxy app or
//! an `examples/omp` file is made here from `--seed`: kernel sources in
//! the shapes of the `examples/omp` corpus, translation units of many
//! such kernels, and the 16-node task chain. Every kernel has a
//! closed-form expected output computed here in host Rust, so checking a
//! result never runs the compiler or the simulator a second time.
//!
//! Constants are multiples of 1/4 and loop bounds are small, so every
//! value a kernel computes is exact in `f64`: the host formula and the
//! simulated kernel agree bit for bit whatever order the optimizer
//! leaves the operations in.

use std::fmt::Write as _;

/// SplitMix64: small, seedable, and good enough to shuffle op orders.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// An independent stream, so adding draws to one consumer does not
    /// shift the inputs of another.
    pub fn fork(&self, stream: u64) -> Rng {
        let mut r = Rng(self.0 ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93));
        r.next_u64();
        r
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// A multiple of 1/4 in `[0.25, 4.0]`.
    fn quarter(&mut self) -> f64 {
        (1 + self.below(16)) as f64 / 4.0
    }
}

/// The kernel shapes of `examples/omp`, one per optimizer path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `target teams distribute parallel for`: SPMD at the source.
    Spmd,
    /// Generic kernel whose nested `parallel for` reads a local array
    /// that escapes into it (globalized, then deglobalized).
    LocalArray,
    /// Generic kernel with a team-shared scalar.
    TeamShared,
    /// Sequential stores before the parallel region: guard grouping.
    Guarded,
    /// Two `nowait depend` targets: a multi-kernel launch plan, the only
    /// shape that reaches the serve graphs tier.
    Pipeline,
}

/// The four single-kernel shapes, in the order the issue lists them.
pub const UNIT_SHAPES: [Shape; 4] = [
    Shape::Spmd,
    Shape::LocalArray,
    Shape::TeamShared,
    Shape::Guarded,
];

/// Elements in every generated kernel's output buffer.
pub const KERNEL_ELEMS: usize = 64;
const NB: usize = 8;
const NT: usize = KERNEL_ELEMS / NB;

/// One generated kernel: a shape, a unique name and three constants.
#[derive(Debug, Clone)]
pub struct Kernel {
    pub name: String,
    pub shape: Shape,
    c: [f64; 3],
}

impl Kernel {
    pub fn draw(rng: &mut Rng, shape: Shape, name: String) -> Kernel {
        Kernel {
            name,
            shape,
            c: [rng.quarter(), rng.quarter(), rng.quarter()],
        }
    }

    /// The function definition, without an oracle header.
    pub fn body(&self) -> String {
        let name = &self.name;
        let [c0, c1, c2] = self.c.map(|c| format!("{c:?}"));
        match self.shape {
            Shape::Spmd => format!(
                "void {name}(double* a, double f, long n) {{\n\
                 \x20 #pragma omp target teams distribute parallel for\n\
                 \x20 for (long i = 0; i < n; i++) {{ a[i] = a[i] * f + {c1}; }}\n\
                 }}\n"
            ),
            Shape::LocalArray => format!(
                "void {name}(double* out, long nb, long nt) {{\n\
                 \x20 #pragma omp target teams distribute\n\
                 \x20 for (long b = 0; b < nb; b++) {{\n\
                 \x20   double w[4];\n\
                 \x20   w[0] = (double)b;\n\
                 \x20   w[1] = (double)b * {c0};\n\
                 \x20   w[2] = (double)b + {c1};\n\
                 \x20   w[3] = {c2};\n\
                 \x20   #pragma omp parallel for\n\
                 \x20   for (long t = 0; t < nt; t++) {{\n\
                 \x20     out[b * nt + t] = w[0] + w[1] * w[2] + w[3] + (double)t;\n\
                 \x20   }}\n\
                 \x20 }}\n\
                 }}\n"
            ),
            Shape::TeamShared => format!(
                "void {name}(double* out, long nb, long nt) {{\n\
                 \x20 #pragma omp target teams distribute\n\
                 \x20 for (long b = 0; b < nb; b++) {{\n\
                 \x20   double tv = (double)b * {c0} + {c1};\n\
                 \x20   #pragma omp parallel for\n\
                 \x20   for (long t = 0; t < nt; t++) {{\n\
                 \x20     out[b * nt + t] = tv + (double)t;\n\
                 \x20   }}\n\
                 \x20 }}\n\
                 }}\n"
            ),
            Shape::Guarded => format!(
                "void {name}(double* out, double* scratch, long n) {{\n\
                 \x20 #pragma omp target teams\n\
                 \x20 {{\n\
                 \x20   scratch[0] = {c0};\n\
                 \x20   double x = {c1} * {c2};\n\
                 \x20   scratch[1] = x;\n\
                 \x20   #pragma omp parallel for\n\
                 \x20   for (long t = 0; t < n; t++) {{\n\
                 \x20     out[t] = scratch[0] + scratch[1] + (double)t;\n\
                 \x20   }}\n\
                 \x20 }}\n\
                 }}\n"
            ),
            Shape::Pipeline => format!(
                "void {name}(double* a, double* b, long n) {{\n\
                 \x20 #pragma omp target teams distribute parallel for nowait depend(inout: a) num_teams(2) thread_limit(8)\n\
                 \x20 for (long i = 0; i < n; i++) {{ a[i] = a[i] + {c0}; }}\n\
                 \x20 #pragma omp target teams distribute parallel for nowait depend(in: a) depend(out: b) num_teams(2) thread_limit(8)\n\
                 \x20 for (long i = 0; i < n; i++) {{ b[i] = a[i] * {c1}; }}\n\
                 }}\n"
            ),
        }
    }

    /// The `// oracle-*:` header `serve` reads kernel, geometry and
    /// arguments from.
    fn header(&self) -> String {
        let name = &self.name;
        let n = KERNEL_ELEMS;
        let (geometry, args): (&str, Vec<String>) = match self.shape {
            Shape::Spmd => (
                "// oracle-teams: 2\n// oracle-threads: 8\n",
                vec![
                    format!("buf f64 {n} iota"),
                    format!("f64 {:?}", self.c[0]),
                    format!("i64 {n}"),
                ],
            ),
            Shape::LocalArray | Shape::TeamShared => (
                "// oracle-teams: 4\n// oracle-threads: 8\n",
                vec![
                    format!("buf f64 {n}"),
                    format!("i64 {NB}"),
                    format!("i64 {NT}"),
                ],
            ),
            Shape::Guarded => (
                "// oracle-teams: 2\n// oracle-threads: 32\n",
                vec![
                    format!("buf f64 {n}"),
                    "buf f64 4 iota".to_string(),
                    format!("i64 {n}"),
                ],
            ),
            Shape::Pipeline => (
                "",
                vec![
                    format!("buf f64 {n} iota"),
                    format!("buf f64 {n} zero"),
                    format!("i64 {n}"),
                ],
            ),
        };
        let mut h = format!("// oracle-kernel: {name}\n{geometry}");
        for a in args {
            let _ = writeln!(h, "// oracle-arg: {a}");
        }
        h
    }

    /// A complete single-kernel source file for `serve`.
    pub fn source(&self) -> String {
        self.header() + &self.body()
    }

    /// The full contents of every buffer argument after one launch, in
    /// argument order, computed on the host.
    pub fn expected(&self) -> Vec<Vec<f64>> {
        let [c0, c1, c2] = self.c;
        let grid = |f: &dyn Fn(f64, f64) -> f64| -> Vec<f64> {
            (0..KERNEL_ELEMS)
                .map(|i| f((i / NT) as f64, (i % NT) as f64))
                .collect()
        };
        let line = |f: &dyn Fn(f64) -> f64| -> Vec<f64> {
            (0..KERNEL_ELEMS).map(|i| f(i as f64)).collect()
        };
        match self.shape {
            Shape::Spmd => vec![line(&|i| i * c0 + c1)],
            Shape::LocalArray => vec![grid(&|b, t| b + (b * c0) * (b + c1) + c2 + t)],
            Shape::TeamShared => vec![grid(&|b, t| (b * c0 + c1) + t)],
            Shape::Guarded => vec![line(&|t| c0 + c1 * c2 + t), vec![c0, c1 * c2, 2.0, 3.0]],
            Shape::Pipeline => vec![line(&|i| i + c0), line(&|i| (i + c0) * c1)],
        }
    }
}

/// A translation unit of `kernels` kernels named `<tag>_<i>`: the four
/// single-kernel shapes in equal numbers, in seeded order with seeded
/// constants. Equal numbers keep the unit's compile cost the same for
/// every seed while its text differs.
pub fn translation_unit(rng: &mut Rng, tag: &str, kernels: usize) -> String {
    let mut shapes: Vec<Shape> = (0..kernels)
        .map(|i| UNIT_SHAPES[i % UNIT_SHAPES.len()])
        .collect();
    rng.shuffle(&mut shapes);
    let mut unit = String::new();
    for (i, shape) in shapes.into_iter().enumerate() {
        unit += &Kernel::draw(rng, shape, format!("{tag}_{i}")).body();
    }
    unit
}

/// Nodes in the `launch_storm` chain.
pub const CHAIN_NODES: usize = 16;
/// Elements the chain updates.
pub const CHAIN_ELEMS: usize = 256;
/// What one execution of the whole chain adds to every element:
/// 1 + 2 + … + 16.
pub const CHAIN_SUM: f64 = 136.0;

/// The 16-node `nowait depend(inout: a)` chain `gchain`: node k adds one
/// of 1..=16 to every element, in seeded order, so any execution order
/// the runtime may legally pick adds exactly [`CHAIN_SUM`].
pub fn chain_source(rng: &mut Rng) -> String {
    let mut adds: Vec<usize> = (1..=CHAIN_NODES).collect();
    rng.shuffle(&mut adds);
    let mut src = String::from("void gchain(double* a, long n) {\n");
    for k in adds {
        let _ = write!(
            src,
            "  #pragma omp target teams distribute parallel for nowait depend(inout: a) num_teams(4) thread_limit(8)\n\
             \x20 for (long i = 0; i < n; i++) {{ a[i] = a[i] + {k}.0; }}\n"
        );
    }
    src += "}\n";
    src
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_repeats_for_a_seed_and_differs_between_seeds() {
        let draw = |seed| -> Vec<u64> {
            let mut r = Rng::new(seed);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
        assert_ne!(
            Rng::new(1).fork(1).next_u64(),
            Rng::new(1).fork(2).next_u64()
        );
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut xs: Vec<u32> = (0..100).collect();
        Rng::new(3).shuffle(&mut xs);
        assert_ne!(xs, (0..100).collect::<Vec<_>>());
        xs.sort_unstable();
        assert_eq!(xs, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn generators_are_seed_deterministic() {
        let unit = |seed| translation_unit(&mut Rng::new(seed), "g", 8);
        assert_eq!(unit(1), unit(1));
        assert_ne!(unit(1), unit(2));
        let chain = |seed| chain_source(&mut Rng::new(seed));
        assert_eq!(chain(1), chain(1));
        assert_ne!(chain(1), chain(2));
        let kernel = |seed| Kernel::draw(&mut Rng::new(seed), Shape::Pipeline, "k".into()).source();
        assert_eq!(kernel(1), kernel(1));
        assert_ne!(kernel(1), kernel(2));
    }

    #[test]
    fn unit_holds_every_shape_equally_often() {
        let unit = translation_unit(&mut Rng::new(5), "g", 128);
        assert_eq!(unit.matches("void g_").count(), 128);
        assert_eq!(unit.matches("double w[4];").count(), 32);
        assert_eq!(unit.matches("double tv =").count(), 32);
        assert_eq!(unit.matches("scratch[1] = x;").count(), 32);
    }

    #[test]
    fn chain_adds_each_increment_once() {
        let src = chain_source(&mut Rng::new(9));
        for k in 1..=CHAIN_NODES {
            assert_eq!(src.matches(&format!("+ {k}.0;")).count(), 1, "{k}");
        }
        assert_eq!((1..=CHAIN_NODES).sum::<usize>() as f64, CHAIN_SUM);
    }

    #[test]
    fn expected_buffers_match_the_argument_list() {
        let mut rng = Rng::new(1);
        for shape in [
            Shape::Spmd,
            Shape::LocalArray,
            Shape::TeamShared,
            Shape::Guarded,
            Shape::Pipeline,
        ] {
            let k = Kernel::draw(&mut rng, shape, "k".into());
            let buffers = k.header().matches("oracle-arg: buf").count();
            assert_eq!(k.expected().len(), buffers, "{shape:?}");
            assert_eq!(k.expected()[0].len(), KERNEL_ELEMS);
        }
    }
}
