//! Launch statistics — the quantities the paper's Figure 10 reports
//! (kernel time, shared memory, registers) plus diagnostic counters.

use crate::config::Tier;
use std::collections::HashMap;

/// Statistics of one kernel launch.
#[derive(Debug, Clone, Default)]
pub struct KernelStats {
    /// Kernel time in model cycles: teams are scheduled round-robin over
    /// SMs, SM time is the sum of its teams, kernel time the max SM.
    pub cycles: u64,
    /// Per-team cycle counts.
    pub team_cycles: Vec<u64>,
    /// Shared-memory footprint in bytes (static shared globals plus the
    /// globalization stack high-water mark) — Figure 10's "SMem" column.
    pub shared_mem_bytes: u64,
    /// Device-heap (globalization fallback) high-water mark in bytes.
    pub heap_bytes: u64,
    /// Estimated registers per thread — Figure 10's "# Regs" column.
    pub registers: u32,
    /// Total executed instructions across all threads.
    pub instructions: u64,
    /// Dynamic calls to each runtime entry point.
    pub rtl_calls: HashMap<String, u64>,
    /// Globalization allocations performed.
    pub globalization_allocs: u64,
    /// Barriers executed (per group release).
    pub barriers: u64,
    /// Indirect calls executed.
    pub indirect_calls: u64,
    /// Generic-mode parallel-region dispatches.
    pub parallel_regions: u64,
    /// Memory accesses executed.
    pub memory_accesses: u64,
    /// Global-memory accesses classified as coalesced.
    pub coalesced_accesses: u64,
    /// Global-memory accesses classified as uncoalesced.
    pub uncoalesced_accesses: u64,
    /// Tier-1 steps executed through the `gep+load` superinstruction.
    pub fused_gep_load: u64,
    /// Tier-1 steps executed through the `load+bin+store`
    /// superinstruction.
    pub fused_load_bin_store: u64,
    /// Tier-1 fused compare-and-branch terminators executed.
    pub fused_cmp_br: u64,
    /// Tier-1 steps executed without fusion. Together with the fused
    /// counters this gives the superinstruction hit rate; all four are
    /// zero under the interpreter tier and therefore tier-*dependent*
    /// (unlike every counter above, which is bit-identical across
    /// tiers).
    pub plain_steps: u64,
    /// Execution tier this launch ran under
    /// ([`crate::DeviceConfig::tier`]). Every counter above is
    /// bit-identical across tiers; the tier is recorded so regressions
    /// are diagnosable from artifacts alone.
    pub tier: Tier,
}

/// A deterministic, order-stable projection of [`KernelStats`]: the
/// `rtl_calls` map is flattened into a name-sorted vector so two runs of
/// the same program compare equal with `==` and serialize identically —
/// the form the differential oracle records.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Kernel time in model cycles.
    pub cycles: u64,
    /// Shared-memory footprint in bytes.
    pub shared_mem_bytes: u64,
    /// Device-heap (globalization fallback) high-water mark in bytes.
    pub heap_bytes: u64,
    /// Estimated registers per thread.
    pub registers: u32,
    /// Total executed instructions across all threads.
    pub instructions: u64,
    /// Globalization allocations performed.
    pub globalization_allocs: u64,
    /// Barriers executed.
    pub barriers: u64,
    /// Indirect calls executed.
    pub indirect_calls: u64,
    /// Generic-mode parallel-region dispatches.
    pub parallel_regions: u64,
    /// Memory accesses executed.
    pub memory_accesses: u64,
    /// Execution tier the launch ran under (`interp` or `compiled`).
    /// Informational: all other fields are bit-identical across tiers,
    /// except the superinstruction counters below.
    pub tier: Tier,
    /// Superinstruction hit counters, in the fixed order `gep_load`,
    /// `load_bin_store`, `cmp_br`, `plain`. Tier-dependent (all zero
    /// under the interpreter) — cross-tier comparisons must zero them
    /// alongside normalizing `tier`.
    pub superinstructions: [u64; 4],
    /// Dynamic calls per runtime entry point, sorted by name.
    pub rtl_calls: Vec<(String, u64)>,
}

impl StatsSnapshot {
    /// Folds this launch into a [`omp_telemetry::MetricsRegistry`]:
    /// per-tier launch counts, instruction/memory/barrier counters, the
    /// deopt (unfused-step) counter, and a histogram of kernel model
    /// cycles. Every input is deterministic, so identical launches
    /// produce bit-identical registries; the `sim.launches.<tier>` and
    /// `sim.deopt_steps` entries are tier-*dependent* (like the
    /// superinstruction counters they derive from) and must be
    /// normalized before cross-tier comparison.
    pub fn record_metrics(&self, reg: &mut omp_telemetry::MetricsRegistry) {
        reg.counter_add("sim.launches", 1);
        reg.counter_add(&format!("sim.launches.{}", self.tier.as_str()), 1);
        reg.counter_add("sim.instructions", self.instructions);
        reg.counter_add("sim.memory_accesses", self.memory_accesses);
        reg.counter_add("sim.barriers", self.barriers);
        reg.counter_add("sim.parallel_regions", self.parallel_regions);
        reg.counter_add("sim.globalization_allocs", self.globalization_allocs);
        reg.counter_add("sim.deopt_steps", self.superinstructions[3]);
        reg.observe("sim.kernel_cycles", self.cycles);
    }

    /// Serializes to one flat JSON object with stable field order.
    pub fn to_json(&self) -> String {
        let mut w = omp_json::JsonWriter::with_capacity(256);
        w.begin_object();
        for (k, v) in [
            ("cycles", self.cycles),
            ("shared_mem_bytes", self.shared_mem_bytes),
            ("heap_bytes", self.heap_bytes),
            ("registers", self.registers as u64),
            ("instructions", self.instructions),
            ("globalization_allocs", self.globalization_allocs),
            ("barriers", self.barriers),
            ("indirect_calls", self.indirect_calls),
            ("parallel_regions", self.parallel_regions),
            ("memory_accesses", self.memory_accesses),
        ] {
            w.key(k).u64(v);
        }
        w.key("tier").string(self.tier.as_str());
        w.key("superinstructions").begin_object();
        for (k, v) in [
            ("gep_load", self.superinstructions[0]),
            ("load_bin_store", self.superinstructions[1]),
            ("cmp_br", self.superinstructions[2]),
            ("plain", self.superinstructions[3]),
        ] {
            w.key(k).u64(v);
        }
        w.end_object();
        w.key("rtl_calls").begin_object();
        for (name, n) in &self.rtl_calls {
            w.key(name).u64(*n);
        }
        w.end_object();
        w.end_object();
        w.finish()
    }
}

impl KernelStats {
    /// Dynamic count of calls to the named runtime function.
    pub fn rtl_count(&self, name: &str) -> u64 {
        self.rtl_calls.get(name).copied().unwrap_or(0)
    }

    /// Deterministic snapshot (sorted `rtl_calls`) for comparison and
    /// serialization.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut rtl_calls: Vec<(String, u64)> = self
            .rtl_calls
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        rtl_calls.sort();
        StatsSnapshot {
            cycles: self.cycles,
            shared_mem_bytes: self.shared_mem_bytes,
            heap_bytes: self.heap_bytes,
            registers: self.registers,
            instructions: self.instructions,
            globalization_allocs: self.globalization_allocs,
            barriers: self.barriers,
            indirect_calls: self.indirect_calls,
            parallel_regions: self.parallel_regions,
            memory_accesses: self.memory_accesses,
            tier: self.tier,
            superinstructions: [
                self.fused_gep_load,
                self.fused_load_bin_store,
                self.fused_cmp_br,
                self.plain_steps,
            ],
            rtl_calls,
        }
    }

    /// Aggregates team cycles into the kernel time given an SM count:
    /// team `i` runs on SM `i % num_sms`; SM time is the sum of its
    /// teams; kernel time is the maximum SM time.
    pub fn finish(&mut self, num_sms: u32) {
        let n = num_sms.max(1) as usize;
        let mut sm = vec![0u64; n];
        for (i, &c) in self.team_cycles.iter().enumerate() {
            sm[i % n] += c;
        }
        self.cycles = sm.into_iter().max().unwrap_or(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sm_aggregation() {
        let mut s = KernelStats {
            team_cycles: vec![100, 200, 300, 400],
            ..KernelStats::default()
        };
        s.finish(2);
        // SM0: 100 + 300 = 400; SM1: 200 + 400 = 600.
        assert_eq!(s.cycles, 600);
        s.finish(4);
        assert_eq!(s.cycles, 400);
        s.finish(1);
        assert_eq!(s.cycles, 1000);
    }

    #[test]
    fn rtl_count_lookup() {
        let mut s = KernelStats::default();
        s.rtl_calls.insert("__kmpc_barrier".into(), 3);
        assert_eq!(s.rtl_count("__kmpc_barrier"), 3);
        assert_eq!(s.rtl_count("nope"), 0);
    }

    #[test]
    fn snapshot_sorts_rtl_calls_and_compares_equal() {
        let mut a = KernelStats::default();
        a.rtl_calls.insert("b".into(), 2);
        a.rtl_calls.insert("a".into(), 1);
        let mut b = KernelStats::default();
        b.rtl_calls.insert("a".into(), 1);
        b.rtl_calls.insert("b".into(), 2);
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(
            a.snapshot().rtl_calls,
            vec![("a".to_string(), 1), ("b".to_string(), 2)]
        );
        assert_eq!(a.snapshot().to_json(), b.snapshot().to_json());
    }

    #[test]
    fn snapshot_json_shape() {
        let mut s = KernelStats {
            cycles: 7,
            ..KernelStats::default()
        };
        s.rtl_calls.insert("__kmpc_barrier".into(), 3);
        let j = s.snapshot().to_json();
        assert!(j.starts_with("{\"cycles\":7,"));
        assert!(j.contains("\"tier\":\"compiled\""));
        assert!(j.contains(
            "\"superinstructions\":{\"gep_load\":0,\"load_bin_store\":0,\"cmp_br\":0,\"plain\":0}"
        ));
        assert!(j.contains("\"rtl_calls\":{\"__kmpc_barrier\":3}"));
        assert!(j.ends_with("}}"));
    }

    #[test]
    fn snapshot_carries_superinstruction_counters() {
        let s = KernelStats {
            fused_gep_load: 4,
            fused_load_bin_store: 3,
            fused_cmp_br: 2,
            plain_steps: 11,
            ..KernelStats::default()
        };
        let snap = s.snapshot();
        assert_eq!(snap.superinstructions, [4, 3, 2, 11]);
        let j = snap.to_json();
        assert!(j.contains(
            "\"superinstructions\":{\"gep_load\":4,\"load_bin_store\":3,\"cmp_br\":2,\"plain\":11}"
        ));
    }
}
