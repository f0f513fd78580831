//! Machine models of the two evaluation platforms.
//!
//! The paper evaluates on Shaheen II (Cray XC40, 2×16-core Intel Haswell @
//! 2.3 GHz, Cray Aries) and Fugaku (48-core Fujitsu A64FX @ 2.2 GHz,
//! Tofu-D). We cannot run on either machine, so the discrete-event
//! simulator consumes a first-order model of each: per-core peak,
//! per-kernel-shape efficiency, network latency/bandwidth, and the
//! task-management overheads of the runtime itself. The *shape* of every
//! result in §VIII is produced by the interplay of these quantities, not
//! by their absolute values (see DESIGN.md §2).

use serde::{Deserialize, Serialize};

/// First-order performance model of one cluster.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MachineModel {
    /// Human-readable platform name.
    pub name: String,
    /// Cores per node (one process per node, as in the paper's runs).
    pub cores_per_node: usize,
    /// Per-core double-precision peak in Gflop/s.
    pub peak_gflops_per_core: f64,
    /// Fraction of peak sustained by large dense kernels (POTRF/TRSM/GEMM
    /// on full `b × b` tiles).
    pub eff_dense: f64,
    /// Half-saturation rank of the skinny-kernel efficiency curve: a
    /// kernel whose inner dimension is `k` sustains
    /// `eff_dense · k / (k + k_half)` of peak. Small `k` ⇒ memory-bound
    /// (the "reduced arithmetic intensity" of §V); `k ≫ k_half` ⇒ dense
    /// rate. Architectures needing long vectors (A64FX/SVE) have a large
    /// `k_half`, which is why skinny TLR kernels hurt more on Fugaku.
    pub k_half: f64,
    /// Parallel efficiency of nested (intra-node multi-core) execution of
    /// critical-path kernels — the "nested parallelism" optimization the
    /// paper inherits from its IPDPS'21 predecessor. Critical-path
    /// kernels run at `cores · eff_dense · nested_efficiency` of a core's
    /// peak.
    pub nested_efficiency: f64,
    /// Network point-to-point latency in seconds.
    pub latency_s: f64,
    /// Network per-link bandwidth in bytes/second.
    pub bandwidth_bps: f64,
    /// Runtime cost of managing one task (creation, scheduling, retirement)
    /// — paid by *every* task fed to the runtime, including the no-op
    /// tasks on null tiles that DAG trimming removes.
    pub task_overhead_s: f64,
    /// Cost of one remote dependency activation (the control message that
    /// tells a successor its input is ready).
    pub dep_overhead_s: f64,
}

impl MachineModel {
    /// Shaheen II: Cray XC40, 2 × 16-core Haswell @ 2.3 GHz per node
    /// (16 DP flop/cycle/core → 36.8 Gflop/s peak), 128 GB DDR4, Aries
    /// interconnect (~1.5 µs, ~10 GB/s injection per node).
    pub fn shaheen_ii() -> Self {
        Self {
            name: "Shaheen II".to_string(),
            cores_per_node: 32,
            peak_gflops_per_core: 36.8,
            eff_dense: 0.80,
            k_half: 24.0,
            nested_efficiency: 0.7,
            latency_s: 1.5e-6,
            bandwidth_bps: 10.0e9,
            task_overhead_s: 20.0e-6,
            dep_overhead_s: 2.0e-6,
        }
    }

    /// Fugaku: 48-core A64FX @ 2.2 GHz per node (two 512-bit SVE FMA
    /// pipes → 70.4 Gflop/s peak/core), 32 GB HBM2, Tofu-D (~1 µs,
    /// ~6.8 GB/s per link). Skinny kernels run at a lower fraction of
    /// peak than on Haswell (SVE needs long vectors to fill), which is
    /// why the paper's Fugaku speedups over Lorapo are larger.
    pub fn fugaku() -> Self {
        Self {
            name: "Fugaku".to_string(),
            cores_per_node: 48,
            peak_gflops_per_core: 70.4,
            eff_dense: 0.75,
            k_half: 96.0,
            nested_efficiency: 0.7,
            latency_s: 1.0e-6,
            bandwidth_bps: 6.8e9,
            task_overhead_s: 20.0e-6,
            dep_overhead_s: 2.0e-6,
        }
    }

    /// Sustained fraction of one core's peak for a kernel whose inner
    /// (rank) dimension is `k`.
    fn efficiency_at_rank(&self, k: usize) -> f64 {
        let k = k as f64;
        self.eff_dense * k / (k + self.k_half)
    }

    /// Seconds to execute `flops` on **one core**, for a kernel with
    /// inner dimension `k` (pass the tile size for dense kernels).
    pub fn core_time(&self, flops: f64, k: usize) -> f64 {
        flops / (self.peak_gflops_per_core * 1e9 * self.efficiency_at_rank(k))
    }

    /// Seconds to execute `flops` as a **nested** (node-parallel)
    /// critical-path kernel using every core of the node.
    pub fn nested_time(&self, flops: f64) -> f64 {
        let rate = self.peak_gflops_per_core
            * 1e9
            * self.eff_dense
            * self.nested_efficiency
            * self.cores_per_node as f64;
        flops / rate
    }

    /// Seconds to execute `flops` at the single-core dense rate.
    pub fn dense_kernel_time(&self, flops: f64) -> f64 {
        flops / (self.peak_gflops_per_core * 1e9 * self.eff_dense)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_sane() {
        let s = MachineModel::shaheen_ii();
        let f = MachineModel::fugaku();
        assert_eq!(s.cores_per_node, 32);
        assert_eq!(f.cores_per_node, 48);
        // Fugaku nodes are faster at dense math...
        assert!(
            f.peak_gflops_per_core * f.cores_per_node as f64 * f.eff_dense
                > s.peak_gflops_per_core * s.cores_per_node as f64 * s.eff_dense
        );
        // ...but proportionally worse at skinny low-rank kernels.
        assert!(
            f.efficiency_at_rank(16) / f.eff_dense < s.efficiency_at_rank(16) / s.eff_dense
        );
    }

    #[test]
    fn kernel_times_scale_linearly() {
        let m = MachineModel::shaheen_ii();
        let t1 = m.dense_kernel_time(1e9);
        let t2 = m.dense_kernel_time(2e9);
        assert!((t2 / t1 - 2.0).abs() < 1e-12);
        assert!(m.core_time(1e9, 8) > t1, "skinny kernels run below dense rate");
    }

    #[test]
    fn efficiency_saturates_with_rank() {
        let m = MachineModel::shaheen_ii();
        assert!(m.efficiency_at_rank(4) < m.efficiency_at_rank(64));
        assert!(m.efficiency_at_rank(64) < m.efficiency_at_rank(4096));
        assert!(m.efficiency_at_rank(4096) < m.eff_dense);
        // saturates: rank 4096 reaches >99% of the dense fraction
        assert!(m.efficiency_at_rank(4096) > 0.99 * m.eff_dense);
    }

    #[test]
    fn nested_faster_than_single_core() {
        let m = MachineModel::fugaku();
        let flops = 1e10;
        assert!(m.nested_time(flops) < m.dense_kernel_time(flops) / 10.0);
    }
}
