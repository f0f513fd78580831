//! Distributed execution on the simulated machine (the paper's runs).
//!
//! Drives the discrete-event simulator over the Cholesky task space —
//! walked in place, no DAG is built — priced by a
//! [`MachineModel`]: kernel flops at the dense or low-rank sustained rate,
//! plus the runtime's per-task overhead; edges priced by the network
//! model. The execution mapping follows one of the paper's distribution
//! plans (Fig. 3), including the §VII-B remapping where off-band tiles
//! *execute* on the diamond grid while the data stays with its owner —
//! PaRSEC ships the tile in and the result back, at most twice per tile,
//! which we account as write-back bytes.

use crate::dag::{tile_bytes, CholeskySpace, DagConfig, TaskKind};
use runtime::critical_path::cp_efficiency;
use runtime::des::{simulate, CommStats, DesTask};
use runtime::fault::FaultPlan;
use runtime::graph::DataRef;
use runtime::machine::MachineModel;
use runtime::trace::{load_imbalance, ClassBreakdown, Trace};
use runtime::EngineError;
use tlr_compress::RankSnapshot;
use distribution::{
    BandDistribution, DiamondDistribution, LorapoHybrid, TileDistribution, TwoDBlockCyclic,
};

/// Which of the paper's distribution schemes to run (Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistributionPlan {
    /// ScaLAPACK 2D block-cyclic, owner-computes (Fig. 3a).
    TwoD,
    /// Lorapo hybrid 1D + 2D, owner-computes (Fig. 3b) — the baseline.
    Lorapo,
    /// Band distribution: critical-path TRSM co-located with POTRF
    /// (Fig. 3c, §VII-A), owner-computes elsewhere.
    Band,
    /// Band distribution **plus** diamond-shaped execution remapping of
    /// off-band tasks (Fig. 3d, §VII-B) — full HiCMA-PaRSEC.
    BandDiamond,
}

impl DistributionPlan {
    /// Short name for tables.
    pub fn name(self) -> &'static str {
        match self {
            DistributionPlan::TwoD => "2DBCDD",
            DistributionPlan::Lorapo => "lorapo-hybrid",
            DistributionPlan::Band => "band",
            DistributionPlan::BandDiamond => "band+diamond",
        }
    }
}

/// Full configuration of one simulated run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Cluster model.
    pub machine: MachineModel,
    /// Number of nodes (one process per node).
    pub nodes: usize,
    /// Distribution scheme.
    pub plan: DistributionPlan,
    /// Algorithm-1 DAG trimming on/off.
    pub trimmed: bool,
    /// Fill-rank cap for the symbolic analysis.
    pub rank_cap: usize,
    /// Band width for the band-based plans (2 = diagonal + sub-diagonal).
    pub band_width: usize,
}

/// Results of one simulated factorization.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Simulated time-to-solution of the factorization (seconds).
    pub factorization_seconds: f64,
    /// Wall-clock cost on this machine of the symbolic phase: Algorithm 1
    /// plus the task space's O(NT²) tables; no DAG is built (Fig. 6
    /// right, "overhead of Algorithm 1").
    pub analysis_seconds: f64,
    /// Memory footprint of Algorithm 1's analysis structure plus the
    /// task space's tables (bytes).
    pub analysis_bytes: usize,
    /// Tasks simulated.
    pub dag_tasks: usize,
    /// Dense-DAG task count for the same NT (what trimming removed from).
    pub dense_dag_tasks: usize,
    /// Compute-only critical-path bound (§VIII-G roofline), seconds.
    pub critical_path_seconds: f64,
    /// Cross-process communication totals.
    pub comm: CommStats,
    /// Extra bytes from diamond remapping (ship-in + write-back).
    pub writeback_bytes: u64,
    /// `max busy / mean busy` over processes, from the simulator's
    /// in-place busy ledger.
    pub load_imbalance: f64,
    /// Simulated busy seconds per kernel class, from the same ledger.
    pub breakdown: ClassBreakdown,
    /// Modeled matrix-generation phase (embarrassingly parallel), seconds.
    pub generation_seconds: f64,
    /// Modeled compression phase, seconds (Fig. 11's dominant bar).
    pub compression_seconds: f64,
    /// Fail-stop crashes that fired during the run (0 without a schedule).
    pub crashes: usize,
    /// Tasks migrated off dead nodes.
    pub migrated_tasks: usize,
    /// Tasks re-executed to regenerate outputs lost in a crash.
    pub reexecuted_tasks: usize,
    /// Silent store corruptions that struck during the run (0 without a
    /// schedule); each is priced as lineage healing by the DES.
    pub corruptions: usize,
}

impl SimReport {
    /// Roofline efficiency: critical path / achieved (§VIII-G), by the
    /// run report's convention ([`cp_efficiency`]).
    pub fn roofline_efficiency(&self) -> f64 {
        cp_efficiency(self.critical_path_seconds, self.factorization_seconds)
    }
}

/// A paper-scale experiment mapped onto a feasible simulation size.
///
/// Scaling rule: divide the matrix size `N` and the node count by `S`
/// and the tile size by `√S` ([`scaled_problem`]), and the machine's
/// fixed time constants by `S` ([`scaled_machine`]). This keeps both
/// dimensionless balances of the execution intact — critical-path work
/// vs off-band work per node, and tiles per process — so who-wins and
/// where the scaling crossovers fall are preserved, while DAGs stay
/// within memory (see EXPERIMENTS.md). These two functions are the
/// rule's one home.
#[derive(Debug, Clone, Copy)]
pub struct ScaledProblem {
    /// Number of tile rows in the simulated matrix.
    pub nt: usize,
    /// Simulated tile size.
    pub tile_size: usize,
    /// Simulated node count.
    pub nodes: usize,
    /// The downscale factor applied.
    pub scale: usize,
}

/// Map a paper experiment `(N, b, nodes)` to simulation scale by `S`.
pub fn scaled_problem(n_paper: f64, b_paper: usize, nodes_paper: usize, s: usize) -> ScaledProblem {
    assert!(s >= 1);
    let sf = s as f64;
    let tile_size = ((b_paper as f64) / sf.sqrt()).round().max(32.0) as usize;
    let n = n_paper / sf;
    let nt = (n / tile_size as f64).round().max(4.0) as usize;
    let nodes = (nodes_paper / s).max(1);
    ScaledProblem { nt, tile_size, nodes, scale: s }
}

/// Scale a machine model's *fixed time constants* by the downscale
/// factor `s` of [`scaled_problem`]. Kernel durations shrink with the
/// scaled tile sizes, so the per-task management cost, the
/// dependency-activation cost and the network latency must shrink
/// proportionally or the overhead:work balance of the original runs is
/// distorted by `S`. Rates, efficiencies and core counts stay.
pub fn scaled_machine(mut m: MachineModel, s: usize) -> MachineModel {
    let sf = s as f64;
    m.task_overhead_s /= sf;
    m.dep_overhead_s /= sf;
    m.latency_s /= sf;
    m
}

/// Kernel-only duration in seconds under the machine model (the per-task
/// management overhead is charged by the DES's serial runtime thread).
/// Critical-path kernels run nested (node-parallel); everything else runs
/// on one core at the sustained rate of the task's own rank. This is the
/// one price of a task: the DES, its critical path and the drift report
/// ([`crate::drift::DriftReport`]) all read it.
pub(crate) fn task_duration(space: &CholeskySpace, kind: TaskKind, machine: &MachineModel) -> f64 {
    let price = space.price(kind);
    if price.flops == 0.0 {
        0.0
    } else if price.nested {
        machine.nested_time(price.flops)
    } else {
        machine.core_time(price.flops, price.rank_param)
    }
}

/// The DES inputs of `space` on `machine`, in id order: every task runs
/// where `exec` puts the tile it writes, for its modeled kernel duration.
pub fn des_tasks(
    space: &CholeskySpace,
    machine: &MachineModel,
    exec: impl Fn(DataRef) -> usize,
) -> Vec<DesTask> {
    let mut tasks = Vec::with_capacity(space.len());
    tasks.extend(space.kinds().map(|kind| DesTask {
        proc: exec(kind.operands().writes),
        duration: task_duration(space, kind, machine),
    }));
    tasks
}

/// Simulate a TLR Cholesky factorization from an initial rank snapshot.
///
/// ```
/// use hicma_core::lorapo::hicma_parsec_config;
/// use hicma_core::simulate::simulate_cholesky;
/// use runtime::MachineModel;
/// use tlr_compress::SyntheticRankModel;
///
/// let snap = SyntheticRankModel::from_application(48, 512, 3.7e-4, 1e-4).snapshot();
/// let cfg = hicma_parsec_config(MachineModel::shaheen_ii(), 4);
/// let report = simulate_cholesky(&snap, &cfg);
/// // The makespan can never beat the compute-only critical path.
/// assert!(report.factorization_seconds >= report.critical_path_seconds);
/// ```
pub fn simulate_cholesky(initial: &RankSnapshot, cfg: &SimConfig) -> SimReport {
    simulate_cholesky_faulty(initial, cfg, &FaultPlan::none(), 0.0, None)
        .expect("a fault-free simulation of a valid configuration cannot fail")
}

/// [`simulate_cholesky`] under a [`FaultPlan`] — the same value the
/// functional engine injects
/// ([`crate::session::Session::with_fault_layer`]), here *priced*: its
/// fail-stop crashes and silent store corruptions cost the
/// recovery/healing protocol on the modeled machine, with work lost to a
/// fault restarting `restart_delay_s` after it (see [`simulate`]).
///
/// `trace`, when given, receives the virtual-clock record of every
/// retirement, for a caller that renders the schedule (a Gantt chart, a
/// Chrome trace); no field of the report depends on it.
///
/// # Errors
///
/// Returns [`EngineError`] when the plan or the configuration is
/// malformed (a fault targets a nonexistent node, the machine has no
/// nodes or cores) or every node crashes before completion.
pub fn simulate_cholesky_faulty(
    initial: &RankSnapshot,
    cfg: &SimConfig,
    faults: &FaultPlan,
    restart_delay_s: f64,
    trace: Option<&mut Trace>,
) -> Result<SimReport, EngineError> {
    // Checked before anything is laid out: the distributions cannot build
    // a process grid over no nodes.
    let (nodes, cores_per_proc) = (cfg.nodes, cfg.machine.cores_per_node);
    if nodes == 0 || cores_per_proc == 0 {
        return Err(EngineError::EmptyMachine { nprocs: nodes, cores_per_proc });
    }
    let t0 = std::time::Instant::now();
    let space =
        CholeskySpace::new(initial, &DagConfig { trimmed: cfg.trimmed, rank_cap: cfg.rank_cap });
    let analysis_seconds = t0.elapsed().as_secs_f64();
    let ranks = &space.analysis().final_ranks;

    // ------------------------------------------------------------------
    // Execution mapping.
    // ------------------------------------------------------------------
    let twod = TwoDBlockCyclic::new(nodes);
    let lorapo = LorapoHybrid::new(nodes);
    let band = BandDistribution { band_width: cfg.band_width, ..BandDistribution::new(nodes) };
    let diamond = DiamondDistribution::new(nodes);

    let owner = |d: DataRef| -> usize {
        match cfg.plan {
            DistributionPlan::TwoD => twod.owner(d.i, d.j),
            DistributionPlan::Lorapo => lorapo.owner(d.i, d.j),
            DistributionPlan::Band | DistributionPlan::BandDiamond => band.owner(d.i, d.j),
        }
    };
    let exec = |d: DataRef| -> usize {
        match cfg.plan {
            DistributionPlan::BandDiamond if d.i - d.j >= cfg.band_width => {
                diamond.owner(d.i, d.j)
            }
            _ => owner(d),
        }
    };
    let tasks = des_tasks(&space, &cfg.machine, exec);

    // Write-back accounting: tiles whose execution site differs from the
    // owner move in and back at most once each (§VII-B).
    let mut writeback_bytes = 0u64;
    let (nt, b) = (initial.nt(), initial.tile_size());
    for i in 0..nt {
        for j in 0..=i {
            let d = DataRef { i, j };
            if exec(d) != owner(d) {
                writeback_bytes += 2 * tile_bytes(i, j, ranks.rank(i, j), b);
            }
        }
    }

    let report = simulate(&space, &tasks, &cfg.machine, nodes, faults, restart_delay_s, trace)?;

    // Critical path without runtime overhead: pure kernel chain (§VIII-G),
    // priced from the kernel durations the DES ran.
    let cp = runtime::critical_path::critical_path(&space, |t| tasks[t].duration);

    // Generation + compression phase model (Fig. 11): both are
    // embarrassingly parallel over all cores of all nodes.
    let b = b as f64;
    let total_cores = (nodes * cfg.machine.cores_per_node) as f64;
    let mut gen_flops = 0.0;
    let mut comp_core_seconds = 0.0;
    for i in 0..nt {
        for j in 0..=i {
            // ~60 flops per kernel-matrix entry (distance + exp)
            gen_flops += 60.0 * b * b;
            if i != j {
                let r = ranks.rank(i, j).max(1);
                // truncated pivoted QR ≈ 4·b²·(k+1), rank-limited rate
                let fl = 4.0 * b * b * (r as f64 + 1.0);
                comp_core_seconds += cfg.machine.core_time(fl, r);
            }
        }
    }
    let generation_seconds = cfg.machine.dense_kernel_time(gen_flops) / total_cores;
    let compression_seconds = comp_core_seconds / total_cores;

    Ok(SimReport {
        factorization_seconds: report.makespan,
        analysis_seconds,
        analysis_bytes: space.memory_bytes(),
        dag_tasks: space.len(),
        dense_dag_tasks: space.analysis().dense_tasks(),
        critical_path_seconds: cp.length,
        comm: report.comm,
        writeback_bytes,
        load_imbalance: load_imbalance(&report.busy_per_proc),
        breakdown: report.breakdown,
        generation_seconds,
        compression_seconds,
        crashes: report.crashes,
        migrated_tasks: report.migrated,
        reexecuted_tasks: report.reexecuted,
        corruptions: report.corruptions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lorapo::{hicma_parsec_config, lorapo_config};
    use tlr_compress::SyntheticRankModel;

    fn snapshot(nt: usize, shape: f64) -> RankSnapshot {
        SyntheticRankModel::from_application(nt, 1024, shape, 1e-4).snapshot()
    }

    fn base_cfg(plan: DistributionPlan, trimmed: bool) -> SimConfig {
        SimConfig {
            machine: MachineModel::shaheen_ii(),
            nodes: 16,
            plan,
            trimmed,
            rank_cap: usize::MAX,
            band_width: 2,
        }
    }

    #[test]
    fn makespan_at_least_critical_path() {
        let s = snapshot(48, 1e-3);
        let r = simulate_cholesky(&s, &base_cfg(DistributionPlan::Lorapo, false));
        assert!(r.factorization_seconds >= r.critical_path_seconds);
        assert!(r.roofline_efficiency() <= 1.0);
    }

    #[test]
    fn trimming_helps_on_sparse_matrices() {
        // The paper's regime: NT³ ≫ node count, so per-task runtime
        // overhead of the untrimmed DAG rivals the critical path.
        let s = SyntheticRankModel::from_application(128, 256, 2e-4, 1e-4).snapshot();
        let untrimmed = simulate_cholesky(&s, &base_cfg(DistributionPlan::Lorapo, false));
        let trimmed = simulate_cholesky(&s, &base_cfg(DistributionPlan::Lorapo, true));
        assert!(trimmed.dag_tasks < untrimmed.dag_tasks);
        assert!(
            trimmed.factorization_seconds < untrimmed.factorization_seconds,
            "trimmed {} vs untrimmed {}",
            trimmed.factorization_seconds,
            untrimmed.factorization_seconds
        );
    }

    #[test]
    fn trimming_neutral_on_dense_matrices() {
        let s = snapshot(40, 5e-2); // fully dense structure
        let untrimmed = simulate_cholesky(&s, &base_cfg(DistributionPlan::Lorapo, false));
        let trimmed = simulate_cholesky(&s, &base_cfg(DistributionPlan::Lorapo, true));
        // no null tiles ⇒ same DAG ⇒ same time (the Fig. 4 convergence)
        assert_eq!(trimmed.dag_tasks, untrimmed.dag_tasks);
        let rel = (trimmed.factorization_seconds - untrimmed.factorization_seconds).abs()
            / untrimmed.factorization_seconds;
        assert!(rel < 1e-9, "dense matrices should be unaffected: {rel}");
    }

    #[test]
    fn band_reduces_time_vs_lorapo() {
        let s = snapshot(64, 1e-3);
        let lorapo = simulate_cholesky(&s, &base_cfg(DistributionPlan::Lorapo, true));
        let band = simulate_cholesky(&s, &base_cfg(DistributionPlan::Band, true));
        assert!(
            band.factorization_seconds <= lorapo.factorization_seconds * 1.02,
            "band {} vs lorapo {}",
            band.factorization_seconds,
            lorapo.factorization_seconds
        );
    }

    #[test]
    fn diamond_improves_load_balance() {
        let s = snapshot(64, 1e-3);
        let band = simulate_cholesky(&s, &base_cfg(DistributionPlan::Band, true));
        let diamond = simulate_cholesky(&s, &base_cfg(DistributionPlan::BandDiamond, true));
        assert!(
            diamond.load_imbalance <= band.load_imbalance * 1.05,
            "diamond LI {} vs band LI {}",
            diamond.load_imbalance,
            band.load_imbalance
        );
        assert!(diamond.writeback_bytes > 0, "remapping must move tiles");
        assert_eq!(band.writeback_bytes, 0, "owner-computes moves nothing extra");
    }

    #[test]
    fn hicma_parsec_beats_lorapo() {
        // The headline result (Figs. 9/10): full HiCMA-PaRSEC vs Lorapo.
        let s = snapshot(64, 5e-4);
        let lorapo = simulate_cholesky(&s, &base_cfg(DistributionPlan::Lorapo, false));
        let ours = simulate_cholesky(&s, &hicma_parsec_config(MachineModel::shaheen_ii(), 16));
        assert!(
            ours.factorization_seconds < lorapo.factorization_seconds,
            "ours {} vs lorapo {}",
            ours.factorization_seconds,
            lorapo.factorization_seconds
        );
    }

    #[test]
    fn more_nodes_not_slower_at_scale() {
        let s = snapshot(96, 1e-3);
        let mut cfg = hicma_parsec_config(MachineModel::shaheen_ii(), 4);
        let r4 = simulate_cholesky(&s, &cfg);
        cfg.nodes = 16;
        let r16 = simulate_cholesky(&s, &cfg);
        assert!(
            r16.factorization_seconds <= r4.factorization_seconds * 1.1,
            "16 nodes {} vs 4 nodes {}",
            r16.factorization_seconds,
            r4.factorization_seconds
        );
    }

    #[test]
    fn node_crash_costs_simulated_time() {
        let s = snapshot(48, 1e-3);
        let cfg = base_cfg(DistributionPlan::Lorapo, true);
        let base = simulate_cholesky(&s, &cfg);
        // A long detection/failover window makes the recovery cost
        // unambiguous (a tiny one can hide inside surviving nodes' idle
        // time in this first-order model).
        let t = base.factorization_seconds;
        let faults = FaultPlan::new(0).with_crash(3, t * 0.5);
        let faulty = simulate_cholesky_faulty(&s, &cfg, &faults, t * 2.0, None).unwrap();
        assert_eq!(faulty.crashes, 1);
        assert!(faulty.migrated_tasks > 0);
        assert!(
            faulty.factorization_seconds > base.factorization_seconds,
            "crash recovery cannot be free: {} vs {}",
            faulty.factorization_seconds,
            base.factorization_seconds
        );
    }

    #[test]
    fn store_corruption_prices_lineage_healing() {
        let s = snapshot(48, 1e-3);
        let cfg = base_cfg(DistributionPlan::Lorapo, true);
        let base = simulate_cholesky(&s, &cfg);
        // The very plan value the engine-side integrity tests inject
        // (message corruption included, which the DES does not price) —
        // one `FaultPlan`, both engines, no conversion.
        let t = base.factorization_seconds;
        let plan = FaultPlan::new(11).with_store_corruption(3, 1, 0, t * 0.5);
        let plan = plan.with_message_corruption(0.1);
        let faulty = simulate_cholesky_faulty(&s, &cfg, &plan, t * 2.0, None).unwrap();
        assert_eq!(faulty.corruptions, 1);
        assert_eq!(faulty.crashes, 0);
        assert!(
            faulty.factorization_seconds > base.factorization_seconds,
            "healing a mid-run corruption cannot be free: {} vs {}",
            faulty.factorization_seconds,
            base.factorization_seconds
        );
    }

    #[test]
    fn empty_machine_is_a_typed_error_before_any_layout() {
        let s = snapshot(8, 1e-3);
        let run =
            |cfg: &SimConfig| simulate_cholesky_faulty(&s, cfg, &FaultPlan::none(), 0.0, None);
        let mut cfg = base_cfg(DistributionPlan::BandDiamond, true);
        cfg.nodes = 0;
        let err = run(&cfg).unwrap_err();
        assert_eq!(err, EngineError::EmptyMachine { nprocs: 0, cores_per_proc: 32 });
        let mut cfg = base_cfg(DistributionPlan::Lorapo, true);
        cfg.machine.cores_per_node = 0;
        let err = run(&cfg).unwrap_err();
        assert_eq!(err, EngineError::EmptyMachine { nprocs: 16, cores_per_proc: 0 });
    }

    /// The critical path reads the durations `des_tasks` computed, once
    /// per task: the same bits as pricing each task again on every visit
    /// of the walk, on the goldens' synthetic snapshot and machine.
    #[test]
    fn critical_path_is_priced_from_the_des_durations() {
        use runtime::critical_path::critical_path;
        let snap = SyntheticRankModel::from_application(32, 512, 2e-3, 1e-4).snapshot();
        let machine = MachineModel { cores_per_node: 2, ..MachineModel::shaheen_ii() };
        for cfg in [hicma_parsec_config(machine.clone(), 4), lorapo_config(machine, 4)] {
            let space = CholeskySpace::new(
                &snap,
                &DagConfig { trimmed: cfg.trimmed, rank_cap: cfg.rank_cap },
            );
            let priced_per_visit = critical_path(&space, |t| {
                task_duration(&space, space.kind(t), &cfg.machine)
            });
            let r = simulate_cholesky(&snap, &cfg);
            assert_eq!(r.critical_path_seconds.to_bits(), priced_per_visit.length.to_bits());
            assert!(r.critical_path_seconds > 0.0);
        }
    }

    /// The rule divides exactly the three fixed time constants by `S` and
    /// leaves every rate, efficiency and core count as it was.
    #[test]
    fn scaled_machine_divides_only_the_fixed_time_constants() {
        for m in [MachineModel::shaheen_ii(), MachineModel::fugaku()] {
            for s in [1, 7, 32, 256] {
                let sm = scaled_machine(m.clone(), s);
                let sf = s as f64;
                assert_eq!(sm.task_overhead_s, m.task_overhead_s / sf);
                assert_eq!(sm.dep_overhead_s, m.dep_overhead_s / sf);
                assert_eq!(sm.latency_s, m.latency_s / sf);
                let restored = MachineModel {
                    task_overhead_s: m.task_overhead_s,
                    dep_overhead_s: m.dep_overhead_s,
                    latency_s: m.latency_s,
                    ..sm
                };
                // `Debug` prints every f64 to its shortest round-trip form:
                // equal text is equal bits.
                assert_eq!(format!("{restored:?}"), format!("{m:?}"));
            }
        }
    }

    #[test]
    fn phase_model_reports_positive_times() {
        let s = snapshot(32, 1e-3);
        let r = simulate_cholesky(&s, &base_cfg(DistributionPlan::BandDiamond, true));
        assert!(r.generation_seconds > 0.0);
        assert!(r.compression_seconds > 0.0);
        assert!(r.analysis_bytes > 0);
    }
}
