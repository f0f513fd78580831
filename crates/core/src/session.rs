//! One factorization session over the unified runtime engines.
//!
//! [`Session`] is the single entry point behind every TLR Cholesky
//! front-end in this crate. A session owns the whole
//! pipeline — task-space build, tile placement, the one task body both
//! engines run (`TaskBody`: kernel dispatch, the per-panel diagonal
//! shift with its constant budget [`SHIFT_RETRIES`], the first-failure
//! slot and the cancel flag, the kernel arenas and the registry), engine
//! execution, and tile gathering. The public wrapper
//! [`factorize`](crate::factorize::factorize) is a one-call shim over
//! it.
//!
//! Capabilities compose instead of multiplying entry points: a
//! distributed session layers a fault plan with
//! [`with_fault_layer`](Session::with_fault_layer) and still reports
//! communication volume and (with
//! [`collect_trace`](FactorConfig::collect_trace)) a virtual-time trace
//! — FT + trace + comm counting in one run. Every mode returns the same
//! [`RunOutcome`], the one schema-versioned report of a run; absent
//! capabilities are `None`.
//!
//! The pipeline is split into a *symbolic* phase — the task
//! space every engine walks, placed on ranks for the distributed one,
//! packaged as an immutable [`SymbolicPlan`] — and a
//! *numeric* phase
//! that consumes a `&SymbolicPlan` ([`Session::run_with_plan`]).
//! [`Session::run`] remains the one-shot shim: plan (or fetch from an
//! attached [`PlanCache`]) then run. Repeated solves on one tile
//! structure therefore pay the symbolic cost once.

use crate::dag::{lower, CholeskySpace, TaskKind};
use crate::distributed::{gather_tiles, rank_task, scatter_tiles, TilePayload};
use crate::drift::DriftReport;
use crate::factorize::{FactorConfig, FactorReport, IntegrityMode, PanelShift, SHIFT_RETRIES};
use crate::plan::{self, CacheEvents, OwnerMap, PlanCache, PlanKey, SymbolicPlan};
use distribution::TileDistribution;
use parking_lot::{Mutex, RwLock};
use runtime::critical_path::{cp_efficiency, critical_path};
use runtime::des::CommStats;
use runtime::engine::{
    DistConfig, DistEngine, Engine, EngineConfig, EngineError, ExecObs, IntegrityHooks,
};
use runtime::fault::{FaultPlan, FtError, IntegrityError};
use runtime::graph::{DataRef, TaskId};
use runtime::machine::MachineModel;
use runtime::obs::json::Json;
use runtime::obs::registry::{Counter, Gauge, Registry, RegistrySnapshot};
use runtime::obs::RunEvent;
use runtime::trace::{ClassBreakdown, Trace};
use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use tlr_compress::kernels::{
    gemm_kernel_ws, potrf_kernel, syrk_kernel_ws, trsm_kernel, KernelWorkspace,
};
use tlr_compress::{
    CompressionConfig, RankEvolution, RankSnapshot, SealedTile, Tile, TileDigest, TlrMatrix,
};
use tlr_linalg::CholeskyError;

/// Where a session executes.
enum Mode<'a> {
    /// Work-stealing thread pool in one address space
    /// ([`runtime::engine::Engine`]).
    Shared,
    /// Emulated distributed-memory ranks in virtual time
    /// ([`runtime::engine::DistEngine`]), optionally under a fault plan.
    Distributed {
        nprocs: usize,
        exec: &'a dyn TileDistribution,
        ft: Option<&'a FaultPlan>,
    },
}

/// A configured TLR Cholesky run (shared-memory or distributed).
///
/// Build one with [`Session::shared`] or [`Session::distributed`],
/// optionally layer capabilities
/// ([`with_fault_layer`](Session::with_fault_layer)), then
/// [`run`](Session::run) it against a
/// matrix. The session is reusable: `run` borrows it immutably, so the
/// same configuration can factor many matrices.
pub struct Session<'a> {
    cfg: FactorConfig,
    mode: Mode<'a>,
    /// The machine a drift report prices the run on, if one was asked for.
    drift: Option<MachineModel>,
    cache: Option<&'a PlanCache>,
}

impl<'a> Session<'a> {
    /// A shared-memory session on the work-stealing engine.
    pub fn shared(cfg: FactorConfig) -> Self {
        Session {
            cfg,
            mode: Mode::Shared,
            drift: None,
            cache: None,
        }
    }

    /// A distributed session across `nprocs` emulated ranks. `exec` maps
    /// each tile to the rank executing the tasks that write it (pass the
    /// data distribution itself for owner-computes, or a remapping
    /// distribution for §VII-B execution dissociation). Its owner map is
    /// the run's whole placement, fixed when the plan is built.
    ///
    /// `exec` must be laid out for exactly `nprocs` ranks: planning or
    /// running with `exec.nprocs() != nprocs` fails with
    /// [`RunError::LayoutMismatch`] naming both counts (and `nprocs == 0`
    /// with [`EngineError::EmptyMachine`]).
    pub fn distributed(cfg: FactorConfig, nprocs: usize, exec: &'a dyn TileDistribution) -> Self {
        Session {
            cfg,
            mode: Mode::Distributed {
                nprocs,
                exec,
                ft: None,
            },
            drift: None,
            cache: None,
        }
    }

    /// Layer a fault plan onto a distributed session: the run then
    /// injects the plan's message loss, duplication, delay
    /// jitter, rank crashes, kernel failures and silent data corruption
    /// (bit-flips in store tiles or message payloads — these arm the
    /// tile-integrity layer automatically), recovers from them, and
    /// counts every fault event into [`RunOutcome::registry`] (the
    /// counters of [`Counter::FAULTS`]). The factor stays
    /// bit-identical to the fault-free run for any survivable plan.
    ///
    /// Fault injection is a distributed-memory concept; on a shared
    /// session this is a documented no-op.
    pub fn with_fault_layer(mut self, faults: &'a FaultPlan) -> Self {
        if let Mode::Distributed { ft, .. } = &mut self.mode {
            *ft = Some(faults);
        }
        self
    }

    /// Attach a [`PlanCache`]: [`run`](Session::run) then fetches its
    /// [`SymbolicPlan`] by structural fingerprint instead of re-running
    /// the symbolic phase, and inserts freshly built plans for later
    /// runs. Cache activity is reported in the run's metrics registry
    /// (`plan_cache_hits` / `plan_cache_misses` / `plan_cache_evictions`).
    pub fn with_plan_cache(mut self, cache: &'a PlanCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Layer a cost-model drift report onto the session: after a
    /// successful run, [`RunOutcome::drift`] prices every task of the
    /// executed plan with the simulator's per-task model on `machine`
    /// and compares the per-class sums (and, on distributed runs, the
    /// exact comm model of the plan's task→rank mapping) against what the
    /// run measured. A crash does not move the comm model: the engine
    /// keeps shipping along the planned placement, so the measured excess
    /// is fault and recovery traffic (retransmissions, replays) alone.
    ///
    /// On a distributed run every task measures one second of virtual
    /// time, so there the class table only restates the task counts and
    /// the comm drift is the informative part.
    pub fn with_drift(mut self, machine: MachineModel) -> Self {
        self.drift = Some(machine);
        self
    }

    /// The factorization options this session runs with.
    pub fn config(&self) -> &FactorConfig {
        &self.cfg
    }

    /// Factor `matrix = L·Lᵀ` in place (lower tiles become `L`). The
    /// run holds one copy of the matrix: its own tiles, moved into the
    /// engine and back.
    ///
    /// The diagonal-shift retry is the same on *every* engine, because it
    /// lives in the one task body: a POTRF whose pivot fails restores its
    /// diagonal tile from the copy it kept, adds `εI` and factors again,
    /// `ε` escalating ×10 from `mean|diag(A)| · max(accuracy, 1e-12)`
    /// (read once from the input, before any POTRF runs) up to
    /// [`SHIFT_RETRIES`] (3) times. Each
    /// panel's shift is a function of its own input tile, so the factor
    /// does not depend on which POTRFs ran concurrently, on the thread
    /// count or on a lineage replay; [`FactorReport::panel_shifts`] lists
    /// every shifted panel. If every retry of a panel fails the run
    /// cancels, the error carries the *smallest* failing pivot and the
    /// matrix holds the partial factor.
    ///
    /// Engine faults ([`RunError::Engine`]) are not retried — a kernel
    /// panic or an unsurvivable fault plan is deterministic, so a replay
    /// would fail identically. After an engine fault on a distributed
    /// run the matrix contents are unspecified (tiles may be stranded on
    /// dead emulated ranks).
    pub fn run(&self, matrix: &mut TlrMatrix) -> Result<RunOutcome, RunError> {
        let t0 = std::time::Instant::now();
        let snapshot = matrix.rank_snapshot();
        let (key, dist) = self.key(&snapshot)?;
        let build = || plan::build_plan(&self.cfg, &snapshot, key, dist);
        let (plan, ev) = match self.cache {
            Some(cache) => cache.get_or_build(&key, build),
            None => (Arc::new(build()), CacheEvents::default()),
        };
        // Cold runs report the symbolic-phase cost here; warm-cache runs
        // report the (near-zero) key fold + lookup instead.
        let analysis_seconds = t0.elapsed().as_secs_f64();
        self.execute(&plan, matrix, ev, analysis_seconds)
    }

    /// Run the symbolic phase alone: build the [`SymbolicPlan`] this
    /// session would execute `matrix` with, without factoring anything.
    /// The plan is self-contained (no borrow of the matrix or the
    /// distribution survives) and reusable across any number of
    /// [`run_with_plan`](Session::run_with_plan) calls and matrices that
    /// share the same structural fingerprint.
    pub fn plan(&self, matrix: &TlrMatrix) -> Result<SymbolicPlan, RunError> {
        let snapshot = matrix.rank_snapshot();
        let (key, dist) = self.key(&snapshot)?;
        Ok(plan::build_plan(&self.cfg, &snapshot, key, dist))
    }

    /// The numeric phase alone: factor `matrix` through a prebuilt
    /// [`SymbolicPlan`], skipping task-space construction, distribution
    /// mapping and scheduler precomputation entirely. The
    /// plan's [`PlanKey`] must match this matrix and session
    /// configuration — a mismatch is rejected as
    /// [`RunError::PlanMismatch`] (running a stale plan would misplace
    /// tiles or deadlock rank queues). The produced factor is
    /// bit-identical to [`run`](Session::run) without a plan.
    pub fn run_with_plan(
        &self,
        plan: &SymbolicPlan,
        matrix: &mut TlrMatrix,
    ) -> Result<RunOutcome, RunError> {
        let t0 = std::time::Instant::now();
        let (key, _) = self.key(&matrix.rank_snapshot())?;
        if key != plan.key {
            return Err(RunError::PlanMismatch {
                plan: Box::new(plan.key),
                requested: Box::new(key),
            });
        }
        let analysis_seconds = t0.elapsed().as_secs_f64();
        self.execute(plan, matrix, CacheEvents::default(), analysis_seconds)
    }

    /// The fault layer of a distributed session (`None` on shared ones).
    fn fault_layer(&self) -> Option<&'a FaultPlan> {
        match self.mode {
            Mode::Shared => None,
            Mode::Distributed { ft, .. } => ft,
        }
    }

    /// Whether a distributed run ships digest-sealed tiles: the integrity
    /// layer arms when asked for explicitly, or whenever the fault plan
    /// injects corruption — silent corruption with the detector off
    /// would violate the bit-identical-factor contract.
    fn sealed_payloads(&self) -> bool {
        self.cfg.integrity != IntegrityMode::Off
            || self
                .fault_layer()
                .is_some_and(FaultPlan::injects_corruption)
    }

    /// The fingerprint of the plan this session runs `snapshot` with,
    /// and the distributed-plan inputs it was folded from (`None` for
    /// shared memory). Every entry point plans through here, so this is
    /// where a distributed session over zero ranks, or over a layout for
    /// another rank count, is rejected and where the layout's owner map
    /// is walked (once per plan).
    fn key(&self, snapshot: &RankSnapshot) -> Result<(PlanKey, Option<OwnerMap>), RunError> {
        let dist = match self.mode {
            Mode::Shared => None,
            Mode::Distributed { nprocs: 0, .. } => {
                return Err(EngineError::EmptyMachine { nprocs: 0, cores_per_proc: 1 }.into())
            }
            Mode::Distributed { nprocs, exec, .. } if exec.nprocs() != nprocs => {
                return Err(RunError::LayoutMismatch { layout: exec.nprocs(), nprocs })
            }
            Mode::Distributed { nprocs, exec, .. } => {
                let nt = snapshot.nt();
                let owners = (0..nt).flat_map(|i| (0..=i).map(move |j| (i, j)));
                Some(OwnerMap {
                    nprocs,
                    owner: owners.map(|(i, j)| exec.owner(i, j)).collect(),
                })
            }
        };
        Ok((plan::plan_key(&self.cfg, snapshot, dist.as_ref()), dist))
    }

    /// Factor `matrix` through the plan: the plan says which engine it
    /// was built for (its key matched this session's, so the two agree).
    /// The engine runs the one task body, which then reports the run.
    fn execute(
        &self,
        plan: &SymbolicPlan,
        matrix: &mut TlrMatrix,
        ev: CacheEvents,
        analysis_seconds: f64,
    ) -> Result<RunOutcome, RunError> {
        let lanes = plan.dist.as_ref().map_or(self.cfg.nthreads.max(1), |o| o.nprocs);
        let body = TaskBody::new(&plan.space, &self.cfg, matrix, lanes, ev);
        let run = match &plan.dist {
            None => run_shared(matrix, &self.cfg, &body),
            Some(owners) => self.run_distributed(matrix, owners, &body),
        }?;
        let mut out = body.finish(matrix, run, self.drift.as_ref())?;
        out.report.analysis_seconds = analysis_seconds;
        out.flops_executed = plan.flops;
        Ok(out)
    }
}

impl fmt::Debug for Session<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("Session");
        d.field("cfg", &self.cfg);
        match &self.mode {
            Mode::Shared => d.field("mode", &"shared"),
            Mode::Distributed { nprocs, exec, ft } => d
                .field("mode", &"distributed")
                .field("nprocs", nprocs)
                .field("exec", &exec.name())
                .field("fault_layer", &ft.is_some()),
        };
        d.field("plan_cache", &self.cache.is_some());
        d.finish()
    }
}

/// The one report of a [`Session::run`]: shared-memory, distributed and
/// service runs all return it. Sections the run had no capability for
/// are `None` / empty; everything comes from the same single run.
///
/// [`to_json`](RunOutcome::to_json), [`to_prometheus`](RunOutcome::to_prometheus)
/// and `Display` are the views of the whole report; the Chrome trace
/// ([`runtime::obs::chrome_trace_json_with_events`]) is a view of
/// [`trace`](RunOutcome::trace) + [`events`](RunOutcome::events).
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The factor report (always present). On distributed runs the
    /// kernel-class [`FactorReport::breakdown`] is zero: kernels execute
    /// inside a virtual-time event loop, where wall-clock attribution
    /// would be misleading.
    pub report: FactorReport,
    /// Cross-rank communication actually incurred, retransmissions
    /// included (distributed sessions; `None` on shared-memory runs,
    /// which have no wire). First sends are `messages` minus the
    /// registry's `retransmissions`.
    pub comm: Option<CommStats>,
    /// Ordered crash/recovery and integrity events of a distributed run:
    /// every survived [`RunEvent::Crash`] is immediately followed by its
    /// matching [`RunEvent::Recovery`], every caught checksum mismatch
    /// appends a [`RunEvent::CorruptionDetected`] and every completed
    /// lineage heal a [`RunEvent::Healed`].
    pub events: Vec<RunEvent>,
    /// Virtual makespan of a distributed run (seconds of emulated time).
    pub virtual_makespan: Option<f64>,
    /// Per-task execution trace, when [`FactorConfig::collect_trace`] is
    /// set: wall-clock spans of the shared engine, virtual-time spans of
    /// the distributed one. Queue wait, per-worker busy and idle time
    /// and load imbalance are functions of it ([`Trace`]'s methods).
    pub trace: Option<Trace>,
    /// Critical-path length through the DAG priced with the durations
    /// the trace measured — the makespan an infinitely parallel machine
    /// would have achieved on this run. `Some` exactly when `trace` is.
    pub critical_path_seconds: Option<f64>,
    /// Recompression rank evolution merged over all kernel workspaces
    /// (one per engine worker or emulated rank; crash re-executions on a
    /// distributed run recompress again and are counted again): the
    /// run's one record of recompression ranks, exact per rank.
    pub rank_evolution: RankEvolution,
    /// Model flops of the planned DAG (priced by `flops::*` at analysis
    /// time — ranks evolve during the run, so this is the planned count,
    /// tasks the shared engine elided included).
    pub flops_executed: f64,
    /// Merged metrics-registry snapshot. Always `Some`: the registry is
    /// a sink of every run. Fault and integrity events of a distributed
    /// run are counted here and nowhere else.
    pub registry: Option<RegistrySnapshot>,
    /// Cost-model drift report, when the session was configured with
    /// [`Session::with_drift`].
    pub drift: Option<DriftReport>,
}

impl RunOutcome {
    /// Version of the [`to_json`](RunOutcome::to_json) layout (its
    /// `"schema"` field). Bump when a key changes name or meaning, or
    /// leaves. Version 2 dropped the per-class scheduler corrections: five
    /// registry gauges and the drift classes' `correction`. Version 3 gave
    /// each fact one key: the `faults` section left (its events are the
    /// registry's counters, its wire totals `comm`), as did the registry's
    /// two wire counters (`comm_bytes`, `comm_messages`) and its
    /// recompression-rank histogram (`rank_evolution` keeps the ranks),
    /// the same two wire keys of `trace_summary`, and the drift report's
    /// expected rank and modeled flops. Version 4 added the registry's
    /// `tasks_elided` counter (tasks the shared engine retired without
    /// running) and the drift classes' `measured_tasks`. Version 5 added
    /// the report's `panel_shifts` (panel, shift, attempts of every
    /// shifted panel); `diagonal_shift` became their largest shift and
    /// `shift_attempts` their summed retries. Version 6 dropped the
    /// registry's `service_requests_admitted` and
    /// `service_requests_rejected` counters (a service's admissions are
    /// its tenants' `TenantUsage`) and `trace_summary`'s constant
    /// `label`. Version 7 dropped the `buckets` of the registry's
    /// `task_duration_ns` classes (each keeps `count` and `sum`) and added
    /// `rank_evolution.histogram`, the exact count of each kept rank.
    pub const SCHEMA_VERSION: u32 = 7;

    /// The trace's lanes: one registry shard per worker (shared run) or
    /// rank (distributed).
    fn trace_lanes(&self) -> usize {
        self.registry.as_ref().map_or(1, |r| r.shards)
    }

    /// The whole report as one [`Json`] tree, `"schema"` first. Absent
    /// sections are absent keys; non-finite numbers serialize as `null`.
    pub fn to_json(&self) -> Json {
        let r = &self.report;
        let num = |v: usize| Json::Num(v as f64);
        let mut report = Json::obj();
        report.insert("factorization_s", Json::Num(r.factorization_seconds));
        report.insert("analysis_s", Json::Num(r.analysis_seconds));
        report.insert("dag_tasks", num(r.dag_tasks));
        report.insert("dense_dag_tasks", num(r.dense_dag_tasks));
        report.insert("memory_before_f64", num(r.memory_before_f64));
        report.insert("memory_after_f64", num(r.memory_after_f64));
        report.insert("breakdown_s", r.breakdown.to_json());
        report.insert("diagonal_shift", Json::Num(r.diagonal_shift));
        report.insert("shift_attempts", num(r.shift_attempts));
        let panel_shifts = r.panel_shifts.iter().map(|p| {
            let mut o = Json::obj();
            o.insert("panel", num(p.panel));
            o.insert("shift", Json::Num(p.shift));
            o.insert("attempts", num(p.attempts));
            o
        });
        report.insert("panel_shifts", Json::Arr(panel_shifts.collect()));
        report.insert("flops_executed", Json::Num(self.flops_executed));

        let mut root = Json::obj();
        root.insert("schema", Json::Num(f64::from(Self::SCHEMA_VERSION)));
        let engine = if self.comm.is_some() { "distributed" } else { "shared" };
        root.insert("engine", Json::Str(engine.into()));
        root.insert("report", report);
        if let Some(c) = self.comm {
            let mut o = Json::obj();
            o.insert("bytes", Json::Num(c.bytes as f64));
            o.insert("messages", Json::Num(c.messages as f64));
            root.insert("comm", o);
        }
        if !self.events.is_empty() {
            root.insert("events", Json::Arr(self.events.iter().map(RunEvent::to_json).collect()));
        }
        if let Some(m) = self.virtual_makespan {
            root.insert("virtual_makespan_s", Json::Num(m));
        }
        if let Some(trace) = &self.trace {
            let lanes = self.trace_lanes();
            let (makespan, cp) = (trace.makespan(), self.critical_path_seconds.unwrap_or(0.0));
            let nums = |v: Vec<f64>| Json::Arr(v.into_iter().map(Json::Num).collect());
            let mut o = Json::obj();
            o.insert("makespan_s", Json::Num(makespan));
            o.insert("breakdown_s", trace.breakdown().to_json());
            o.insert("busy_s", nums(trace.busy_per_proc(lanes)));
            o.insert("idle_fraction", nums(trace.idle_fraction(lanes)));
            o.insert("load_imbalance", Json::Num(trace.load_imbalance(lanes)));
            o.insert("total_queue_wait_s", Json::Num(trace.total_queue_wait()));
            o.insert("critical_path_s", Json::Num(cp));
            o.insert("efficiency_vs_critical_path", Json::Num(cp_efficiency(cp, makespan)));
            root.insert("trace_summary", o);
        }
        if self.rank_evolution.events() > 0 {
            let e = &self.rank_evolution;
            let mut o = Json::obj();
            o.insert("recompressions", Json::Num(e.events() as f64));
            o.insert("mean_rank_in", Json::Num(e.mean_in()));
            o.insert("mean_rank_out", Json::Num(e.mean_out()));
            o.insert("max_rank_out", num(e.max_out()));
            let histogram = e.histogram().iter().map(|&n| Json::Num(n as f64));
            o.insert("histogram", Json::Arr(histogram.collect()));
            root.insert("rank_evolution", o);
        }
        if let Some(reg) = &self.registry {
            root.insert("registry", reg.to_json());
        }
        if let Some(d) = &self.drift {
            root.insert("drift", d.to_json());
        }
        root
    }

    /// Prometheus text exposition of the report: the rendering
    /// ([`Json::to_prometheus`]) of [`to_json`](RunOutcome::to_json), one
    /// gauge per finite number or boolean, named by its path
    /// (`tlr_registry_counters_crashes`, `tlr_drift_classes_ratio{i="3"}`).
    pub fn to_prometheus(&self) -> String {
        self.to_json().to_prometheus()
    }
}

/// The human-readable view of the report: one line per section present.
impl fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = &self.report;
        let b = &r.breakdown;
        writeln!(
            f,
            "factorized in {:.3}s (analysis {:.3}s): {} tasks of {} dense-DAG, {:.3e} model flops",
            r.factorization_seconds,
            r.analysis_seconds,
            r.dag_tasks,
            r.dense_dag_tasks,
            self.flops_executed
        )?;
        if !r.panel_shifts.is_empty() {
            let (shift, panels, retries) =
                (r.diagonal_shift, r.panel_shifts.len(), r.shift_attempts);
            writeln!(
                f,
                "  diagonal shift up to {shift:.3e} on {panels} panels after {retries} retries"
            )?;
        }
        writeln!(
            f,
            "  memory {} -> {} f64 words (x{:.2} fill-in)",
            r.memory_before_f64,
            r.memory_after_f64,
            r.memory_after_f64 as f64 / r.memory_before_f64.max(1) as f64
        )?;
        if let Some(reg) = &self.registry {
            if self.comm.is_none() {
                writeln!(
                    f,
                    "  busy P {:.3} T {:.3} S {:.3} G {:.3} s over {} workers",
                    b.potrf, b.trsm, b.syrk, b.gemm, reg.shards
                )?;
            }
            writeln!(
                f,
                "  engine: {} executed, {} elided, {} enqueued, {} steals, \
                 arena high water {:.1} MB, {} pool misses",
                reg.counter(Counter::TasksExecuted),
                reg.counter(Counter::TasksElided),
                reg.counter(Counter::TasksEnqueued),
                reg.counter(Counter::Steals),
                reg.gauge(Gauge::ArenaHighWaterBytes) / (1 << 20) as f64,
                reg.counter(Counter::WorkspaceGrowth)
            )?;
        }
        if let Some(c) = self.comm {
            writeln!(
                f,
                "  comm: {} messages, {} bytes; virtual makespan {:.6}s",
                c.messages,
                c.bytes,
                self.virtual_makespan.unwrap_or(0.0)
            )?;
        }
        let reg = self.registry.as_ref();
        if let Some(reg) = reg.filter(|r| Counter::FAULTS.iter().any(|&c| r.counter(c) > 0)) {
            writeln!(
                f,
                "  faults: {} crashes, {} retransmissions, {} dropped, \
                 {} corruptions detected / {} healed, {} events",
                reg.counter(Counter::Crashes),
                reg.counter(Counter::Retransmissions),
                reg.counter(Counter::MessagesDropped),
                reg.counter(Counter::CorruptionsDetected),
                reg.counter(Counter::CorruptionsHealed),
                self.events.len()
            )?;
        }
        if let Some(trace) = &self.trace {
            let lanes = self.trace_lanes();
            let (makespan, cp) = (trace.makespan(), self.critical_path_seconds.unwrap_or(0.0));
            let idle = trace.idle_fraction(lanes);
            writeln!(
                f,
                "  trace: makespan {makespan:.6}s, critical path {cp:.6}s (efficiency {:.3}), \
                 imbalance {:.3}, mean idle {:.3}, queue wait {:.6}s",
                cp_efficiency(cp, makespan),
                trace.load_imbalance(lanes),
                idle.iter().sum::<f64>() / idle.len().max(1) as f64,
                trace.total_queue_wait()
            )?;
        }
        if self.rank_evolution.events() > 0 {
            let e = &self.rank_evolution;
            writeln!(
                f,
                "  recompressions: {} (mean rank {:.1} -> {:.1}, max {})",
                e.events(),
                e.mean_in(),
                e.mean_out(),
                e.max_out()
            )?;
        }
        if let Some(d) = &self.drift {
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

/// Why a [`Session::run`] failed.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The matrix is numerically not positive definite (a pivot that
    /// failed every shift retry of its panel).
    Numeric(CholeskyError),
    /// The engine could not complete the run: a kernel panicked, the
    /// graph/configuration was invalid, or a fault plan was not
    /// survivable. Not retried — see [`Session::run`].
    Engine(EngineError),
    /// A prebuilt [`SymbolicPlan`] handed to
    /// [`Session::run_with_plan`] was built for a different matrix
    /// structure or session configuration. Running it anyway would
    /// misplace tiles or deadlock rank queues, so the mismatch is
    /// rejected up front with both fingerprints.
    PlanMismatch {
        /// Fingerprint the plan was built for.
        plan: Box<PlanKey>,
        /// Fingerprint of the requested run.
        requested: Box<PlanKey>,
    },
    /// A distributed session's layout places tiles on `layout` ranks but
    /// the session runs `nprocs`: tiles would pile onto some ranks and
    /// leave others idle, so the session is rejected before planning.
    LayoutMismatch {
        /// Rank count the layout was built for.
        layout: usize,
        /// Rank count the session was asked to run.
        nprocs: usize,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Numeric(e) => write!(f, "matrix is not positive definite: {e:?}"),
            RunError::Engine(e) => write!(f, "engine failure: {e}"),
            RunError::PlanMismatch { plan, requested } => write!(
                f,
                "symbolic plan does not match this matrix/session configuration \
                 (plan {plan:?}, requested {requested:?})"
            ),
            RunError::LayoutMismatch { layout, nprocs } => write!(
                f,
                "layout is for {layout} ranks but the session runs {nprocs}"
            ),
        }
    }
}

impl std::error::Error for RunError {}

impl From<CholeskyError> for RunError {
    fn from(e: CholeskyError) -> Self {
        RunError::Numeric(e)
    }
}

impl From<EngineError> for RunError {
    fn from(e: EngineError) -> Self {
        RunError::Engine(e)
    }
}

/// The one task body of a run, whichever engine executes it: everything a
/// task needs except its tiles. Where the tiles live — behind the shared
/// engine's locks or in a rank's store and inbox — is the engine's
/// business; what a task computes, how a failing pivot is recorded and
/// when the run stops are decided here alone.
///
/// [`Session::execute`] builds it before the engine's timer starts and
/// [`finish`](TaskBody::finish)es it into the run's [`RunOutcome`].
pub(crate) struct TaskBody<'a> {
    /// The task space the engine walks: what each task id is.
    pub(crate) space: &'a CholeskySpace,
    compression: CompressionConfig,
    tile_size: usize,
    /// The matrix's storage before the run, for the report.
    memory_before_f64: usize,
    /// The first shift a failing POTRF adds: `mean|diag(A)| ·
    /// max(accuracy, 1e-12)`, read from the input before any POTRF runs.
    shift_base: f64,
    /// One entry per shifted panel; touched only when a pivot fails.
    shifts: Mutex<Vec<PanelShift>>,
    /// One kernel arena per lane (engine worker or emulated rank),
    /// indexed by the lane the engine hands the task — exclusive by
    /// construction, so the `Mutex` is never contended (it only satisfies
    /// the `Sync` bound of the shared engine's kernel closure). Buffers
    /// grow to their high-water mark over the first few updates and the
    /// recompression hot path then runs allocation-free.
    workspaces: Vec<Mutex<KernelWorkspace>>,
    /// The run's metrics registry, one shard per lane: the engine reports
    /// task counts, durations and fault events into it.
    registry: Registry,
    /// The smallest failing pivot, as a global row: several POTRFs can
    /// fail before the failure propagates, and the caller must see a
    /// deterministic (earliest) pivot, not whichever was stored last.
    error: Mutex<Option<CholeskyError>>,
    /// Set on the first pivot failure (or, on the shared engine, digest
    /// mismatch): every task after it returns without running its kernel.
    cancel: AtomicBool,
    /// Whether every input entry is finite. A matrix that arrives
    /// poisoned is the caller's data, not a kernel bug: it has to reach
    /// the typed pivot failure in debug builds as it does in release.
    #[cfg(debug_assertions)]
    inputs_finite: bool,
}

impl<'a> TaskBody<'a> {
    /// The body of one run of `matrix` through `space` on `lanes` workers
    /// or ranks; `ev` is the plan-cache activity that produced the plan.
    fn new(
        space: &'a CholeskySpace,
        cfg: &FactorConfig,
        matrix: &TlrMatrix,
        lanes: usize,
        ev: CacheEvents,
    ) -> Self {
        let registry = Registry::new(lanes);
        registry.add(0, Counter::PlanCacheHits, ev.hits);
        registry.add(0, Counter::PlanCacheMisses, ev.misses);
        registry.add(0, Counter::PlanCacheEvictions, ev.evictions);
        TaskBody {
            space,
            compression: cfg.compression(),
            tile_size: matrix.tile_size(),
            memory_before_f64: matrix.memory_f64(),
            shift_base: matrix.diagonal_mean_abs() * cfg.accuracy.max(1e-12),
            shifts: Mutex::new(Vec::new()),
            workspaces: (0..lanes).map(|_| Mutex::new(KernelWorkspace::new())).collect(),
            registry,
            error: Mutex::new(None),
            cancel: AtomicBool::new(false),
            #[cfg(debug_assertions)]
            inputs_finite: (0..matrix.nt()).all(|i| {
                let finite = |t: &Tile| t.to_dense().as_slice().iter().all(|v| v.is_finite());
                (0..=i).all(|j| finite(matrix.tile(i, j)))
            }),
        }
    }

    /// Stop the run: every task after this returns at once.
    fn cancel(&self) {
        self.cancel.store(true, Ordering::Release);
    }

    /// Whether the run was cancelled.
    pub(crate) fn cancelled(&self) -> bool {
        self.cancel.load(Ordering::Acquire)
    }

    /// Run `kind`'s kernel on lane `lane`'s arena, writing `out` (the tile
    /// [`operands`](TaskKind::operands) says it writes) from `reads` (the
    /// tiles it says it reads, in that order). A failing pivot is recorded
    /// and cancels the run; `false` then says `out` holds no new version.
    pub(crate) fn run(&self, lane: usize, kind: TaskKind, out: &mut Tile, reads: &[&Tile]) -> bool {
        if let Err(e) = self.kernel(lane, kind, out, reads) {
            let row = kind.operands().writes.i * self.tile_size + e.pivot;
            let mut slot = self.error.lock();
            if slot.as_ref().is_none_or(|prev| row < prev.pivot) {
                *slot = Some(CholeskyError { pivot: row });
            }
            self.cancel();
            return false;
        }
        // Pin down the first kernel that produces a non-finite value.
        #[cfg(debug_assertions)]
        assert!(
            !self.inputs_finite || out.to_dense().as_slice().iter().all(|v| v.is_finite()),
            "non-finite output from {kind:?} (rank {})",
            out.rank()
        );
        true
    }

    /// The only `TaskKind → kernel` dispatch. A POTRF that fails every
    /// shift carries the pivot *within* its tile.
    fn kernel(
        &self,
        lane: usize,
        kind: TaskKind,
        out: &mut Tile,
        reads: &[&Tile],
    ) -> Result<(), CholeskyError> {
        let ws = &mut *self.workspaces[lane].lock();
        match kind {
            TaskKind::Potrf { k } => self.shifted_potrf(k, ws, out)?,
            TaskKind::Trsm { .. } => trsm_kernel(reads[0], out),
            TaskKind::Syrk { .. } => syrk_kernel_ws(ws, reads[0], out),
            // C(m, n) −= A(m, k) · B(n, k)ᵀ: reads are [(n, k), (m, k)].
            TaskKind::Gemm { .. } => gemm_kernel_ws(ws, reads[1], reads[0], out, &self.compression),
        }
        Ok(())
    }

    /// POTRF of panel `k` with the per-panel diagonal shift: keep a copy
    /// of the tile in a workspace buffer, and while the pivot fails (at
    /// most [`SHIFT_RETRIES`] times) restore the tile, add `εI` and factor
    /// again, `ε` escalating ×10 from `shift_base`. The shift is a
    /// function of the input tile alone, so a concurrent POTRF of another
    /// panel or a lineage replay of this one cannot move it. The error of
    /// a panel that fails every retry carries its smallest failing pivot.
    fn shifted_potrf(
        &self,
        k: usize,
        ws: &mut KernelWorkspace,
        out: &mut Tile,
    ) -> Result<(), CholeskyError> {
        let Tile::Dense(a) = out else { panic!("POTRF requires a dense diagonal tile") };
        let mut saved = ws.take(a.rows(), a.cols());
        saved.as_mut_slice().copy_from_slice(a.as_slice());
        let mut result = potrf_kernel(out);
        let mut shift = self.shift_base;
        let mut pivot = usize::MAX;
        for attempts in 1..=SHIFT_RETRIES {
            let Err(e) = result else { break };
            pivot = pivot.min(e.pivot);
            let Tile::Dense(a) = &mut *out else { unreachable!("POTRF keeps its tile dense") };
            a.as_mut_slice().copy_from_slice(saved.as_slice());
            for d in 0..a.rows().min(a.cols()) {
                a[(d, d)] += shift;
            }
            result = potrf_kernel(out);
            if result.is_ok() {
                // A lineage replay of the POTRF recomputes the same shift,
                // so it replaces the entry it repeats.
                let s = PanelShift { panel: k, shift, attempts };
                let mut applied = self.shifts.lock();
                match applied.iter_mut().find(|p| p.panel == k) {
                    Some(p) => *p = s,
                    None => applied.push(s),
                }
            }
            shift *= 10.0;
        }
        ws.give(saved);
        result.map_err(|e| CholeskyError { pivot: pivot.min(e.pivot) })
    }

    /// The report of a finished run, `matrix` holding its factor: the
    /// recorded pivot failure if there was one, else the arenas drained
    /// into the registry (buffer growth, per-lane high-water marks) and
    /// the rank log, the registry's snapshot, the panel shifts in panel
    /// order, the trace's measured critical path, and — when `drift`
    /// names a machine — the cost-model drift. Analysis time and the
    /// plan's model flops are left to [`Session::execute`].
    fn finish(
        self,
        matrix: &TlrMatrix,
        run: EngineRun,
        drift: Option<&MachineModel>,
    ) -> Result<RunOutcome, RunError> {
        let TaskBody { space, memory_before_f64, shifts, workspaces, registry, error, .. } = self;
        if let Some(e) = error.into_inner() {
            return Err(RunError::Numeric(e));
        }
        let mut rank_evolution = RankEvolution::default();
        for (shard, ws) in workspaces.into_iter().enumerate() {
            let mut w = ws.into_inner();
            rank_evolution.merge(&w.take_rank_log());
            registry.add(0, Counter::WorkspaceGrowth, w.alloc_events());
            registry.gauge_max(shard, Gauge::ArenaHighWaterBytes, w.high_water_bytes() as f64);
        }
        let registry = registry.snapshot();
        // The comm model prices the plan's task→rank mapping: the engine
        // decides which edges are messages from the original placement
        // (static locality), also after a crash migrated tasks, so only
        // fault and recovery traffic separates the two.
        let comm_model = run.wire.as_ref().map(|w| (&w.exec_rank[..], w.comm));
        let drift = drift.map(|m| DriftReport::compute(m, space, &registry, comm_model));
        // Kernel-class busy seconds are wall-clock: a distributed run's
        // kernels execute inside a virtual-time loop, so it reports none.
        let breakdown = match run.wire {
            None => registry.class_busy_seconds(),
            Some(_) => ClassBreakdown::default(),
        };
        let critical_path_seconds = run.trace.as_ref().map(|trace| {
            let mut dur = vec![0.0_f64; space.len()];
            for r in &trace.records {
                dur[r.task] = r.duration();
            }
            critical_path(space, |t| dur[t]).length
        });
        let mut panel_shifts = shifts.into_inner();
        panel_shifts.sort_by_key(|p| p.panel);
        let (comm, events, virtual_makespan) = match run.wire {
            Some(w) => (Some(w.comm), w.events, Some(w.makespan)),
            None => (None, Vec::new(), None),
        };
        Ok(RunOutcome {
            report: FactorReport {
                factorization_seconds: run.seconds,
                analysis_seconds: 0.0,
                dag_tasks: space.len(),
                dense_dag_tasks: space.analysis().dense_tasks(),
                final_snapshot: matrix.rank_snapshot(),
                memory_before_f64,
                memory_after_f64: matrix.memory_f64(),
                breakdown,
                diagonal_shift: panel_shifts.iter().map(|p| p.shift).fold(0.0, f64::max),
                shift_attempts: panel_shifts.iter().map(|p| p.attempts).sum(),
                panel_shifts,
            },
            comm,
            events,
            virtual_makespan,
            trace: run.trace,
            critical_path_seconds,
            rank_evolution,
            flops_executed: 0.0,
            registry: Some(registry),
            drift,
        })
    }
}

/// What an engine measured of a run, beside what the body kept.
struct EngineRun {
    /// Wall-clock seconds of the execution span.
    seconds: f64,
    /// The per-task trace, when one was asked for.
    trace: Option<Trace>,
    /// The wire of a distributed run (`None` on the shared engine).
    wire: Option<Wire>,
}

/// What only the distributed engine has: messages, events and virtual
/// time.
struct Wire {
    comm: CommStats,
    events: Vec<RunEvent>,
    makespan: f64,
    /// The plan's task → rank map, which the drift report's comm model
    /// prices.
    exec_rank: Vec<usize>,
}

/// Borrow a task's read operands through `fetch` (a lock guard, a
/// reference into a rank's store) and hand them to `f` as one slice, in
/// operand order, without allocating.
pub(crate) fn with_reads<G: Deref<Target = Tile>, R>(
    reads: &[DataRef],
    fetch: impl Fn(DataRef) -> G,
    f: impl FnOnce(&[&Tile]) -> R,
) -> R {
    match *reads {
        [] => f(&[]),
        [a] => f(&[&fetch(a)]),
        [a, b] => {
            let (a, b) = (fetch(a), fetch(b));
            f(&[&a, &b])
        }
        _ => unreachable!("a Cholesky task reads at most two tiles"),
    }
}

/// One shared-memory run of `body` on the work-stealing [`Engine`].
///
/// Kernel panics are drained by the engine (no hung pool) and surface
/// as [`RunError::Engine`]; the tiles are moved back into the matrix
/// first, so locks are released, but mid-kernel tile state is
/// unspecified after a panic.
fn run_shared(
    matrix: &mut TlrMatrix,
    cfg: &FactorConfig,
    body: &TaskBody<'_>,
) -> Result<EngineRun, RunError> {
    let (nt, space) = (matrix.nt(), body.space);

    // Move the tiles into lock cells for concurrent kernel execution.
    let mut cells: Vec<RwLock<Tile>> = Vec::with_capacity(nt * (nt + 1) / 2);
    for i in 0..nt {
        for j in 0..=i {
            cells.push(RwLock::new(matrix.take_tile(i, j)));
        }
    }
    let cell = |d: DataRef| &cells[lower(d.i, d.j)];
    // Which tiles are `Null` right now, one flag per packed-lower tile:
    // set at load and by every kernel that writes the tile. The elision
    // hook below reads it without taking a tile lock. `Relaxed` suffices:
    // the engine decrements a task's successors' in-degrees (`AcqRel`)
    // after the task's kernel stored the flag, and asks the hook only
    // after the decrement that released the asking task.
    let null: Vec<AtomicBool> =
        cells.iter().map(|c| AtomicBool::new(c.read().is_null())).collect();
    let is_null = |i: usize, j: usize| null[lower(i, j)].load(Ordering::Relaxed);

    // Exact-digest side array for the integrity layer (off by default):
    // one digest per packed-lower tile, sealed at load time. Under
    // `Maintain` a tile is resealed only at its *finalizing* write — the
    // POTRF (diagonal) or TRSM (off-diagonal) that produces its factor
    // value — because nothing ever reads the digest of an in-progress
    // GEMM/SYRK version: the end-of-run sweep only sees final states, so
    // intermediate reseals would cost a digest per update and buy zero
    // detection. Under `VerifyReads` every write reseals and each
    // version is verified at its first read boundary, before it can
    // propagate. There is no lineage store on the shared path — every
    // tile version lives exactly once behind its lock — so a mismatch
    // cancels the run and surfaces as a typed integrity error instead of
    // healing.
    struct DigestSlot {
        d: TileDigest,
        /// Whether the current version already passed its first-read
        /// check (`VerifyReads` verifies each version once — later reads
        /// see the same just-verified bytes).
        checked: bool,
    }
    let digests: Option<Vec<Mutex<DigestSlot>>> =
        (cfg.integrity != IntegrityMode::Off).then(|| {
            cells
                .iter()
                .map(|c| {
                    Mutex::new(DigestSlot {
                        d: TileDigest::of(&c.read()),
                        checked: false,
                    })
                })
                .collect()
        });
    let verify_reads = cfg.integrity == IntegrityMode::VerifyReads;

    // First corrupted tile, kept at the smallest packed index so
    // concurrent detections report deterministically (same discipline as
    // the pivot error).
    let integrity_bad: Mutex<Option<(usize, usize)>> = Mutex::new(None);
    let record_corruption = |d: DataRef| {
        let mut slot = integrity_bad.lock();
        match &*slot {
            Some(prev) if *prev <= (d.i, d.j) => {}
            _ => *slot = Some((d.i, d.j)),
        }
        body.cancel();
    };
    let check = |d: DataRef, t: &Tile| -> bool {
        if !verify_reads {
            return true;
        }
        let Some(ds) = &digests else { return true };
        let mut slot = ds[lower(d.i, d.j)].lock();
        if slot.checked {
            return true;
        }
        if slot.d.verify(t) {
            slot.checked = true;
            return true;
        }
        drop(slot);
        record_corruption(d);
        false
    };

    // The span recorder, only when tracing was asked for (its table is
    // preallocated here), beside the body's registry: the engine times
    // every task once and reports it to both — this function never reads
    // a clock per task.
    let obs = cfg.collect_trace.then(|| ExecObs::new(space.len()));

    // Numeric trimming: Algorithm 1 keeps a task whenever its tiles are
    // structurally non-null, but a task whose kernel returns at its first
    // line — a TRSM or SYRK on a null panel tile (m, k), a GEMM with a
    // null panel operand — changes nothing, so the engine retires it
    // without running it. The engine asks once every predecessor has
    // retired, so every writer of those tiles has finished and the
    // answer is the same at any thread count and in any steal order.
    // POTRF always runs. Skipping a task only shortens its tile's chain
    // of writers, so every tile still takes its remaining updates in
    // panel order and the factor's bits cannot move.
    let elides = |t: TaskId| {
        let kind = space.kind(t);
        let noop = match kind {
            TaskKind::Potrf { .. } => false,
            TaskKind::Trsm { k, m } | TaskKind::Syrk { k, m } => is_null(m, k),
            TaskKind::Gemm { k, m, n } => is_null(m, k) || is_null(n, k),
        };
        // A skipped TRSM is still its tile's finalizing write. Under
        // `Maintain` the tile's seal dates from its load, and a GEMM's
        // recompression may have cancelled the tile to `Null` since, so
        // the seal is renewed here (`VerifyReads` resealed at that GEMM).
        if let (true, TaskKind::Trsm { k, m }, Some(ds)) = (noop, kind, &digests) {
            if !verify_reads {
                let d = TileDigest::of(&cell(DataRef { i: m, j: k }).read());
                *ds[lower(m, k)].lock() = DigestSlot { d, checked: false };
            }
        }
        noop
    };

    // The engine walks the task space in id order and runs the body under
    // this engine's locks and digest checks, once per task it does not
    // elide; once the run is cancelled, the closure returns at once.
    let engine_cfg = EngineConfig::new(cfg.nthreads.max(1))
        .with_obs((&body.registry, obs.as_ref()))
        .with_elide(elides);
    let exec_t0 = std::time::Instant::now();
    let exec_result = Engine::new(space).run(&engine_cfg, |wid, t| {
        if body.cancelled() {
            return; // a pivot failure or a digest mismatch cancelled the run
        }
        let kind = space.kind(t);
        let ops = kind.operands();
        // Locks in packed order: the reads, then the written tile.
        with_reads(
            ops.reads(),
            |d| cell(d).read(),
            |reads| {
                let mut out = cell(ops.writes).write();
                let verified = ops.reads().iter().zip(reads).all(|(&d, t)| check(d, t))
                    && check(ops.writes, &out);
                if !verified || !body.run(wid, kind, &mut out, reads) {
                    return;
                }
                null[lower(ops.writes.i, ops.writes.j)].store(out.is_null(), Ordering::Relaxed);
                // POTRF / TRSM write a tile's final version; a SYRK / GEMM
                // output is an intermediate one that they reseal later.
                let finalizing = matches!(kind, TaskKind::Potrf { .. } | TaskKind::Trsm { .. });
                if let (Some(ds), true) = (&digests, finalizing || verify_reads) {
                    *ds[lower(ops.writes.i, ops.writes.j)].lock() = DigestSlot {
                        d: TileDigest::of(&out),
                        checked: false,
                    };
                }
            },
        )
    });
    let seconds = exec_t0.elapsed().as_secs_f64();

    // Move the tiles back into the matrix regardless of success (a
    // panicked kernel released its lock on unwind).
    let mut cells = cells.into_iter();
    for i in 0..nt {
        for j in 0..=i {
            let cell = cells.next().expect("one cell per packed-lower tile");
            matrix.put_tile(i, j, cell.into_inner());
        }
    }
    exec_result?;

    let integrity_error = |i: usize, j: usize| {
        RunError::Engine(EngineError::Fault(FtError::Integrity(IntegrityError {
            rank: 0,
            data: (i, j),
            attempts: 0,
        })))
    };
    // A digest mismatch outranks the numeric error: corrupted inputs can
    // manufacture a spurious pivot failure.
    if let Some((i, j)) = integrity_bad.into_inner() {
        return Err(integrity_error(i, j));
    }
    // End-of-run sweep: verify every tile of the finished factor against
    // its seal once, so a flip between a tile's last write and here can
    // never leave the session silently. One digest per tile, O(n²) total
    // — negligible next to the O(n³)-ish factorization. (Skipped after a
    // pivot failure, which the body's finish reports: a half-factored
    // tile legitimately no longer matches its seal.)
    if let (Some(ds), false) = (&digests, body.cancelled()) {
        for i in 0..nt {
            for j in 0..=i {
                if !ds[lower(i, j)].lock().d.verify(matrix.tile(i, j)) {
                    return Err(integrity_error(i, j));
                }
            }
        }
    }
    Ok(EngineRun { seconds, trace: obs.map(|o| o.finish(space)), wire: None })
}

impl Session<'_> {
    /// One distributed run on the virtual-time [`DistEngine`], on
    /// digest-sealed payloads when the integrity layer is armed.
    fn run_distributed(
        &self,
        matrix: &mut TlrMatrix,
        owners: &OwnerMap,
        body: &TaskBody<'_>,
    ) -> Result<EngineRun, RunError> {
        if self.sealed_payloads() {
            // Every tile travels with its exact content digest; the body
            // reseals what it writes (`TilePayload::from_tile`), and the
            // engine verifies at each read boundary, healing from lineage
            // on a mismatch.
            let corrupt = |p: &mut SealedTile, bits: u64| p.corrupt(bits);
            let check = |p: &SealedTile| p.verify();
            let hooks = IntegrityHooks {
                corrupt: &corrupt,
                verify: &check,
            };
            self.run_ranks(matrix, owners, body, Some(&hooks))
        } else {
            self.run_ranks::<Tile>(matrix, owners, body, None)
        }
    }

    /// Scatter → run → gather with payload type `P`: move the matrix
    /// tiles into per-rank stores wrapped as `P`, run the task body once
    /// per task of the space, and move the final versions back.
    ///
    /// All placement decisions come off the plan's [`OwnerMap`] and the
    /// order off the space; this function only moves tiles and runs the
    /// task body.
    fn run_ranks<P: TilePayload>(
        &self,
        matrix: &mut TlrMatrix,
        owners: &OwnerMap,
        body: &TaskBody<'_>,
        hooks: Option<&IntegrityHooks<'_, P>>,
    ) -> Result<EngineRun, RunError> {
        let (space, nprocs) = (body.space, owners.nprocs);
        // The body's registry shards per emulated rank: task counts and
        // virtual per-class durations land in the executing rank's shard,
        // fault and integrity events in shard 0.
        let no_faults = FaultPlan::none();
        let dist_cfg = DistConfig {
            faults: self.fault_layer().unwrap_or(&no_faults),
            record_trace: self.cfg.collect_trace,
            metrics: &body.registry,
        };
        let exec_t0 = std::time::Instant::now();
        let exec_rank = owners.exec_ranks(space);
        let initial = scatter_tiles::<P>(matrix, &owners.owner, nprocs);
        let mut out = DistEngine::new(space, nprocs, &exec_rank).run(
            initial,
            &dist_cfg,
            hooks,
            |t, ctx| rank_task(body, t, ctx),
        )?;
        let seconds = exec_t0.elapsed().as_secs_f64();
        gather_tiles(matrix, &mut out.stores);
        let wire = Wire { comm: out.comm, events: out.events, makespan: out.makespan, exec_rank };
        Ok(EngineRun { seconds, trace: out.trace, wire: Some(wire) })
    }
}
