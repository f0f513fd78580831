//! The five workloads: their sizes, their inputs, and the operation each
//! one repeats. Everything here goes through public functions of the six
//! library crates and times each call from outside.

use crate::metrics::{Layer, On};
use crate::spans::Tracer;
use distribution::DiamondDistribution;
use hicma_core::lorapo::{hicma_parsec_config, lorapo_config};
use hicma_core::simulate::{simulate_cholesky, SimConfig};
use hicma_core::{
    solve_refined, solve_tlr, solve_tlr_multi, tlr_matvec, FactorConfig, RunOutcome, Session,
    SolveService, TenantConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rbf_mesh::hilbert::apply_permutation;
use rbf_mesh::{hilbert_sort, virus_population, GaussianRbf, Point3, VirusConfig};
use runtime::{Counter, Gauge, MachineModel};
use tlr_bench::{scaled_machine, scaled_snapshot, PAPER_ACCURACY, PAPER_SHAPE};
use tlr_compress::rankstat::RankStats;
use tlr_compress::{RankSnapshot, TlrMatrix};
use tlr_linalg::Matrix;

/// The generator seed of every workload's point cloud. The geometry is
/// part of a workload's definition, like its tile size: `--seed` draws
/// the right-hand sides and reference solutions, never the bodies. With
/// bodies placed from `--seed`, two of them overlap on some seeds and not
/// on others (sparse-cloud factorized in 0.37–0.50 s) and a single body's
/// spikes move fine-tiles between 169k and 207k tasks: the seed then
/// picks a different problem, not another sample of the same one, and no
/// bound under 25 % survives a comparison across seeds.
const GEOMETRY_SEED: u64 = 1;
/// Rows of the exact operator the verifier evaluates.
const SAMPLE_ROWS: usize = 256;
/// Emulated ranks of the distributed factorization.
const DIST_RANKS: usize = 4;
/// Steps of one service sequence: four on each of two geometries.
pub const STEPS: usize = 8;
/// The unattributed share of an operation's wall time above which the
/// ledger no longer "sums to the number".
const LEDGER_TOLERANCE: f64 = 0.02;

pub enum Kind {
    /// Assemble, plan, factorize, solve, verify on the shared engine.
    Numeric,
    /// Eight steps through one `SolveService`, then a solve tail of
    /// `tail_cols` right-hand sides.
    Service { tail_cols: usize },
    /// A distributed factorization, then the DES at `1/big` (ours) and
    /// `1/small` (ours and Lorapo) of the paper's 11.95M / 512-node run.
    Cluster { big: usize, small: usize },
}

impl Kind {
    /// Whether a workload of this kind has a number for a metric that is
    /// measured `on` those workloads.
    pub fn measures(&self, on: On) -> bool {
        match on {
            On::All => true,
            On::Shared => !matches!(self, Kind::Cluster { .. }),
            On::Service => matches!(self, Kind::Service { .. }),
            On::Cluster => matches!(self, Kind::Cluster { .. }),
        }
    }
}

/// Bands a workload's matrix must fall in at the reference size, so that
/// a library change that moves it out of its regime fails the
/// operation instead of producing a fast number for a different problem.
pub struct Guards {
    pub density: (f64, f64),
    pub avg_rank: (f64, f64),
    /// The largest off-diagonal rank reaches the tile size (dense tiles).
    pub saturated: bool,
    pub min_tasks: usize,
}

/// The size of one SPD system and the options it is compressed with.
#[derive(Clone, Copy)]
pub struct Geometry {
    pub bodies: usize,
    pub points_per_body: usize,
    pub tile: usize,
    pub accuracy: f64,
    /// δ in units of the mean surface spacing h.
    pub delta_over_h: f64,
}

const fn geometry(
    bodies: usize,
    points_per_body: usize,
    tile: usize,
    accuracy: f64,
    delta_over_h: f64,
) -> Geometry {
    Geometry {
        bodies,
        points_per_body,
        tile,
        accuracy,
        delta_over_h,
    }
}

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    pub geometry: Geometry,
    pub guards: Guards,
}

/// The throw-away system of the warm-up.
const WARM_UP: Geometry = geometry(1, 512, 128, 1e-6, 1.5);

pub const SPECS: &[Spec] = &[
    Spec {
        name: "sparse-cloud",
        why: "16 separated bodies, eps=1e-4: kernel evaluation and tile compression dominate, the engine idles; only assembly-side work may move it",
        kind: Kind::Numeric,
        geometry: geometry(16, 1000, 200, 1e-4, 1.0),
        guards: Guards {
            density: (0.02, 0.15),
            avg_rank: (5.0, 40.0),
            saturated: false,
            min_tasks: 1000,
        },
    },
    Spec {
        name: "fine-tiles",
        why: "one body cut into b=64 tiles: 200k small tasks, so planning, DAG build and per-task engine cost show; kernels are small",
        kind: Kind::Numeric,
        geometry: geometry(1, 12000, 64, 1e-6, 1.5),
        guards: Guards {
            density: (0.03, 0.15),
            avg_rank: (5.0, 30.0),
            saturated: false,
            min_tasks: 200_000,
        },
    },
    Spec {
        name: "high-rank",
        why: "wide kernel, eps=1e-8: ranks saturate at the tile size, GEMM and QR/SVD recompression do 90% of the work, engine overhead is negligible",
        kind: Kind::Numeric,
        geometry: geometry(2, 1500, 150, 1e-8, 3.0),
        guards: Guards {
            density: (0.3, 0.8),
            avg_rank: (30.0, 120.0),
            saturated: true,
            min_tasks: 500,
        },
    },
    Spec {
        name: "timestep-service",
        why: "8 short factorizations through one SolveService on 2 geometries (2 plan misses, 6 hits) and a 256-column solve tail: cached plans and solves matter",
        kind: Kind::Service { tail_cols: 256 },
        geometry: geometry(4, 600, 100, 1e-6, 1.5),
        guards: Guards {
            density: (0.1, 0.6),
            avg_rank: (5.0, 60.0),
            saturated: false,
            min_tasks: 500,
        },
    },
    Spec {
        name: "virtual-cluster",
        why: "4-rank DistEngine factorization plus DES runs of the paper's 512-node point (ours and Lorapo): runtime and distribution do the work, kernels little",
        kind: Kind::Cluster { big: 128, small: 256 },
        geometry: geometry(4, 800, 160, 1e-6, 2.0),
        guards: Guards {
            density: (0.1, 0.7),
            avg_rank: (10.0, 100.0),
            saturated: false,
            min_tasks: 200,
        },
    },
];

/// One SPD system: an ordered point cloud, its kernel, and the options
/// it is compressed and factored with.
pub struct Problem {
    pub cloud: Vec<Point3>,
    pub rbf: GaussianRbf,
    pub tile: usize,
    pub cfg: FactorConfig,
    rows: Vec<usize>,
}

impl Problem {
    /// Generate `bodies` viruses from `geometry_seed`, order them along the
    /// Hilbert curve and fix δ = `delta_over_h`·h, where
    /// h = sqrt(4π·radius² / points_per_body) is the mean surface
    /// spacing: analytic and independent of the seed, unlike the minimum
    /// pairwise distance (see README, "δ").
    pub fn generate(
        g: Geometry,
        geometry_seed: u64,
        nthreads: usize,
        tr: &mut Tracer,
        layer: &mut Option<&mut Layer>,
    ) -> Problem {
        let virus = VirusConfig {
            points_per_virus: g.points_per_body,
            ..VirusConfig::default()
        };
        let t = tr.enter("rbf-mesh.generate");
        let raw = virus_population(g.bodies, &virus, geometry_seed);
        let generate = tr.exit(t);
        let t = tr.enter("rbf-mesh.hilbert");
        let cloud = apply_permutation(&raw, &hilbert_sort(&raw));
        let hilbert = tr.exit(t);
        if let Some(l) = layer {
            l.push("rbf-mesh.generate_s", generate);
            l.push("rbf-mesh.hilbert_s", hilbert);
        }
        let h = (4.0 * std::f64::consts::PI * virus.radius * virus.radius
            / g.points_per_body as f64)
            .sqrt();
        let mut cfg = FactorConfig::with_accuracy(g.accuracy);
        cfg.nthreads = nthreads;
        // The sample is the same for every `--seed`.
        let n = cloud.len();
        let mut pick = StdRng::seed_from_u64(0x5A3B_1E55);
        let rows = (0..SAMPLE_ROWS.min(n))
            .map(|_| pick.gen_range(0..n))
            .collect();
        Problem {
            cloud,
            rbf: GaussianRbf {
                delta: g.delta_over_h * h,
                nugget: 1e-8,
            },
            tile: g.tile,
            cfg,
            rows,
        }
    }

    pub fn n(&self) -> usize {
        self.cloud.len()
    }

    pub fn assemble(&self) -> TlrMatrix {
        TlrMatrix::from_generator(
            self.n(),
            self.tile,
            self.rbf.generator(&self.cloud),
            &self.cfg.compression(),
        )
    }

    /// ‖(A·X − B)_S‖_F / ‖B_S‖_F over the sampled rows S, with the rows
    /// of A evaluated from the exact kernel rather than read from the
    /// compressed operator: compression error and factorization error
    /// both count.
    pub fn residual(&self, x: &Matrix, b: &Matrix) -> f64 {
        let entry = self.rbf.generator(&self.cloud);
        let mut row = vec![0.0; self.n()];
        let (mut num, mut den) = (0.0, 0.0);
        for &i in &self.rows {
            for (j, r) in row.iter_mut().enumerate() {
                *r = entry(i, j);
            }
            for c in 0..x.cols() {
                let ax: f64 = row.iter().zip(x.col(c)).map(|(a, v)| a * v).sum();
                let bi = b[(i, c)];
                num += (ax - bi) * (ax - bi);
                den += bi * bi;
            }
        }
        (num / den.max(f64::MIN_POSITIVE)).sqrt()
    }

    /// `cols` smooth displacement fields over the cloud, drawn from `rng`.
    fn displacement(&self, rng: &mut StdRng, cols: usize) -> Matrix {
        let waves: Vec<[f64; 5]> = (0..cols)
            .map(|_| std::array::from_fn(|_| rng.gen_range(-2.0..2.0)))
            .collect();
        Matrix::from_fn(self.n(), cols, |i, c| {
            let (p, w) = (&self.cloud[i], &waves[c]);
            (1.0 + w[0])
                * (std::f64::consts::TAU * (w[1] * p.x + w[2] * p.y + w[3] * p.z) + w[4]).sin()
        })
    }
}

pub struct ServiceInputs {
    /// G1 and G2: the same bodies placed from two generator seeds.
    pub geometry: [Problem; 2],
    pub rhs_seed: u64,
    pub tail_cols: usize,
}

pub struct SimCase {
    span: &'static str,
    snapshot: RankSnapshot,
    cfg: SimConfig,
}

pub struct ClusterInputs {
    pub dist: Problem,
    pub x_true: Vec<f64>,
    /// Ours at `1/big`, ours at `1/small`, Lorapo at `1/small`.
    pub sims: [SimCase; 3],
}

impl ClusterInputs {
    /// Tile rows and node count of the larger simulation.
    pub fn sim_grid(&self) -> (usize, usize) {
        (self.sims[0].snapshot.nt(), self.sims[0].cfg.nodes)
    }
}

pub enum Inputs {
    Numeric { problem: Problem, x_true: Vec<f64> },
    Service(Box<ServiceInputs>),
    Cluster(Box<ClusterInputs>),
}

/// The solution every numeric operation must recover, drawn from `seed`.
pub fn reference_solution(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(-0.5..0.5)).collect()
}

/// The paper's 11.95M-unknown, 512-node Shaheen II point at `1/scale`
/// (the largest size of `tlr_bench::paper_sizes`).
fn sim_case(span: &'static str, scale: usize, lorapo: bool) -> SimCase {
    let (p, snapshot) = scaled_snapshot(11.95e6, 4880, 512, scale, PAPER_SHAPE, PAPER_ACCURACY);
    let machine = scaled_machine(MachineModel::shaheen_ii(), scale);
    SimCase {
        span,
        snapshot,
        cfg: if lorapo {
            lorapo_config(machine, p.nodes)
        } else {
            hicma_parsec_config(machine, p.nodes)
        },
    }
}

/// Everything between process start and the first measured call: the
/// inputs of `spec`, their right-hand sides drawn from `seed`, and a
/// throw-away 512-point factorization that spins up the rayon pool and
/// the engine's workers.
pub fn setup(
    spec: &Spec,
    seed: u64,
    shrink: usize,
    nthreads: usize,
    tr: &mut Tracer,
    mut layer: Option<&mut Layer>,
) -> Inputs {
    let sized = Geometry {
        points_per_body: spec.geometry.points_per_body / shrink,
        ..spec.geometry
    };
    let mut problem =
        |geometry_seed| Problem::generate(sized, geometry_seed, nthreads, tr, &mut layer);
    let inputs = match spec.kind {
        Kind::Numeric => {
            let problem = problem(GEOMETRY_SEED);
            let x_true = reference_solution(problem.n(), seed);
            Inputs::Numeric { problem, x_true }
        }
        Kind::Service { tail_cols } => Inputs::Service(Box::new(ServiceInputs {
            geometry: [problem(GEOMETRY_SEED), problem(GEOMETRY_SEED + 1)],
            rhs_seed: seed,
            tail_cols,
        })),
        Kind::Cluster { big, small } => {
            let dist = problem(GEOMETRY_SEED);
            Inputs::Cluster(Box::new(ClusterInputs {
                x_true: reference_solution(dist.n(), seed),
                dist,
                sims: [
                    sim_case("runtime.des.ours_big", big * shrink, false),
                    sim_case("runtime.des.ours_small", small * shrink, false),
                    sim_case("runtime.des.lorapo_small", small * shrink, true),
                ],
            }))
        }
    };
    let t = tr.enter("bench.warm_up");
    let warm = Problem::generate(WARM_UP, GEOMETRY_SEED, nthreads, tr, &mut None);
    let _ = Session::shared(warm.cfg).run(&mut warm.assemble());
    tr.exit(t);
    inputs
}

/// What one operation of the measured loop reports.
#[derive(Default)]
pub struct Outcome {
    pub time_to_solution: f64,
    pub factorize: f64,
    pub attempted: u64,
    /// Operations with at least one entry in `failures`.
    pub failed: u64,
    pub failures: Vec<String>,
    /// Entries of `failures` already charged to an operation.
    charged: usize,
}

impl Outcome {
    /// Start the next operation: one factorize + solve + verify, or one
    /// simulation. Failures recorded from here on count against it.
    fn begin(&mut self) {
        self.settle();
        self.attempted += 1;
    }

    fn settle(&mut self) {
        if self.failures.len() > self.charged {
            self.failed += 1;
            self.charged = self.failures.len();
        }
    }
}

/// Rank structure and storage of an assembled operator, read before the
/// factorization overwrites it.
struct Shape {
    stats: RankStats,
    n: usize,
    memory_f64: usize,
}

impl Shape {
    fn of(a: &TlrMatrix) -> Shape {
        Shape {
            stats: a.rank_snapshot().stats(),
            n: a.n(),
            memory_f64: a.memory_f64(),
        }
    }

    fn check(&self, g: &Guards, tile: usize, failures: &mut Vec<String>) {
        check_band("density", self.stats.density, g.density, failures);
        check_band("avg rank", self.stats.avg_nonzero, g.avg_rank, failures);
        if g.saturated && self.stats.max != tile {
            failures.push(format!(
                "regime guard: max rank {} below tile {tile}",
                self.stats.max
            ));
        }
    }
}

/// `v ≤ limit`, false for a NaN: a residual that is not a number fails.
fn at_most(v: f64, limit: f64) -> bool {
    v <= limit
}

fn check_band(what: &str, v: f64, (lo, hi): (f64, f64), failures: &mut Vec<String>) {
    if !(lo..=hi).contains(&v) {
        failures.push(format!("regime guard: {what} {v:.4} outside [{lo}, {hi}]"));
    }
}

/// Close `root` and fail the operation when its phases do not add up to
/// its wall time.
fn close_ledger(
    tr: &mut Tracer,
    root: crate::spans::Open,
    root_index: usize,
    layer: &mut Option<&mut Layer>,
    failures: &mut Vec<String>,
) -> f64 {
    let wall = tr.exit(root);
    if let Some(share) = tr.unattributed_share(root_index) {
        if let Some(l) = layer {
            l.push("ledger_unattributed_share", share);
        }
        if share > LEDGER_TOLERANCE {
            failures.push(format!(
                "ledger: {:.1}% of the operation is outside every phase span",
                100.0 * share
            ));
        }
    }
    wall
}

/// Per-layer numbers every factorization reports, whichever engine ran it.
fn push_run(l: &mut Layer, shape: &Shape, out: &RunOutcome, factorize: f64, nthreads: usize) {
    let Shape {
        stats,
        n,
        memory_f64,
    } = shape;
    let r = &out.report;
    l.push("tlr-compress.density", stats.density);
    l.push("tlr-compress.avg_rank", stats.avg_nonzero);
    l.push("tlr-compress.max_rank", stats.max as f64);
    l.push(
        "tlr-compress.memory_fraction",
        *memory_f64 as f64 / (n * (n + 1) / 2) as f64,
    );
    l.push(
        "tlr-compress.fill_growth",
        r.memory_after_f64 as f64 / r.memory_before_f64 as f64,
    );
    l.push("hicma-core.dag_tasks", r.dag_tasks as f64);
    l.push("hicma-core.dense_dag_tasks", r.dense_dag_tasks as f64);
    l.push(
        "hicma-core.trim_ratio",
        r.dag_tasks as f64 / r.dense_dag_tasks as f64,
    );
    let Some(reg) = &out.registry else { return };
    if let Some(comm) = out.comm {
        // Distributed run: kernels execute inside a virtual-time loop, so
        // wall-clock busy time per class does not exist here.
        l.push("dist_wall_s", factorize);
        l.push("dist_comm_bytes", comm.bytes as f64);
        l.push("runtime.dist_messages", comm.messages as f64);
        l.push("runtime.dist_tasks_per_s", r.dag_tasks as f64 / factorize);
        return;
    }
    let busy = r.breakdown;
    l.push("hicma-core.busy_potrf_s", busy.potrf);
    l.push("hicma-core.busy_trsm_s", busy.trsm);
    l.push("hicma-core.busy_syrk_s", busy.syrk);
    l.push("hicma-core.busy_gemm_s", busy.gemm);
    let per_worker = busy.total() / nthreads as f64;
    l.push("runtime.worker_busy_fraction", per_worker / factorize);
    l.push("runtime.overhead_s", factorize - per_worker);
    l.push(
        "runtime.tasks_executed",
        reg.counter(Counter::TasksExecuted) as f64,
    );
    l.push(
        "runtime.tasks_enqueued",
        reg.counter(Counter::TasksEnqueued) as f64,
    );
    l.push("runtime.steals", reg.counter(Counter::Steals) as f64);
    l.push(
        "runtime.workspace_growth",
        reg.counter(Counter::WorkspaceGrowth) as f64,
    );
    l.push(
        "runtime.arena_high_water_mb",
        reg.gauge(Gauge::ArenaHighWaterBytes) / (1 << 20) as f64,
    );
}

/// Point cloud → verified solve: assemble and compress, plan, factorize,
/// solve `A·x = A·x_true`, check the sampled exact residual. `ranks`
/// selects the engine: `None` is the shared work-stealing engine, `Some`
/// the distributed one on a diamond distribution.
pub fn numeric_op(
    p: &Problem,
    x_true: &[f64],
    ranks: Option<usize>,
    guards: Option<&Guards>,
    tr: &mut Tracer,
    mut layer: Option<&mut Layer>,
) -> Outcome {
    let mut o = Outcome::default();
    o.begin();
    let diamond = DiamondDistribution::new(ranks.unwrap_or(1));
    let session = match ranks {
        Some(n) => Session::distributed(p.cfg, n, &diamond),
        None => Session::shared(p.cfg),
    };
    let root_index = tr.mark();
    let root = tr.enter("op");

    let t = tr.enter("tlr-compress.assemble");
    let mut a = p.assemble();
    let assemble = tr.exit(t);
    let t = tr.enter("bench.keep_operator");
    let a0 = a.clone();
    tr.exit(t);
    let t = tr.enter("hicma-core.plan");
    let plan = session.plan(&a);
    let plan_cold = tr.exit(t);
    let t = tr.enter("hicma-core.factorize");
    let run = plan.and_then(|plan| session.run_with_plan(&plan, &mut a));
    o.factorize = tr.exit(t);
    let run = match run {
        Ok(run) => run,
        Err(e) => {
            o.failures.push(format!("factorize: {e}"));
            o.time_to_solution = tr.exit(root);
            o.settle();
            return o;
        }
    };
    let t = tr.enter("hicma-core.rhs");
    let b = tlr_matvec(&a0, x_true);
    tr.exit(t);
    let t = tr.enter("hicma-core.solve");
    let mut x = b.clone();
    solve_tlr(&a, &mut x);
    let solve = tr.exit(t);
    let t = tr.enter("hicma-core.verify");
    let n = p.n();
    let residual = p.residual(&Matrix::from_vec(n, 1, x), &Matrix::from_vec(n, 1, b));
    let verify = tr.exit(t);

    o.time_to_solution = close_ledger(tr, root, root_index, &mut layer, &mut o.failures);

    if !at_most(residual, 100.0 * p.cfg.accuracy) {
        o.failures.push(format!(
            "residual {residual:.3e} above 100·eps = {:.1e}",
            100.0 * p.cfg.accuracy
        ));
    }
    let shape = Shape::of(&a0);
    if let Some(g) = guards {
        shape.check(g, p.tile, &mut o.failures);
        if run.report.dag_tasks >= run.report.dense_dag_tasks {
            o.failures
                .push("regime guard: trimming removed no task".into());
        }
        if run.report.dag_tasks < g.min_tasks {
            o.failures.push(format!(
                "regime guard: {} tasks < {}",
                run.report.dag_tasks, g.min_tasks
            ));
        }
    }
    o.settle();
    let Some(l) = layer else { return o };
    l.push("tlr-compress.assemble_s", assemble);
    l.push("hicma-core.plan_cold_s", plan_cold);
    // `run_with_plan` re-derives the structural key and compares it with
    // the plan's: what a warm plan-cache hit costs.
    l.push("hicma-core.plan_warm_s", run.report.analysis_seconds);
    l.push("hicma-core.solve_s", solve);
    l.push("hicma-core.verify_s", verify);
    l.push("residual_sampled", residual);
    push_run(l, &shape, &run, o.factorize, p.cfg.nthreads);
    o
}

/// Eight time steps of a mesh-deformation service on two geometries,
/// then a wide solve and a refined solve on the last factor.
pub fn service_op(
    inp: &ServiceInputs,
    guards: Option<&Guards>,
    tr: &mut Tracer,
    mut layer: Option<&mut Layer>,
) -> Outcome {
    const TENANT: &str = "deformation";
    let mut o = Outcome::default();
    let mut rng = StdRng::seed_from_u64(inp.rhs_seed);
    let service = SolveService::new(4);
    service.register_tenant(
        TENANT,
        TenantConfig {
            max_in_flight: 1,
            memory_budget_bytes: u64::MAX,
        },
    );
    let root_index = tr.mark();
    let root = tr.enter("op");
    let mut last = None;
    for step in 0..STEPS {
        o.begin();
        let p = &inp.geometry[step * 2 / STEPS];
        let step_span = tr.enter("step");
        let t = tr.enter("tlr-compress.assemble");
        let mut a = p.assemble();
        let assemble = tr.exit(t);
        let t = tr.enter("bench.rhs");
        let shape = Shape::of(&a);
        let a0 = (step == STEPS - 1).then(|| a.clone());
        let b = p.displacement(&mut rng, 3);
        tr.exit(t);
        let t = tr.enter("hicma-core.service.factorize");
        let run = service.factorize_and_solve(TENANT, &p.cfg, &mut a, None);
        let factorize = tr.exit(t);
        o.factorize += factorize;
        let run = match run {
            Ok(out) => out.run,
            Err(e) => {
                o.failures.push(format!("step {step}: {e}"));
                tr.exit(step_span);
                continue;
            }
        };
        let t = tr.enter("hicma-core.solve_multi");
        let mut x = b.clone();
        solve_tlr_multi(&a, &mut x);
        let solve = tr.exit(t);
        let t = tr.enter("hicma-core.verify");
        let residual = p.residual(&x, &b);
        let verify = tr.exit(t);
        let step_s = tr.exit(step_span);

        if !at_most(residual, 100.0 * p.cfg.accuracy) {
            o.failures.push(format!(
                "step {step}: residual {residual:.3e} above 100·eps"
            ));
        }
        if let Some(g) = guards {
            shape.check(g, p.tile, &mut o.failures);
        }
        if let Some(l) = layer.as_deref_mut() {
            l.push("step_median_s", step_s);
            l.push("tlr-compress.assemble_s", assemble);
            l.push("hicma-core.solve_s", solve);
            l.push("hicma-core.verify_s", verify);
            l.push("residual_sampled", residual);
            // Steps 0 and 4 meet a new geometry and build its plan; the
            // others fold the structural key and hit the cache.
            let plan = if step % (STEPS / 2) == 0 {
                "hicma-core.plan_cold_s"
            } else {
                "hicma-core.plan_warm_s"
            };
            l.push(plan, run.report.analysis_seconds);
            push_run(l, &shape, &run, factorize, p.cfg.nthreads);
        }
        last = a0.map(|a0| (p, a0, a));
    }

    if let Some((p, a0, factor)) = last {
        o.begin();
        let t = tr.enter("bench.rhs");
        let b = p.displacement(&mut rng, inp.tail_cols);
        let mut x = b.clone();
        let mut refined = b.col(0).to_vec();
        tr.exit(t);
        let t = tr.enter("hicma-core.solve_multi");
        solve_tlr_multi(&factor, &mut x);
        let multi = tr.exit(t);
        let t = tr.enter("hicma-core.solve_refined");
        let history = solve_refined(&a0, &factor, &mut refined, 2);
        let refine = tr.exit(t);
        let t = tr.enter("hicma-core.verify");
        let residual = p.residual(&x, &b);
        tr.exit(t);
        if !at_most(residual, 100.0 * p.cfg.accuracy) {
            o.failures
                .push(format!("solve tail: residual {residual:.3e} above 100·eps"));
        }
        if !at_most(history[history.len() - 1], history[0]) {
            o.failures.push(format!("refinement diverged: {history:?}"));
        }
        if let Some(l) = layer.as_deref_mut() {
            l.push("hicma-core.solve_multi_s", multi);
            l.push("hicma-core.solve_refined_s", refine);
            l.push("rhs_per_s", inp.tail_cols as f64 / multi);
        }
    }
    o.time_to_solution = close_ledger(tr, root, root_index, &mut layer, &mut o.failures);

    let cache = service.plan_cache();
    if (cache.hits(), cache.misses()) != (STEPS as u64 - 2, 2) {
        o.failures.push(format!(
            "plan cache: {} hits / {} misses, expected {} / 2",
            cache.hits(),
            cache.misses(),
            STEPS - 2
        ));
    }
    let rejected = service.usage(TENANT).map_or(0, |u| u.rejected);
    if rejected != 0 {
        o.failures
            .push(format!("service rejected {rejected} requests"));
    }
    if let Some(l) = layer {
        l.push("hicma-core.plan_cache_hits", cache.hits() as f64);
        l.push("hicma-core.plan_cache_misses", cache.misses() as f64);
        l.push("hicma-core.service_rejected", rejected as f64);
    }
    o.settle();
    o
}

/// A four-rank distributed factorization with solve and verify, then the
/// three simulations.
pub fn cluster_op(
    inp: &ClusterInputs,
    guards: Option<&Guards>,
    tr: &mut Tracer,
    mut layer: Option<&mut Layer>,
) -> Outcome {
    let root_index = tr.mark();
    let root = tr.enter("cluster_op");
    let mut o = numeric_op(
        &inp.dist,
        &inp.x_true,
        Some(DIST_RANKS),
        guards,
        tr,
        layer.as_deref_mut(),
    );
    let mut reports = Vec::with_capacity(inp.sims.len());
    let mut sim_wall = 0.0;
    for case in &inp.sims {
        o.begin();
        let t = tr.enter(case.span);
        let r = simulate_cholesky(&case.snapshot, &case.cfg);
        sim_wall += tr.exit(t);
        if r.dag_tasks == 0 || r.dag_tasks > r.dense_dag_tasks {
            o.failures.push(format!(
                "{}: {} tasks of {}",
                case.span, r.dag_tasks, r.dense_dag_tasks
            ));
        }
        if !at_most(r.critical_path_seconds, r.factorization_seconds) {
            o.failures
                .push(format!("{}: makespan below the critical path", case.span));
        }
        reports.push(r);
    }
    o.time_to_solution = close_ledger(tr, root, root_index, &mut layer, &mut o.failures);

    let [big, ours, lorapo] = &reports[..] else {
        unreachable!("three simulations")
    };
    let speedup = lorapo.factorization_seconds / ours.factorization_seconds;
    if guards.is_some() && at_most(speedup, 1.0) {
        o.failures
            .push(format!("Lorapo is not slower than ours ({speedup:.3}x)"));
    }
    if let Some(l) = layer {
        let tasks: usize = reports.iter().map(|r| r.dag_tasks).sum();
        l.push("sim_wall_s", sim_wall);
        l.push("sim_makespan_s", big.factorization_seconds);
        l.push("sim_speedup_vs_lorapo", speedup);
        l.push("hicma-core.sim_analysis_s", big.analysis_seconds);
        l.push("runtime.des_tasks_per_s", tasks as f64 / sim_wall);
        l.push("distribution.load_imbalance", big.load_imbalance);
        l.push("distribution.writeback_bytes", big.writeback_bytes as f64);
        l.push("distribution.comm_bytes_sim", big.comm.bytes as f64);
    }
    o.settle();
    o
}
