//! The metric tables, the benchmark definition written from them, and
//! the sample store the traced run fills.
//!
//! `BENCHMARK.json` at the repository root is the committed output of
//! `pipeline_bench --definition`; the test at the bottom keeps the two
//! from drifting apart.

use crate::stats::{summarize, Summary};
use crate::workloads::SPECS;
use runtime::obs::json::Json;
use std::collections::BTreeMap;

/// How long one run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u32 = 12;

/// The directory that holds the benchmark and nothing else.
const PATH: &str = "crates/bench/src/bin/pipeline_bench";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Which workloads measure a per-layer metric. A workload that does not
/// run a layer has no number for it: the metric is left out of its table
/// and its `--json` set, and reads 0 in the driver's result line, which
/// must carry every name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum On {
    All,
    /// Factorizations on the shared work-stealing engine: every workload
    /// but `virtual-cluster`.
    Shared,
    Service,
    Cluster,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count that repeats bit for bit on the same seed and commit.
    pub exact: bool,
    pub on: On,
    /// Share of the first set's value by which `--compare` lets the
    /// second be worse: the workload-level figures that cannot be
    /// end-to-end metrics of `BENCHMARK.json` are gated here instead.
    pub bound: Option<f64>,
}

impl PerLayer {
    const fn on(mut self, on: On) -> PerLayer {
        self.on = on;
        self
    }

    const fn within(mut self, bound: f64) -> PerLayer {
        self.bound = Some(bound);
        self
    }
}

/// The widest bound the driver allows. Ten runs of one commit on the
/// shared 2-core reference host spread by 5–12 % (quartile distance over
/// median) on every timing, and the driver asks for a bound of three
/// times the spread (README, "Bounds").
const TIMING_BOUND: f64 = 0.25;

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "time_to_solution_s",
        unit: "s",
        better: Better::Lower,
        bound: TIMING_BOUND,
    },
    EndToEnd {
        name: "factorize_s",
        unit: "s",
        better: Better::Lower,
        bound: TIMING_BOUND,
    },
    // Not CPU noise but the allocator: fine-tiles peaks anywhere between
    // 225 and 248 MB on one commit (spread up to 7 %).
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: TIMING_BOUND,
    },
];

const fn timed(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
        on: On::All,
        bound: None,
    }
}

const fn rate(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        exact: false,
        on: On::All,
        bound: None,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
        on: On::All,
        bound: None,
    }
}

use Better::{Higher, Lower};
use On::{Cluster, Service, Shared};

pub const PER_LAYER: &[PerLayer] = &[
    // Workload-level figures that the driver's contract keeps out of
    // `end_to_end` (absent on some workloads, deterministic, or 0 by
    // design: see README). `--compare` gates the timed ones at the bound
    // of the end-to-end timings, the residual at a factor of two.
    exact("ops_failed_share", "ratio", Lower),
    timed("residual_sampled", "ratio").within(1.0),
    timed("step_median_s", "s").on(Service).within(TIMING_BOUND),
    rate("rhs_per_s", "1/s").on(Service).within(TIMING_BOUND),
    timed("dist_wall_s", "s").on(Cluster).within(TIMING_BOUND),
    exact("dist_comm_bytes", "B", Lower).on(Cluster),
    timed("sim_wall_s", "s").on(Cluster).within(TIMING_BOUND),
    exact("sim_makespan_s", "virtual_s", Lower).on(Cluster),
    exact("sim_speedup_vs_lorapo", "x", Higher).on(Cluster),
    timed("setup_cold_s", "s"),
    timed("trace_overhead_share", "ratio"),
    timed("ledger_unattributed_share", "ratio"),
    // rbf-mesh
    timed("rbf-mesh.generate_s", "s"),
    timed("rbf-mesh.hilbert_s", "s"),
    timed("rbf-mesh.min_distance_s", "s"),
    rate("rbf-mesh.kernel_evals_per_s", "1/s"),
    // tlr-linalg
    rate("tlr-linalg.gemm_gflops", "Gflop/s"),
    rate("tlr-linalg.potrf_gflops", "Gflop/s"),
    rate("tlr-linalg.trsm_gflops", "Gflop/s"),
    rate("tlr-linalg.syrk_gflops", "Gflop/s"),
    timed("tlr-linalg.qrcp_ms", "ms"),
    timed("tlr-linalg.svd_ms", "ms"),
    // tlr-compress
    timed("tlr-compress.assemble_s", "s"),
    timed("tlr-compress.compress_tile_ms", "ms"),
    timed("tlr-compress.gemm_kernel_us", "us"),
    timed("tlr-compress.subtract_lowrank_us", "us"),
    exact("tlr-compress.density", "ratio", Lower),
    exact("tlr-compress.avg_rank", "count", Lower),
    exact("tlr-compress.max_rank", "count", Lower),
    exact("tlr-compress.memory_fraction", "ratio", Lower),
    exact("tlr-compress.fill_growth", "ratio", Lower),
    // hicma-core
    timed("hicma-core.plan_cold_s", "s"),
    timed("hicma-core.plan_warm_s", "s"),
    exact("hicma-core.plan_cache_hits", "count", Higher).on(Service),
    exact("hicma-core.plan_cache_misses", "count", Lower).on(Service),
    exact("hicma-core.dag_tasks", "count", Lower),
    exact("hicma-core.dense_dag_tasks", "count", Lower),
    exact("hicma-core.trim_ratio", "ratio", Lower),
    timed("hicma-core.busy_potrf_s", "s").on(Shared),
    timed("hicma-core.busy_trsm_s", "s").on(Shared),
    timed("hicma-core.busy_syrk_s", "s").on(Shared),
    timed("hicma-core.busy_gemm_s", "s").on(Shared),
    rate("hicma-core.model_gflops", "Gflop/s"),
    rate("hicma-core.rate_over_gemm", "ratio"),
    timed("hicma-core.solve_s", "s"),
    timed("hicma-core.solve_multi_s", "s").on(Service),
    timed("hicma-core.solve_refined_s", "s").on(Service),
    timed("hicma-core.verify_s", "s"),
    exact("hicma-core.service_rejected", "count", Lower).on(Service),
    timed("hicma-core.sim_analysis_s", "s").on(Cluster),
    // runtime
    exact("runtime.tasks_executed", "count", Lower).on(Shared),
    exact("runtime.tasks_enqueued", "count", Lower).on(Shared),
    timed("runtime.steals", "count").on(Shared),
    timed("runtime.workspace_growth", "count").on(Shared),
    timed("runtime.arena_high_water_mb", "MB").on(Shared),
    rate("runtime.worker_busy_fraction", "ratio").on(Shared),
    timed("runtime.overhead_s", "s").on(Shared),
    timed("runtime.engine_noop_s", "s"),
    timed("runtime.engine_noop_ns_per_task", "ns"),
    exact("runtime.critical_path_share", "ratio", Lower),
    rate("runtime.speedup_vs_1thread", "x"),
    rate("runtime.parallel_efficiency", "ratio"),
    rate("runtime.des_tasks_per_s", "1/s").on(Cluster),
    rate("runtime.dist_tasks_per_s", "1/s").on(Cluster),
    exact("runtime.dist_messages", "count", Lower).on(Cluster),
    // distribution
    timed("distribution.map_ns_per_tile", "ns").on(Cluster),
    exact("distribution.load_imbalance", "ratio", Lower).on(Cluster),
    exact("distribution.writeback_bytes", "B", Lower).on(Cluster),
    exact("distribution.comm_bytes_sim", "B", Lower).on(Cluster),
];

/// The benchmark's definition in the driver's schema.
pub fn definition() -> Json {
    let text = |s: &str| Json::Str(s.to_string());
    let object = |fields: &[(&str, Json)]| {
        let mut o = Json::obj();
        for (k, v) in fields {
            o.insert(*k, v.clone());
        }
        o
    };
    let manifest = format!("{PATH}/Cargo.toml");
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        &manifest,
        "--",
    ];
    object(&[
        (
            "command",
            Json::Arr(command.iter().map(|s| text(s)).collect()),
        ),
        ("paths", Json::Arr(vec![text(PATH)])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                SPECS
                    .iter()
                    .map(|s| object(&[("name", text(s.name)), ("why", text(s.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        object(&[
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        object(&[
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Samples of per-layer metrics, keyed by metric name.
#[derive(Default)]
pub struct Layer(BTreeMap<&'static str, Vec<f64>>);

impl Layer {
    pub fn push(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not in PER_LAYER"
        );
        self.0.entry(name).or_default().push(value);
    }

    pub fn median(&self, name: &str) -> Option<f64> {
        self.summary(name).map(|s| s.median)
    }

    pub fn summary(&self, name: &str) -> Option<Summary> {
        self.0.get(name).map(|v| summarize(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate metric name");
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }

    /// The repository root: the first directory above this package's
    /// manifest that holds `BENCHMARK.json`, whichever of the two
    /// manifests (this directory's or `tlr-bench`'s) built the test.
    fn root() -> &'static std::path::Path {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .find(|d| d.join("BENCHMARK.json").is_file())
            .expect("BENCHMARK.json above the manifest directory")
    }

    #[test]
    fn committed_definition_matches_the_tables() {
        let text = std::fs::read_to_string(root().join("BENCHMARK.json")).unwrap();
        assert_eq!(Json::parse(&text).unwrap(), definition());
        for s in SPECS {
            assert!(s.why.len() <= 200 && !s.why.contains('\n'), "{}", s.name);
        }
    }

    /// This directory's manifest repeats two tables of the root manifest
    /// (a `[patch]` table and a profile only apply from a workspace root,
    /// and the driver builds this package as its own workspace).
    #[test]
    fn standalone_manifest_repeats_the_root_patch_table_and_profile() {
        let table = |manifest: &str, header: &str| -> Vec<String> {
            let text = std::fs::read_to_string(root().join(manifest)).unwrap();
            text.lines()
                .skip_while(|l| l.trim() != header)
                .skip(1)
                .take_while(|l| !l.starts_with('['))
                .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
                .map(|l| l.replace("../../../../../shims/", "shims/"))
                .collect()
        };
        let own = format!("{PATH}/Cargo.toml");
        for header in ["[patch.crates-io]", "[profile.release]"] {
            let root_table = table("Cargo.toml", header);
            assert!(!root_table.is_empty(), "{header} not in the root manifest");
            assert_eq!(root_table, table(&own, header), "{header}");
        }
    }
}
