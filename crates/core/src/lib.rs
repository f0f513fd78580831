#![warn(missing_docs)]
//! The paper's contribution: TLR Cholesky over a dataflow runtime, with
//! dynamic DAG trimming and rank-aware execution remapping.
//!
//! Layer map (paper section → module):
//!
//! * §VI Algorithm 1 (matrix analysis for DAG trimming) → [`analysis`]
//! * §VI DAG trimming (task-graph construction that only materializes
//!   tasks on non-null / fill-in tiles) → [`dag`]
//! * §IV-B TLR Cholesky (shared-memory, real numerics) → [`mod@factorize`]
//! * unified factorization sessions (shared-memory and distributed runs,
//!   composable fault/trace/comm capabilities) → [`session`]
//! * solve phase (forward/backward TLR substitution) → [`solve`]
//! * §VII band + diamond distributions over the discrete-event machine →
//!   [`simulate`]
//! * Lorapo baseline (PSC'20 state of the art) → [`lorapo`]
//! * numerical validation helpers → [`verify`]
//! * symbolic/numeric phase split (reusable [`SymbolicPlan`] artifacts,
//!   the keyed [`PlanCache`]) → [`plan`]
//! * multi-tenant solver front-end with admission control → [`service`]

pub mod analysis;
pub mod dag;
pub mod distributed;
pub mod drift;
pub mod factorize;
pub mod lorapo;
pub mod plan;
pub mod service;
pub mod session;
pub mod simulate;
pub mod solve;
pub mod tuner;
pub mod verify;

pub use analysis::MatrixAnalysis;
pub use dag::{build_cholesky_dag, CholeskyDag, CholeskySpace, DagConfig, TaskKind, TaskPrice};
pub use drift::{modeled_comm, ClassDrift, CommDrift, DriftReport};
pub use factorize::{factorize, FactorConfig, FactorReport, IntegrityMode, PanelShift};
pub use plan::{CacheEvents, PlanCache, PlanKey, PlanMode, SymbolicPlan};
pub use service::{ServiceError, SolveOutcome, SolveService, TenantConfig, TenantUsage};
pub use session::{RunError, RunOutcome, Session};
pub use simulate::{
    simulate_cholesky, simulate_cholesky_faulty, DistributionPlan, SimConfig, SimReport,
};
pub use solve::{solve_refined, solve_tlr, solve_tlr_multi, tlr_matvec};
pub use tuner::{tune_tile_size, TuneResult, TuneSample};
pub use verify::{factorization_residual, solve_residual};
