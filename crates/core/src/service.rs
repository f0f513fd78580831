//! Multi-tenant solver service over the shared-memory engine.
//!
//! [`SolveService`] is the long-lived front-end the symbolic/numeric
//! split was built for: it owns one [`PlanCache`] shared by every
//! request, so concurrent tenants factoring the same tile structure pay
//! the symbolic phase once, and it gates admission so one tenant cannot
//! starve the others — a per-tenant in-flight cap and a per-tenant
//! memory budget accounted in [`KernelWorkspace`](tlr_compress::kernels::KernelWorkspace) arena bytes
//! (the recompression scratch pools are the dominant transient
//! allocation of a factorization; tile storage itself belongs to the
//! caller's matrix). Over-limit requests are rejected *before* any
//! kernel runs, with a typed [`ServiceError`] carrying the numbers that
//! drove the decision.
//!
//! Admission charges a worst-case arena estimate
//! ([`SolveService::arena_estimate_bytes`]) and releases it when the
//! request finishes; the *measured* per-request high-water mark (from
//! the run's metrics registry) is folded into [`TenantUsage`] so
//! operators can see how much headroom the estimate leaves. The
//! service keeps two accounts: [`TenantUsage`] (admitted, rejected,
//! in-flight and arena bytes per tenant, [`SolveService::usage`]) and
//! the plan cache's hit/miss/eviction totals
//! ([`SolveService::plan_cache`]).
//!
//! Requests run on [`Session::shared`] — the work-stealing engine
//! multiplexes tenants' tasks across one pool, which is the scenario
//! the in-flight cap exists for. Distributed sessions emulate ranks in
//! virtual time and have no shared arena to meter; they compose with a
//! [`PlanCache`] directly instead.

use crate::factorize::{FactorConfig, FactorReport};
use crate::plan::PlanCache;
use crate::session::{RunError, RunOutcome, Session};
use crate::solve::solve_tlr;
use parking_lot::Mutex;
use runtime::obs::registry::Gauge;
use std::collections::HashMap;
use std::fmt;
use tlr_compress::TlrMatrix;

/// Per-tenant admission limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantConfig {
    /// Maximum concurrently running requests. `0` rejects everything
    /// (useful to drain a tenant).
    pub max_in_flight: usize,
    /// Kernel-workspace arena budget in bytes, across the tenant's
    /// in-flight requests. Each request is charged its worst-case
    /// estimate at admission.
    pub memory_budget_bytes: u64,
}

/// Live accounting for one tenant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantUsage {
    /// Requests currently running.
    pub in_flight: usize,
    /// Arena bytes currently charged against the budget.
    pub in_use_bytes: u64,
    /// Largest *measured* per-request arena high-water mark seen so far
    /// (0 until a request completes).
    pub peak_arena_bytes: u64,
    /// Requests admitted so far.
    pub admitted: u64,
    /// Requests rejected so far (any reason).
    pub rejected: u64,
}

struct TenantState {
    cfg: TenantConfig,
    usage: TenantUsage,
}

/// Why the service refused (or failed) a request.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The tenant was never registered.
    UnknownTenant(String),
    /// The tenant is already running its maximum concurrent requests.
    InFlightLimit {
        /// The rejected tenant.
        tenant: String,
        /// Its configured cap.
        limit: usize,
    },
    /// Admitting the request would exceed the tenant's arena budget.
    MemoryBudget {
        /// The rejected tenant.
        tenant: String,
        /// Worst-case arena bytes this request would charge.
        requested: u64,
        /// The tenant's configured budget.
        budget: u64,
        /// Bytes already charged by its in-flight requests.
        in_use: u64,
    },
    /// The right-hand side does not have one entry per matrix row.
    RhsLength {
        /// The matrix order.
        expected: usize,
        /// Entries the right-hand side has.
        got: usize,
    },
    /// The request was admitted but the factorization failed.
    Run(RunError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownTenant(t) => write!(f, "unknown tenant {t:?}"),
            ServiceError::InFlightLimit { tenant, limit } => {
                write!(f, "tenant {tenant:?} is at its in-flight limit ({limit})")
            }
            ServiceError::MemoryBudget {
                tenant,
                requested,
                budget,
                in_use,
            } => write!(
                f,
                "tenant {tenant:?} over memory budget: request needs {requested} B, \
                 {in_use} B of {budget} B already in use"
            ),
            ServiceError::RhsLength { expected, got } => {
                write!(f, "right-hand side has {got} entries, the matrix {expected} rows")
            }
            ServiceError::Run(e) => write!(f, "admitted request failed: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<RunError> for ServiceError {
    fn from(e: RunError) -> Self {
        ServiceError::Run(e)
    }
}

/// What an admitted request produced.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// The full factorization outcome (report, metrics registry, …).
    pub run: RunOutcome,
    /// The solution vector, when a right-hand side was supplied.
    pub solution: Option<Vec<f64>>,
    /// Worst-case arena bytes this request was charged at admission.
    pub charged_bytes: u64,
    /// Measured arena high-water bytes of this request (summed
    /// per-worker bound). Always ≤ `charged_bytes`
    /// — the admission estimate is a proven upper bound, which is what
    /// makes the budget enforceable.
    pub measured_bytes: u64,
}

/// A long-lived, multi-tenant TLR solver front-end.
///
/// Thread-safe by construction: every entry point takes `&self`, so one
/// `SolveService` (behind an `Arc` or a `static`) serves concurrent
/// requests from many threads. See the module docs for the admission
/// model.
pub struct SolveService {
    cache: PlanCache,
    tenants: Mutex<HashMap<String, TenantState>>,
}

impl SolveService {
    /// A service whose shared [`PlanCache`] holds up to
    /// `cache_capacity` plans.
    pub fn new(cache_capacity: usize) -> Self {
        SolveService {
            cache: PlanCache::new(cache_capacity),
            tenants: Mutex::new(HashMap::new()),
        }
    }

    /// Register (or reconfigure) a tenant. Reconfiguring keeps the
    /// tenant's live accounting — only the limits change.
    pub fn register_tenant(&self, name: &str, cfg: TenantConfig) {
        let mut tenants = self.tenants.lock();
        match tenants.get_mut(name) {
            Some(st) => st.cfg = cfg,
            None => {
                tenants.insert(
                    name.to_string(),
                    TenantState {
                        cfg,
                        usage: TenantUsage::default(),
                    },
                );
            }
        }
    }

    /// The shared plan cache (e.g. to pre-warm it with
    /// [`Session::plan`] results or read hit totals).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.cache
    }

    /// Live accounting for `tenant`, if registered.
    pub fn usage(&self, tenant: &str) -> Option<TenantUsage> {
        self.tenants.lock().get(tenant).map(|st| st.usage)
    }

    /// Worst-case [`KernelWorkspace`](tlr_compress::kernels::KernelWorkspace) arena bytes a factorization with
    /// `nthreads` workers on `tile_size`-row tiles can retain: each
    /// worker's pools hold a handful of `tile_size²` scratch/export
    /// buffers plus the Householder-coefficient and pivoted-QR scratch
    /// vectors at their high-water marks.
    ///
    /// This is the amount admission charges against the tenant budget.
    /// `tests/solve_service.rs` holds the bound against the measured
    /// high-water of real factorizations.
    pub fn arena_estimate_bytes(nthreads: usize, tile_size: usize) -> u64 {
        let b = tile_size as u64;
        (nthreads.max(1) as u64) * (16 * b * b + 4 * b) * 8
    }

    /// Factor `matrix` on behalf of `tenant` (admission-gated; see the
    /// module docs), optionally solving `L·Lᵀ·x = rhs` with the fresh
    /// factor. `rhs` must have one entry per matrix row; one that does
    /// not is rejected before admission as [`ServiceError::RhsLength`],
    /// with the matrix untouched.
    pub fn factorize_and_solve(
        &self,
        tenant: &str,
        cfg: &FactorConfig,
        matrix: &mut TlrMatrix,
        rhs: Option<&[f64]>,
    ) -> Result<SolveOutcome, ServiceError> {
        let charged = Self::arena_estimate_bytes(cfg.nthreads, matrix.tile_size());
        if let Some(b) = rhs.filter(|b| b.len() != matrix.n()) {
            let e = ServiceError::RhsLength { expected: matrix.n(), got: b.len() };
            return Err(self.reject(tenant, e));
        }
        self.admit(tenant, charged)?;
        // The arena charge is released however the run ends.
        let result = (|| {
            let run = Session::shared(*cfg)
                .with_plan_cache(&self.cache)
                .run(matrix)?;
            let solution = rhs.map(|b| {
                let mut x = b.to_vec();
                solve_tlr(matrix, &mut x);
                x
            });
            Ok::<_, RunError>((run, solution))
        })();
        let measured = result
            .as_ref()
            .ok()
            .and_then(|(run, _)| run.registry.as_ref())
            .map(|snap| {
                // `ArenaHighWaterBytes` merges as a per-worker max;
                // summing over the pool bounds the request's total.
                (snap.gauge(Gauge::ArenaHighWaterBytes) * cfg.nthreads.max(1) as f64) as u64
            })
            .unwrap_or(0);
        self.release(tenant, charged, measured);
        let (run, solution) = result?;
        Ok(SolveOutcome {
            run,
            solution,
            charged_bytes: charged,
            measured_bytes: measured,
        })
    }

    /// [`factorize_and_solve`](SolveService::factorize_and_solve)
    /// without a right-hand side.
    pub fn factorize(
        &self,
        tenant: &str,
        cfg: &FactorConfig,
        matrix: &mut TlrMatrix,
    ) -> Result<FactorReport, ServiceError> {
        self.factorize_and_solve(tenant, cfg, matrix, None)
            .map(|out| out.run.report)
    }

    /// Charge `tenant` for one request of `charged` arena bytes, or
    /// reject with the reason.
    fn admit(&self, tenant: &str, charged: u64) -> Result<(), ServiceError> {
        let mut tenants = self.tenants.lock();
        let refusal = match tenants.get_mut(tenant) {
            None => ServiceError::UnknownTenant(tenant.to_string()),
            Some(st) if st.usage.in_flight >= st.cfg.max_in_flight => {
                ServiceError::InFlightLimit {
                    tenant: tenant.to_string(),
                    limit: st.cfg.max_in_flight,
                }
            }
            Some(st)
                if st.usage.in_use_bytes.saturating_add(charged) > st.cfg.memory_budget_bytes =>
            {
                ServiceError::MemoryBudget {
                    tenant: tenant.to_string(),
                    requested: charged,
                    budget: st.cfg.memory_budget_bytes,
                    in_use: st.usage.in_use_bytes,
                }
            }
            Some(st) => {
                st.usage.in_flight += 1;
                st.usage.in_use_bytes += charged;
                st.usage.admitted += 1;
                return Ok(());
            }
        };
        drop(tenants);
        Err(self.reject(tenant, refusal))
    }

    /// Count one refused request against `tenant` when it is known (an
    /// unknown tenant has no account), and hand back the reason.
    fn reject(&self, tenant: &str, e: ServiceError) -> ServiceError {
        if let Some(st) = self.tenants.lock().get_mut(tenant) {
            st.usage.rejected += 1;
        }
        e
    }

    /// Release an admitted request's charge and fold in its measured
    /// arena peak.
    fn release(&self, tenant: &str, charged: u64, measured: u64) {
        let mut tenants = self.tenants.lock();
        if let Some(st) = tenants.get_mut(tenant) {
            st.usage.in_flight -= 1;
            st.usage.in_use_bytes = st.usage.in_use_bytes.saturating_sub(charged);
            st.usage.peak_arena_bytes = st.usage.peak_arena_bytes.max(measured);
        }
    }
}

impl fmt::Debug for SolveService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SolveService")
            .field("cache", &self.cache)
            .field("tenants", &self.tenants.lock().len())
            .finish()
    }
}
