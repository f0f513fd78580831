//! Symbolic planning split from numeric execution.
//!
//! PaRSEC separates a factorization into a *symbolic* phase (unroll the
//! PTG, trim the execution space, map tasks to ranks, fix the execution
//! order) and a *numeric* phase (run kernels over the
//! planned graph). Until this module the two were fused: every
//! [`Session::run`](crate::session::Session::run) rebuilt the DAG and
//! distribution mapping from scratch — pure overhead
//! on workloads that factor the *same tile structure* repeatedly (the
//! RBF mesh-deformation timestep loop, or a multi-tenant solver service).
//!
//! [`SymbolicPlan`] is the reusable artifact of the symbolic phase: an
//! immutable, self-contained bundle of
//!
//! * the trimmed [`CholeskySpace`], whose tasks every engine walks and
//!   runs one to one: its ids, each task's reads and their producers.
//!   Every edge runs to a higher id, so id order is the execution order
//!   every engine follows, panel by panel. No plan lays the
//!   space out as a graph or stores an order;
//! * on distributed plans, the layout's owner map beside it: each tile
//!   starts on its owner, and every task that writes the tile runs
//!   there.
//!
//! Plans are keyed by a structural fingerprint ([`PlanKey`]) folded with
//! the same FNV-1a chain as the tile-integrity digests
//! ([`tlr_compress::WordFold`]): tile grid, per-tile rank structure,
//! accuracy/rank caps, layout owner map and rank count — the structure
//! and the configuration only, so sessions that differ only in a
//! capability (fault layer, trace, integrity mode) share one plan.
//! Two matrices with the same key plan
//! identically, so a [`PlanCache`] can hand out one `Arc<SymbolicPlan>`
//! to every request that matches — a warm-cache run skips the symbolic
//! phase entirely. The factor is bit-identical either way: planning
//! decides *where and in what order* kernels run, never what they
//! compute (`tests/plan_cache.rs` holds every capability subset to
//! that).

use crate::dag::{lower, CholeskySpace, DagConfig};
use crate::factorize::FactorConfig;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tlr_compress::{RankSnapshot, WordFold};

/// Where a plan executes — part of the cache key, because shared and
/// distributed plans carry different artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanMode {
    /// Shared-memory work-stealing engine.
    Shared,
    /// Emulated distributed-memory ranks.
    Distributed {
        /// Emulated rank count (changes every mapping).
        nprocs: usize,
    },
}

/// Structural fingerprint of a factorization plan.
///
/// Two (matrix, session-config) pairs with equal keys produce the same
/// symbolic plan, so the key is what a [`PlanCache`] hashes on. The
/// `structure` field folds the per-tile rank snapshot (and, on
/// distributed plans, the layout's owner map) through the FNV-1a word
/// chain of the tile-integrity layer ([`tlr_compress::WordFold`]).
///
/// Worker-thread count is deliberately *not* part of the key: the task
/// space and its order are both thread-count independent, and
/// the factor is bit-identical across thread counts, so one plan serves
/// any pool size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Execution mode.
    pub mode: PlanMode,
    /// Tile-grid dimension.
    pub nt: usize,
    /// Tile size in rows.
    pub tile_size: usize,
    /// Whether the DAG is Algorithm-1 trimmed.
    pub trimmed: bool,
    /// Rank cap (HiCMA `maxrank`) used for fill-in estimates.
    pub max_rank: usize,
    /// Bit pattern of the recompression accuracy.
    pub accuracy_bits: u64,
    /// FNV-1a fold of the rank structure (and distributed owner map).
    pub structure: u64,
}

/// What a distributed plan holds beside its task space: the layout's
/// owner map, walked once per plan and folded into its key.
pub(crate) struct OwnerMap {
    pub(crate) nprocs: usize,
    /// The owner rank of each packed-lower tile, each below `nprocs`: the
    /// tile's initial version starts there.
    pub(crate) owner: Vec<usize>,
}

impl OwnerMap {
    /// The rank executing each task of `space`: the owner of the tile it
    /// writes, so every writer of a tile runs where the tile starts.
    pub(crate) fn exec_ranks(&self, space: &CholeskySpace) -> Vec<usize> {
        let mut ranks = Vec::with_capacity(space.len());
        ranks.extend(space.kinds().map(|kind| {
            let w = kind.operands().writes;
            self.owner[lower(w.i, w.j)]
        }));
        ranks
    }
}

/// The immutable artifact of the symbolic phase: the trimmed task space
/// and, on distributed plans, the owner map beside it, built once and
/// consumed by any number of numeric runs.
///
/// Build one with [`Session::plan`](crate::session::Session::plan) (or
/// implicitly through a [`PlanCache`]), execute it with
/// [`Session::run_with_plan`](crate::session::Session::run_with_plan).
/// A plan is tied to its [`PlanKey`]: running it against a matrix or
/// session configuration with a different key is rejected as
/// [`RunError::PlanMismatch`](crate::session::RunError::PlanMismatch)
/// instead of deadlocking or silently misplacing tiles.
pub struct SymbolicPlan {
    pub(crate) key: PlanKey,
    pub(crate) space: CholeskySpace,
    /// The owner map of a distributed plan; `None` on a shared one.
    pub(crate) dist: Option<OwnerMap>,
    /// Model flops of the space's tasks, priced at planning and summed
    /// in id order: a function of the plan alone, so runs reuse it.
    pub(crate) flops: f64,
}

impl SymbolicPlan {
    /// The structural fingerprint this plan was built for.
    pub fn key(&self) -> &PlanKey {
        &self.key
    }

    /// Tasks in the (trimmed) task space the plan executes.
    pub fn tasks(&self) -> usize {
        self.space.len()
    }

    /// Whether this is a distributed-memory plan.
    pub fn is_distributed(&self) -> bool {
        self.dist.is_some()
    }
}

impl std::fmt::Debug for SymbolicPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SymbolicPlan")
            .field("key", &self.key)
            .field("tasks", &self.tasks())
            .finish()
    }
}

/// Compute the cache key for a (config, structure, mode) triple.
pub(crate) fn plan_key(
    cfg: &FactorConfig,
    snapshot: &RankSnapshot,
    dist: Option<&OwnerMap>,
) -> PlanKey {
    let mut fold = WordFold::new();
    for &r in snapshot.as_flat() {
        fold.push_usize(r);
    }
    let mode = match dist {
        None => PlanMode::Shared,
        Some(d) => {
            // The owner map is part of the structure: two layouts that
            // place tiles differently must not share a plan.
            for &owner in &d.owner {
                fold.push_usize(owner);
            }
            PlanMode::Distributed { nprocs: d.nprocs }
        }
    };
    PlanKey {
        mode,
        nt: snapshot.nt(),
        tile_size: snapshot.tile_size(),
        trimmed: cfg.trimmed,
        max_rank: cfg.max_rank,
        accuracy_bits: cfg.accuracy.to_bits(),
        structure: fold.finish(),
    }
}

/// Run the symbolic phase once: the task space and its model flops,
/// beside the owner map on distributed plans. `key` is
/// [`plan_key`] of the same three inputs, which every caller has already
/// folded to look the plan up.
pub(crate) fn build_plan(
    cfg: &FactorConfig,
    snapshot: &RankSnapshot,
    key: PlanKey,
    dist: Option<OwnerMap>,
) -> SymbolicPlan {
    let dag_cfg = DagConfig {
        trimmed: cfg.trimmed,
        rank_cap: cfg.max_rank,
    };
    let space = CholeskySpace::new(snapshot, &dag_cfg);
    let flops = space.kinds().map(|kind| space.price(kind).flops).sum();
    SymbolicPlan { key, space, dist, flops }
}

/// Cache-activity delta of one plan acquisition, recorded into the run's
/// metrics registry (`plan_cache_hits` / `plan_cache_misses` /
/// `plan_cache_evictions`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheEvents {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to build a plan.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
}

/// A keyed, LRU-evicting cache of [`SymbolicPlan`]s.
///
/// Safe to share across threads and sessions (the
/// [`SolveService`](crate::service::SolveService) holds one for all
/// tenants): lookups hand out `Arc` clones, hit/miss/eviction totals are
/// relaxed atomics, and the LRU list sits behind a mutex that is only
/// held for the (cheap) key comparison — plan *building* happens outside
/// the lock. Two threads racing on the same cold key may both build; the
/// second insert wins and the loser's plan simply drops, which is
/// correct because equal keys build identical plans.
pub struct PlanCache {
    cap: usize,
    /// Front = most recently used.
    inner: Mutex<Vec<(PlanKey, Arc<SymbolicPlan>)>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (at least 1).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            cap: capacity.max(1),
            inner: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Plans currently cached.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Total lookups that built a plan.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Total evictions.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Look up a plan, marking it most-recently-used.
    pub fn lookup(&self, key: &PlanKey) -> Option<Arc<SymbolicPlan>> {
        let mut inner = self.inner.lock();
        if let Some(pos) = inner.iter().position(|(k, _)| k == key) {
            let entry = inner.remove(pos);
            let plan = entry.1.clone();
            inner.insert(0, entry);
            self.hits.fetch_add(1, Ordering::Relaxed);
            Some(plan)
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            None
        }
    }

    /// Insert a plan, evicting least-recently-used entries beyond
    /// capacity. Returns how many entries were evicted.
    pub fn insert(&self, plan: Arc<SymbolicPlan>) -> u64 {
        let mut inner = self.inner.lock();
        inner.retain(|(k, _)| k != &plan.key);
        inner.insert(0, (plan.key, plan));
        let mut evicted = 0u64;
        while inner.len() > self.cap {
            inner.pop();
            evicted += 1;
        }
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        evicted
    }

    /// Look up `key` or build-and-insert via `build`, reporting the
    /// cache activity of this acquisition.
    pub fn get_or_build(
        &self,
        key: &PlanKey,
        build: impl FnOnce() -> SymbolicPlan,
    ) -> (Arc<SymbolicPlan>, CacheEvents) {
        if let Some(plan) = self.lookup(key) {
            return (
                plan,
                CacheEvents {
                    hits: 1,
                    ..CacheEvents::default()
                },
            );
        }
        let plan = Arc::new(build());
        let evictions = self.insert(plan.clone());
        (
            plan,
            CacheEvents {
                hits: 0,
                misses: 1,
                evictions,
            },
        )
    }
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("cap", &self.cap)
            .field("len", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("evictions", &self.evictions())
            .finish()
    }
}
