//! Always-available metrics registry: typed counters, f64 gauges, and a
//! count and a sum of each task class's durations, sharded per
//! worker/rank so the hot path never contends on a cache line and never
//! allocates.
//!
//! Unlike per-task span capture (opt-in per run), the registry is
//! always on: recording a sample is a handful of relaxed atomic adds on
//! a pre-allocated shard. On the shared-memory engine it is a sink of
//! the [`Observe`](crate::engine::Observe) channel, fed the same two
//! clock readings per task as every other sink.
//!
//! Aggregation happens once, at report time: [`Registry::snapshot`]
//! merges all shards into a [`RegistrySnapshot`] — plain owned data that
//! serializes to the hand-rolled [`Json`] (the run report's `registry`
//! section, which its Prometheus rendering prints too) and feeds the run
//! report's class breakdown and the drift report.

use crate::graph::TaskClass;
use crate::obs::json::Json;
use crate::trace::ClassBreakdown;
use std::fmt;
use std::sync::atomic::Ordering::Relaxed;

/// Number of task classes tracked per-class state (`Potrf`, `Trsm`,
/// `Syrk`, `Gemm`, `Other`).
pub const NCLASSES: usize = 5;

/// Slot of a task class in per-class arrays (Potrf=0, Trsm=1, Syrk=2,
/// Gemm=3, Other=4).
pub fn class_slot(class: TaskClass) -> usize {
    match class {
        TaskClass::Potrf => 0,
        TaskClass::Trsm => 1,
        TaskClass::Syrk => 2,
        TaskClass::Gemm => 3,
        TaskClass::Other => 4,
    }
}

/// Human name of a per-class slot (inverse of [`class_slot`]).
pub fn class_name(slot: usize) -> &'static str {
    ["potrf", "trsm", "syrk", "gemm", "other"][slot.min(NCLASSES - 1)]
}

/// Typed monotonic counters. Each variant is one atomic per shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Tasks whose kernel ran to completion (either engine).
    TasksExecuted,
    /// Tasks the work-stealing engine retired without running them: the
    /// run's elision hook found them to be no-ops.
    TasksElided,
    /// Tasks pushed onto a ready queue (work-stealing engine).
    TasksEnqueued,
    /// Successful steals from another worker's deque.
    Steals,
    /// Injected kernel failures that fired (fault layer).
    KernelFailures,
    /// Timeout-, NACK- or crash-driven retransmissions.
    Retransmissions,
    /// Send attempts the (simulated) network dropped.
    MessagesDropped,
    /// Extra deliveries injected by duplication.
    MessagesDuplicated,
    /// Deliveries ignored by receiver-side dedup.
    DuplicatesIgnored,
    /// Acknowledgements the network dropped.
    AcksDropped,
    /// Rank crashes that fired.
    Crashes,
    /// Tasks moved to a surviving rank by crash recovery.
    TasksMigrated,
    /// Already-completed tasks re-executed after a crash or a heal.
    TasksReexecuted,
    /// Messages that exhausted their send attempts.
    SendsAbandoned,
    /// Delivered message copies that arrived with a flipped payload bit.
    MessagesCorrupted,
    /// Scheduled store bit flips that actually mutated a stored tile.
    StoreCorruptionsInjected,
    /// Corruptions caught by integrity verification.
    CorruptionsDetected,
    /// Corrupted data restored and recomputed from lineage.
    CorruptionsHealed,
    /// Negative acknowledgements sent for corrupted deliveries.
    NacksSent,
    /// Workspace arena growth events (an acquisition had to allocate).
    WorkspaceGrowth,
    /// Symbolic-plan cache lookups that found a reusable plan.
    PlanCacheHits,
    /// Symbolic-plan cache lookups that had to plan from scratch.
    PlanCacheMisses,
    /// Cached symbolic plans evicted by the LRU policy.
    PlanCacheEvictions,
}

/// Number of [`Counter`] variants.
pub const NCOUNTERS: usize = 23;

impl Counter {
    /// All counters, in declaration (= storage) order.
    pub const ALL: [Counter; NCOUNTERS] = [
        Counter::TasksExecuted,
        Counter::TasksElided,
        Counter::TasksEnqueued,
        Counter::Steals,
        Counter::KernelFailures,
        Counter::Retransmissions,
        Counter::MessagesDropped,
        Counter::MessagesDuplicated,
        Counter::DuplicatesIgnored,
        Counter::AcksDropped,
        Counter::Crashes,
        Counter::TasksMigrated,
        Counter::TasksReexecuted,
        Counter::SendsAbandoned,
        Counter::MessagesCorrupted,
        Counter::StoreCorruptionsInjected,
        Counter::CorruptionsDetected,
        Counter::CorruptionsHealed,
        Counter::NacksSent,
        Counter::WorkspaceGrowth,
        Counter::PlanCacheHits,
        Counter::PlanCacheMisses,
        Counter::PlanCacheEvictions,
    ];

    /// The fault layer's event counters, `KernelFailures` through
    /// `NacksSent` (one contiguous run of [`ALL`](Counter::ALL)): all zero
    /// on a run without a fault plan (or whose plan never fired).
    pub const FAULTS: &'static [Counter] = Self::ALL
        .split_at(Counter::NacksSent as usize + 1)
        .0
        .split_at(Counter::KernelFailures as usize)
        .1;

    /// Stable snake_case name (JSON key / Prometheus metric stem).
    pub fn name(self) -> &'static str {
        match self {
            Counter::TasksExecuted => "tasks_executed",
            Counter::TasksElided => "tasks_elided",
            Counter::TasksEnqueued => "tasks_enqueued",
            Counter::Steals => "steals",
            Counter::KernelFailures => "kernel_failures",
            Counter::Retransmissions => "retransmissions",
            Counter::MessagesDropped => "messages_dropped",
            Counter::MessagesDuplicated => "messages_duplicated",
            Counter::DuplicatesIgnored => "duplicates_ignored",
            Counter::AcksDropped => "acks_dropped",
            Counter::Crashes => "crashes",
            Counter::TasksMigrated => "tasks_migrated",
            Counter::TasksReexecuted => "tasks_reexecuted",
            Counter::SendsAbandoned => "sends_abandoned",
            Counter::MessagesCorrupted => "messages_corrupted",
            Counter::StoreCorruptionsInjected => "store_corruptions_injected",
            Counter::CorruptionsDetected => "corruptions_detected",
            Counter::CorruptionsHealed => "corruptions_healed",
            Counter::NacksSent => "nacks_sent",
            Counter::WorkspaceGrowth => "workspace_growth",
            Counter::PlanCacheHits => "plan_cache_hits",
            Counter::PlanCacheMisses => "plan_cache_misses",
            Counter::PlanCacheEvictions => "plan_cache_evictions",
        }
    }
}

/// Typed f64 gauges (stored as bit patterns in one atomic per shard;
/// shards merge by `max`, which is exact for high-water marks and for
/// values written from a single shard).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Gauge {
    /// Largest bytes retained by any one worker's kernel workspace.
    ArenaHighWaterBytes,
}

/// Number of [`Gauge`] variants.
pub const NGAUGES: usize = 1;

impl Gauge {
    /// All gauges, in declaration (= storage) order.
    pub const ALL: [Gauge; NGAUGES] = [Gauge::ArenaHighWaterBytes];

    /// Stable snake_case name.
    pub fn name(self) -> &'static str {
        match self {
            Gauge::ArenaHighWaterBytes => "arena_high_water_bytes",
        }
    }
}

/// Merged count and sum of one class's task durations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Samples recorded.
    pub count: u64,
    /// Sum of raw sample values (saturating).
    pub sum: u64,
}

impl Tally {
    /// JSON object: `{"count": .., "sum": ..}`.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj();
        obj.insert("count", Json::Num(self.count as f64));
        obj.insert("sum", Json::Num(self.sum as f64));
        obj
    }
}

/// Merged, owned view of a [`Registry`] at one instant. Plain data:
/// cheap to clone, compare and serialize.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegistrySnapshot {
    /// Shards that were merged (worker/rank count; 0 for the default
    /// empty snapshot).
    pub shards: usize,
    /// Every counter, in [`Counter::ALL`] order (zeros included, so the
    /// schema is stable across runs).
    pub counters: Vec<(&'static str, u64)>,
    /// Every gauge, in [`Gauge::ALL`] order (max across shards).
    pub gauges: Vec<(&'static str, f64)>,
    /// Task-duration count and sum per class, in nanoseconds.
    pub class_duration_ns: Vec<Tally>,
}

impl RegistrySnapshot {
    /// Merged value of one counter (0 if the snapshot is empty).
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters.get(c as usize).map_or(0, |&(_, v)| v)
    }

    /// Merged value of one gauge (0 if the snapshot is empty).
    pub fn gauge(&self, g: Gauge) -> f64 {
        self.gauges.get(g as usize).map_or(0.0, |&(_, v)| v)
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|&(_, v)| v == 0)
            && self.class_duration_ns.iter().all(|h| h.count == 0)
    }

    /// Measured busy seconds per class, from the duration sums.
    pub fn class_busy_seconds(&self) -> ClassBreakdown {
        let s = |k: usize| self.class_duration_ns.get(k).map_or(0.0, |h| h.sum as f64 * 1e-9);
        ClassBreakdown { potrf: s(0), trsm: s(1), syrk: s(2), gemm: s(3), other: s(4) }
    }

    /// Measured busy seconds for one class.
    pub fn class_seconds(&self, class: TaskClass) -> f64 {
        self.class_duration_ns.get(class_slot(class)).map_or(0.0, |h| h.sum as f64 * 1e-9)
    }

    /// JSON object with counters, gauges, and per-class duration tallies.
    pub fn to_json(&self) -> Json {
        let mut counters = Json::obj();
        for &(name, v) in &self.counters {
            counters.insert(name, Json::Num(v as f64));
        }
        let mut gauges = Json::obj();
        for &(name, v) in &self.gauges {
            gauges.insert(name, Json::Num(v));
        }
        let mut durations = Json::obj();
        for (k, t) in self.class_duration_ns.iter().enumerate() {
            durations.insert(class_name(k), t.to_json());
        }
        let mut obj = Json::obj();
        obj.insert("shards", Json::Num(self.shards as f64));
        obj.insert("counters", counters);
        obj.insert("gauges", gauges);
        obj.insert("task_duration_ns", durations);
        obj
    }
}

mod storage {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// One count and sum over atomics.
    #[derive(Default)]
    pub(super) struct AtomicTally {
        count: AtomicU64,
        sum: AtomicU64,
    }

    impl AtomicTally {
        /// Record one sample of value `v` (the sum wraps like any other
        /// counter here).
        #[inline]
        pub(super) fn record(&self, v: u64) {
            self.count.fetch_add(1, Relaxed);
            self.sum.fetch_add(v, Relaxed);
        }

        pub(super) fn merge_into(&self, dst: &mut Tally) {
            dst.count += self.count.load(Relaxed);
            dst.sum = dst.sum.saturating_add(self.sum.load(Relaxed));
        }
    }

    /// One worker/rank's private slice of the registry. Cache-line
    /// aligned so neighbouring shards never false-share.
    #[derive(Default)]
    #[repr(align(64))]
    pub(super) struct Shard {
        pub(super) counters: [AtomicU64; NCOUNTERS],
        /// f64 bit patterns; merged by `max` over the decoded values.
        pub(super) gauges: [AtomicU64; NGAUGES],
        pub(super) class_ns: [AtomicTally; NCLASSES],
    }

    impl Shard {
        #[inline]
        pub(super) fn gauge_max(&self, g: Gauge, v: f64) {
            if !v.is_finite() {
                return;
            }
            let cell = &self.gauges[g as usize];
            let mut cur = cell.load(Relaxed);
            loop {
                if f64::from_bits(cur) >= v {
                    return;
                }
                match cell.compare_exchange_weak(cur, v.to_bits(), Relaxed, Relaxed) {
                    Ok(_) => return,
                    Err(seen) => cur = seen,
                }
            }
        }
    }
}

/// Sharded metrics sink. One shard per worker (shared-memory engine) or
/// rank (DES); every recording method takes the caller's shard index
/// (reduced modulo the shard count) and touches only relaxed atomics in
/// pre-allocated storage — zero allocations after [`Registry::new`].
pub struct Registry {
    shards: Box<[storage::Shard]>,
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("shards", &self.shards())
            .finish()
    }
}

impl Registry {
    /// A registry with `max(1, nshards)` shards.
    pub fn new(nshards: usize) -> Self {
        let n = nshards.max(1);
        Registry { shards: (0..n).map(|_| storage::Shard::default()).collect() }
    }

    /// Shard count.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    #[inline]
    fn shard(&self, i: usize) -> &storage::Shard {
        &self.shards[i % self.shards.len()]
    }

    /// Add `delta` to a counter on `shard`.
    #[inline]
    pub fn add(&self, shard: usize, c: Counter, delta: u64) {
        self.shard(shard).counters[c as usize].fetch_add(delta, Relaxed);
    }

    /// Increment a counter on `shard` by one.
    #[inline]
    pub fn incr(&self, shard: usize, c: Counter) {
        self.add(shard, c, 1);
    }

    /// Raise a gauge on `shard` to at least `v` (high-water semantics).
    #[inline]
    pub fn gauge_max(&self, shard: usize, g: Gauge, v: f64) {
        self.shard(shard).gauge_max(g, v);
    }

    /// Record one task duration (nanoseconds) for `class` on `shard`.
    #[inline]
    pub fn record_class_ns(&self, shard: usize, class: TaskClass, ns: u64) {
        self.shard(shard).class_ns[class_slot(class)].record(ns);
    }

    /// Record one task duration (seconds; non-finite and negative clamp
    /// to 0) for `class` on `shard`.
    #[inline]
    pub fn record_class_seconds(&self, shard: usize, class: TaskClass, secs: f64) {
        let ns = if secs.is_finite() && secs > 0.0 { (secs * 1e9) as u64 } else { 0 };
        self.record_class_ns(shard, class, ns);
    }

    /// Merge all shards into an owned snapshot (report time only — this
    /// allocates).
    pub fn snapshot(&self) -> RegistrySnapshot {
        let mut snap = RegistrySnapshot {
            shards: self.shards(),
            counters: Counter::ALL.iter().map(|c| (c.name(), 0u64)).collect(),
            gauges: Gauge::ALL.iter().map(|g| (g.name(), 0.0f64)).collect(),
            class_duration_ns: vec![Tally::default(); NCLASSES],
        };
        for shard in self.shards.iter() {
            for (slot, cell) in snap.counters.iter_mut().zip(shard.counters.iter()) {
                slot.1 += cell.load(Relaxed);
            }
            for (slot, cell) in snap.gauges.iter_mut().zip(shard.gauges.iter()) {
                let v = f64::from_bits(cell.load(Relaxed));
                if v > slot.1 {
                    slot.1 = v;
                }
            }
            for (dst, src) in snap.class_duration_ns.iter_mut().zip(shard.class_ns.iter()) {
                src.merge_into(dst);
            }
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_empty_registry_has_an_empty_stable_snapshot() {
        let reg = Registry::new(4);
        let snap = reg.snapshot();
        assert!(snap.is_empty());
        assert_eq!(snap.counters.len(), NCOUNTERS);
        assert_eq!(snap.gauges.len(), NGAUGES);
        assert_eq!(snap.class_duration_ns.len(), NCLASSES);
        assert_eq!(snap.counter(Counter::Steals), 0);
        // The JSON export of an empty snapshot parses.
        let j = snap.to_json().to_string();
        assert!(Json::parse(&j).is_ok(), "{j}");
    }

    #[test]
    fn counters_are_stored_in_declaration_order() {
        for (i, &c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c as usize, i, "{}", c.name());
        }
        assert_eq!(Counter::FAULTS.first(), Some(&Counter::KernelFailures));
        assert_eq!(Counter::FAULTS.last(), Some(&Counter::NacksSent));
    }

    #[test]
    fn counters_and_tallies_merge_across_shards() {
        let reg = Registry::new(3);
        for shard in 0..7 {
            // Indices past the shard count wrap instead of panicking.
            reg.incr(shard, Counter::TasksExecuted);
            reg.add(shard, Counter::Retransmissions, 100);
            reg.record_class_ns(shard, TaskClass::Gemm, 1_000 + shard as u64);
        }
        reg.record_class_seconds(0, TaskClass::Potrf, 1.5e-3);
        reg.record_class_seconds(0, TaskClass::Potrf, f64::NAN); // clamps to 0
        reg.gauge_max(0, Gauge::ArenaHighWaterBytes, 4096.0);
        reg.gauge_max(1, Gauge::ArenaHighWaterBytes, 1024.0); // below max, kept
        let snap = reg.snapshot();
        assert!(!snap.is_empty());
        assert_eq!(snap.counter(Counter::TasksExecuted), 7);
        assert_eq!(snap.counter(Counter::Retransmissions), 700);
        let gemm = Tally { count: 7, sum: 7 * 1_000 + (0..7).sum::<u64>() };
        assert_eq!(snap.class_duration_ns[class_slot(TaskClass::Gemm)], gemm);
        assert_eq!(snap.class_duration_ns[class_slot(TaskClass::Potrf)].count, 2);
        let potrf_s = snap.class_seconds(TaskClass::Potrf);
        assert!((potrf_s - 1.5e-3).abs() < 1e-9, "{potrf_s}");
        assert_eq!(snap.gauge(Gauge::ArenaHighWaterBytes), 4096.0);
        let b = snap.class_busy_seconds();
        assert!(b.gemm > 0.0 && b.total() > 0.0);
    }
}
