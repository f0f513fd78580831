//! Fault injection for the distributed runtime.
//!
//! A [`FaultPlan`] is a *seeded, deterministic* description of what goes
//! wrong during a run: message drops, duplications and delay jitter on
//! the emulated network, fail-stop rank crashes at given virtual times,
//! task-level kernel failures, and silent data corruption (bit flips in
//! a stored tile or an in-flight payload). Every decision is a pure
//! hash of `(seed, stream, key, attempt)` via [`fault_unit`] — re-running
//! the same plan against the same task graph reproduces the exact same
//! fault sequence, which is what makes the recovery paths testable at
//! all.
//!
//! One plan value serves both virtual-time engines. The distributed
//! engine ([`crate::engine::DistEngine`], via
//! [`DistConfig::faults`](crate::engine::DistConfig)) *survives* it: it
//! meets the plan with one fixed retry ladder (timeouts with capped
//! exponential backoff, [`MAX_KERNEL_RETRIES`] kernel retries, a heal
//! budget per datum) and counts every fault event it meets into the run's
//! metrics registry (the fault counters of
//! [`Counter::FAULTS`](crate::obs::registry::Counter::FAULTS)); the
//! traffic itself, retransmissions included, is its
//! [`CommStats`](crate::des::CommStats). The DES
//! ([`crate::des::simulate`]) *prices* its crashes and store corruptions
//! on the modeled machine, drawing from the same `(seed, stream, key)`
//! hash, so one seed rolls the identical fates on both sides of a
//! resilience experiment.

use crate::engine::EngineError;
use crate::graph::TaskId;
use std::collections::HashMap;
use std::fmt;

#[inline]
fn fault_mix(seed: u64, stream: u64, key: u64) -> u64 {
    seed.wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B54A32D192ED03))
        .wrapping_add(key.wrapping_mul(0x8CB92BA72F3D8DD7))
}

#[inline]
fn fault_finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Deterministic unit sample in `[0, 1)` for `(seed, stream, key,
/// attempt)` — the single RNG behind every [`FaultPlan`] decision, in
/// both engines. SplitMix64 finalizer over the mixed
/// identifiers: every tuple gets an independent fate, and the same
/// tuple always rolls the same fate.
pub fn fault_unit(seed: u64, stream: u64, key: u64, attempt: u32) -> f64 {
    (fault_finalize(fault_mix(seed, stream, key).wrapping_add(attempt as u64)) >> 11) as f64
        * (1.0 / (1u64 << 53) as f64)
}

/// Raw deterministic 64-bit hash for `(seed, stream, key)` — used where
/// a fate needs more than a probability, e.g. choosing which stored bit
/// a corruption event flips.
pub fn fault_bits(seed: u64, stream: u64, key: u64) -> u64 {
    fault_finalize(fault_mix(seed, stream, key))
}

/// A fail-stop crash of one rank at a virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashAt {
    /// Rank that dies.
    pub rank: usize,
    /// Virtual time of death (seconds since execution start).
    pub at: f64,
}

/// A silent corruption of one stored tile at a virtual time: one bit of
/// tile `(i, j)` in rank `rank`'s store flips, with the flipped bit
/// chosen deterministically from the plan seed. A no-op if the tile is
/// not in that store (or holds no words) at that moment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorruptAt {
    /// Rank whose store is hit.
    pub rank: usize,
    /// Tile row index.
    pub i: usize,
    /// Tile column index.
    pub j: usize,
    /// Virtual time of the bit flip (seconds since execution start).
    pub at: f64,
}

/// Seeded, deterministic fault schedule for one distributed run.
///
/// All probabilities are per *send attempt* (retransmissions roll their
/// own fate), so `drop_prob = 0.3` with retries still converges: the
/// chance that `k` consecutive attempts all drop is `0.3^k`.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed of every pseudo-random fault decision.
    pub seed: u64,
    /// Probability that a message send attempt is silently dropped.
    pub drop_prob: f64,
    /// Probability that a delivered message is also delivered a second
    /// time (duplicate with independent extra delay).
    pub duplicate_prob: f64,
    /// Probability that an acknowledgement is dropped (forcing a
    /// spurious retransmission of an already-delivered message).
    pub ack_drop_prob: f64,
    /// Maximum extra latency per delivery, uniform in `[0, delay_jitter]`
    /// virtual seconds.
    pub delay_jitter: f64,
    /// Fail-stop rank crashes, applied in virtual time order.
    pub crashes: Vec<CrashAt>,
    /// `task → n`: the first `n` execution attempts of the task fail at
    /// the kernel level (deterministic injected failure).
    pub kernel_failures: HashMap<TaskId, u32>,
    /// Probability that a delivered message copy arrives with one bit
    /// of its payload flipped (silent in-flight corruption; rolled per
    /// delivered copy, independently of drops and duplicates).
    pub corrupt_msg_prob: f64,
    /// Scheduled silent bit flips in rank-local tile stores.
    pub store_corruptions: Vec<CorruptAt>,
}

impl FaultPlan {
    /// A plan that injects nothing: the one fault-free value of both
    /// virtual-time engines.
    pub fn none() -> Self {
        Self::new(0)
    }

    /// An empty plan with the given seed; add faults with the `with_*`
    /// builders.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            ack_drop_prob: 0.0,
            delay_jitter: 0.0,
            crashes: Vec::new(),
            kernel_failures: HashMap::new(),
            corrupt_msg_prob: 0.0,
            store_corruptions: Vec::new(),
        }
    }

    /// Set the per-attempt message drop probability.
    pub fn with_drops(mut self, p: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "drop probability must be in [0, 1)"
        );
        self.drop_prob = p;
        self
    }

    /// Set the duplication probability.
    pub fn with_duplicates(mut self, p: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "duplicate probability must be in [0, 1)"
        );
        self.duplicate_prob = p;
        self
    }

    /// Set the ack drop probability.
    pub fn with_ack_drops(mut self, p: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "ack drop probability must be in [0, 1)"
        );
        self.ack_drop_prob = p;
        self
    }

    /// Set the maximum uniform extra delivery delay (virtual seconds).
    pub fn with_jitter(mut self, max_extra: f64) -> Self {
        assert!(max_extra >= 0.0, "jitter must be non-negative");
        self.delay_jitter = max_extra;
        self
    }

    /// Crash `rank` at virtual time `at`.
    pub fn with_crash(mut self, rank: usize, at: f64) -> Self {
        self.crashes.push(CrashAt { rank, at });
        self
    }

    /// Make the first `attempts` executions of `task` fail in the kernel.
    pub fn with_kernel_failure(mut self, task: TaskId, attempts: u32) -> Self {
        self.kernel_failures.insert(task, attempts);
        self
    }

    /// Set the per-delivered-copy payload corruption probability.
    pub fn with_message_corruption(mut self, p: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "corruption probability must be in [0, 1)"
        );
        self.corrupt_msg_prob = p;
        self
    }

    /// Flip one bit of tile `(i, j)` in rank `rank`'s store at virtual
    /// time `at`.
    pub fn with_store_corruption(mut self, rank: usize, i: usize, j: usize, at: f64) -> Self {
        self.store_corruptions.push(CorruptAt { rank, i, j, at });
        self
    }

    /// Whether the plan injects any silent data corruption (message or
    /// store) — when it does, the distributed engine must run with an
    /// integrity layer or the corruption would go unnoticed.
    pub fn injects_corruption(&self) -> bool {
        self.corrupt_msg_prob > 0.0 || !self.store_corruptions.is_empty()
    }

    /// Check the plan against a machine of `nprocs` processes: every
    /// crash and store corruption must target an existing one. Both
    /// engines call this once at their entry point.
    pub fn validate(&self, nprocs: usize) -> Result<(), EngineError> {
        let targets = self.crashes.iter().map(|c| c.rank);
        match targets.chain(self.store_corruptions.iter().map(|c| c.rank)).find(|&r| r >= nprocs) {
            Some(rank) => Err(EngineError::InvalidCrashRank { rank, nprocs }),
            None => Ok(()),
        }
    }

    /// Deterministic unit sample for `(stream, key, attempt)` from the
    /// shared [`fault_unit`] stream.
    fn unit(&self, stream: u64, key: u64, attempt: u32) -> f64 {
        fault_unit(self.seed, stream, key, attempt)
    }

    /// Does attempt `attempt` of message `msg` get dropped?
    pub fn drops_message(&self, msg: u64, attempt: u32) -> bool {
        self.unit(1, msg, attempt) < self.drop_prob
    }

    /// Does attempt `attempt` of message `msg` get duplicated?
    pub fn duplicates_message(&self, msg: u64, attempt: u32) -> bool {
        self.unit(2, msg, attempt) < self.duplicate_prob
    }

    /// Does the ack for attempt `attempt` of message `msg` get dropped?
    pub fn drops_ack(&self, msg: u64, attempt: u32) -> bool {
        self.unit(3, msg, attempt) < self.ack_drop_prob
    }

    /// Extra delivery delay for attempt `attempt` of message `msg`
    /// (`copy` distinguishes the original from an injected duplicate).
    pub fn delay(&self, msg: u64, attempt: u32, copy: u32) -> f64 {
        if self.delay_jitter == 0.0 {
            return 0.0;
        }
        self.unit(4 + copy as u64, msg, attempt) * self.delay_jitter
    }

    /// Does execution attempt `attempt` (0-based) of `task` fail?
    pub fn kernel_fails(&self, task: TaskId, attempt: u32) -> bool {
        self.kernel_failures
            .get(&task)
            .is_some_and(|&n| attempt < n)
    }

    /// Does delivered copy `copy` of attempt `attempt` of message `msg`
    /// arrive corrupted (one payload bit flipped)?
    pub fn corrupts_message(&self, msg: u64, attempt: u32, copy: u32) -> bool {
        self.unit(6 + copy as u64, msg, attempt) < self.corrupt_msg_prob
    }

    /// Deterministic raw bits selecting *which* stored bit a corruption
    /// event flips (`key` identifies the event: message record id for
    /// in-flight corruption, the store-corruption index for at-rest
    /// flips).
    pub fn corruption_bits(&self, key: u64) -> u64 {
        fault_bits(self.seed, 9, key)
    }
}

// The distributed engine's retry ladder. Each value is fixed: the
// recovery paths are reached through the plan (enough failures, enough
// strikes), never by lowering a budget.

/// Virtual seconds after a send attempt before an unacked message is
/// retransmitted (the first rung of the ladder).
const ACK_TIMEOUT: f64 = 4.0;
/// Multiplier applied to the timeout per retransmission.
const BACKOFF: f64 = 2.0;
/// Ceiling on the backed-off timeout.
const MAX_BACKOFF: f64 = 64.0;
/// A message is abandoned after this many send attempts.
pub(crate) const MAX_SEND_ATTEMPTS: u32 = 40;
/// A task that fails in the kernel more often than this ends the run with
/// [`FtError::KernelRetriesExhausted`].
pub const MAX_KERNEL_RETRIES: u32 = 8;
/// Lineage-recompute passes one datum gets before the run escalates to
/// [`FtError::Integrity`]. Each pass restarts the datum's writers after
/// [`timeout_for`] of the pass number, mirroring the retransmission
/// ladder.
pub(crate) const MAX_HEAL_RETRIES: u32 = 4;

/// Backed-off, capped timeout of send attempt (or heal pass) `attempt`
/// (1-based): 4, 8, 16, 32, 64, 64, … virtual seconds.
pub(crate) fn timeout_for(attempt: u32) -> f64 {
    (ACK_TIMEOUT * BACKOFF.powi(attempt.saturating_sub(1) as i32)).min(MAX_BACKOFF)
}

/// Unrecoverable data corruption: a datum kept failing verification
/// past the distributed engine's heal budget (4 lineage-recompute
/// passes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntegrityError {
    /// Rank whose store held the unhealable datum.
    pub rank: usize,
    /// Tile coordinates of the datum.
    pub data: (usize, usize),
    /// Healing passes attempted before giving up.
    pub attempts: u32,
}

impl fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tile ({}, {}) on rank {} failed integrity verification after {} healing pass(es)",
            self.data.0, self.data.1, self.rank, self.attempts
        )
    }
}

impl std::error::Error for IntegrityError {}

/// Unrecoverable failure of a fault-tolerant run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FtError {
    /// Every rank crashed; no survivor to migrate work to.
    AllRanksCrashed,
    /// A task kept failing past [`MAX_KERNEL_RETRIES`].
    KernelRetriesExhausted {
        /// The task that would not complete.
        task: TaskId,
    },
    /// The event queue drained with tasks still pending (e.g. a message
    /// abandoned after its last send attempt under extreme drop rates).
    Stalled {
        /// Number of tasks that never completed.
        pending: usize,
    },
    /// A datum could not be healed within the heal budget (4 passes).
    Integrity(IntegrityError),
}

impl fmt::Display for FtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FtError::AllRanksCrashed => write!(f, "all ranks crashed; no survivor to recover on"),
            FtError::KernelRetriesExhausted { task } => {
                write!(f, "task {task} failed past the kernel retry limit")
            }
            FtError::Stalled { pending } => {
                write!(f, "execution stalled with {pending} tasks pending")
            }
            FtError::Integrity(e) => write!(f, "unrecoverable corruption: {e}"),
        }
    }
}

impl std::error::Error for FtError {}

impl From<IntegrityError> for FtError {
    fn from(e: IntegrityError) -> Self {
        FtError::Integrity(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fates_are_deterministic() {
        let a = FaultPlan::new(7)
            .with_drops(0.3)
            .with_duplicates(0.2)
            .with_jitter(1.5);
        let b = FaultPlan::new(7)
            .with_drops(0.3)
            .with_duplicates(0.2)
            .with_jitter(1.5);
        for msg in 0..200u64 {
            for attempt in 0..4 {
                assert_eq!(a.drops_message(msg, attempt), b.drops_message(msg, attempt));
                assert_eq!(
                    a.duplicates_message(msg, attempt),
                    b.duplicates_message(msg, attempt)
                );
                assert_eq!(a.delay(msg, attempt, 0), b.delay(msg, attempt, 0));
            }
        }
    }

    #[test]
    fn different_seeds_give_different_fates() {
        let a = FaultPlan::new(1).with_drops(0.5);
        let b = FaultPlan::new(2).with_drops(0.5);
        let disagreements = (0..500u64)
            .filter(|&m| a.drops_message(m, 0) != b.drops_message(m, 0))
            .count();
        assert!(
            disagreements > 100,
            "seeds must decorrelate ({disagreements})"
        );
    }

    #[test]
    fn drop_rate_tracks_probability() {
        let plan = FaultPlan::new(11).with_drops(0.25);
        let dropped = (0..4000u64).filter(|&m| plan.drops_message(m, 0)).count();
        let rate = dropped as f64 / 4000.0;
        assert!((rate - 0.25).abs() < 0.03, "empirical drop rate {rate}");
    }

    #[test]
    fn attempts_roll_independent_fates() {
        let plan = FaultPlan::new(3).with_drops(0.5);
        // Some message dropped on attempt 0 must survive a later attempt.
        let recovered = (0..200u64).any(|m| plan.drops_message(m, 0) && !plan.drops_message(m, 1));
        assert!(recovered, "retransmissions must be able to succeed");
    }

    #[test]
    fn jitter_bounded() {
        let plan = FaultPlan::new(5).with_jitter(2.0);
        for m in 0..500u64 {
            let d = plan.delay(m, 0, 0);
            assert!((0.0..=2.0).contains(&d));
        }
    }

    #[test]
    fn kernel_failures_bounded_by_count() {
        let plan = FaultPlan::new(1).with_kernel_failure(4, 2);
        assert!(plan.kernel_fails(4, 0));
        assert!(plan.kernel_fails(4, 1));
        assert!(!plan.kernel_fails(4, 2));
        assert!(!plan.kernel_fails(5, 0));
    }

    #[test]
    fn corruption_fates_are_deterministic_and_track_probability() {
        let a = FaultPlan::new(13).with_message_corruption(0.2);
        let b = FaultPlan::new(13).with_message_corruption(0.2);
        for msg in 0..300u64 {
            for attempt in 0..3 {
                for copy in 0..2 {
                    assert_eq!(
                        a.corrupts_message(msg, attempt, copy),
                        b.corrupts_message(msg, attempt, copy)
                    );
                }
            }
            assert_eq!(a.corruption_bits(msg), b.corruption_bits(msg));
        }
        let hit = (0..4000u64)
            .filter(|&m| a.corrupts_message(m, 0, 0))
            .count();
        let rate = hit as f64 / 4000.0;
        assert!(
            (rate - 0.2).abs() < 0.03,
            "empirical corruption rate {rate}"
        );
    }

    #[test]
    fn corruption_streams_are_independent_of_network_fates() {
        // The same message can be dropped on one roll and corrupted on
        // another: the fates come from distinct streams of the shared
        // hash, so enabling corruption never perturbs the drop/dup/ack
        // sequence of an existing seeded plan.
        let plain = FaultPlan::new(42).with_drops(0.3);
        let with_corruption = FaultPlan::new(42)
            .with_drops(0.3)
            .with_message_corruption(0.3);
        for m in 0..500u64 {
            assert_eq!(
                plain.drops_message(m, 0),
                with_corruption.drops_message(m, 0)
            );
        }
    }

    #[test]
    fn shared_fault_unit_matches_plan_fates() {
        // The free function is the same stream the plan rolls — the
        // contract that lets the DES schedule reproduce plan fates.
        let plan = FaultPlan::new(99).with_drops(0.5);
        for m in 0..200u64 {
            assert_eq!(plan.drops_message(m, 1), fault_unit(99, 1, m, 1) < 0.5);
        }
    }

    #[test]
    fn corruption_plan_flags() {
        assert!(!FaultPlan::none().injects_corruption());
        assert!(FaultPlan::new(1)
            .with_message_corruption(0.1)
            .injects_corruption());
        let p = FaultPlan::new(1).with_store_corruption(0, 2, 1, 5.0);
        assert!(p.injects_corruption());
        assert_eq!(
            p.store_corruptions,
            vec![CorruptAt {
                rank: 0,
                i: 2,
                j: 1,
                at: 5.0
            }]
        );
    }

    #[test]
    fn integrity_error_displays() {
        let e = IntegrityError {
            rank: 3,
            data: (4, 2),
            attempts: 5,
        };
        let s = format!("{}", FtError::Integrity(e));
        assert!(
            s.contains("(4, 2)") && s.contains("rank 3") && s.contains('5'),
            "{s}"
        );
    }

    #[test]
    fn backoff_caps() {
        let ladder: Vec<f64> = (1..=6).map(timeout_for).collect();
        assert_eq!(ladder, [4.0, 8.0, 16.0, 32.0, 64.0, 64.0], "backoff must cap");
    }
}
