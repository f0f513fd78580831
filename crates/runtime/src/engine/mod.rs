//! The execution engines: one scheduling loop per engine kind, composed
//! from orthogonal capability hooks.
//!
//! As in PaRSEC, scheduling, resilience and instrumentation are
//! orthogonal *services* over one DAG engine, so every capability
//! (span capture, per-worker workspaces, communication counting, fault
//! injection, integrity checks) is an input of the one loop, never a
//! second entry point:
//!
//! * [`Engine`] — the shared-memory work-stealing engine. Exactly one
//!   scheduling loop over any [`Dataflow`](crate::graph::Dataflow) (a
//!   Cholesky run hands it the implicit task space, as it does the
//!   other engines), taking ready work lowest task id first, generic
//!   over one [`Observe`] sink and an [`Elide`] hook (which released
//!   tasks are no-ops to retire unrun). The loop reads the
//!   clock once before and once after each kernel and reports the pair
//!   to the sink and the scheduler alike; the metrics registry and the
//!   span recorder ([`ExecObs`]) are both sinks of that channel. The
//!   no-op implementations ([`NoObserve`], [`NoElide`]) are
//!   zero-sized and their inlined methods compile away.
//! * [`DistEngine`] — the distributed-memory engine (message-passing
//!   emulation), over a [`Dataflow`](crate::graph::Dataflow) as well.
//!   Exactly one deterministic virtual-time event loop; a
//!   perfect network is simply the empty plan,
//!   [`FaultPlan::none`](crate::fault::FaultPlan::none), so the fault
//!   layer is an *input* of the one loop, not a second engine.
//!   Communication volume is always counted ([`DistOutcome::comm`]) and
//!   a virtual-time [`Trace`](crate::trace::Trace) can be captured
//!   ([`DistConfig::record_trace`]) — capabilities compose freely
//!   (FT + trace + comm counting in one run).
//!
//! The zero-cost story differs by engine on purpose: the shared-memory
//! hot path is wall-clock critical, so its hooks are monomorphized
//! traits; the distributed loop runs in virtual time where a branch is
//! free, so its capabilities are plain config data.

mod dist;
mod hooks;
mod shared;

pub use dist::{DistConfig, DistEngine, DistOutcome, IntegrityHooks, RankCtx};
pub use hooks::{Elide, ExecObs, NoElide, NoObserve, Observe, TaskEvent};
pub use shared::{Engine, EngineConfig};

use crate::fault::FtError;
use crate::graph::TaskId;

/// A kernel panicked during an engine run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanic {
    /// The task whose kernel panicked (the first one, if several raced).
    pub task: TaskId,
    /// The panic payload rendered as text, when it was a string.
    pub message: String,
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task {} panicked: {}", self.task, self.message)
    }
}

impl std::error::Error for TaskPanic {}

/// Typed failure of an engine run — malformed inputs are reported, not
/// `assert!`ed.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A kernel panicked; the pool drained before reporting.
    Panic(TaskPanic),
    /// `exec_rank` does not assign exactly one rank per task.
    RankMapLength {
        /// Tasks in the graph.
        expected: usize,
        /// Entries in the rank map.
        got: usize,
    },
    /// The initial stores do not cover exactly one store per rank.
    StoreCount {
        /// `nprocs`.
        expected: usize,
        /// Stores provided.
        got: usize,
    },
    /// A task is mapped to a rank outside `0..nprocs`.
    InvalidRank {
        /// The offending task.
        task: TaskId,
        /// Its mapped rank.
        rank: usize,
        /// The rank count.
        nprocs: usize,
    },
    /// The machine has no processes, or its processes have no cores:
    /// nothing could ever run.
    EmptyMachine {
        /// Processes (ranks) of the machine.
        nprocs: usize,
        /// Cores per process (1 where the engine does not model cores).
        cores_per_proc: usize,
    },
    /// A fault plan targets (crash or store corruption) a nonexistent
    /// rank.
    InvalidCrashRank {
        /// The scheduled rank.
        rank: usize,
        /// The rank count.
        nprocs: usize,
    },
    /// The fault layer could not recover (all ranks dead, retries
    /// exhausted, or the run stalled).
    Fault(FtError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Panic(p) => write!(f, "{p}"),
            EngineError::RankMapLength { expected, got } => {
                write!(
                    f,
                    "rank map has {got} entries for {expected} tasks (one rank per task)"
                )
            }
            EngineError::StoreCount { expected, got } => {
                write!(
                    f,
                    "{got} initial stores for {expected} ranks (one store per rank)"
                )
            }
            EngineError::InvalidRank { task, rank, nprocs } => {
                write!(
                    f,
                    "task {task} mapped to invalid rank {rank} (nprocs {nprocs})"
                )
            }
            EngineError::EmptyMachine { nprocs, cores_per_proc } => {
                write!(f, "empty machine: {nprocs} processes of {cores_per_proc} cores")
            }
            EngineError::InvalidCrashRank { rank, nprocs } => {
                write!(
                    f,
                    "fault plan targets invalid rank {rank} (nprocs {nprocs})"
                )
            }
            EngineError::Fault(e) => write!(f, "unrecoverable runtime fault: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<FtError> for EngineError {
    fn from(e: FtError) -> Self {
        EngineError::Fault(e)
    }
}

impl From<TaskPanic> for EngineError {
    fn from(p: TaskPanic) -> Self {
        EngineError::Panic(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All errors render a useful message.
    #[test]
    fn engine_errors_display() {
        let cases: Vec<(EngineError, &str)> = vec![
            (
                EngineError::Panic(TaskPanic {
                    task: 3,
                    message: "boom".into(),
                }),
                "task 3 panicked: boom",
            ),
            (
                EngineError::RankMapLength {
                    expected: 4,
                    got: 2,
                },
                "one rank per task",
            ),
            (
                EngineError::StoreCount {
                    expected: 4,
                    got: 2,
                },
                "one store per rank",
            ),
            (
                EngineError::InvalidRank {
                    task: 1,
                    rank: 9,
                    nprocs: 4,
                },
                "invalid rank 9",
            ),
            (
                EngineError::InvalidCrashRank { rank: 7, nprocs: 4 },
                "invalid rank 7",
            ),
            (
                EngineError::EmptyMachine { nprocs: 0, cores_per_proc: 1 },
                "0 processes",
            ),
            (
                EngineError::Fault(FtError::AllRanksCrashed),
                "unrecoverable",
            ),
        ];
        for (e, needle) in cases {
            let msg = format!("{e}");
            assert!(msg.contains(needle), "{msg:?} should contain {needle:?}");
        }
    }
}
