#![warn(missing_docs)]
//! PaRSEC-equivalent task runtime.
//!
//! PaRSEC executes algorithms expressed as parameterized task graphs: tasks
//! are vertices, dataflow is edges, and the runtime (a) schedules ready
//! tasks onto cores, (b) ships data between address spaces implied by the
//! edges, and (c) overlaps both. This crate reproduces the three layers the
//! paper's contributions live in:
//!
//! * [`graph`] — the [`graph::Dataflow`] view through which every engine
//!   walks a task graph, task by task (the Cholesky task space is never
//!   unrolled), with dataflow annotations used for communication
//!   accounting, and the hand-built [`graph::TaskGraph`] tests give every
//!   engine. DAG trimming manifests here as *not deriving* tasks.
//! * [`engine`] — the unified execution engines: one shared-memory
//!   work-stealing [`engine::Engine`] (crossbeam deques, real numerical
//!   kernels, validates every configuration at laptop scale) and one
//!   distributed [`engine::DistEngine`] (deterministic virtual-time
//!   message-passing emulation with an optional fault layer), each
//!   driven by a config of composable capability hooks.
//! * [`des`] — a discrete-event simulator of distributed execution: `P`
//!   processes of one [`machine`] model, binomial-tree broadcasts, a latency/
//!   bandwidth link model and per-task runtime overheads. This is the
//!   substitute for the paper's Shaheen II / Fugaku runs (see DESIGN.md §2)
//!   and is driven by the same task graphs the executor runs.
//! * [`machine`] — calibrated machine models for the two supercomputers.
//! * [`critical_path`] — the longest-path "roofline" bound of §VIII-G.
//! * [`trace`] — execution traces and per-class time breakdowns (Fig. 11).
//! * [`obs`] — observability: Chrome-trace (Perfetto) export,
//!   trace-derived run metrics, structured crash/recovery events, and
//!   the sharded metrics registry. Hot-path span capture is a per-run
//!   choice ([`engine::ExecObs`]); an untraced run carries no span
//!   storage.

pub mod critical_path;
pub mod des;
pub mod engine;
mod event_queue;
pub mod fault;
pub mod graph;
pub mod machine;
pub mod obs;
pub mod trace;

pub use des::{simulate, DesReport};
pub use engine::{
    DistConfig, DistEngine, DistOutcome, Elide, Engine, EngineConfig, EngineError, ExecObs,
    IntegrityHooks, NoElide, NoObserve, Observe, RankCtx, TaskEvent, TaskPanic,
};
pub use fault::{fault_bits, fault_unit, CorruptAt, CrashAt, FaultPlan, FtError, IntegrityError};
pub use graph::{DataRef, Dataflow, GraphBuilder, TaskClass, TaskGraph, TaskId, TaskSpec};
pub use machine::MachineModel;
pub use obs::registry::{Counter, Gauge, Registry, RegistrySnapshot};
pub use obs::{chrome_trace_json, chrome_trace_json_with_events, RunEvent};
pub use trace::{ClassBreakdown, Trace};
