//! Discrete-event simulator of distributed dataflow execution.
//!
//! The simulator executes a task graph on `nprocs` processes of a
//! [`MachineModel`], one per node, each with the node's
//! `cores_per_node` cores. It reads the graph as a
//! [`Dataflow`]: a stored [`TaskGraph`](crate::graph::TaskGraph), or an
//! implicit task space that derives each task and successor list when the
//! simulator asks for it, so the graph is never built. Each task has a fixed
//! executing process (the *execution mapping* — owner-computes or the
//! paper's remapped diamond distribution) and a duration. Dataflow edges
//! crossing process boundaries cost communication time. Every task has
//! one output, its spec's tile and bytes, so a producer's remote
//! consumers form one binomial-tree broadcast to their distinct
//! processes, matching PaRSEC's collective dataflow (§VII-B discusses
//! exactly these column/row broadcasts).
//!
//! The simulation is a standard event-driven list scheduling:
//!
//! * a task becomes *ready* when all predecessors have finished **and**
//!   their data has arrived at the task's process;
//! * each process runs up to `cores_per_node` ready tasks concurrently,
//!   picking the lowest task id first (a Cholesky space numbers its
//!   tasks panel by panel, so the critical path's panel goes first);
//! * communication is fully overlapped with computation (PaRSEC has a
//!   dedicated communication thread), so transfers delay only their
//!   consumers, never the producer's core.
//!
//! A zero-byte output models *dependency activations* — the control messages
//! the runtime sends for every cross-process dependency. Untrimmed DAGs
//! are full of them (every null-tile task still activates successors),
//! which is precisely the overhead Fig. 6 shows trimming removes.
//!
//! The resource accounting is part of the loop: each retirement adds its
//! span to its process's and its class's busy seconds and moves the
//! makespan, in place ([`DesReport`]). A per-task [`Trace`] is written only
//! for a caller that passes one, to render a schedule.

use crate::engine::EngineError;
use crate::event_queue::EventQueue;
use crate::fault::{fault_unit, FaultPlan, FtError};
use crate::graph::{Dataflow, TaskClass, TaskId};
use crate::machine::MachineModel;
use crate::trace::{ClassBreakdown, TaskRecord, Trace};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Per-task simulation inputs: where it runs and for how long.
#[derive(Debug, Clone, Copy)]
pub struct DesTask {
    /// Executing process id, `< nprocs`.
    pub proc: usize,
    /// Kernel execution time in seconds. The per-task runtime overhead
    /// is not in it: the simulator charges
    /// [`MachineModel::task_overhead_s`] on the process's serial runtime
    /// thread before the task may start.
    pub duration: f64,
}

/// Communication totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CommStats {
    /// Payload bytes moved across process boundaries.
    pub bytes: u64,
    /// Cross-process messages (payload + activation).
    pub messages: u64,
}

/// Simulation outputs, accumulated in place as tasks retire. A
/// retirement's busy time is `(end − start).max(0)`, added in retirement
/// order, which is how [`Trace`] folds its records: a recorded run's
/// [`Trace::makespan`], [`Trace::busy_per_proc`] and [`Trace::breakdown`]
/// equal these fields bit for bit. A re-executed task retires, and is
/// counted, once per execution.
#[derive(Debug, Clone, Default)]
pub struct DesReport {
    /// Virtual time when the last task retires.
    pub makespan: f64,
    /// Busy seconds per process (index = process id).
    pub busy_per_proc: Vec<f64>,
    /// Busy seconds per kernel class.
    pub breakdown: ClassBreakdown,
    /// Communication totals.
    pub comm: CommStats,
    /// Fail-stop crashes that fired before the run completed.
    pub crashes: usize,
    /// Tasks whose execution moved off a dead process.
    pub migrated: usize,
    /// Completed tasks re-executed because their outputs died with a
    /// process (crash) or were damaged in its store (corruption) while a
    /// consumer still needed them.
    pub reexecuted: usize,
    /// Store-corruption strikes that fired before the run completed.
    pub corruptions: usize,
}

#[derive(Debug, Clone, Copy)]
enum Event {
    /// All inputs arrived; the task enters the process's runtime thread.
    Ready(TaskId),
    /// Task management done; the task may occupy a core.
    Managed(TaskId),
    /// Kernel execution finished. Carries the task's epoch at launch: a
    /// crash bumps the epoch of every in-flight task on the dead process,
    /// turning their pending finishes into stale no-ops.
    Finish(TaskId, u32),
    /// A process fail-stops.
    Crash(usize),
    /// A bit flips in a process's tile store; carries the index of the
    /// strike in [`FaultPlan::store_corruptions`].
    Corrupt(usize),
}

/// Run the simulation under a fault plan. `tasks[t]` gives the process
/// and duration of task `t`; each process's ready queue is ordered by
/// task id, lowest first.
///
/// The machine is `nprocs` processes of `machine`, one per node. Of the
/// model the simulator reads only what is not already in the durations:
/// `cores_per_node`, the network (`latency_s`, `bandwidth_bps`,
/// `dep_overhead_s`) and `task_overhead_s`, charged on each process's
/// serial runtime thread (0 disables that stage).
///
/// `faults` is the same [`FaultPlan`] value the functional engine
/// ([`crate::engine::DistEngine`]) injects ([`FaultPlan::none`] for a
/// fault-free run); here it is *priced* rather
/// than survived, and only what the first-order cost model can price is
/// read: the fail-stop crashes, the store corruptions and the seed (the
/// network faults are a property of a run, not of the modeled machine).
/// When a process dies, its incomplete tasks migrate round-robin to the
/// survivors, and its completed tasks whose outputs a consumer still
/// needs are re-executed there after `restart_delay_s` (the detection +
/// failover window). Dependency releases that already happened stand
/// (surviving consumers kept their received copies — the sender-retention
/// invariant), and the communication pattern stays priced on the
/// original mapping (the engine's static-locality invariant). A store
/// corruption is priced as the integrity layer's healing protocol: after
/// `restart_delay_s`, one completed task of the struck process whose
/// output a consumer still needs re-executes — the victim is drawn from
/// the plan's seeded stream, so one seed rolls the same strike in both
/// engines. A strike after completion, against a dead process, or against
/// a process holding no still-needed outputs heals for free.
///
/// `trace` is an output sink: given one, the simulator appends a
/// [`TaskRecord`] per retirement, in retirement order (a re-executed task
/// twice). Recording changes no simulated value.
///
/// # Errors
///
/// * [`EngineError::RankMapLength`] — `tasks` does not cover exactly the
///   graph's tasks.
/// * [`EngineError::EmptyMachine`] — no processes, or no cores on them.
/// * [`EngineError::InvalidRank`] — a task runs on a process `>= nprocs`.
/// * [`EngineError::InvalidCrashRank`] — the fault plan targets a
///   process `>= nprocs` (crash or corruption).
/// * [`EngineError::Fault`] with [`FtError::AllRanksCrashed`] — the plan
///   crashes every process before completion.
pub fn simulate(
    graph: &impl Dataflow,
    tasks: &[DesTask],
    machine: &MachineModel,
    nprocs: usize,
    faults: &FaultPlan,
    restart_delay_s: f64,
    trace: Option<&mut Trace>,
) -> Result<DesReport, EngineError> {
    Sim::new(graph, tasks, machine, nprocs, faults, restart_delay_s, trace)?.run()
}

/// One task's simulation state, packed into one record (24 bytes).
#[derive(Debug, Clone, Copy)]
struct TaskState {
    /// Until the task is released, the latest arrival of an input at its
    /// process; from its first launch on, when its current execution took
    /// a core. The two never overlap: no input arrives after the release.
    at: f64,
    /// Predecessors not yet finished.
    remaining: u32,
    /// Executing process: the mapping's, until a crash migrates the task.
    proc: u32,
    /// Launch epoch: a crash bumps it, turning the pending finish stale.
    epoch: u32,
    /// Retired, and its output not since lost.
    done: bool,
    /// The pending execution regenerates a lost output and sends nothing.
    reexec: bool,
    /// The task's kernel class, read from the graph once.
    class: TaskClass,
}

/// A caller's trace and the time each task last entered its ready queue,
/// which only a [`TaskRecord`] reads.
struct Recorder<'a> {
    trace: &'a mut Trace,
    queued: Vec<f64>,
}

/// The state of one simulation: one method per [`Event`] variant, fields
/// grouped by the part of the model they belong to. The graph, the
/// mapping and the machine are read where they are needed, never copied;
/// the per-task state is sized once, to the task count.
struct Sim<'a, G: Dataflow> {
    graph: &'a G,
    tasks: &'a [DesTask],
    machine: &'a MachineModel,
    nprocs: usize,
    faults: &'a FaultPlan,
    restart_delay_s: f64,
    now: f64,
    /// Finishes, remote arrivals, strikes and recovery re-runs on the
    /// heap; stream `p < nprocs` carries process `p`'s runtime thread
    /// (its `Managed` times only move forward) and stream `nprocs` the
    /// events of the current instant (see [`Sim::schedule`]).
    events: EventQueue<Event>,

    // Every task's progress, class, mapping and fault state (see
    // `TaskState`), and how many tasks are done.
    state: Vec<TaskState>,
    completed: usize,

    // Processors: free cores, the ready queue ordered by id, when the
    // serial runtime thread is next free, the tasks occupying cores.
    idle: Vec<usize>,
    queues: Vec<BinaryHeap<Reverse<TaskId>>>,
    mgmt_free: Vec<f64>,
    running: Vec<Vec<TaskId>>,

    // Network: when each process's communication engine (NIC / comm
    // thread) is next free, and `send`'s scratch — the producer's
    // consumers (also `output_needed`'s) and its broadcast's distinct
    // remote recipient processes.
    nic_free: Vec<f64>,
    consumers: Vec<TaskId>,
    recipients: Vec<usize>,

    // Fault bookkeeping: liveness and the round-robin cursor over
    // survivors.
    dead: Vec<bool>,
    rr: usize,

    // What the run reports — the busy ledger, the makespan, the
    // `CommStats` totals and the four fault counters accumulate in place —
    // and the caller's trace, when there is one.
    report: DesReport,
    recorder: Option<Recorder<'a>>,
}

impl<'a, G: Dataflow> Sim<'a, G> {
    /// Validate the inputs; queue the sources and the plan's strikes.
    fn new(
        graph: &'a G,
        tasks: &'a [DesTask],
        machine: &'a MachineModel,
        nprocs: usize,
        faults: &'a FaultPlan,
        restart_delay_s: f64,
        trace: Option<&'a mut Trace>,
    ) -> Result<Self, EngineError> {
        let (n, cores_per_proc) = (graph.len(), machine.cores_per_node);
        if tasks.len() != n {
            return Err(EngineError::RankMapLength { expected: n, got: tasks.len() });
        }
        if n > 0 && (nprocs == 0 || cores_per_proc == 0) {
            return Err(EngineError::EmptyMachine { nprocs, cores_per_proc });
        }
        if let Some((task, t)) = tasks.iter().enumerate().find(|(_, t)| t.proc >= nprocs) {
            return Err(EngineError::InvalidRank { task, rank: t.proc, nprocs });
        }
        faults.validate(nprocs)?;

        let mut events = EventQueue::with_streams(nprocs + 1);
        let mut state = Vec::with_capacity(n);
        let inputs = graph.indegrees().zip(tasks).zip(graph.specs());
        state.extend(inputs.map(|((remaining, task), spec)| TaskState {
            at: 0.0,
            remaining: u32_of(remaining),
            proc: u32_of(task.proc),
            epoch: 0,
            done: false,
            reexec: false,
            class: spec.class,
        }));
        for t in (0..n).filter(|&t| state[t].remaining == 0) {
            events.push_to(nprocs, 0.0, Event::Ready(t));
        }
        for c in &faults.crashes {
            events.push(c.at, Event::Crash(c.rank));
        }
        for (idx, c) in faults.store_corruptions.iter().enumerate() {
            events.push(c.at, Event::Corrupt(idx));
        }
        let recorder = trace.map(|trace| {
            trace.records.reserve(n);
            Recorder { trace, queued: vec![0.0; n] }
        });
        Ok(Sim {
            graph,
            tasks,
            machine,
            nprocs,
            faults,
            restart_delay_s,
            now: 0.0,
            events,
            state,
            completed: 0,
            idle: vec![cores_per_proc; nprocs],
            queues: (0..nprocs).map(|_| BinaryHeap::new()).collect(),
            mgmt_free: vec![0.0; nprocs],
            running: vec![Vec::new(); nprocs],
            nic_free: vec![0.0; nprocs],
            consumers: Vec::new(),
            recipients: Vec::new(),
            dead: vec![false; nprocs],
            rr: 0,
            report: DesReport { busy_per_proc: vec![0.0; nprocs], ..DesReport::default() },
            recorder,
        })
    }

    fn run(mut self) -> Result<DesReport, EngineError> {
        while let Some((now, event)) = self.events.pop() {
            self.now = now;
            match event {
                Event::Ready(t) => self.ready(t),
                Event::Managed(t) => self.managed(t),
                Event::Finish(t, launch_epoch) => self.finish(t, launch_epoch),
                Event::Crash(p) => self.crash(p)?,
                Event::Corrupt(idx) => self.corrupt(idx),
            }
        }
        // The entry checks rule this out; a loop defect must not pass for
        // a short report.
        let n = self.graph.len();
        if self.completed < n {
            return Err(EngineError::Fault(FtError::Stalled { pending: n - self.completed }));
        }
        Ok(self.report)
    }

    /// Queue `event` at `at`: on the current-instant stream when `at` is
    /// now — an event of this instant is never earlier than one queued
    /// before it — and on the heap otherwise. Either lane pops in the
    /// same order ([`EventQueue`]).
    fn schedule(&mut self, at: f64, event: Event) {
        if at == self.now {
            self.events.push_to(self.nprocs, at, event);
        } else {
            self.events.push(at, event);
        }
    }

    /// Serialize the task through its process's runtime thread, whose
    /// stream receives its completions in time order.
    fn ready(&mut self, t: TaskId) {
        if self.machine.task_overhead_s > 0.0 {
            let p = self.state[t].proc as usize;
            let end = self.mgmt_free[p].max(self.now) + self.machine.task_overhead_s;
            self.mgmt_free[p] = end;
            self.events.push_to(p, end, Event::Managed(t));
        } else {
            self.schedule(self.now, Event::Managed(t));
        }
    }

    /// Queue the task on its process by id.
    fn managed(&mut self, t: TaskId) {
        let p = self.state[t].proc as usize;
        if let Some(rec) = &mut self.recorder {
            rec.queued[t] = self.now;
        }
        self.queues[p].push(Reverse(t));
        self.dispatch(p);
    }

    /// Start as many queued tasks as process `p` has idle cores. A
    /// zero-duration task (a no-op on null tiles) finishes in this instant,
    /// off the heap.
    fn dispatch(&mut self, p: usize) {
        while self.idle[p] > 0 {
            let Some(Reverse(t)) = self.queues[p].pop() else {
                break;
            };
            self.idle[p] -= 1;
            self.running[p].push(t);
            let task = &mut self.state[t];
            task.at = self.now;
            let finish = Event::Finish(t, task.epoch);
            self.schedule(self.now + self.tasks[t].duration, finish);
        }
    }

    /// Retire `t`: book its span to the ledger (and the trace), release or
    /// regenerate its output, and free its core.
    fn finish(&mut self, t: TaskId, launch_epoch: u32) {
        let task = self.state[t];
        if launch_epoch != task.epoch {
            return; // the executing process died mid-kernel
        }
        let p = task.proc as usize;
        // From the back: a no-op retires right after it started, behind the
        // kernels still running.
        if let Some(pos) = self.running[p].iter().rposition(|&x| x == t) {
            self.running[p].swap_remove(pos);
        }
        // `TaskRecord::duration`'s clamp, so the trace folds the same bits.
        let busy = (self.now - task.at).max(0.0);
        self.report.busy_per_proc[p] += busy;
        self.report.breakdown.add(task.class, busy);
        self.report.makespan = self.report.makespan.max(self.now);
        if let Some(rec) = &mut self.recorder {
            rec.trace.push_record(TaskRecord {
                task: t,
                class: task.class,
                proc: p,
                data: self.graph.spec(t).writes,
                queued: rec.queued[t].min(task.at),
                start: task.at,
                end: self.now,
            });
        }
        self.completed += 1;
        self.state[t].done = true;
        if task.reexec {
            // Recovery re-run: successors were already released by the
            // first execution (surviving consumers kept their copies);
            // only the lost output is regenerated, nothing is sent.
            self.state[t].reexec = false;
        } else {
            self.send(t, p);
        }
        self.idle[p] += 1; // a core just freed
        self.dispatch(p);
    }

    /// The network model: price `t`'s output leaving process `p`, then
    /// release its successors. Local consumers have it at once; its
    /// distinct remote processes get it by one binomial-tree broadcast,
    /// whose injections the producer's communication engine (one comm
    /// thread / finite NIC bandwidth, as in PaRSEC) serializes.
    /// Destinations are the *original* mapping also after a crash (the
    /// engine's static-locality invariant).
    fn send(&mut self, t: TaskId, p: usize) {
        let (graph, tasks, machine) = (self.graph, self.tasks, self.machine);
        let mut consumers = std::mem::take(&mut self.consumers);
        let bytes = graph.successors_into(t, &mut consumers).bytes;
        let src_proc = tasks[t].proc;
        // The distinct remote processes, by process id; they are
        // distinct, so an unstable sort is exact.
        self.recipients.clear();
        for &dst in &consumers {
            let q = tasks[dst].proc;
            if q != src_proc && !self.recipients.contains(&q) {
                self.recipients.push(q);
            }
        }
        self.recipients.sort_unstable();
        let nremote = self.recipients.len();
        let (nic_start, per_hop) = if nremote == 0 {
            (self.now, 0.0) // purely local: no communication
        } else {
            self.report.comm.messages += nremote as u64;
            self.report.comm.bytes += bytes * nremote as u64;
            // Payload broadcasts pipeline (chain bcast / DMA): the root
            // injects ~one copy and intermediates forward. Zero-byte
            // dependency activations are individual control messages the
            // communication thread processes one by one — the per-edge
            // overhead DAG trimming removes (§VI).
            let (hop, xfer, nsends) = if bytes > 0 {
                let xfer = bytes as f64 / machine.bandwidth_bps;
                (machine.latency_s + xfer, xfer, 1.0)
            } else {
                let dep = machine.dep_overhead_s;
                (dep, dep, nremote as f64)
            };
            let start = self.nic_free[p].max(self.now);
            self.nic_free[p] = start + nsends * xfer;
            (start, hop)
        };
        for &dst in &consumers {
            debug_assert!(dst > t, "edge {t} → {dst} runs backwards");
            let q = tasks[dst].proc;
            let arrival = if q == src_proc {
                self.now
            } else {
                // The i-th recipient (1-based) is `floor(log2 i) + 1` hops deep.
                let i = self.recipients.partition_point(|&rq| rq < q);
                nic_start + f64::from((i + 1).ilog2() + 1) * per_hop
            };
            let consumer = &mut self.state[dst];
            if arrival > consumer.at {
                consumer.at = arrival;
            }
            consumer.remaining -= 1;
            if consumer.remaining == 0 {
                let at = consumer.at;
                self.schedule(at, Event::Ready(dst));
            }
        }
        self.consumers = consumers;
    }

    /// Does a not-yet-finished consumer still need `t`'s output?
    fn output_needed(&mut self, t: TaskId) -> bool {
        self.graph.successors_into(t, &mut self.consumers);
        self.consumers.iter().any(|&dst| !self.state[dst].done)
    }

    /// Schedule completed task `t` to run again after the detection
    /// window: its output died with a process or was damaged in a store.
    fn reexecute(&mut self, t: TaskId) {
        let task = &mut self.state[t];
        task.done = false;
        task.reexec = true;
        self.completed -= 1;
        self.report.reexecuted += 1;
        self.events.push(self.now + self.restart_delay_s, Event::Ready(t));
    }

    fn crash(&mut self, p: usize) -> Result<(), EngineError> {
        let n = self.graph.len();
        if self.dead[p] || self.completed == n {
            return Ok(()); // double-crash of a dead proc, or after the run
        }
        self.dead[p] = true;
        self.report.crashes += 1;
        let alive: Vec<usize> = (0..self.nprocs).filter(|&q| !self.dead[q]).collect();
        if alive.is_empty() {
            return Err(EngineError::Fault(FtError::AllRanksCrashed));
        }

        // Abort in-flight kernels (their Finish events go stale) and
        // flush the dead process's ready queue.
        let restart = self.now + self.restart_delay_s;
        for t in std::mem::take(&mut self.running[p]) {
            self.state[t].epoch += 1;
            self.events.push(restart, Event::Ready(t));
        }
        while let Some(Reverse(t)) = self.queues[p].pop() {
            self.events.push(restart, Event::Ready(t));
        }
        self.idle[p] = 0;

        // Lost outputs: completed tasks of this process whose data a
        // not-yet-finished consumer still needs must run again (their
        // inputs survive — initial tiles are checkpointed, remote inputs
        // replay from sender logs).
        for t in 0..n {
            if self.state[t].proc as usize != p {
                continue;
            }
            if self.state[t].done {
                if !self.output_needed(t) {
                    continue; // output no longer consumed: let it go
                }
                self.reexecute(t);
            }
            self.state[t].proc = u32_of(alive[self.rr % alive.len()]);
            self.rr += 1;
            self.report.migrated += 1;
        }
        Ok(())
    }

    fn corrupt(&mut self, idx: usize) {
        let p = self.faults.store_corruptions[idx].rank;
        if self.dead[p] || self.completed == self.graph.len() {
            return; // a dead store has no reads; post-run strikes are free
        }
        self.report.corruptions += 1;
        // The integrity layer detects the flip at the victim tile's next
        // read boundary and recomputes it from lineage. First-order
        // pricing: one completed task of this process whose output a
        // consumer still needs re-executes after the detection window.
        // The victim is drawn from the seeded stream shared with the
        // functional plan (stream 8, keyed by strike index).
        let mut candidates: Vec<TaskId> = Vec::new();
        for t in 0..self.graph.len() {
            let task = self.state[t];
            if task.proc as usize == p && task.done && self.output_needed(t) {
                candidates.push(t);
            }
        }
        if candidates.is_empty() {
            return; // nothing still-needed was hit: heals off the critical path
        }
        let pick =
            (fault_unit(self.faults.seed, 8, idx as u64, 0) * candidates.len() as f64) as usize;
        self.reexecute(candidates[pick.min(candidates.len() - 1)]);
    }
}

/// A process id or an in-degree as a [`TaskState`] field. Either is
/// bounded by a table the simulator already holds (one entry per process,
/// one edge per predecessor), so one past `u32::MAX` cannot fit in memory.
fn u32_of(x: usize) -> u32 {
    u32::try_from(x).expect("process ids and in-degrees fit in u32")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{DataRef, GraphBuilder, TaskClass, TaskGraph, TaskSpec};

    const TASK: TaskSpec = TaskSpec { class: TaskClass::Other, writes: None, bytes: 0 };

    /// A task on process `proc`, running `duration` seconds.
    fn on(proc: usize, duration: f64) -> DesTask {
        DesTask { proc, duration }
    }

    /// A task whose output is tile `(i, j)`, `bytes` long.
    fn writes(i: usize, j: usize, bytes: u64) -> TaskSpec {
        TaskSpec { class: TaskClass::Other, writes: Some(DataRef { i, j }), bytes }
    }

    fn chain(n: usize) -> TaskGraph {
        let mut g = GraphBuilder::new();
        for i in 0..n {
            g.add_task(writes(0, i, 100));
        }
        for i in 0..n - 1 {
            g.add_edge(i, i + 1);
        }
        g.finish()
    }

    /// A fault-free run on `nprocs` processes of `machine`.
    fn run(
        g: &TaskGraph,
        tasks: &[DesTask],
        machine: &MachineModel,
        nprocs: usize,
    ) -> Result<DesReport, EngineError> {
        simulate(g, tasks, machine, nprocs, &FaultPlan::none(), 0.0, None)
    }

    /// `cores` cores per process, a free network and no runtime
    /// overhead: the serial/SMP sanity baseline.
    fn ideal(cores: usize) -> MachineModel {
        MachineModel {
            cores_per_node: cores,
            latency_s: 0.0,
            bandwidth_bps: f64::INFINITY,
            dep_overhead_s: 0.0,
            task_overhead_s: 0.0,
            ..MachineModel::shaheen_ii()
        }
    }

    #[test]
    fn serial_chain_time_is_sum() {
        let g = chain(10);
        let tasks = vec![on(0, 2.0); 10];
        let r = run(&g, &tasks, &ideal(4), 1).unwrap();
        assert!((r.makespan - 20.0).abs() < 1e-12);
        assert_eq!(r.comm, CommStats::default());
    }

    #[test]
    fn independent_tasks_run_in_parallel() {
        let mut g = GraphBuilder::new();
        for _ in 0..8 {
            g.add_task(TASK);
        }
        let g = g.finish();
        let tasks = vec![on(0, 1.0); 8];
        // 4 cores → 8 unit tasks take 2 seconds
        let r = run(&g, &tasks, &ideal(4), 1).unwrap();
        assert!((r.makespan - 2.0).abs() < 1e-12);
        // 8 cores → 1 second
        let r8 = run(&g, &tasks, &ideal(8), 1).unwrap();
        assert!((r8.makespan - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cross_proc_edge_pays_latency_and_bandwidth() {
        let mut g = GraphBuilder::new();
        g.add_task(writes(0, 0, 1_000_000));
        g.add_task(TASK);
        g.add_edge(0, 1);
        let g = g.finish();
        let tasks = vec![on(0, 1.0), on(1, 1.0)];
        let machine = MachineModel {
            latency_s: 0.5,
            bandwidth_bps: 1e6, // 1 MB/s → 1 s for the payload
            dep_overhead_s: 0.1,
            ..ideal(1)
        };
        let r = run(&g, &tasks, &machine, 2).unwrap();
        // 1 (task0) + 0.5 (lat) + 1.0 (xfer) + 1 (task1) = 3.5
        assert!((r.makespan - 3.5).abs() < 1e-12, "makespan {}", r.makespan);
        assert_eq!(r.comm.bytes, 1_000_000);
        assert_eq!(r.comm.messages, 1);
    }

    #[test]
    fn same_proc_edge_is_free() {
        let mut g = GraphBuilder::new();
        g.add_task(writes(0, 0, 1 << 30));
        g.add_task(TASK);
        g.add_edge(0, 1);
        let g = g.finish();
        let tasks = vec![on(0, 1.0), on(0, 1.0)];
        let machine = MachineModel {
            latency_s: 10.0,
            bandwidth_bps: 1.0,
            dep_overhead_s: 10.0,
            ..ideal(1)
        };
        let r = run(&g, &tasks, &machine, 2).unwrap();
        assert!((r.makespan - 2.0).abs() < 1e-12);
        assert_eq!(r.comm.messages, 0);
    }

    #[test]
    fn broadcast_uses_binomial_tree() {
        // One producer on proc 0, consumers of its output on procs 1..=4.
        // Tree depths: 1, 2, 2, 3 hops.
        let mut g = GraphBuilder::new();
        let src = g.add_task(writes(3, 1, 0));
        for _ in 0..4 {
            let c = g.add_task(TASK);
            g.add_edge(src, c);
        }
        let g = g.finish();
        let mut tasks = vec![on(0, 1.0)];
        for p in 1..=4 {
            tasks.push(on(p, 0.0));
        }
        let machine = MachineModel {
            bandwidth_bps: 1e9,
            dep_overhead_s: 1.0, // zero-byte edges cost 1 s/hop
            ..ideal(1)
        };
        let r = run(&g, &tasks, &machine, 5).unwrap();
        // Last receiver is 3 hops deep: 1 (task) + 3 = 4.
        assert!((r.makespan - 4.0).abs() < 1e-12, "makespan {}", r.makespan);
        assert_eq!(r.comm.messages, 4);
        assert_eq!(r.comm.bytes, 0);
    }

    #[test]
    fn activation_storm_serializes_on_comm_thread() {
        // Producers on process 0, finishing together, fire zero-byte
        // activations at consumers on many distinct procs: the sender's
        // comm thread handles each control message one by one, so the
        // LAST consumer waits ~n·dep_overhead (this is the per-dependency
        // overhead DAG trimming removes).
        let nremote = 16usize;
        let mut g = GraphBuilder::new();
        let srcs: Vec<TaskId> = (0..nremote).map(|i| g.add_task(writes(i, 0, 0))).collect();
        for &src in &srcs {
            let t = g.add_task(TASK);
            g.add_edge(src, t);
        }
        let g = g.finish();
        let mut tasks = vec![on(0, 1.0); nremote];
        for i in 0..nremote {
            tasks.push(on(1 + i, 0.0));
        }
        let machine = MachineModel {
            bandwidth_bps: 1e12,
            dep_overhead_s: 0.5,
            ..ideal(nremote) // every producer runs at once
        };
        let r = run(&g, &tasks, &machine, 1 + nremote).unwrap();
        // n activations of 0.5 s serialize on proc 0's comm engine,
        // plus the per-hop delivery of the last one.
        assert!(
            r.makespan >= 1.0 + 0.5 * nremote as f64,
            "activations must serialize: makespan {}",
            r.makespan
        );
    }

    #[test]
    fn payload_broadcast_pipelines_on_sender() {
        // A payload broadcast injects ~one copy at the root (chain/DMA);
        // the sender's NIC does not serialize per receiver.
        let nremote = 8usize;
        let bytes = 1_000_000u64; // 1 s at 1 MB/s
        let mut g = GraphBuilder::new();
        let src = g.add_task(writes(0, 0, bytes));
        for _ in 0..nremote {
            let t = g.add_task(TASK);
            g.add_edge(src, t);
        }
        let g = g.finish();
        let mut tasks = vec![on(0, 1.0)];
        for i in 0..nremote {
            tasks.push(on(1 + i, 0.0));
        }
        let machine = MachineModel {
            bandwidth_bps: 1e6,
            ..ideal(1)
        };
        let r = run(&g, &tasks, &machine, 1 + nremote).unwrap();
        // tree depth for the 8th receiver is 4 hops: 1 (task) + 4·1 s,
        // NOT 1 + 8·1 s (which per-receiver serialization would give).
        assert!(r.makespan <= 1.0 + 4.0 + 1e-9, "makespan {}", r.makespan);
        assert!(
            r.makespan >= 1.0 + 1.0,
            "at least one transfer: {}",
            r.makespan
        );
    }

    #[test]
    fn back_to_back_broadcasts_share_the_nic() {
        // Two payload broadcasts from the same proc: the second's
        // injection waits for the first (finite injection bandwidth).
        let mut g = GraphBuilder::new();
        let a = g.add_task(writes(0, 0, 1_000_000));
        let b = g.add_task(writes(1, 0, 1_000_000));
        let ca = g.add_task(TASK);
        let cb = g.add_task(TASK);
        g.add_edge(a, ca);
        g.add_edge(b, cb);
        let g = g.finish();
        let tasks = vec![on(0, 1.0), on(0, 1.0), on(1, 0.0), on(2, 0.0)];
        let machine = MachineModel {
            bandwidth_bps: 1e6, // 1 s per copy
            ..ideal(2)          // both producers run concurrently
        };
        let r = run(&g, &tasks, &machine, 3).unwrap();
        // both finish at t=1; injections serialize: second arrives >= 3.
        assert!(
            r.makespan >= 3.0 - 1e-9,
            "NIC must serialize: {}",
            r.makespan
        );
    }

    #[test]
    fn lower_id_takes_the_freed_core() {
        // One core on process 0, held for 5 s by a blocker. Two more tasks
        // queue behind it: the higher id at once, the lower one at 1 s,
        // when its feeder on process 1 finishes. When the core frees, the
        // lower id must take it, although it arrived last.
        let mut g = GraphBuilder::new();
        let [blocker, feeder, low, high] = [(); 4].map(|()| g.add_task(TASK));
        g.add_edge(feeder, low);
        let g = g.finish();
        let tasks = [on(0, 5.0), on(1, 1.0), on(0, 1.0), on(0, 1.0)];
        let mut trace = Trace::default();
        let r = simulate(&g, &tasks, &ideal(1), 2, &FaultPlan::none(), 0.0, Some(&mut trace))
            .unwrap();
        let rec = |t: TaskId| trace.records.iter().find(|rec| rec.task == t).unwrap();
        assert_eq!(rec(blocker).start, 0.0);
        assert_eq!((rec(high).queued, rec(low).queued), (0.0, 1.0));
        assert_eq!(rec(low).start, 5.0, "the lower id takes the freed core");
        assert_eq!(rec(high).start, 6.0, "the higher id waits for it");
        assert_eq!(r.makespan, 7.0);
    }

    /// The per-task state is 24 bytes: the simulator's memory is this
    /// record times the task count, plus the graph's own.
    #[test]
    fn task_state_is_24_bytes() {
        assert_eq!(std::mem::size_of::<TaskState>(), 24);
    }

    #[test]
    fn makespan_never_below_critical_path() {
        use crate::critical_path::critical_path;
        // Random-ish layered DAG over 3 procs.
        let mut g = GraphBuilder::new();
        let l0: Vec<_> = (0..6).map(|a| g.add_task(writes(a, 0, 1000))).collect();
        let l1: Vec<_> = (0..6).map(|_| g.add_task(TASK)).collect();
        for (a, &t0) in l0.iter().enumerate() {
            for (b, &t1) in l1.iter().enumerate() {
                if (a + b) % 2 == 0 {
                    g.add_edge(t0, t1);
                }
            }
        }
        let g = g.finish();
        let tasks: Vec<DesTask> = (0..g.len()).map(|t| on(t % 3, 1.0 + (t % 4) as f64)).collect();
        let machine = MachineModel {
            latency_s: 1e-3,
            bandwidth_bps: 1e9,
            dep_overhead_s: 1e-4,
            ..ideal(2)
        };
        let r = run(&g, &tasks, &machine, 3).unwrap();
        let cp = critical_path(&g, |t| tasks[t].duration);
        assert!(
            r.makespan >= cp.length - 1e-12,
            "{} < {}",
            r.makespan,
            cp.length
        );
    }

    // ---------------- fault schedule ----------------

    /// Wide two-layer DAG spread over `nprocs`, unit durations: the root
    /// broadcasts its tile to every mid task, each mid task sends its own
    /// to the sink.
    fn wide_graph(width: usize) -> (TaskGraph, Vec<DesTask>) {
        let mut g = GraphBuilder::new();
        let root = g.add_task(writes(0, 0, 1000));
        let mut mids = Vec::new();
        for i in 0..width {
            let m = g.add_task(writes(i, 1, 1000));
            g.add_edge(root, m);
            mids.push(m);
        }
        let sink = g.add_task(TASK);
        for &m in &mids {
            g.add_edge(m, sink);
        }
        let g = g.finish();
        let tasks: Vec<DesTask> = (0..g.len()).map(|t| on(t % 3, 1.0)).collect();
        (g, tasks)
    }

    /// The fault tests' machine: 2 cores per process, a real network,
    /// run on [`FAULTY_NPROCS`] processes.
    fn faulty_machine() -> MachineModel {
        MachineModel {
            latency_s: 1e-3,
            bandwidth_bps: 1e9,
            dep_overhead_s: 1e-4,
            ..ideal(2)
        }
    }

    const FAULTY_NPROCS: usize = 3;

    #[test]
    fn empty_fault_plan_matches_plain_simulation() {
        let (g, tasks) = wide_graph(12);
        let cfg = faulty_machine();
        let plain = run(&g, &tasks, &cfg, FAULTY_NPROCS).unwrap();
        let faulty =
            simulate(&g, &tasks, &cfg, FAULTY_NPROCS, &FaultPlan::none(), 0.5, None).unwrap();
        assert_eq!(faulty.makespan, plain.makespan);
        assert_eq!(faulty.crashes, 0);
        assert_eq!(faulty.migrated, 0);
        assert_eq!(faulty.reexecuted, 0);
        assert_eq!(faulty.corruptions, 0);
    }

    #[test]
    fn crash_migrates_reexecutes_and_costs_time() {
        let (g, tasks) = wide_graph(12);
        let cfg = faulty_machine();
        let baseline = run(&g, &tasks, &cfg, FAULTY_NPROCS).unwrap();
        let faults = FaultPlan::new(0).with_crash(1, baseline.makespan * 0.5);
        let r = simulate(&g, &tasks, &cfg, FAULTY_NPROCS, &faults, 0.5, None).unwrap();
        assert_eq!(r.crashes, 1);
        assert!(r.migrated > 0, "dead proc's tasks must move");
        assert!(
            r.makespan > baseline.makespan,
            "losing a third of the machine mid-run must cost time: {} vs {}",
            r.makespan,
            baseline.makespan
        );
    }

    #[test]
    fn crash_after_completion_is_free() {
        let (g, tasks) = wide_graph(12);
        let cfg = faulty_machine();
        let baseline = run(&g, &tasks, &cfg, FAULTY_NPROCS).unwrap();
        let faults = FaultPlan::new(0).with_crash(1, baseline.makespan + 100.0);
        let r = simulate(&g, &tasks, &cfg, FAULTY_NPROCS, &faults, 0.5, None).unwrap();
        assert_eq!(r.crashes, 0);
        assert_eq!(r.makespan, baseline.makespan);
    }

    #[test]
    fn longer_restart_delay_costs_at_least_as_much() {
        let (g, tasks) = wide_graph(16);
        let cfg = faulty_machine();
        let base = run(&g, &tasks, &cfg, FAULTY_NPROCS).unwrap();
        let faults = FaultPlan::new(0).with_crash(2, base.makespan * 0.4);
        let quick = simulate(&g, &tasks, &cfg, FAULTY_NPROCS, &faults, 0.1, None).unwrap();
        let slow = simulate(&g, &tasks, &cfg, FAULTY_NPROCS, &faults, 5.0, None).unwrap();
        assert!(
            slow.makespan >= quick.makespan,
            "{} < {}",
            slow.makespan,
            quick.makespan
        );
    }

    #[test]
    fn lost_needed_outputs_are_reexecuted() {
        // Chain on a single remote proc with the sink elsewhere: crashing
        // the chain's proc after it finished some tasks but before the
        // sink consumed them forces re-execution.
        let mut g = GraphBuilder::new();
        let a = g.add_task(writes(0, 0, 1000));
        let b = g.add_task(writes(1, 0, 1000));
        let c = g.add_task(TASK);
        g.add_edge(a, b);
        g.add_edge(b, c);
        let g = g.finish();
        let tasks = vec![on(0, 1.0), on(0, 1.0), on(1, 10.0)];
        let cfg = faulty_machine();
        // Crash proc 0 while the sink is still running: b's output is no
        // longer needed (c already has it) but the model re-runs tasks
        // with unfinished consumers — c is unfinished, so b re-executes.
        let faults = FaultPlan::new(0).with_crash(0, 2.5);
        let r = simulate(&g, &tasks, &cfg, FAULTY_NPROCS, &faults, 0.0, None).unwrap();
        assert_eq!(r.crashes, 1);
        assert!(r.reexecuted >= 1, "b must re-execute, got {}", r.reexecuted);
    }

    #[test]
    fn crashing_all_processes_is_a_typed_error() {
        let (g, tasks) = wide_graph(8);
        let cfg = faulty_machine();
        let faults = FaultPlan::new(0).with_crash(0, 0.1).with_crash(1, 0.2).with_crash(2, 0.3);
        let err = simulate(&g, &tasks, &cfg, FAULTY_NPROCS, &faults, 0.0, None).unwrap_err();
        assert_eq!(err, EngineError::Fault(FtError::AllRanksCrashed));
    }

    #[test]
    fn out_of_range_fault_target_is_a_typed_error() {
        let (g, tasks) = wide_graph(8);
        let cfg = faulty_machine();
        let crash = FaultPlan::new(0).with_crash(7, 1.0);
        assert_eq!(
            simulate(&g, &tasks, &cfg, FAULTY_NPROCS, &crash, 0.0, None).unwrap_err(),
            EngineError::InvalidCrashRank { rank: 7, nprocs: 3 }
        );
        let corrupt = FaultPlan::new(0).with_store_corruption(9, 0, 0, 1.0);
        assert_eq!(
            simulate(&g, &tasks, &cfg, FAULTY_NPROCS, &corrupt, 0.0, None).unwrap_err(),
            EngineError::InvalidCrashRank { rank: 9, nprocs: 3 }
        );
    }

    #[test]
    fn corruption_heals_by_reexecution_and_costs_time() {
        let (g, tasks) = wide_graph(12);
        let cfg = faulty_machine();
        let base = run(&g, &tasks, &cfg, FAULTY_NPROCS).unwrap();
        // Strike proc 0 mid-run with a long detection window: the root's
        // output (consumed by every mid task) is still needed, so one
        // completed task must re-execute and the makespan must grow.
        let faults = FaultPlan::new(7).with_store_corruption(0, 0, 0, base.makespan * 0.3);
        let delay = base.makespan * 2.0;
        let r = simulate(&g, &tasks, &cfg, FAULTY_NPROCS, &faults, delay, None).unwrap();
        assert_eq!(r.corruptions, 1);
        assert_eq!(r.crashes, 0);
        assert!(
            r.reexecuted >= 1,
            "a still-needed tile was hit: {}",
            r.reexecuted
        );
        assert!(
            r.makespan > base.makespan,
            "healing a needed tile cannot be free: {} vs {}",
            r.makespan,
            base.makespan
        );
        // Determinism: the same seeded plan reproduces the run.
        let again = simulate(&g, &tasks, &cfg, FAULTY_NPROCS, &faults, delay, None).unwrap();
        assert_eq!(again.makespan, r.makespan);
        assert_eq!(again.reexecuted, r.reexecuted);
    }

    #[test]
    fn corruption_after_completion_is_free() {
        let (g, tasks) = wide_graph(12);
        let cfg = faulty_machine();
        let base = run(&g, &tasks, &cfg, FAULTY_NPROCS).unwrap();
        let faults = FaultPlan::new(3).with_store_corruption(1, 0, 0, base.makespan + 50.0);
        let r = simulate(&g, &tasks, &cfg, FAULTY_NPROCS, &faults, 1.0, None).unwrap();
        assert_eq!(r.corruptions, 0);
        assert_eq!(r.reexecuted, 0);
        assert_eq!(r.makespan, base.makespan);
    }

    /// Every misconfiguration is a typed error at the entry point, where
    /// each used to be a panic (an `assert!`, an index out of bounds, or
    /// the "simulation deadlocked" assertion).
    #[test]
    fn misconfiguration_is_a_typed_error() {
        let g = chain(2);
        let cfg = ideal(1);
        // fewer DesTasks than graph tasks
        assert_eq!(
            run(&g, &[on(0, 1.0)], &cfg, 1).unwrap_err(),
            EngineError::RankMapLength { expected: 2, got: 1 }
        );
        // a process id out of range
        assert_eq!(
            run(&g, &[on(0, 1.0), on(3, 1.0)], &cfg, 1).unwrap_err(),
            EngineError::InvalidRank { task: 1, rank: 3, nprocs: 1 }
        );
        // a machine with no cores
        assert_eq!(
            run(&g, &[on(0, 1.0), on(0, 1.0)], &ideal(0), 1).unwrap_err(),
            EngineError::EmptyMachine { nprocs: 1, cores_per_proc: 0 }
        );
    }

    #[test]
    fn report_metrics() {
        let g = chain(4);
        let tasks: Vec<DesTask> = (0..4).map(|p| on(p % 2, 1.0)).collect();
        let r = run(&g, &tasks, &ideal(1), 2).unwrap();
        assert_eq!(r.busy_per_proc, [2.0, 2.0]);
        assert_eq!(r.breakdown.other, 4.0);
        assert_eq!(crate::trace::load_imbalance(&r.busy_per_proc), 1.0);
    }
}
