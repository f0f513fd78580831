//! The distributed-memory [`DistEngine`]: one deterministic
//! virtual-time event loop over emulated ranks.
//!
//! The engine reads its graph through [`Dataflow`], as the
//! discrete-event simulator does, so a Cholesky run hands it the implicit
//! task space and no graph is laid out. Every rank runs its tasks in id
//! order, which is topological because every edge runs to a higher id;
//! the only plan it takes beside the graph is the task → rank map. Every
//! task has one output, so a message is one producer's output to one
//! consumer on another rank, and every table of the run is keyed by task
//! ids.
//!
//! A run reports each fact once: the traffic it put on the wire,
//! retransmissions included, is [`DistOutcome::comm`]; every fault
//! event (drop, duplicate, crash, heal, …) is counted into shard 0 of
//! the caller's [`Registry`] as it happens, under the counters of
//! [`Counter::FAULTS`]; task counts and virtual per-class durations land
//! in the executing rank's shard.

use super::EngineError;
use crate::des::CommStats;
use crate::event_queue::EventQueue;
use crate::fault::{
    timeout_for, FaultPlan, FtError, IntegrityError, MAX_HEAL_RETRIES, MAX_KERNEL_RETRIES,
    MAX_SEND_ATTEMPTS,
};
use crate::graph::{DataRef, Dataflow, TaskId};
use crate::obs::registry::{Counter, Registry};
use crate::obs::RunEvent;
use crate::trace::{TaskRecord, Trace};
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

/// Virtual execution time of every task (seconds).
const TASK_TIME: f64 = 1.0;
/// One-way latency of every message and acknowledgement (virtual
/// seconds), before the plan's jitter.
const LATENCY: f64 = 0.5;

/// Context handed to the task body on its executing rank.
pub struct RankCtx<'a, P> {
    rank: usize,
    store: &'a mut HashMap<DataRef, P>,
    /// outputs received from remote producers for the current task
    remote_inputs: HashMap<TaskId, P>,
}

impl<P> RankCtx<'_, P> {
    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Borrow a datum: `producer`'s output if it was shipped for this
    /// task, otherwise `data` from the rank-local store.
    ///
    /// # Panics
    /// Panics when the datum is neither local nor shipped — i.e. the
    /// graph is missing a dependency edge (exactly the bug class this
    /// engine exists to catch).
    pub fn get(&self, producer: Option<TaskId>, data: DataRef) -> &P {
        if let Some(p) = producer.and_then(|pid| self.remote_inputs.get(&pid)) {
            return p;
        }
        self.store
            .get(&data)
            .unwrap_or_else(|| missing_datum(self.rank, data))
    }

    /// Store (or overwrite) a datum in the rank-local store.
    pub fn put(&mut self, data: DataRef, payload: P) {
        self.store.insert(data, payload);
    }

    /// Take a datum out of the local store (for in-place mutation).
    pub fn take(&mut self, data: DataRef) -> Option<P> {
        self.store.remove(&data)
    }
}

/// The one diagnostic of a datum that is not where the graph says it is:
/// a consumer's input that is neither local nor shipped, or a producer
/// with a remote consumer that never `put` its output.
fn missing_datum(rank: usize, data: DataRef) -> ! {
    panic!(
        "rank {rank}: datum ({}, {}) neither local nor shipped — missing dependency edge?",
        data.i, data.j
    )
}

/// Capability configuration of a [`DistEngine`] run.
///
/// The distributed engine runs in virtual time, so its capabilities are
/// plain data rather than monomorphized traits (a branch per event is
/// free there): [`FaultPlan::none`] is a perfect network.
#[derive(Debug, Clone, Copy)]
pub struct DistConfig<'a> {
    /// What goes wrong during the run. [`FaultPlan::none`] runs the same
    /// event loop over a perfect network.
    pub faults: &'a FaultPlan,
    /// Capture a virtual-time [`Trace`] of task execution (one record
    /// per *successful* task completion; crash re-executions append a
    /// second record, mirroring what a real tracer would see).
    pub record_trace: bool,
    /// The run's metrics sink: task counts and per-class virtual task
    /// durations land in the executing rank's shard, fault and integrity
    /// events in shard 0 as they happen.
    pub metrics: &'a Registry,
}

/// Payload integrity hooks for [`DistEngine::run`].
///
/// The engine is generic over its payload type, so corruption injection
/// and checksum verification are supplied as callbacks rather than baked
/// in: `corrupt` flips payload bits chosen by a seeded word **without**
/// refreshing any attached checksum (returning `false` when the payload
/// has nothing corruptible, e.g. a null tile), and `verify` re-derives
/// the checksum and compares it against the sealed one. The engine calls
/// `verify` at every read boundary: message delivery, local task input
/// consumption, and a final store sweep before releasing the result.
#[derive(Clone, Copy)]
pub struct IntegrityHooks<'a, P> {
    /// Flip payload bits selected by the seeded word; `true` if anything
    /// was actually mutated.
    pub corrupt: &'a dyn Fn(&mut P, u64) -> bool,
    /// Recompute the payload's checksum and compare; `false` on mismatch.
    pub verify: &'a dyn Fn(&P) -> bool,
}

/// Result of a distributed engine run.
#[derive(Debug)]
pub struct DistOutcome<P> {
    /// Final per-rank stores (dead ranks are empty).
    pub stores: Vec<HashMap<DataRef, P>>,
    /// Final task → rank assignment after crash migrations.
    pub exec_rank: Vec<usize>,
    /// Cross-rank communication volume actually incurred, including
    /// retransmissions — the real-run counterpart of the DES's modeled
    /// [`CommStats`]. On a fault-free run this is one message of the
    /// producer's output per edge that crosses ranks in the placement.
    pub comm: CommStats,
    /// Virtual makespan of the run (seconds).
    pub makespan: f64,
    /// Crash, recovery, and integrity events in virtual-time order.
    /// Every [`RunEvent::Crash`] that the engine survives is
    /// immediately followed by its matching [`RunEvent::Recovery`]
    /// naming the survivor that absorbed the dead rank's work; with
    /// [`IntegrityHooks`] armed, every caught checksum mismatch appends
    /// a [`RunEvent::CorruptionDetected`] and every completed lineage
    /// heal a [`RunEvent::Healed`].
    pub events: Vec<RunEvent>,
    /// Virtual-time execution trace, when
    /// [`DistConfig::record_trace`] was set.
    pub trace: Option<Trace>,
}

/// Sender-side log entry for one logical message: the producer's output
/// to one remote consumer. Attempts share the entry; the payload is
/// retained for crash replay.
struct MsgRec<P> {
    src: TaskId,
    dst: TaskId,
    payload: P,
    /// Payload size (the producer's output bytes) for volume accounting.
    bytes: u64,
    /// Send attempts so far (acks and timeouts are tagged with this).
    attempts: u32,
    /// Latest attempt was acknowledged.
    acked: bool,
    /// Gave up after [`MAX_SEND_ATTEMPTS`].
    abandoned: bool,
}

#[derive(Clone, Copy)]
enum Event {
    /// Wake a rank: start its next ready task if idle.
    TryStart { rank: usize },
    /// A task's virtual execution time elapsed.
    TaskDone { rank: usize, task: TaskId, epoch: u32 },
    /// A message copy reaches its consumer's current rank. `copy`
    /// distinguishes a duplicated delivery (1) from the original (0) so
    /// in-flight corruption fates are rolled per copy.
    Deliver { msg: usize, attempt: u32, copy: u32 },
    /// An acknowledgement reaches the sender.
    AckArrive { msg: usize, attempt: u32 },
    /// The sender should send again unless a newer attempt superseded
    /// this one: the attempt's retransmission timer fired, or a negative
    /// acknowledgement (checksum mismatch at delivery) came back — the
    /// latter just arrives sooner than the timeout would.
    Resend { msg: usize, attempt: u32 },
    /// A scheduled at-rest bit flip (index into the plan's
    /// `store_corruptions`) strikes its target store.
    CorruptStore { idx: usize },
    /// Fail-stop crash of a rank.
    Crash { rank: usize },
}

/// The distributed-memory engine (message-passing emulation).
///
/// Each rank owns a **private** payload store (no shared data), and every
/// dataflow edge whose producer and consumer live on different ranks
/// becomes a message carrying a *copy* of the producer's one output. A wrong
/// owner function, a missing dependency edge, or an execution remap that
/// forgets to ship a tile produces a stall or a wrong answer here, not
/// silent success.
///
/// The engine is a deterministic virtual-time event loop. Each rank
/// executes its tasks in id order (a topological order: every edge of a
/// [`Dataflow`] runs to a higher id); messages are
/// sequence-numbered, logged by the sender, deduplicated by the
/// receiver, and retransmitted on timeout with capped exponential
/// backoff; fail-stop crashes are recovered by task migration,
/// checkpoint restore and logged-message replay (see
/// [`crate::fault`]). With no fault layer configured the same loop runs
/// a perfect network: every message arrives on the first attempt and
/// the recovery machinery is dormant.
///
/// Determinism argument (the produced data must match a fault-free
/// shared-memory run *bit for bit*): kernels are deterministic, each
/// rank executes its queue in id order, and every task
/// consumes either the rank-local version chain (writers of a datum are
/// co-located and replay from the checkpoint in order) or an exact
/// logged copy of its producer's output. Message timing, loss,
/// duplication and crashes therefore change *when* a task runs, never
/// *what* it reads. Edge locality is decided **statically** from the
/// original placement: an edge whose endpoints started on different
/// ranks stays message-carried even if a migration makes them
/// co-resident — a migrated consumer must see its producer's logged
/// payload, not whatever newer version of that datum the survivor's
/// store holds.
pub struct DistEngine<'g, 'r, G> {
    graph: &'g G,
    nprocs: usize,
    exec_rank: &'r [usize],
}

impl<'g, 'r, G: Dataflow> DistEngine<'g, 'r, G> {
    /// An engine over `graph` — an implicit task space or a hand-built
    /// [`TaskGraph`](crate::graph::TaskGraph) — with `nprocs` emulated ranks and the
    /// given task → rank execution map. Validation happens in
    /// [`run`](DistEngine::run) (so misconfiguration is a typed
    /// [`EngineError`], not a panic).
    pub fn new(graph: &'g G, nprocs: usize, exec_rank: &'r [usize]) -> Self {
        DistEngine { graph, nprocs, exec_rank }
    }

    /// Execute the graph: `initial[r]` is rank `r`'s initial datum store
    /// (the data distribution); `body(task, ctx)` runs the kernel on the
    /// executing rank and must `put` the task's output, the tile its spec
    /// `writes`, into the store when any of its consumers runs on another
    /// rank. A datum leaves a task only as its output: when the task
    /// completes, each remote consumer is shipped a copy of
    /// `store[writes]` (a missing one is the "missing dependency edge"
    /// panic of [`RankCtx::get`]). `body` must be deterministic for the
    /// fault-recovery equivalence to hold.
    ///
    /// Id order *is* the schedule: every rank executes its tasks in it,
    /// front-only, which never deadlocks because every edge runs to a
    /// higher id. On a Cholesky task space id order is panel order (ids
    /// are grouped by panel).
    ///
    /// With `hooks`, the silent-data-corruption integrity layer is armed:
    /// the engine injects the fault plan's corruption entries (in-flight
    /// payload flips with probability `corrupt_msg_prob` per delivered
    /// copy, and the scheduled at-rest `store_corruptions`) through
    /// `hooks.corrupt`, and verifies payloads through `hooks.verify` at
    /// every read boundary:
    ///
    /// * **message delivery** — a corrupted copy is discarded before the
    ///   dedup/ack step and NACKed back to the sender, which retransmits
    ///   immediately (the attempt timeout stays armed as a backstop);
    /// * **task read boundary** — before a kernel consumes its local
    ///   inputs, every datum it reads from the rank store is verified; a
    ///   mismatch triggers lineage healing: checkpoint rollback, writer
    ///   chain re-execution with logged-message replay, and a backed-off
    ///   re-wake, escalating to [`FtError::Integrity`] once the heal
    ///   budget (4 passes) on the same datum runs out;
    /// * **final sweep** — after the last task completes, every
    ///   surviving store is verified (a tile corrupted after its last
    ///   read would otherwise escape) and healed before the outcome is
    ///   released.
    ///
    /// Detection and healing are reported as
    /// [`RunEvent::CorruptionDetected`] / [`RunEvent::Healed`] and in
    /// the corruption counters of [`DistConfig::metrics`]. Without hooks the
    /// corruption entries of a plan are inert (there is no way to flip or
    /// verify bits of an opaque payload).
    pub fn run<P, F>(
        &self,
        initial: Vec<HashMap<DataRef, P>>,
        cfg: &DistConfig<'_>,
        hooks: Option<&IntegrityHooks<'_, P>>,
        body: F,
    ) -> Result<DistOutcome<P>, EngineError>
    where
        P: Clone,
        F: Fn(TaskId, &mut RankCtx<'_, P>),
    {
        let (graph, nprocs, exec_rank) = (self.graph, self.nprocs, self.exec_rank);
        let ntasks = graph.len();
        if exec_rank.len() != ntasks {
            return Err(EngineError::RankMapLength { expected: ntasks, got: exec_rank.len() });
        }
        if initial.len() != nprocs {
            return Err(EngineError::StoreCount { expected: nprocs, got: initial.len() });
        }
        if let Some((task, &rank)) = exec_rank.iter().enumerate().find(|(_, &r)| r >= nprocs) {
            return Err(EngineError::InvalidRank { task, rank, nprocs });
        }
        cfg.faults.validate(nprocs)?;

        let mut run = Run::new(self, initial, cfg, hooks, body);
        loop {
            while let Some((time, event)) = run.events.pop() {
                if run.done_count == ntasks {
                    break;
                }
                run.now = time;
                match event {
                    Event::TryStart { rank } => run.try_start(rank),
                    Event::TaskDone { rank, task, epoch } => run.task_done(rank, task, epoch)?,
                    Event::Deliver { msg, attempt, copy } => run.deliver(msg, attempt, copy),
                    Event::AckArrive { msg, attempt } => run.ack(msg, attempt),
                    Event::Resend { msg, attempt } => run.resend(msg, attempt),
                    Event::CorruptStore { idx } => run.corrupt_store(idx),
                    Event::Crash { rank } => run.crash(rank)?,
                }
            }
            if run.done_count < ntasks {
                return Err(EngineError::Fault(FtError::Stalled {
                    pending: ntasks - run.done_count,
                }));
            }
            // Healing re-enters the event loop.
            if !run.sweep_stores()? {
                break;
            }
        }
        Ok(run.finish())
    }
}

/// The state of one [`DistEngine::run`]: one method per event kind.
struct Run<'a, P, F, G> {
    graph: &'a G,
    /// The original placement: it decides which edges carry messages.
    exec_rank: &'a [usize],
    faults: &'a FaultPlan,
    hooks: Option<&'a IntegrityHooks<'a, P>>,
    metrics: &'a Registry,
    body: F,

    // Static edge classification (see the type-level docs of
    // `DistEngine`: locality is the *original* placement, by design). A
    // task reads its local predecessors' outputs from its rank's store
    // and its remote predecessors' from its inbox.
    local_preds: Vec<Vec<TaskId>>,
    remote_preds: Vec<Vec<TaskId>>,
    /// `task_done`'s scratch: the completed task's consumers.
    consumers: Vec<TaskId>,

    now: f64,
    events: EventQueue<Event>,
    cur_exec: Vec<usize>,
    alive: Vec<bool>,
    epoch: Vec<u32>,
    busy: Vec<Option<TaskId>>,
    done: Vec<bool>,
    done_count: usize,
    kernel_attempts: Vec<u32>,
    /// Per task, the outputs shipped to it, by producer.
    inbox: Vec<HashMap<TaskId, P>>,
    /// Receiver-side dedup filter: message ids each rank has accepted.
    seen: Vec<HashSet<usize>>,
    queue: Vec<VecDeque<TaskId>>,
    /// Checkpoint of every rank's initial data — the recovery source for
    /// data whose owner dies (a real deployment would re-generate or
    /// re-load it; the cost model charges the re-execution instead).
    /// Taken only when something can read it: `crash` when the plan
    /// schedules one and `heal_datum` under integrity hooks. Empty maps
    /// otherwise.
    checkpoint: Vec<HashMap<DataRef, P>>,
    /// Checkpoints each rank answers for (its own, plus inherited ones).
    owned_ckpt: Vec<Vec<usize>>,
    stores: Vec<HashMap<DataRef, P>>,
    /// Sender-side message log and its `(src, dst)` index.
    recs: Vec<MsgRec<P>>,
    rec_index: HashMap<(TaskId, TaskId), usize>,
    /// Heal attempts per datum, and each pending heal's final writer
    /// (whose re-completion marks the datum healed).
    heal_attempts: HashMap<(usize, usize), u32>,
    heal_final_writer: HashMap<TaskId, DataRef>,
    /// Traffic put on the wire so far: every send attempt counts.
    comm: CommStats,
    log: Vec<RunEvent>,
    trace: Option<Trace>,
}

impl<'a, P, F, G> Run<'a, P, F, G>
where
    P: Clone,
    F: Fn(TaskId, &mut RankCtx<'_, P>),
    G: Dataflow,
{
    fn new(
        engine: &DistEngine<'a, 'a, G>,
        initial: Vec<HashMap<DataRef, P>>,
        cfg: &DistConfig<'a>,
        hooks: Option<&'a IntegrityHooks<'a, P>>,
        body: F,
    ) -> Self {
        let (graph, nprocs, exec_rank) = (engine.graph, engine.nprocs, engine.exec_rank);
        let ntasks = graph.len();
        let mut queue: Vec<VecDeque<TaskId>> = vec![VecDeque::new(); nprocs];
        for t in 0..ntasks {
            queue[exec_rank[t]].push_back(t);
        }
        let mut local_preds: Vec<Vec<TaskId>> = vec![Vec::new(); ntasks];
        let mut remote_preds: Vec<Vec<TaskId>> = vec![Vec::new(); ntasks];
        let mut consumers = Vec::new();
        for src in 0..ntasks {
            graph.successors_into(src, &mut consumers);
            for &dst in &consumers {
                debug_assert!(dst > src, "edge {src} → {dst} runs backwards");
                let preds = if exec_rank[dst] == exec_rank[src] {
                    &mut local_preds
                } else {
                    &mut remote_preds
                };
                preds[dst].push(src);
            }
        }
        let faults = cfg.faults;
        let mut events = EventQueue::new();
        for c in &faults.crashes {
            events.push(c.at, Event::Crash { rank: c.rank });
        }
        for (idx, c) in faults.store_corruptions.iter().enumerate() {
            events.push(c.at, Event::CorruptStore { idx });
        }
        for rank in 0..nprocs {
            events.push(0.0, Event::TryStart { rank });
        }
        let checkpoint = if !faults.crashes.is_empty() || hooks.is_some() {
            initial.clone()
        } else {
            vec![HashMap::new(); nprocs]
        };
        Run {
            graph,
            exec_rank,
            faults,
            hooks,
            metrics: cfg.metrics,
            body,
            local_preds,
            remote_preds,
            consumers,
            now: 0.0,
            events,
            cur_exec: exec_rank.to_vec(),
            alive: vec![true; nprocs],
            epoch: vec![0; nprocs],
            busy: vec![None; nprocs],
            done: vec![false; ntasks],
            done_count: 0,
            kernel_attempts: vec![0; ntasks],
            inbox: (0..ntasks).map(|_| HashMap::new()).collect(),
            seen: vec![HashSet::new(); nprocs],
            queue,
            checkpoint,
            owned_ckpt: (0..nprocs).map(|r| vec![r]).collect(),
            stores: initial,
            recs: Vec::new(),
            rec_index: HashMap::new(),
            heal_attempts: HashMap::new(),
            heal_final_writer: HashMap::new(),
            comm: CommStats::default(),
            log: Vec::new(),
            trace: cfg.record_trace.then(Trace::default),
        }
    }

    /// Count one fault event of kind `c` (shard 0: whole-run totals).
    fn fault(&self, c: Counter) {
        self.metrics.incr(0, c);
    }

    fn try_start(&mut self, rank: usize) {
        if !self.alive[rank] || self.busy[rank].is_some() {
            return;
        }
        while self.queue[rank]
            .front()
            .is_some_and(|&t| self.done[t] || self.cur_exec[t] != rank)
        {
            self.queue[rank].pop_front();
        }
        let Some(&t) = self.queue[rank].front() else {
            return;
        };
        let ready = self.local_preds[t].iter().all(|&p| self.done[p])
            && self.remote_preds[t].iter().all(|p| self.inbox[t].contains_key(p));
        if !ready {
            return; // re-woken by the delivery that unblocks it
        }
        self.queue[rank].pop_front();
        self.busy[rank] = Some(t);
        let epoch = self.epoch[rank];
        self.events.push(self.now + TASK_TIME, Event::TaskDone { rank, task: t, epoch });
    }

    fn task_done(&mut self, rank: usize, t: TaskId, epoch: u32) -> Result<(), EngineError> {
        if !self.alive[rank] || epoch != self.epoch[rank] {
            return Ok(()); // the rank died mid-execution
        }
        let (now, graph) = (self.now, self.graph);
        self.busy[rank] = None;
        if self.faults.kernel_fails(t, self.kernel_attempts[t]) {
            self.kernel_attempts[t] += 1;
            self.fault(Counter::KernelFailures);
            if self.kernel_attempts[t] > MAX_KERNEL_RETRIES {
                return Err(EngineError::Fault(FtError::KernelRetriesExhausted { task: t }));
            }
            self.queue[rank].push_front(t); // retry in place
            self.events.push(now, Event::TryStart { rank });
            return Ok(());
        }
        // Read-boundary integrity check: verify every datum this task is
        // about to consume from the local store — its local predecessors'
        // outputs and the tile it updates in place — before the kernel
        // runs on it.
        if let Some(h) = self.hooks {
            let bad = self.local_preds[t]
                .iter()
                .filter_map(|&p| graph.spec(p).writes)
                .chain(graph.spec(t).writes)
                .find(|d| self.stores[rank].get(d).is_some_and(|p| !(h.verify)(p)));
            if let Some(d) = bad {
                return self.heal_datum(d, rank);
            }
        }
        let mut ctx = RankCtx {
            rank,
            store: &mut self.stores[rank],
            remote_inputs: std::mem::take(&mut self.inbox[t]),
        };
        (self.body)(t, &mut ctx);
        self.done[t] = true;
        self.done_count += 1;
        let mut consumers = std::mem::take(&mut self.consumers);
        let spec = graph.successors_into(t, &mut consumers);
        self.metrics.incr(rank, Counter::TasksExecuted);
        self.metrics.record_class_seconds(rank, spec.class, TASK_TIME);
        if let Some(hd) = self.heal_final_writer.remove(&t) {
            self.fault(Counter::CorruptionsHealed);
            self.log.push(RunEvent::Healed { rank, i: hd.i, j: hd.j, at: now });
        }
        if let Some(tr) = self.trace.as_mut() {
            let start = now - TASK_TIME;
            tr.push_record(TaskRecord {
                task: t,
                class: spec.class,
                proc: rank,
                data: spec.writes,
                // Readiness is not tracked per attempt in virtual time;
                // queued == start means zero reported queue-wait, which
                // Trace documents.
                queued: start,
                start,
                end: now,
            });
        }
        // The output goes to every consumer the original placement put on
        // another rank, in list order: that order numbers the messages.
        for &dst in &consumers {
            if self.exec_rank[dst] == self.exec_rank[t] || self.done[dst] {
                continue; // local, or a re-execution whose consumer has it
            }
            let data = spec.writes.expect("a task with a consumer on another rank writes a tile");
            let payload = match self.stores[rank].get(&data) {
                Some(p) => p.clone(),
                None => missing_datum(rank, data),
            };
            let id = match self.rec_index.get(&(t, dst)) {
                Some(&id) => {
                    // re-send through the existing log entry
                    self.recs[id].payload = payload;
                    id
                }
                None => {
                    self.recs.push(MsgRec {
                        src: t,
                        dst,
                        payload,
                        bytes: spec.bytes,
                        attempts: 0,
                        acked: false,
                        abandoned: false,
                    });
                    self.rec_index.insert((t, dst), self.recs.len() - 1);
                    self.recs.len() - 1
                }
            };
            self.send_afresh(id);
        }
        self.consumers = consumers;
        self.events.push(now, Event::TryStart { rank });
        Ok(())
    }

    /// Start a new delivery of logged message `id` (first send, or a
    /// replay to a consumer that lost its copy).
    fn send_afresh(&mut self, id: usize) {
        self.recs[id].acked = false;
        self.recs[id].abandoned = false;
        self.schedule_send(id);
    }

    /// Roll the fates for one send attempt of `recs[id]` and schedule its
    /// delivery (possibly duplicated, possibly dropped) and its
    /// retransmission timeout.
    fn schedule_send(&mut self, id: usize) {
        let (now, faults) = (self.now, self.faults);
        let rec = &mut self.recs[id];
        if rec.attempts >= MAX_SEND_ATTEMPTS {
            if !rec.abandoned {
                rec.abandoned = true;
                self.fault(Counter::SendsAbandoned);
            }
            return;
        }
        rec.attempts += 1;
        let (attempt, bytes) = (rec.attempts, rec.bytes);
        if attempt > 1 {
            self.fault(Counter::Retransmissions);
        }
        // Every attempt puts the payload on the wire (even if it is then
        // dropped in flight), so each one counts toward volume.
        self.comm.messages += 1;
        self.comm.bytes += bytes;
        let mid = id as u64;
        if faults.drops_message(mid, attempt) {
            self.fault(Counter::MessagesDropped);
        } else {
            let dt = LATENCY + faults.delay(mid, attempt, 0);
            self.events.push(now + dt, Event::Deliver { msg: id, attempt, copy: 0 });
            if faults.duplicates_message(mid, attempt) {
                self.fault(Counter::MessagesDuplicated);
                let dt2 = LATENCY + faults.delay(mid, attempt, 1);
                self.events.push(now + dt2, Event::Deliver { msg: id, attempt, copy: 1 });
            }
        }
        self.events.push(now + timeout_for(attempt), Event::Resend { msg: id, attempt });
    }

    fn deliver(&mut self, msg: usize, attempt: u32, copy: u32) {
        let (now, faults) = (self.now, self.faults);
        let (src, dst) = (self.recs[msg].src, self.recs[msg].dst);
        let dst_rank = self.cur_exec[dst];
        if !self.alive[dst_rank] {
            return; // delivered into a dead NIC; replay handles it
        }
        // In-flight corruption: flip a payload bit on this copy and let
        // the receiver's checksum decide. A detected mismatch is
        // discarded before the dedup/ack step and NACKed back to the
        // sender (integrity control messages are modeled as loss-free;
        // the attempt timeout stays armed as a backstop).
        let mut incoming: Option<P> = None;
        if let Some(h) = self.hooks {
            if faults.corrupts_message(msg as u64, attempt, copy) {
                let mut p = self.recs[msg].payload.clone();
                if (h.corrupt)(&mut p, faults.corruption_bits(msg as u64)) {
                    self.fault(Counter::MessagesCorrupted);
                    if !(h.verify)(&p) {
                        self.fault(Counter::CorruptionsDetected);
                        self.fault(Counter::NacksSent);
                        // A message is its producer's output.
                        let data = self.graph.spec(src).writes.expect("a shipped output");
                        self.log.push(RunEvent::CorruptionDetected {
                            rank: dst_rank,
                            i: data.i,
                            j: data.j,
                            at: now,
                        });
                        self.events.push(now + LATENCY, Event::Resend { msg, attempt });
                        return;
                    }
                    // an undetected flip is delivered as-is (unreachable
                    // with exact digests; a weaker checksum would pay for
                    // it with a wrong result)
                    incoming = Some(p);
                }
            }
        }
        if self.seen[dst_rank].contains(&msg) {
            self.fault(Counter::DuplicatesIgnored);
        } else {
            self.seen[dst_rank].insert(msg);
            if !self.done[dst] {
                let payload = incoming.unwrap_or_else(|| self.recs[msg].payload.clone());
                self.inbox[dst].insert(src, payload);
                self.events.push(now, Event::TryStart { rank: dst_rank });
            }
        }
        // every verified delivery (even a dedup'd one) is acknowledged
        if faults.drops_ack(msg as u64, attempt) {
            self.fault(Counter::AcksDropped);
        } else {
            self.events.push(now + LATENCY, Event::AckArrive { msg, attempt });
        }
    }

    fn ack(&mut self, msg: usize, attempt: u32) {
        // attempt-tagged: a stale ack must not cancel the timer of a
        // newer attempt (e.g. after a crash replay)
        if attempt == self.recs[msg].attempts {
            self.recs[msg].acked = true;
        }
    }

    fn resend(&mut self, msg: usize, attempt: u32) {
        let rec = &self.recs[msg];
        if rec.acked || rec.abandoned || attempt != rec.attempts || self.done[rec.dst] {
            return; // a newer attempt is already in flight (or moot)
        }
        if !self.alive[self.cur_exec[rec.src]] || !self.done[rec.src] {
            return; // sender died; its re-execution re-sends
        }
        self.schedule_send(msg);
    }

    fn corrupt_store(&mut self, idx: usize) {
        let c = self.faults.store_corruptions[idx];
        if !self.alive[c.rank] {
            return; // the crash already destroyed the store
        }
        // Without hooks there is no way to flip bits of an opaque
        // payload: the strike is inert.
        let Some(h) = self.hooks else { return };
        if let Some(p) = self.stores[c.rank].get_mut(&DataRef { i: c.i, j: c.j }) {
            if (h.corrupt)(p, self.faults.corruption_bits((1u64 << 32) + idx as u64)) {
                self.fault(Counter::StoreCorruptionsInjected);
            }
        }
    }

    fn crash(&mut self, c: usize) -> Result<(), EngineError> {
        if !self.alive[c] {
            return Ok(());
        }
        let (now, nprocs) = (self.now, self.alive.len());
        self.alive[c] = false;
        self.fault(Counter::Crashes);
        self.log.push(RunEvent::Crash { rank: c, at: now });
        self.epoch[c] += 1; // invalidates the in-flight TaskDone
        self.busy[c] = None;
        let Some(d) = (1..nprocs).map(|k| (c + k) % nprocs).find(|&r| self.alive[r]) else {
            return Err(EngineError::Fault(FtError::AllRanksCrashed));
        };
        self.log.push(RunEvent::Recovery { failed: c, survivor: d, at: now });
        // migrate every task of the dead rank to the survivor
        let mut migrated: HashSet<TaskId> = HashSet::new();
        for t in 0..self.cur_exec.len() {
            if self.cur_exec[t] == c {
                self.cur_exec[t] = d;
                migrated.insert(t);
                if self.done[t] {
                    self.done[t] = false;
                    self.done_count -= 1;
                    self.fault(Counter::TasksReexecuted);
                }
                self.inbox[t].clear(); // received inputs died with c
            }
        }
        self.metrics.add(0, Counter::TasksMigrated, migrated.len() as u64);
        self.stores[c].clear();
        self.seen[c].clear();
        self.queue[c].clear();
        // the survivor restores the dead rank's initial data (including
        // any it had itself inherited earlier)
        let inherited = std::mem::take(&mut self.owned_ckpt[c]);
        for &o in &inherited {
            for (k, v) in &self.checkpoint[o] {
                self.stores[d].insert(*k, v.clone());
            }
        }
        self.owned_ckpt[d].extend(inherited);
        self.requeue(d);
        // replay logged messages from surviving completed producers to
        // the wiped, migrated consumers
        self.replay_to(&migrated, false);
        self.events.push(now, Event::TryStart { rank: d });
        Ok(())
    }

    /// Rebuild `rank`'s queue: its unfinished, not-running tasks in
    /// execution (id) order.
    fn requeue(&mut self, rank: usize) {
        self.queue[rank] = (0..self.cur_exec.len())
            .filter(|&t| self.cur_exec[t] == rank && !self.done[t] && self.busy[rank] != Some(t))
            .collect();
    }

    /// Re-send every logged message from a completed producer to an
    /// unfinished consumer in `consumers`. With `forget`, the receiver's
    /// dedup filter first forgets the old delivery (the consumer's rank
    /// survived, so the filter still holds it and would discard the
    /// replay as a duplicate).
    fn replay_to(&mut self, consumers: &HashSet<TaskId>, forget: bool) {
        for id in 0..self.recs.len() {
            let (src, dst) = (self.recs[id].src, self.recs[id].dst);
            if consumers.contains(&dst) && !self.done[dst] && self.done[src] {
                if forget {
                    self.seen[self.cur_exec[dst]].remove(&id);
                }
                self.send_afresh(id);
            }
        }
    }

    /// Lineage healing of a corrupted datum `d` detected on live rank
    /// `rank`: roll the datum back to its checkpoint (or discard it if it
    /// is a produced-only value with no checkpoint), un-done its writer
    /// chain so the value is recomputed in id order from
    /// verified inputs, replay the writers' logged remote inputs, and
    /// re-wake the affected ranks after a backed-off detection window.
    /// Escalates to [`FtError::Integrity`] once the same datum has been
    /// healed [`MAX_HEAL_RETRIES`] times without sticking (heal attempts
    /// are counted cumulatively per datum, so repeated strikes on one
    /// tile escalate).
    fn heal_datum(&mut self, d: DataRef, rank: usize) -> Result<(), EngineError> {
        let now = self.now;
        self.fault(Counter::CorruptionsDetected);
        self.log.push(RunEvent::CorruptionDetected { rank, i: d.i, j: d.j, at: now });
        let att = self.heal_attempts.entry((d.i, d.j)).or_insert(0);
        *att += 1;
        let attempts = *att;
        if attempts > MAX_HEAL_RETRIES {
            return Err(EngineError::Fault(FtError::Integrity(IntegrityError {
                rank,
                data: (d.i, d.j),
                attempts: attempts - 1,
            })));
        }
        // Roll the datum back to the initial checkpoint; produced-only
        // data have no checkpoint entry and are simply discarded — the
        // writer chain regenerates them from scratch.
        let restored = match self.checkpoint.iter().find_map(|c| c.get(&d)).cloned() {
            Some(v) => {
                self.stores[rank].insert(d, v);
                true
            }
            None => {
                self.stores[rank].remove(&d);
                false
            }
        };
        let undone: Vec<TaskId> = (0..self.graph.len())
            .filter(|&t| self.done[t] && self.graph.spec(t).writes == Some(d))
            .collect();
        if let Some(&last) = undone.last() {
            self.heal_final_writer.insert(last, d);
        } else if restored {
            // a never-written input: the checkpoint restore *is* the heal
            self.fault(Counter::CorruptionsHealed);
            self.log.push(RunEvent::Healed { rank, i: d.i, j: d.j, at: now });
        }
        // Writers of a datum are co-located (the engine's placement
        // invariant), so the chain re-executes on one rank; the detecting
        // rank is always re-woken because its interrupted reader task
        // must be re-queued too.
        let mut affected = BTreeSet::from([rank]);
        for &t in &undone {
            self.done[t] = false;
            self.done_count -= 1;
            self.fault(Counter::TasksReexecuted);
            affected.insert(self.cur_exec[t]);
        }
        for &r in &affected {
            self.requeue(r);
        }
        // Replay logged remote inputs into the re-executing writers:
        // their inboxes were consumed on the first run.
        self.replay_to(&undone.iter().copied().collect(), true);
        // Detection + rollback window, backed off per heal attempt.
        let delay = timeout_for(attempts);
        for &r in &affected {
            self.events.push(now + delay, Event::TryStart { rank: r });
        }
        Ok(())
    }

    /// Final integrity sweep: a tile corrupted *after* its last read has
    /// no later read boundary to catch it, so verify every surviving
    /// store and heal before releasing the result. Returns whether
    /// anything was healed (the event loop must then run again).
    fn sweep_stores(&mut self) -> Result<bool, EngineError> {
        let Some(h) = self.hooks else { return Ok(false) };
        let mut bad: Vec<(usize, DataRef)> = Vec::new();
        for (r, store) in self.stores.iter().enumerate() {
            if self.alive[r] {
                bad.extend(store.iter().filter(|(_, p)| !(h.verify)(p)).map(|(d, _)| (r, *d)));
            }
        }
        bad.sort_unstable_by_key(|&(r, d)| (r, d.i, d.j)); // deterministic heal order
        for &(r, d) in &bad {
            self.heal_datum(d, r)?;
        }
        Ok(!bad.is_empty())
    }

    fn finish(self) -> DistOutcome<P> {
        DistOutcome {
            stores: self.stores,
            exec_rank: self.cur_exec,
            comm: self.comm,
            makespan: self.now,
            events: self.log,
            trace: self.trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::graph::{GraphBuilder, TaskClass, TaskGraph, TaskSpec};
    use crate::obs::registry::RegistrySnapshot;
    use std::sync::OnceLock;

    /// A registry for the runs whose counters no test reads.
    fn sink() -> &'static Registry {
        static SINK: OnceLock<Registry> = OnceLock::new();
        SINK.get_or_init(|| Registry::new(1))
    }

    /// A perfect network with no trace.
    fn plain() -> DistConfig<'static> {
        static NONE: OnceLock<FaultPlan> = OnceLock::new();
        let faults = NONE.get_or_init(FaultPlan::none);
        DistConfig { faults, record_trace: false, metrics: sink() }
    }

    /// A task whose output is `writes`, one 8-byte value.
    fn dspec(writes: DataRef) -> TaskSpec {
        TaskSpec { class: TaskClass::Other, writes: Some(writes), bytes: 8 }
    }

    fn dist_chain(n: usize) -> TaskGraph {
        let mut g = GraphBuilder::new();
        for k in 0..n {
            g.add_task(dspec(DataRef { i: k, j: 0 }));
        }
        for k in 0..n - 1 {
            g.add_edge(k, k + 1);
        }
        g.finish()
    }

    /// Counted run: `cfg` with a registry of its own, whose snapshot
    /// comes back beside the outcome.
    type Counted<P> = Result<(DistOutcome<P>, RegistrySnapshot), EngineError>;

    fn run_chain(n: usize, nprocs: usize, cfg: &DistConfig<'_>) -> Counted<i64> {
        let g = dist_chain(n);
        let exec: Vec<usize> = (0..n).map(|k| k % nprocs).collect();
        let initial: Vec<HashMap<DataRef, i64>> = vec![HashMap::new(); nprocs];
        let reg = Registry::new(1);
        let cfg = DistConfig { metrics: &reg, ..*cfg };
        let out = DistEngine::new(&g, nprocs, &exec).run(initial, &cfg, None, |t, ctx| {
            let v = if t == 0 {
                1
            } else {
                *ctx.get(Some(t - 1), DataRef { i: t - 1, j: 0 }) + 1
            };
            ctx.put(DataRef { i: t, j: 0 }, v);
        });
        out.map(|out| (out, reg.snapshot()))
    }

    fn chain_result(out: &DistOutcome<i64>, n: usize) -> i64 {
        let last = n - 1;
        out.stores[out.exec_rank[last]][&DataRef { i: last, j: 0 }]
    }

    /// Perfect-network run: correct data, exact comm accounting (one
    /// message per cross-rank edge), zero fault activity.
    #[test]
    fn fault_free_chain_counts_comm() {
        let n = 12;
        let (out, c) = run_chain(n, 4, &plain()).unwrap();
        assert_eq!(chain_result(&out, n), n as i64);
        assert_eq!(out.comm.messages, (n - 1) as u64);
        assert_eq!(out.comm.bytes, 8 * (n - 1) as u64);
        assert!(Counter::FAULTS.iter().all(|&f| c.counter(f) == 0));
        assert!(out.makespan > 0.0);
        assert!(out.trace.is_none(), "trace must be opt-in");
    }

    /// The virtual-time trace capability records one span per task on
    /// the executing rank, compatible with the shared Trace toolkit.
    #[test]
    fn dist_trace_capability_records_every_task() {
        let n = 12;
        let nprocs = 4;
        let cfg = DistConfig { record_trace: true, ..plain() };
        let (out, _) = run_chain(n, nprocs, &cfg).unwrap();
        let trace = out.trace.expect("trace was requested");
        assert_eq!(trace.records.len(), n);
        for r in &trace.records {
            assert!(r.proc < nprocs);
            assert!(r.start <= r.end);
            assert!(r.end <= out.makespan + 1e-12);
        }
        // Busy time partitions across ranks like any other trace.
        let busy: f64 = trace.busy_per_proc(nprocs).iter().sum();
        assert!(
            (busy - n as f64).abs() < 1e-9,
            "1s per task in virtual time, got {busy}"
        );
    }

    /// FT + trace compose: a crashed-and-recovered run records spans for
    /// the re-executions too.
    #[test]
    fn dist_trace_composes_with_fault_layer() {
        let faults = FaultPlan::new(1).with_crash(1, 6.0);
        let cfg = DistConfig { faults: &faults, record_trace: true, ..plain() };
        let n = 12;
        let (out, c_out) = run_chain(n, 4, &cfg).unwrap();
        assert_eq!(chain_result(&out, n), n as i64);
        assert_eq!(c_out.counter(Counter::Crashes), 1);
        let trace = out.trace.expect("trace was requested");
        assert!(
            trace.records.len() >= n,
            "re-executed tasks add records: {} < {n}",
            trace.records.len()
        );
        assert!(
            out.comm.messages > (n - 1) as u64,
            "comm counts include retransmissions"
        );
    }

    // ---------------- integrity layer ----------------

    /// Self-checking payload for integrity tests: value + mirror. A
    /// corruption flips a bit of the value only, so `verify` (value ==
    /// mirror) catches every injected flip — the engine-level analogue
    /// of a sealed tile digest.
    fn flip_value(p: &mut (i64, i64), r: u64) -> bool {
        p.0 ^= 1 << (r % 63);
        true
    }

    fn mirror_ok(p: &(i64, i64)) -> bool {
        p.0 == p.1
    }

    fn run_sealed_chain(n: usize, nprocs: usize, cfg: &DistConfig<'_>) -> Counted<(i64, i64)> {
        let g = dist_chain(n);
        let exec: Vec<usize> = (0..n).map(|k| k % nprocs).collect();
        let initial: Vec<HashMap<DataRef, (i64, i64)>> = vec![HashMap::new(); nprocs];
        let hooks = IntegrityHooks {
            corrupt: &flip_value,
            verify: &mirror_ok,
        };
        let reg = Registry::new(1);
        let cfg = DistConfig { metrics: &reg, ..*cfg };
        let engine = DistEngine::new(&g, nprocs, &exec);
        let out = engine.run(initial, &cfg, Some(&hooks), |t, ctx| {
            let v = if t == 0 {
                1
            } else {
                ctx.get(Some(t - 1), DataRef { i: t - 1, j: 0 }).0 + 1
            };
            ctx.put(DataRef { i: t, j: 0 }, (v, v));
        });
        out.map(|out| (out, reg.snapshot()))
    }

    /// A store strike between a writer and its local reader is caught at
    /// the reader's read boundary and healed by re-executing the writer;
    /// the final data matches the fault-free run bit for bit.
    #[test]
    fn store_corruption_is_detected_at_read_boundary_and_healed() {
        let n = 4;
        let (clean, _) = run_sealed_chain(n, 1, &plain()).unwrap();
        let faults = FaultPlan::new(5).with_store_corruption(0, 1, 0, 2.5);
        let cfg = DistConfig { faults: &faults, ..plain() };
        let (out, c_out) = run_sealed_chain(n, 1, &cfg).unwrap();
        assert_eq!(c_out.counter(Counter::StoreCorruptionsInjected), 1);
        assert_eq!(c_out.counter(Counter::CorruptionsDetected), 1);
        assert_eq!(c_out.counter(Counter::CorruptionsHealed), 1);
        assert_eq!(c_out.counter(Counter::TasksReexecuted), 1);
        assert_eq!(
            out.stores, clean.stores,
            "healed data must be bit-identical"
        );
        assert!(out.makespan > clean.makespan, "healing costs virtual time");
        assert!(out.events.iter().any(|e| matches!(
            e,
            RunEvent::CorruptionDetected {
                rank: 0,
                i: 1,
                j: 0,
                ..
            }
        )));
        assert!(out.events.iter().any(|e| matches!(
            e,
            RunEvent::Healed {
                rank: 0,
                i: 1,
                j: 0,
                ..
            }
        )));
    }

    /// A tile corrupted after its last read has no later read boundary;
    /// the final store sweep catches and heals it before the outcome is
    /// released.
    #[test]
    fn final_sweep_heals_corruption_after_last_read() {
        let n = 4;
        let nprocs = 2;
        let (clean, _) = run_sealed_chain(n, nprocs, &plain()).unwrap();
        // (0, 0) on rank 0 is only ever read remotely (by task 1 via a
        // logged message), so a strike after task 0 completes is
        // invisible to every read boundary.
        let faults = FaultPlan::new(9).with_store_corruption(0, 0, 0, 1.5);
        let cfg = DistConfig { faults: &faults, ..plain() };
        let (out, c_out) = run_sealed_chain(n, nprocs, &cfg).unwrap();
        assert_eq!(c_out.counter(Counter::StoreCorruptionsInjected), 1);
        assert_eq!(c_out.counter(Counter::CorruptionsDetected), 1);
        assert_eq!(c_out.counter(Counter::CorruptionsHealed), 1);
        assert_eq!(out.stores, clean.stores, "swept data must be bit-identical");
        assert!(out.events.iter().any(|e| matches!(
            e,
            RunEvent::Healed {
                rank: 0,
                i: 0,
                j: 0,
                ..
            }
        )));
    }

    /// Corrupted message copies are rejected at delivery (never reach an
    /// inbox), NACKed, and retransmitted until a clean copy lands; the
    /// chain still computes the exact result.
    #[test]
    fn message_corruption_is_nacked_and_retransmitted() {
        let n = 12;
        let faults = FaultPlan::new(21).with_message_corruption(0.5);
        let cfg = DistConfig { faults: &faults, ..plain() };
        let (out, c_out) = run_sealed_chain(n, 4, &cfg).unwrap();
        let last = DataRef { i: n - 1, j: 0 };
        assert_eq!(
            out.stores[out.exec_rank[n - 1]][&last],
            (n as i64, n as i64)
        );
        assert!(
            c_out.counter(Counter::MessagesCorrupted) > 0,
            "p=0.5 over 11 edges must strike"
        );
        assert_eq!(
            c_out.counter(Counter::CorruptionsDetected),
            c_out.counter(Counter::MessagesCorrupted),
            "zero false negatives: every injected flip is caught"
        );
        assert_eq!(c_out.counter(Counter::NacksSent), c_out.counter(Counter::CorruptionsDetected));
        assert!(c_out.counter(Counter::Retransmissions) >= 1);
        assert_eq!(c_out.counter(Counter::SendsAbandoned), 0);
        assert_eq!(
            out.comm.messages,
            (n - 1) as u64 + c_out.counter(Counter::Retransmissions)
        );
        // Determinism: the same seed reproduces the identical fault
        // sequence and counters.
        let (again, c_again) = run_sealed_chain(n, 4, &cfg).unwrap();
        assert_eq!(c_again, c_out);
        assert_eq!(again.makespan, out.makespan);
    }

    /// A lossy-but-uncorrupted network never trips the checksum layer:
    /// zero false positives across drops, duplicates and lost acks.
    #[test]
    fn integrity_layer_has_zero_false_positives() {
        let n = 12;
        let plan = FaultPlan::new(3)
            .with_drops(0.3)
            .with_duplicates(0.3)
            .with_ack_drops(0.3);
        let cfg = DistConfig { faults: &plan, ..plain() };
        let (out, c_out) = run_sealed_chain(n, 4, &cfg).unwrap();
        let last = DataRef { i: n - 1, j: 0 };
        assert_eq!(
            out.stores[out.exec_rank[n - 1]][&last],
            (n as i64, n as i64)
        );
        assert_eq!(c_out.counter(Counter::MessagesCorrupted), 0);
        assert_eq!(c_out.counter(Counter::CorruptionsDetected), 0);
        assert_eq!(c_out.counter(Counter::NacksSent), 0);
        assert_eq!(c_out.counter(Counter::CorruptionsHealed), 0);
    }

    /// Healing is bounded: when every re-execution meets a fresh flip
    /// (one strike per virtual second on the same tile), the datum
    /// escalates to a typed [`FtError::Integrity`] after the heal budget,
    /// never a panic.
    #[test]
    fn heal_escalation_is_a_typed_error() {
        let faults = (0..400).fold(FaultPlan::new(5), |p, s| {
            p.with_store_corruption(0, 1, 0, 2.5 + s as f64)
        });
        let cfg = DistConfig { faults: &faults, ..plain() };
        let err = run_sealed_chain(4, 1, &cfg).unwrap_err();
        match err {
            EngineError::Fault(FtError::Integrity(e)) => {
                assert_eq!(e.rank, 0);
                assert_eq!(e.data, (1, 0));
                assert_eq!(e.attempts, MAX_HEAL_RETRIES);
            }
            other => panic!("expected integrity escalation, got {other:?}"),
        }
    }

    /// Without hooks the corruption entries of a plan are inert: the
    /// engine has no way to flip bits of an opaque payload.
    #[test]
    fn corruption_plan_is_inert_without_hooks() {
        let n = 6;
        let plan = FaultPlan::new(4)
            .with_message_corruption(0.9)
            .with_store_corruption(0, 1, 0, 2.5);
        let cfg = DistConfig { faults: &plan, ..plain() };
        let (out, c_out) = run_chain(n, 2, &cfg).unwrap();
        assert_eq!(chain_result(&out, n), n as i64);
        assert_eq!(c_out.counter(Counter::MessagesCorrupted), 0);
        assert_eq!(c_out.counter(Counter::StoreCorruptionsInjected), 0);
        assert_eq!(c_out.counter(Counter::CorruptionsDetected), 0);
    }

    /// Integrity composes with the crash fault layer and the trace
    /// capability in one run.
    #[test]
    fn integrity_composes_with_crashes_and_trace() {
        let n = 12;
        let plan = FaultPlan::new(13)
            .with_message_corruption(0.3)
            .with_store_corruption(0, 0, 0, 1.5)
            .with_crash(1, 6.0);
        let cfg = DistConfig { faults: &plan, record_trace: true, ..plain() };
        let (out, c_out) = run_sealed_chain(n, 4, &cfg).unwrap();
        let last = DataRef { i: n - 1, j: 0 };
        assert_eq!(
            out.stores[out.exec_rank[n - 1]][&last],
            (n as i64, n as i64)
        );
        assert_eq!(c_out.counter(Counter::Crashes), 1);
        assert!(out.trace.is_some());
        assert!(out
            .events
            .iter()
            .any(|e| matches!(e, RunEvent::Crash { .. })));
    }

    /// Misconfiguration is a typed error, not a panic.
    #[test]
    fn invalid_configs_are_typed_errors() {
        let g = dist_chain(4);
        let initial4: Vec<HashMap<DataRef, i64>> = vec![HashMap::new(); 4];
        let body = |_t: TaskId, _ctx: &mut RankCtx<'_, i64>| {};

        // Wrong rank-map length.
        let err = DistEngine::new(&g, 4, &[0, 1])
            .run(initial4.clone(), &plain(), None, body)
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::RankMapLength {
                expected: 4,
                got: 2
            }
        );

        // Wrong store count.
        let err = DistEngine::new(&g, 4, &[0, 1, 2, 3])
            .run(vec![HashMap::new(); 2], &plain(), None, body)
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::StoreCount {
                expected: 4,
                got: 2
            }
        );

        // Rank out of range.
        let err = DistEngine::new(&g, 4, &[0, 1, 2, 9])
            .run(initial4.clone(), &plain(), None, body)
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::InvalidRank {
                task: 3,
                rank: 9,
                nprocs: 4
            }
        );

        // Crash of a nonexistent rank.
        let faults = FaultPlan::new(0).with_crash(7, 1.0);
        let err = DistEngine::new(&g, 4, &[0, 1, 2, 3])
            .run(
                initial4,
                &DistConfig { faults: &faults, ..plain() },
                None,
                body,
            )
            .unwrap_err();
        assert_eq!(err, EngineError::InvalidCrashRank { rank: 7, nprocs: 4 });
    }

    // ---------------- message passing ----------------

    fn run_dist<P: Clone, F: Fn(TaskId, &mut RankCtx<'_, P>)>(
        graph: &TaskGraph,
        nprocs: usize,
        exec: &[usize],
        initial: Vec<HashMap<DataRef, P>>,
        body: F,
    ) -> Vec<HashMap<DataRef, P>> {
        DistEngine::new(graph, nprocs, exec)
            .run(initial, &plain(), None, body)
            .expect("run must succeed")
            .stores
    }

    /// Sum-chain across ranks: task k computes v_k = v_{k-1} + 1, each on
    /// a different rank; the payload must travel through every rank.
    #[test]
    fn chain_across_ranks() {
        let n = 12usize;
        let nprocs = 4usize;
        let mut g = GraphBuilder::new();
        for k in 0..n {
            g.add_task(dspec(DataRef { i: k, j: 0 }));
        }
        for k in 0..n - 1 {
            g.add_edge(k, k + 1);
        }
        let g = g.finish();
        let exec: Vec<usize> = (0..n).map(|k| k % nprocs).collect();
        let mut initial: Vec<HashMap<DataRef, i64>> = vec![HashMap::new(); nprocs];
        initial[0].insert(DataRef { i: 0, j: 0 }, 0); // seed... overwritten by task 0
        let stores = run_dist(&g, nprocs, &exec, initial, |t, ctx| {
            let v = if t == 0 {
                1
            } else {
                // the predecessor's payload was shipped (or is local)
                *ctx.get(Some(t - 1), DataRef { i: t - 1, j: 0 }) + 1
            };
            ctx.put(DataRef { i: t, j: 0 }, v);
        });
        // task n−1 ran on rank (n−1)%nprocs and stored v = n
        let last_rank = (n - 1) % nprocs;
        assert_eq!(stores[last_rank][&DataRef { i: n - 1, j: 0 }], n as i64);
    }

    /// Broadcast: one producer, many consumers on all ranks; every
    /// consumer must observe the produced value.
    #[test]
    fn broadcast_to_all_ranks() {
        let nprocs = 5usize;
        let consumers = 16usize;
        let mut g = GraphBuilder::new();
        let root = g.add_task(dspec(DataRef { i: 0, j: 0 }));
        let data = DataRef { i: 0, j: 0 };
        for c in 0..consumers {
            let t = g.add_task(dspec(DataRef { i: 1 + c, j: 0 }));
            g.add_edge(root, t);
        }
        let g = g.finish();
        let mut exec = vec![0usize];
        exec.extend((0..consumers).map(|c| c % nprocs));
        let initial: Vec<HashMap<DataRef, i64>> = vec![HashMap::new(); nprocs];
        let stores = run_dist(&g, nprocs, &exec, initial, move |t, ctx| {
            if t == 0 {
                ctx.put(data, 42);
            } else {
                let v = *ctx.get(Some(0), data);
                ctx.put(DataRef { i: t, j: 0 }, v * 2);
            }
        });
        let mut seen = 0;
        for s in &stores {
            for (d, v) in s {
                if d.i >= 1 {
                    assert_eq!(*v, 84);
                    seen += 1;
                }
            }
        }
        assert_eq!(seen, consumers);
    }

    /// Out-of-order arrivals: two producers on different ranks feed one
    /// consumer; deliveries land in whatever virtual-time order the
    /// latencies dictate and must be held per consumer until it is ready.
    #[test]
    fn out_of_order_messages_parked() {
        let mut g = GraphBuilder::new();
        let a = g.add_task(dspec(DataRef { i: 0, j: 0 }));
        let b = g.add_task(dspec(DataRef { i: 1, j: 0 }));
        let c = g.add_task(dspec(DataRef { i: 2, j: 0 }));
        g.add_edge(a, c);
        g.add_edge(b, c);
        let g = g.finish();
        let exec = vec![0, 1, 2];
        let initial: Vec<HashMap<DataRef, i64>> = vec![HashMap::new(); 3];
        let stores = run_dist(&g, 3, &exec, initial, move |t, ctx| match t {
            0 => ctx.put(DataRef { i: 0, j: 0 }, 7),
            1 => ctx.put(DataRef { i: 1, j: 0 }, 11),
            _ => {
                let x = *ctx.get(Some(0), DataRef { i: 0, j: 0 });
                let y = *ctx.get(Some(1), DataRef { i: 1, j: 0 });
                ctx.put(DataRef { i: 2, j: 0 }, x * y);
            }
        });
        assert_eq!(stores[2][&DataRef { i: 2, j: 0 }], 77);
    }

    /// Two consumers of the same datum on one rank, with one consumer
    /// gated behind a slower producer: each consumer's copy must be held
    /// independently. (Under the old thread engine the shared parking
    /// table was a multiset for exactly this scenario; the unified
    /// engine's per-consumer inboxes make it structural.)
    #[test]
    fn duplicate_parked_messages_are_not_lost() {
        let mut g = GraphBuilder::new();
        let fast = g.add_task(dspec(DataRef { i: 0, j: 0 })); // rank 1
        let slow = g.add_task(dspec(DataRef { i: 1, j: 0 })); // rank 2
        // rank 0's first task waits on `slow`, so both copies of `fast`'s
        // payload arrive before their consumers run.
        let gate = g.add_task(dspec(DataRef { i: 2, j: 0 }));
        let c1 = g.add_task(dspec(DataRef { i: 3, j: 0 }));
        let c2 = g.add_task(dspec(DataRef { i: 4, j: 0 }));
        let d_fast = DataRef { i: 0, j: 0 };
        let d_slow = DataRef { i: 1, j: 0 };
        g.add_edge(slow, gate);
        g.add_edge(fast, c1);
        g.add_edge(fast, c2);
        g.add_edge(gate, c1);
        let g = g.finish();

        let exec = vec![1, 2, 0, 0, 0];
        let initial: Vec<HashMap<DataRef, i64>> = vec![HashMap::new(); 3];
        let stores = run_dist(&g, 3, &exec, initial, move |t, ctx| match t {
            0 => ctx.put(d_fast, 5),
            1 => ctx.put(d_slow, 7),
            2 => {
                let v = *ctx.get(Some(1), d_slow);
                ctx.put(DataRef { i: 2, j: 0 }, v);
            }
            3 => {
                let v = *ctx.get(Some(0), d_fast) * 10;
                ctx.put(DataRef { i: 3, j: 0 }, v);
            }
            _ => {
                let v = *ctx.get(Some(0), d_fast) * 100;
                ctx.put(DataRef { i: 4, j: 0 }, v);
            }
        });
        assert_eq!(stores[0][&DataRef { i: 3, j: 0 }], 50);
        assert_eq!(stores[0][&DataRef { i: 4, j: 0 }], 500);
    }

    // ---------------- fault layer ----------------

    /// [`run_chain`] under a fault plan: the final value n proves every
    /// hop happened exactly once with the right payload.
    fn run_chain_ft(n: usize, nprocs: usize, faults: &FaultPlan) -> Counted<i64> {
        run_chain(n, nprocs, &DistConfig { faults, ..plain() })
    }

    #[test]
    fn ft_fault_free_matches_default_config() {
        let (out, c_out) = run_chain_ft(12, 4, &FaultPlan::none()).unwrap();
        assert_eq!(chain_result(&out, 12), 12);
        assert_eq!(c_out.counter(Counter::Retransmissions), 0);
        assert_eq!(c_out.counter(Counter::Crashes), 0);
        assert!(out.makespan > 0.0);
    }

    #[test]
    fn ft_survives_drops_duplicates_and_jitter() {
        let plan = FaultPlan::new(42)
            .with_drops(0.35)
            .with_duplicates(0.30)
            .with_ack_drops(0.25)
            .with_jitter(2.0);
        let (out, c_out) = run_chain_ft(16, 4, &plan).unwrap();
        assert_eq!(chain_result(&out, 16), 16, "faults must not corrupt the data");
        assert!(c_out.counter(Counter::Retransmissions) > 0, "drops at 35% must force retransmits");
        assert!(c_out.counter(Counter::MessagesDropped) > 0);
    }

    #[test]
    fn ft_recovers_from_mid_run_crash() {
        // By t = 6.0 rank 1 has completed task 1 (and its message);
        // killing it forces migration to rank 2 and re-execution.
        let plan = FaultPlan::new(1).with_crash(1, 6.0);
        let (out, c_out) = run_chain_ft(12, 4, &plan).unwrap();
        assert_eq!(chain_result(&out, 12), 12, "crash recovery must preserve the data");
        assert_eq!(c_out.counter(Counter::Crashes), 1);
        assert!(c_out.counter(Counter::TasksMigrated) >= 3, "rank 1 owned tasks 1, 5, 9");
        assert!(c_out.counter(Counter::TasksReexecuted) >= 1, "task 1 was already done");
        assert!(out.exec_rank.iter().all(|&r| r != 1), "nothing may stay on the dead rank");
        // Re-execution happens in parallel on the survivor, so a chain's
        // makespan may be unchanged — but it can never shrink.
        let (baseline, _) = run_chain_ft(12, 4, &FaultPlan::none()).unwrap();
        assert!(out.makespan >= baseline.makespan);
    }

    #[test]
    fn ft_crash_plus_lossy_network() {
        let plan = FaultPlan::new(9)
            .with_drops(0.25)
            .with_duplicates(0.2)
            .with_jitter(1.0)
            .with_crash(2, 8.0);
        let (out, c_out) = run_chain_ft(16, 4, &plan).unwrap();
        assert_eq!(chain_result(&out, 16), 16);
        assert_eq!(c_out.counter(Counter::Crashes), 1);
    }

    #[test]
    fn ft_double_crash_still_recovers() {
        let plan = FaultPlan::new(4).with_crash(1, 5.0).with_crash(2, 11.0);
        let (out, c_out) = run_chain_ft(12, 4, &plan).unwrap();
        assert_eq!(chain_result(&out, 12), 12);
        assert_eq!(c_out.counter(Counter::Crashes), 2);
    }

    /// Every surviving crash is paired with a recovery event naming a
    /// live survivor, in virtual-time order; bytes are accounted.
    #[test]
    fn ft_events_pair_crashes_with_recoveries() {
        let plan = FaultPlan::new(4).with_drops(0.2).with_crash(1, 5.0).with_crash(2, 11.0);
        let (out, c_out) = run_chain_ft(12, 4, &plan).unwrap();
        assert_eq!(out.events.len() as u64, 2 * c_out.counter(Counter::Crashes));
        let mut last_at = 0.0_f64;
        for pair in out.events.chunks(2) {
            let RunEvent::Crash { rank, at } = pair[0] else {
                panic!("even-index event must be a crash: {:?}", pair[0]);
            };
            let RunEvent::Recovery { failed, survivor, at: rat } = pair[1] else {
                panic!("odd-index event must be a recovery: {:?}", pair[1]);
            };
            assert_eq!(failed, rank, "recovery must name the crashed rank");
            assert_ne!(survivor, rank);
            assert_eq!(at, rat, "recovery is immediate in virtual time");
            assert!(at >= last_at);
            last_at = at;
        }
        assert_eq!(out.comm.bytes, 8 * out.comm.messages, "every message is one 8-byte tile");
    }

    #[test]
    fn ft_all_ranks_crashed_is_an_error() {
        let plan = FaultPlan::new(0).with_crash(0, 2.0).with_crash(1, 3.0);
        let err = run_chain_ft(8, 2, &plan).unwrap_err();
        assert_eq!(err, EngineError::Fault(FtError::AllRanksCrashed));
    }

    #[test]
    fn ft_kernel_failures_retry_then_succeed() {
        let plan = FaultPlan::new(0).with_kernel_failure(3, 2);
        let (out, c_out) = run_chain_ft(8, 2, &plan).unwrap();
        assert_eq!(chain_result(&out, 8), 8);
        assert_eq!(c_out.counter(Counter::KernelFailures), 2);
    }

    #[test]
    fn ft_kernel_retries_exhaust() {
        let plan = FaultPlan::new(0).with_kernel_failure(3, 99);
        let err = run_chain_ft(8, 2, &plan).unwrap_err();
        assert_eq!(err, EngineError::Fault(FtError::KernelRetriesExhausted { task: 3 }));
    }

    #[test]
    fn ft_is_deterministic() {
        let mk = || {
            FaultPlan::new(77)
                .with_drops(0.3)
                .with_duplicates(0.25)
                .with_ack_drops(0.2)
                .with_jitter(1.5)
                .with_crash(1, 7.0)
        };
        let (a, c_a) = run_chain_ft(14, 4, &mk()).unwrap();
        let (b, c_b) = run_chain_ft(14, 4, &mk()).unwrap();
        assert_eq!(chain_result(&a, 14), chain_result(&b, 14));
        assert_eq!(c_a, c_b, "same seed must replay the same faults");
        assert_eq!(a.comm, b.comm);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.exec_rank, b.exec_rank);
    }

    #[test]
    fn ft_fan_out_fan_in_under_faults() {
        // root → 10 middles (round-robin ranks) → sink summing them all;
        // exercises broadcast replay and many-input gathering.
        let width = 10usize;
        let nprocs = 4usize;
        let mut g = GraphBuilder::new();
        let root = g.add_task(dspec(DataRef { i: 0, j: 0 }));
        let sink_data = DataRef { i: 99, j: 0 };
        let mut mids = Vec::new();
        for m in 0..width {
            let t = g.add_task(dspec(DataRef { i: 1 + m, j: 0 }));
            g.add_edge(root, t);
            mids.push(t);
        }
        let sink = g.add_task(dspec(sink_data));
        for &t in &mids {
            g.add_edge(t, sink);
        }
        let g = g.finish();
        let mut exec = vec![0usize];
        exec.extend((0..width).map(|m| m % nprocs));
        exec.push(0);
        let initial: Vec<HashMap<DataRef, i64>> = vec![HashMap::new(); nprocs];
        let plan = FaultPlan::new(5)
            .with_drops(0.3)
            .with_duplicates(0.3)
            .with_jitter(1.0)
            .with_crash(2, 3.0);
        let dcfg = DistConfig { faults: &plan, ..plain() };
        let out = DistEngine::new(&g, nprocs, &exec)
            .run(initial, &dcfg, None, |t, ctx| {
                if t == root {
                    ctx.put(DataRef { i: 0, j: 0 }, 7);
                } else if t == sink {
                    let mut sum = 0;
                    for m in 0..width {
                        sum += *ctx.get(Some(1 + m), DataRef { i: 1 + m, j: 0 });
                    }
                    ctx.put(sink_data, sum);
                } else {
                    let v = *ctx.get(Some(root), DataRef { i: 0, j: 0 }) * 2;
                    ctx.put(DataRef { i: t, j: 0 }, v);
                }
            })
            .unwrap();
        let v = out.stores[out.exec_rank[sink]][&sink_data];
        assert_eq!(v, (7 * 2) * width as i64);
    }

    #[test]
    fn ft_many_seeds_never_corrupt() {
        for seed in 0..25u64 {
            let plan = FaultPlan::new(seed)
                .with_drops(0.3)
                .with_duplicates(0.25)
                .with_ack_drops(0.2)
                .with_jitter(1.5)
                .with_crash((seed % 3) as usize + 1, 4.0 + (seed % 7) as f64);
            let (out, _) = run_chain_ft(12, 4, &plan)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(chain_result(&out, 12), 12, "seed {seed} corrupted the chain");
        }
    }

    /// A task whose input was never wired panics with the diagnostic.
    #[test]
    fn missing_edge_panics_with_diagnostic() {
        let mut g = GraphBuilder::new();
        let _a = g.add_task(dspec(DataRef { i: 0, j: 0 }));
        let _b = g.add_task(dspec(DataRef { i: 1, j: 0 }));
        let g = g.finish();
        // no edge a → b although b reads a's datum
        let exec = vec![0, 1];
        let initial: Vec<HashMap<DataRef, i64>> = vec![HashMap::new(); 2];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let cfg = plain();
            let _ = DistEngine::new(&g, 2, &exec).run(initial, &cfg, None, |t, ctx| {
                if t == 0 {
                    ctx.put(DataRef { i: 0, j: 0 }, 1);
                } else {
                    let _ = ctx.get(None, DataRef { i: 0, j: 0 }); // not local on rank 1!
                }
            });
        }));
        assert!(result.is_err(), "missing dependency must be caught");
    }

    /// A producer that never `put`s the datum its outgoing edge names is
    /// the same diagnostic — the engine ships what the edge names out of
    /// the store, never a silent stand-in.
    #[test]
    fn unput_edge_datum_panics_with_the_same_diagnostic() {
        let g = dist_chain(2);
        let initial: Vec<HashMap<DataRef, i64>> = vec![HashMap::new(); 2];
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let cfg = plain();
            let _ = DistEngine::new(&g, 2, &[0, 1]).run(initial, &cfg, None, |_, _| {});
        }))
        .expect_err("an edge whose datum was never put must be caught");
        let msg = payload
            .downcast_ref::<String>()
            .expect("panic carries a message");
        assert!(msg.contains("rank 0: datum (0, 0)"), "{msg}");
        assert!(msg.contains("missing dependency edge"), "{msg}");
    }
}
