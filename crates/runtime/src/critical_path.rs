//! Critical-path (longest-path) analysis.
//!
//! §VIII-G of the paper uses the compute-only critical path as an
//! *optimistic roofline*: with infinite resources and free communication,
//! the factorization can never finish faster than the longest dependency
//! chain of kernel executions. The reported "efficiency" is
//! `critical_path_time / achieved_time`.

use crate::graph::{Dataflow, TaskId};

/// Result of a longest-path computation.
#[derive(Debug, Clone)]
pub struct CriticalPath {
    /// Total duration of the longest chain, seconds.
    pub length: f64,
    /// The chain itself, source → sink.
    pub tasks: Vec<TaskId>,
}

/// Compute the longest path through `graph` where task `t` costs
/// `duration(t)` seconds and edges are free (compute-only bound).
/// `duration` is called once per task, in id order (a topological order:
/// every edge runs to a higher id).
pub fn critical_path(graph: &impl Dataflow, duration: impl Fn(TaskId) -> f64) -> CriticalPath {
    let n = graph.len();
    if n == 0 {
        return CriticalPath { length: 0.0, tasks: vec![] };
    }
    // start[t] = latest end over t's predecessors (0 for a source);
    // start[t] + duration(t) is the longest path ending at t, and pred[t]
    // the predecessor it came through (`NONE` for a source). Rounding is
    // monotone, so `max(a) + d` is `max(a + d)` bit for bit. The sink is
    // the last task in id order with the greatest end.
    const NONE: TaskId = TaskId::MAX;
    let mut start = vec![0.0_f64; n];
    let mut pred = vec![NONE; n];
    let (mut sink, mut length) = (0, 0.0_f64);
    let mut successors = Vec::new();
    for t in 0..n {
        let end = start[t] + duration(t);
        if end >= length {
            (sink, length) = (t, end);
        }
        graph.successors_into(t, &mut successors);
        for &dst in &successors {
            debug_assert!(dst > t, "edge {t} → {dst} runs backwards");
            if end > start[dst] {
                start[dst] = end;
                pred[dst] = t;
            }
        }
    }
    let mut tasks = vec![sink];
    let mut cur = sink;
    while pred[cur] != NONE {
        cur = pred[cur];
        tasks.push(cur);
    }
    tasks.reverse();
    CriticalPath { length, tasks }
}

/// `cp / makespan`, the §VIII-G efficiency against the critical-path
/// bound, clamped to `[0, 1]`: the one convention of every report that
/// prints it, real runs and simulated ones. A non-finite or non-positive
/// bound, or a non-finite or non-positive makespan, gives 0 instead of
/// dividing.
pub fn cp_efficiency(cp: f64, makespan: f64) -> f64 {
    if cp.is_finite() && cp > 0.0 && makespan.is_finite() && makespan > 0.0 {
        (cp / makespan).clamp(0.0, 1.0)
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{GraphBuilder, TaskClass, TaskGraph, TaskSpec};

    fn graph(n: usize, edges: &[(TaskId, TaskId)]) -> TaskGraph {
        let mut g = GraphBuilder::new();
        for _ in 0..n {
            g.add_task(TaskSpec { class: TaskClass::Other, writes: None, bytes: 0 });
        }
        for &(s, d) in edges {
            g.add_edge(s, d);
        }
        g.finish()
    }

    #[test]
    fn chain_length_is_sum() {
        let g = graph(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let cp = critical_path(&g, |_| 2.0);
        assert_eq!(cp.length, 10.0);
        assert_eq!(cp.tasks, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn picks_longer_branch() {
        // 0 → 1 → 3 (cheap branch), 0 → 2 → 3 (expensive branch)
        let g = graph(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let dur = |t: TaskId| if t == 2 { 10.0 } else { 1.0 };
        let cp = critical_path(&g, dur);
        assert_eq!(cp.length, 12.0);
        assert_eq!(cp.tasks, vec![0, 2, 3]);
    }

    #[test]
    fn picks_longer_branch_through_the_lower_id() {
        // 0 → 2 → 3 (cheap branch), 0 → 1 → 3 (expensive branch)
        let g = graph(4, &[(0, 2), (0, 1), (2, 3), (1, 3)]);
        let dur = |t: TaskId| if t == 1 { 10.0 } else { 1.0 };
        let cp = critical_path(&g, dur);
        assert_eq!(cp.length, 12.0);
        assert_eq!(cp.tasks, vec![0, 1, 3]);
    }

    #[test]
    fn disconnected_components() {
        // no edges: longest path = max single duration
        let g = graph(3, &[]);
        let cp = critical_path(&g, |t| (t + 1) as f64);
        assert_eq!(cp.length, 3.0);
        assert_eq!(cp.tasks, vec![2]);
    }

    #[test]
    fn a_tie_ends_at_the_last_sink_in_id_order() {
        // 0 → 2 and 1 → 3 are equally long: the sink is the higher id.
        let g = graph(4, &[(0, 2), (1, 3)]);
        let cp = critical_path(&g, |_| 1.0);
        assert_eq!(cp.length, 2.0);
        assert_eq!(cp.tasks, vec![1, 3]);
    }

    #[test]
    fn empty_graph_zero() {
        let g = graph(0, &[]);
        let cp = critical_path(&g, |_| 1.0);
        assert_eq!(cp.length, 0.0);
        assert!(cp.tasks.is_empty());
    }

    #[test]
    fn cp_efficiency_guards_degenerate_inputs() {
        // Normal case: the bound over the makespan.
        assert_eq!(cp_efficiency(1.0, 2.0), 0.5);
        // NaN / Inf / non-positive bounds give 0.
        for bad in [f64::NAN, f64::INFINITY, -1.0, 0.0] {
            assert_eq!(cp_efficiency(bad, 2.0), 0.0, "{bad}");
        }
        // A zero or NaN makespan (an empty trace): no division, 0.
        assert_eq!(cp_efficiency(1.0, 0.0), 0.0);
        assert_eq!(cp_efficiency(1.0, f64::NAN), 0.0);
        // A bound exceeding the makespan clamps to 1.
        assert_eq!(cp_efficiency(1e9, 2.0), 1.0);
    }
}
