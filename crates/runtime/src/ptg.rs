//! A Parameterized Task Graph (PTG) front-end.
//!
//! PaRSEC's native DSL (§IV-A) describes an algorithm as a small set of
//! *task classes*, each with a parameter space and symbolic dataflow
//! rules — the famous JDF files. The runtime never materializes the whole
//! DAG up front; here, for simulation and shared-memory execution, we
//! unroll the symbolic description into an explicit [`TaskGraph`], which
//! is exactly what PaRSEC's engine effectively traverses.
//!
//! A class is described by three closures:
//!
//! * `space` — enumerate the parameter tuples of all instances
//!   (`(k, m, n)`; unused trailing parameters are 0),
//! * `spec` — the task's class/priority/output/flops,
//! * `deps` — the *incoming* dataflow: which instances of which classes
//!   feed this instance, and what datum/bytes flow along each edge.
//!
//! The unroller resolves symbolic references to task ids and checks that
//! every referenced instance exists — the same error a JDF programmer
//! gets from PaRSEC's compiler.
//!
//! ```
//! use tlr_runtime::ptg::{PtgClass, PtgProgram, Dep, Params};
//! use tlr_runtime::graph::{DataRef, TaskClass, TaskSpec};
//!
//! // A two-class pipeline: produce(k) → consume(k)
//! let n = 4usize;
//! let program = PtgProgram::new(vec![
//!     PtgClass {
//!         name: "produce",
//!         space: Box::new(move || (0..n).map(|k| [k, 0, 0]).collect()),
//!         spec: Box::new(|p| TaskSpec {
//!             class: TaskClass::Other, priority: p[0],
//!             writes: Some(DataRef { i: p[0], j: 0 }), flops: 1.0 }),
//!         deps: Box::new(|_| vec![]),
//!     },
//!     PtgClass {
//!         name: "consume",
//!         space: Box::new(move || (0..n).map(|k| [k, 0, 0]).collect()),
//!         spec: Box::new(|p| TaskSpec {
//!             class: TaskClass::Other, priority: p[0],
//!             writes: None, flops: 1.0 }),
//!         deps: Box::new(|p| vec![Dep {
//!             class: "produce", params: [p[0], 0, 0],
//!             data: DataRef { i: p[0], j: 0 }, bytes: 8 }]),
//!     },
//! ]);
//! let unrolled = program.unroll().unwrap();
//! assert_eq!(unrolled.graph.len(), 8);
//! assert_eq!(unrolled.graph.num_edges(), 4);
//! ```

use crate::graph::{DataRef, GraphBuilder, TaskGraph, TaskId, TaskSpec};
use std::collections::HashMap;

/// Parameter tuple of one task instance (unused entries are 0).
pub type Params = [usize; 3];

/// A symbolic incoming dependency of a task instance.
#[derive(Debug, Clone)]
pub struct Dep {
    /// Name of the producing task class.
    pub class: &'static str,
    /// Parameters of the producing instance.
    pub params: Params,
    /// Datum flowing along the edge.
    pub data: DataRef,
    /// Payload bytes (0 = control dependency).
    pub bytes: u64,
}

/// Symbolic dataflow of one task instance: its incoming dependencies.
pub type DepsFn = Box<dyn Fn(&Params) -> Vec<Dep>>;

/// One parameterized task class (the PTG analog of a JDF task type).
pub struct PtgClass {
    /// Class name; referenced by [`Dep::class`].
    pub name: &'static str,
    /// Enumerate all instances of this class.
    pub space: Box<dyn Fn() -> Vec<Params>>,
    /// Build the runtime spec of an instance.
    pub spec: Box<dyn Fn(&Params) -> TaskSpec>,
    /// Incoming dataflow of an instance.
    pub deps: DepsFn,
}

/// A whole PTG program: an ordered set of task classes.
pub struct PtgProgram {
    classes: Vec<PtgClass>,
}

/// Errors from unrolling a symbolic program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PtgError {
    /// A dependency referenced a class name that does not exist.
    UnknownClass(&'static str),
    /// A dependency referenced an instance outside its class's space.
    UnknownInstance(&'static str, Params),
    /// Two classes share a name.
    DuplicateClass(&'static str),
}

impl std::fmt::Display for PtgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PtgError::UnknownClass(c) => write!(f, "unknown task class `{c}`"),
            PtgError::UnknownInstance(c, p) => {
                write!(f, "no instance {c}({}, {}, {})", p[0], p[1], p[2])
            }
            PtgError::DuplicateClass(c) => write!(f, "duplicate task class `{c}`"),
        }
    }
}

impl std::error::Error for PtgError {}

/// The result of unrolling: the explicit graph plus the instance → id
/// lookup (useful for executing by class).
#[derive(Debug)]
pub struct Unrolled {
    /// The explicit dataflow graph.
    pub graph: TaskGraph,
    /// `(class index, params) → task id`.
    pub instances: HashMap<(usize, Params), TaskId>,
    /// `task id → (class index, params)` (inverse lookup for executors).
    pub identity: Vec<(usize, Params)>,
    /// Class names, indexed by class index.
    pub class_names: Vec<&'static str>,
}

impl Unrolled {
    /// Class name of a task.
    pub fn class_of(&self, t: TaskId) -> &'static str {
        self.class_names[self.identity[t].0]
    }

    /// Parameters of a task.
    pub fn params_of(&self, t: TaskId) -> Params {
        self.identity[t].1
    }
}

impl PtgProgram {
    /// Build a program from its classes.
    pub fn new(classes: Vec<PtgClass>) -> Self {
        Self { classes }
    }

    /// Materialize the explicit task graph; fails on dangling symbolic
    /// references or duplicate class names.
    pub fn unroll(&self) -> Result<Unrolled, PtgError> {
        let mut name_to_idx: HashMap<&'static str, usize> = HashMap::new();
        for (idx, c) in self.classes.iter().enumerate() {
            if name_to_idx.insert(c.name, idx).is_some() {
                return Err(PtgError::DuplicateClass(c.name));
            }
        }
        let mut graph = GraphBuilder::new();
        let mut instances: HashMap<(usize, Params), TaskId> = HashMap::new();
        let mut identity: Vec<(usize, Params)> = Vec::new();
        // First pass: create every instance.
        for (idx, c) in self.classes.iter().enumerate() {
            for p in (c.space)() {
                let id = graph.add_task((c.spec)(&p));
                instances.insert((idx, p), id);
                identity.push((idx, p));
            }
        }
        // Second pass: resolve dataflow.
        for (idx, c) in self.classes.iter().enumerate() {
            for p in (c.space)() {
                let dst = instances[&(idx, p)];
                for dep in (c.deps)(&p) {
                    let src_idx = *name_to_idx
                        .get(dep.class)
                        .ok_or(PtgError::UnknownClass(dep.class))?;
                    let src = *instances
                        .get(&(src_idx, dep.params))
                        .ok_or(PtgError::UnknownInstance(dep.class, dep.params))?;
                    graph.add_edge(src, dst, dep.data, dep.bytes);
                }
            }
        }
        // Ids run class by class and need not be topological (a POTRF
        // consumes a later class's SYRK); `finish` orders them once.
        Ok(Unrolled {
            graph: graph.finish(),
            instances,
            identity,
            class_names: self.classes.iter().map(|c| c.name).collect(),
        })
    }
}

/// The canonical demo program: dense tile Cholesky over `nt × nt` tiles
/// of size `b`, written exactly as its JDF reads. Used by tests to
/// cross-validate the hand-rolled builder in `hicma-core` and by the
/// `ptg_cholesky` example.
pub fn dense_cholesky_ptg(nt: usize, b: usize) -> PtgProgram {
    use crate::graph::TaskClass;
    let bytes_dense = (b * b * 8) as u64;
    let fl_potrf = (b * b * b) as f64 / 3.0;
    let fl_trsm = (b * b * b) as f64;
    let fl_syrk = (b * b * b) as f64;
    let fl_gemm = 2.0 * (b * b * b) as f64;

    PtgProgram::new(vec![
        PtgClass {
            name: "POTRF",
            space: Box::new(move || (0..nt).map(|k| [k, 0, 0]).collect()),
            spec: Box::new(move |p| TaskSpec {
                class: TaskClass::Potrf,
                priority: p[0],
                writes: Some(DataRef { i: p[0], j: p[0] }),
                flops: fl_potrf,
            }),
            deps: Box::new(move |p| {
                let k = p[0];
                if k == 0 {
                    vec![]
                } else {
                    // A[k][k] was last written by SYRK(k-1, k)
                    vec![Dep {
                        class: "SYRK",
                        params: [k - 1, k, 0],
                        data: DataRef { i: k, j: k },
                        bytes: bytes_dense,
                    }]
                }
            }),
        },
        PtgClass {
            name: "TRSM",
            space: Box::new(move || {
                (0..nt)
                    .flat_map(|k| (k + 1..nt).map(move |m| [k, m, 0]))
                    .collect()
            }),
            spec: Box::new(move |p| TaskSpec {
                class: TaskClass::Trsm,
                priority: p[0],
                writes: Some(DataRef { i: p[1], j: p[0] }),
                flops: fl_trsm,
            }),
            deps: Box::new(move |p| {
                let (k, m) = (p[0], p[1]);
                let mut d = vec![Dep {
                    class: "POTRF",
                    params: [k, 0, 0],
                    data: DataRef { i: k, j: k },
                    bytes: bytes_dense,
                }];
                if k > 0 {
                    // A[m][k] was last written by GEMM(k-1, m, k)
                    d.push(Dep {
                        class: "GEMM",
                        params: [k - 1, m, k],
                        data: DataRef { i: m, j: k },
                        bytes: bytes_dense,
                    });
                }
                d
            }),
        },
        PtgClass {
            name: "SYRK",
            space: Box::new(move || {
                (0..nt)
                    .flat_map(|k| (k + 1..nt).map(move |m| [k, m, 0]))
                    .collect()
            }),
            spec: Box::new(move |p| TaskSpec {
                class: TaskClass::Syrk,
                priority: p[0],
                writes: Some(DataRef { i: p[1], j: p[1] }),
                flops: fl_syrk,
            }),
            deps: Box::new(move |p| {
                let (k, m) = (p[0], p[1]);
                let mut d = vec![Dep {
                    class: "TRSM",
                    params: [k, m, 0],
                    data: DataRef { i: m, j: k },
                    bytes: bytes_dense,
                }];
                if k > 0 {
                    d.push(Dep {
                        class: "SYRK",
                        params: [k - 1, m, 0],
                        data: DataRef { i: m, j: m },
                        bytes: bytes_dense,
                    });
                }
                d
            }),
        },
        PtgClass {
            name: "GEMM",
            space: Box::new(move || {
                (0..nt)
                    .flat_map(|k| {
                        (k + 1..nt)
                            .flat_map(move |n| (n + 1..nt).map(move |m| [k, m, n]))
                    })
                    .collect()
            }),
            spec: Box::new(move |p| TaskSpec {
                class: TaskClass::Gemm,
                priority: p[0],
                writes: Some(DataRef { i: p[1], j: p[2] }),
                flops: fl_gemm,
            }),
            deps: Box::new(move |p| {
                let (k, m, n) = (p[0], p[1], p[2]);
                let mut d = vec![
                    Dep {
                        class: "TRSM",
                        params: [k, m, 0],
                        data: DataRef { i: m, j: k },
                        bytes: bytes_dense,
                    },
                    Dep {
                        class: "TRSM",
                        params: [k, n, 0],
                        data: DataRef { i: n, j: k },
                        bytes: bytes_dense,
                    },
                ];
                if k > 0 {
                    d.push(Dep {
                        class: "GEMM",
                        params: [k - 1, m, n],
                        data: DataRef { i: m, j: n },
                        bytes: bytes_dense,
                    });
                }
                d
            }),
        },
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TaskClass;

    #[test]
    fn doc_pipeline_unrolls() {
        // mirror of the doc example with different sizes
        let n = 6usize;
        let program = PtgProgram::new(vec![
            PtgClass {
                name: "produce",
                space: Box::new(move || (0..n).map(|k| [k, 0, 0]).collect()),
                spec: Box::new(|p| TaskSpec {
                    class: TaskClass::Other,
                    priority: p[0],
                    writes: Some(DataRef { i: p[0], j: 0 }),
                    flops: 1.0,
                }),
                deps: Box::new(|_| vec![]),
            },
            PtgClass {
                name: "consume",
                space: Box::new(move || (0..n).map(|k| [k, 0, 0]).collect()),
                spec: Box::new(|p| TaskSpec {
                    class: TaskClass::Other,
                    priority: p[0],
                    writes: None,
                    flops: 1.0,
                }),
                deps: Box::new(|p| {
                    vec![Dep {
                        class: "produce",
                        params: [p[0], 0, 0],
                        data: DataRef { i: p[0], j: 0 },
                        bytes: 8,
                    }]
                }),
            },
        ]);
        let u = program.unroll().unwrap();
        assert_eq!(u.graph.len(), 12);
        assert_eq!(u.graph.num_edges(), 6);
        assert!(u.graph.order().is_some());
        // identity lookups
        let id = u.instances[&(1, [3, 0, 0])];
        assert_eq!(u.class_of(id), "consume");
        assert_eq!(u.params_of(id), [3, 0, 0]);
    }

    #[test]
    fn dangling_reference_rejected() {
        let program = PtgProgram::new(vec![PtgClass {
            name: "lonely",
            space: Box::new(|| vec![[0, 0, 0]]),
            spec: Box::new(|_| TaskSpec {
                class: TaskClass::Other,
                priority: 0,
                writes: None,
                flops: 0.0,
            }),
            deps: Box::new(|_| {
                vec![Dep {
                    class: "ghost",
                    params: [0, 0, 0],
                    data: DataRef { i: 0, j: 0 },
                    bytes: 0,
                }]
            }),
        }]);
        assert_eq!(program.unroll().unwrap_err(), PtgError::UnknownClass("ghost"));
    }

    #[test]
    fn out_of_space_instance_rejected() {
        let program = PtgProgram::new(vec![
            PtgClass {
                name: "a",
                space: Box::new(|| vec![[0, 0, 0]]),
                spec: Box::new(|_| TaskSpec {
                    class: TaskClass::Other,
                    priority: 0,
                    writes: None,
                    flops: 0.0,
                }),
                deps: Box::new(|_| vec![]),
            },
            PtgClass {
                name: "b",
                space: Box::new(|| vec![[0, 0, 0]]),
                spec: Box::new(|_| TaskSpec {
                    class: TaskClass::Other,
                    priority: 0,
                    writes: None,
                    flops: 0.0,
                }),
                deps: Box::new(|_| {
                    vec![Dep {
                        class: "a",
                        params: [7, 0, 0], // does not exist
                        data: DataRef { i: 0, j: 0 },
                        bytes: 0,
                    }]
                }),
            },
        ]);
        assert_eq!(
            program.unroll().unwrap_err(),
            PtgError::UnknownInstance("a", [7, 0, 0])
        );
    }

    #[test]
    fn duplicate_class_rejected() {
        let mk = || PtgClass {
            name: "dup",
            space: Box::new(Vec::new),
            spec: Box::new(|_| TaskSpec {
                class: TaskClass::Other,
                priority: 0,
                writes: None,
                flops: 0.0,
            }),
            deps: Box::new(|_| vec![]),
        };
        let program = PtgProgram::new(vec![mk(), mk()]);
        assert_eq!(program.unroll().unwrap_err(), PtgError::DuplicateClass("dup"));
    }

    #[test]
    fn dense_cholesky_ptg_counts() {
        let nt = 6;
        let u = dense_cholesky_ptg(nt, 32).unroll().unwrap();
        let expect = nt + nt * (nt - 1) + nt * (nt - 1) * (nt - 2) / 6;
        assert_eq!(u.graph.len(), expect);
        assert!(u.graph.order().is_some());
        // every POTRF past the first has exactly one incoming edge
        for k in 1..nt {
            let id = u.instances[&(0, [k, 0, 0])];
            assert_eq!(u.graph.indegree(id), 1, "POTRF({k})");
        }
    }

    #[test]
    fn dense_cholesky_ptg_executes_in_dependency_order() {
        use crate::engine::{Engine, EngineConfig};
        use std::sync::atomic::{AtomicUsize, Ordering};
        let nt = 5;
        let u = dense_cholesky_ptg(nt, 16).unroll().unwrap();
        // panels must retire in order: record the max POTRF panel seen and
        // assert no TRSM of panel k runs before POTRF(k) retired.
        let potrf_done = AtomicUsize::new(0);
        let violations = AtomicUsize::new(0);
        Engine::new(&u.graph)
            .run(&EngineConfig::new(4), |_wid, t| match u.class_of(t) {
                "POTRF" => {
                    potrf_done.fetch_max(u.params_of(t)[0] + 1, Ordering::SeqCst);
                }
                "TRSM" if potrf_done.load(Ordering::SeqCst) <= u.params_of(t)[0] => {
                    violations.fetch_add(1, Ordering::SeqCst);
                }
                _ => {}
            })
            .unwrap();
        assert_eq!(violations.load(Ordering::SeqCst), 0);
    }
}
