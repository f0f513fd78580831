//! Dense tile Cholesky written as a Parameterized Task Graph (§IV-A).
//!
//! The same JDF-style program the paper's runtime consumes: four task
//! classes with symbolic dataflow, unrolled by the PTG front-end and
//! executed — with real numerics — on the work-stealing executor. The
//! result is validated against a monolithic dense Cholesky.
//!
//! Run with: `cargo run --release --example ptg_cholesky`

use hicma_parsec::linalg::{gemm, potrf, trsm, Matrix, Side, Trans, Uplo};
use hicma_parsec::runtime::{Engine, EngineConfig};
use hicma_parsec::runtime::ptg::dense_cholesky_ptg;
use parking_lot::RwLock;

fn main() {
    let nt = 8usize;
    let b = 64usize;
    let n = nt * b;

    // SPD test matrix: Gaussian kernel + diagonal shift.
    let a_dense = Matrix::from_fn(n, n, |i, j| {
        let d = (i as f64 - j as f64) / (n as f64 / 6.0);
        (-d * d).exp() + if i == j { 1e-2 } else { 0.0 }
    });

    // Tile storage (full lower triangle).
    let lower = |i: usize, j: usize| i * (i + 1) / 2 + j;
    let tiles: Vec<RwLock<Matrix>> = (0..nt)
        .flat_map(|i| (0..=i).map(move |j| (i, j)))
        .map(|(i, j)| RwLock::new(a_dense.submatrix(i * b, j * b, b, b)))
        .collect();

    // Unroll the symbolic program.
    let program = dense_cholesky_ptg(nt, b);
    let unrolled = program.unroll().expect("valid JDF");
    println!(
        "PTG program: {} classes, {} task instances, {} dependencies",
        4,
        unrolled.graph.len(),
        unrolled.graph.num_edges()
    );

    // Execute: the class name + parameters identify the kernel.
    let t0 = std::time::Instant::now();
    Engine::new(&unrolled.graph).run(&EngineConfig::new(4), |_wid, t| {
        let p = unrolled.params_of(t);
        match unrolled.class_of(t) {
            "POTRF" => {
                let mut c = tiles[lower(p[0], p[0])].write();
                potrf(&mut *c).expect("SPD");
                c.zero_upper();
            }
            "TRSM" => {
                let l = tiles[lower(p[0], p[0])].read();
                let mut x = tiles[lower(p[1], p[0])].write();
                trsm(Side::Right, Uplo::Lower, Trans::Yes, 1.0, &*l, &mut *x);
            }
            "SYRK" => {
                let a = tiles[lower(p[1], p[0])].read();
                let mut c = tiles[lower(p[1], p[1])].write();
                gemm(Trans::No, Trans::Yes, -1.0, &*a, &*a, 1.0, &mut *c);
            }
            "GEMM" => {
                let (k, m, nn) = (p[0], p[1], p[2]);
                let am = tiles[lower(m, k)].read();
                let bm = tiles[lower(nn, k)].read();
                let mut c = tiles[lower(m, nn)].write();
                gemm(Trans::No, Trans::Yes, -1.0, &*am, &*bm, 1.0, &mut *c);
            }
            other => unreachable!("unknown class {other}"),
        }
    })
    .expect("acyclic graph, panic-free kernels");
    println!("executed in {:.3}s on 4 workers", t0.elapsed().as_secs_f64());

    // Reassemble L and validate ‖A − LLᵀ‖/‖A‖.
    let mut l = Matrix::zeros(n, n);
    for i in 0..nt {
        for j in 0..=i {
            l.set_submatrix(i * b, j * b, &tiles[lower(i, j)].read());
        }
    }
    for j in 0..n {
        for i in 0..j {
            l[(i, j)] = 0.0;
        }
    }
    let mut recon = Matrix::zeros(n, n);
    gemm(Trans::No, Trans::Yes, 1.0, &l, &l, 0.0, &mut recon);
    let res = hicma_parsec::linalg::relative_diff(&recon, &a_dense);
    println!("‖A − LLᵀ‖/‖A‖ = {res:.3e}");
    assert!(res < 1e-12, "PTG-driven factorization must be exact");
    println!("ptg_cholesky OK");
}
