//! Dense-layer goldens: the output bits of the dense kernels (`potrf`,
//! `trsm`, `syrk_serial`, `gemm_serial`), of `gemm_kernel` on each
//! operand-format pair, and of the TLR solves, recorded at the commit
//! before the dense layer moved from block copies to strided views. That
//! change — like any later one to how a block is *addressed* — must not
//! move a bit: the factor, every solve and `residual_sampled` depend on
//! it. The values are the same under `RAYON_NUM_THREADS=1` and
//! `TLR_MICROKERNEL=scalar`.
//!
//! On a mismatch the assertion prints each line that moved and then the
//! whole table.

use hicma_parsec::cholesky::{
    factorize, solve_refined, solve_tlr, solve_tlr_multi, tlr_matvec, FactorConfig,
};
use hicma_parsec::linalg::{gemm_serial, potrf, syrk_serial, trsm, Matrix, Side, Trans, Uplo};
use hicma_parsec::tlr::kernels::gemm_kernel;
use hicma_parsec::tlr::{CompressionConfig, Tile, TlrMatrix};
use std::fmt::Write as _;

fn fnv(words: impl Iterator<Item = u64>) -> u64 {
    words.fold(0xcbf29ce484222325, |h, w| (h ^ w).wrapping_mul(0x100000001b3))
}

fn bits(values: &[f64]) -> u64 {
    fnv(values.iter().map(|v| v.to_bits()))
}

/// Deterministic entries in `[-1, 1)` (an LCG, so no RNG crate decides
/// the bits).
fn rand_mat(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    Matrix::from_fn(rows, cols, |_, _| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    })
}

/// `X·Xᵀ/n + I` with entries written one by one, so the fixture does not
/// depend on any kernel under test.
fn spd(n: usize, seed: u64) -> Matrix {
    let x = rand_mat(n, n, seed);
    Matrix::from_fn(n, n, |i, j| {
        let dot: f64 = (0..n).map(|p| x[(i, p)] * x[(j, p)]).sum();
        dot / n as f64 + if i == j { 1.0 } else { 0.0 }
    })
}

fn lower(n: usize, seed: u64) -> Matrix {
    let mut l = rand_mat(n, n, seed);
    for j in 0..n {
        for i in 0..j {
            l[(i, j)] = 0.0;
        }
        l[(j, j)] = 2.0 + l[(j, j)].abs();
    }
    l
}

fn shape(t: Trans, rows: usize, cols: usize) -> (usize, usize) {
    match t {
        Trans::No => (rows, cols),
        Trans::Yes => (cols, rows),
    }
}

fn tile_bits(t: &Tile) -> String {
    match t {
        Tile::Dense(m) => format!("dense {:#018x}", bits(m.as_slice())),
        Tile::LowRank { u, v } => format!(
            "lowrank k={} u={:#018x} v={:#018x}",
            u.cols(),
            bits(u.as_slice()),
            bits(v.as_slice())
        ),
        Tile::Null { .. } => "null".to_string(),
    }
}

/// A `rows × k` factor whose columns decay, so stacked products have a
/// numerical rank the recompression must find.
fn decaying(rows: usize, k: usize, seed: u64) -> Matrix {
    let r = rand_mat(rows, k, seed);
    Matrix::from_fn(rows, k, |i, c| r[(i, c)] * 0.3f64.powi(c as i32))
}

/// A Gaussian operator at n = 230, b = 32 (a ragged last tile of 6 rows)
/// with a rough band of half-width 24 on top: far tiles vanish, the
/// second off-diagonal compresses and the band keeps the first dense.
fn solve_fixture() -> (TlrMatrix, TlrMatrix) {
    let n = 230usize;
    let rough = rand_mat(n, n, 81);
    let dense = Matrix::from_fn(n, n, |i, j| {
        let d = (i as f64 - j as f64) / 14.0;
        let band = if i != j && i.abs_diff(j) <= 24 {
            0.02 * rough[(i.max(j), i.min(j))]
        } else {
            0.0
        };
        (-d * d).exp() + band + if i == j { 1.0 } else { 0.0 }
    });
    let cc = CompressionConfig::with_accuracy(1e-6);
    let a = TlrMatrix::from_dense(&dense, 32, &cc);
    let mut l = a.clone();
    factorize(&mut l, &FactorConfig::with_accuracy(1e-6)).expect("the fixture is SPD");
    (a, l)
}

fn actual() -> String {
    let mut out = String::new();

    for n in [64usize, 100, 150, 200] {
        let mut a = spd(n, n as u64);
        potrf(&mut a).expect("SPD fixture");
        writeln!(out, "potrf n={n} {:#018x}", bits(a.as_slice())).unwrap();
    }

    for (m, n) in [(13usize, 11usize), (37, 21), (70, 9)] {
        for (side, trans, name) in [
            (Side::Left, Trans::No, "left-no"),
            (Side::Left, Trans::Yes, "left-trans"),
            (Side::Right, Trans::No, "right-no"),
            (Side::Right, Trans::Yes, "right-trans"),
        ] {
            let order = if side == Side::Left { m } else { n };
            let a = lower(order, 31 + order as u64);
            let mut b = rand_mat(m, n, 32 + (m * n) as u64);
            let alpha = if m == 37 { -0.75 } else { 1.0 };
            trsm(side, Uplo::Lower, trans, alpha, &a, &mut b);
            writeln!(out, "trsm {name} m={m} n={n} {:#018x}", bits(b.as_slice())).unwrap();
        }
    }

    // (n, k): under the packed gate, over it inside one 32-column strip,
    // over it across strips, and POTRF's first trailing update at b = 200.
    for (n, k) in [(6usize, 10usize), (21, 19), (37, 19), (100, 7), (136, 64)] {
        for (trans, name) in [(Trans::No, "no"), (Trans::Yes, "trans")] {
            let (ar, ac) = shape(trans, n, k);
            let a = rand_mat(ar, ac, 41 + (n * k) as u64);
            let mut c = rand_mat(n, n, 42 + n as u64);
            syrk_serial(trans, -1.0, &a, 1.0, &mut c);
            let mut c0 = Matrix::from_fn(n, n, |_, _| f64::NAN);
            syrk_serial(trans, 0.5, &a, 0.0, &mut c0);
            let lower_only: Vec<f64> =
                (0..n).flat_map(|j| c0.col(j)[j..].to_vec()).collect();
            writeln!(
                out,
                "syrk {name} n={n} k={k} {:#018x} beta0={:#018x}",
                bits(c.as_slice()),
                bits(&lower_only)
            )
            .unwrap();
        }
    }

    // (m, n, k): row count under the register tile, k under the gate, one
    // column, then packed shapes with row / column tails and k > KC.
    for (m, n, k) in [
        (5usize, 9usize, 12usize),
        (13, 9, 7),
        (40, 1, 30),
        (13, 9, 37),
        (64, 64, 64),
        (21, 5, 300),
        (100, 3, 20),
    ] {
        for (ta, tb, name) in [
            (Trans::No, Trans::No, "nn"),
            (Trans::No, Trans::Yes, "nt"),
            (Trans::Yes, Trans::No, "tn"),
            (Trans::Yes, Trans::Yes, "tt"),
        ] {
            let (ar, ac) = shape(ta, m, k);
            let (br, bc) = shape(tb, k, n);
            let a = rand_mat(ar, ac, 51 + (m * k) as u64);
            let b = rand_mat(br, bc, 52 + (k * n) as u64);
            let mut c = rand_mat(m, n, 53 + (m * n) as u64);
            gemm_serial(ta, tb, 1.3, &a, &b, 0.7, &mut c);
            let mut c0 = Matrix::from_fn(m, n, |_, _| f64::NAN);
            gemm_serial(ta, tb, -1.0, &a, &b, 0.0, &mut c0);
            writeln!(
                out,
                "gemm {name} m={m} n={n} k={k} {:#018x} beta0={:#018x}",
                bits(c.as_slice()),
                bits(c0.as_slice())
            )
            .unwrap();
        }
    }

    // C −= A·Bᵀ into a low-rank and into a null destination: the four
    // sites that write the product straight into the stacked factors.
    let (b, cc) = (48usize, CompressionConfig::with_accuracy(1e-6));
    let lr = |k: usize, seed: u64| Tile::LowRank {
        u: decaying(b, k, seed),
        v: decaying(b, k, seed + 1),
    };
    let dense_tile = |seed: u64| Tile::Dense(rand_mat(b, b, seed));
    for (name, ta, tb) in [
        ("lr5-lr9", lr(5, 61), lr(9, 63)),
        ("lr9-lr5", lr(9, 65), lr(5, 67)),
        ("lr6-dense", lr(6, 69), dense_tile(71)),
        ("dense-lr6", dense_tile(73), lr(6, 75)),
    ] {
        for (dest, c0) in [("lowrank", lr(4, 77)), ("null", Tile::Null { rows: b, cols: b })] {
            let mut c = c0;
            gemm_kernel(&ta, &tb, &mut c, &cc);
            writeln!(out, "gemm_kernel {name} into {dest}: {}", tile_bits(&c)).unwrap();
        }
    }

    let (a, l) = solve_fixture();
    let n = l.n();
    let mut kinds = [0usize; 3];
    for i in 0..l.nt() {
        for j in 0..i {
            kinds[match l.tile(i, j) {
                Tile::Dense(_) => 0,
                Tile::LowRank { .. } => 1,
                Tile::Null { .. } => 2,
            }] += 1;
        }
    }
    assert!(kinds.iter().all(|&c| c > 0), "fixture needs every tile format: {kinds:?}");
    writeln!(
        out,
        "fixture n={n} nt={} dense={} lowrank={} null={}",
        l.nt(),
        kinds[0],
        kinds[1],
        kinds[2]
    )
    .unwrap();
    let rhs = |cols: usize| Matrix::from_fn(n, cols, |i, c| ((i + 3 * c) as f64 * 0.07).sin());
    let mut x = rhs(1).into_vec();
    solve_tlr(&l, &mut x);
    writeln!(out, "solve_tlr {:#018x}", bits(&x)).unwrap();
    for cols in [1usize, 3, 17] {
        let mut x = rhs(cols);
        solve_tlr_multi(&l, &mut x);
        writeln!(out, "solve_tlr_multi cols={cols} {:#018x}", bits(x.as_slice())).unwrap();
    }
    let y = tlr_matvec(&a, rhs(1).as_slice());
    writeln!(out, "tlr_matvec {:#018x}", bits(&y)).unwrap();
    let mut x = rhs(1).into_vec();
    let history = solve_refined(&a, &l, &mut x, 3);
    writeln!(out, "solve_refined x={:#018x} history={:#018x}", bits(&x), bits(&history)).unwrap();
    out
}

const GOLDEN: &str = "\
potrf n=64 0x83634fa39d906581
potrf n=100 0x2daaf472062c9a38
potrf n=150 0x00aa182824920924
potrf n=200 0xced537e1e8d988be
trsm left-no m=13 n=11 0x0e135a177b881de6
trsm left-trans m=13 n=11 0x69ecad577f05a707
trsm right-no m=13 n=11 0xd5ed932a1add56cb
trsm right-trans m=13 n=11 0x60cb1c64258854ec
trsm left-no m=37 n=21 0x0bc4268bd4edaa3d
trsm left-trans m=37 n=21 0xc44de39ef8c8816a
trsm right-no m=37 n=21 0xf819ec3910575e2c
trsm right-trans m=37 n=21 0xe47cf7bb35185ae7
trsm left-no m=70 n=9 0x4e1878b03eb3f5e5
trsm left-trans m=70 n=9 0xcb652eb6b53d0856
trsm right-no m=70 n=9 0xa9b5c5ee3f71cc2f
trsm right-trans m=70 n=9 0x145e46dfb1d776b9
syrk no n=6 k=10 0xadf81eb089f554d5 beta0=0x6397589c3de55afd
syrk trans n=6 k=10 0xd36a9a12d7e2a69e beta0=0xaa6206d60edb4f6e
syrk no n=21 k=19 0xb2670dbaac189211 beta0=0x87b0f47537d6642f
syrk trans n=21 k=19 0x3fa313df17741b7d beta0=0x4c44a80ab27b247d
syrk no n=37 k=19 0x0829695970636dd4 beta0=0xcfea01f814c933a1
syrk trans n=37 k=19 0x57fac52b3abd7d33 beta0=0x0714e00b95f16fe5
syrk no n=100 k=7 0xf708018a10da980e beta0=0xb152adef78d3337a
syrk trans n=100 k=7 0x0db930ee2cb960e1 beta0=0x3fc628c39f06f696
syrk no n=136 k=64 0x034be79bcd74f299 beta0=0xdc436c68f3ebeac0
syrk trans n=136 k=64 0xbd907bfd78587bdf beta0=0x223f6ed3aeb446fb
gemm nn m=5 n=9 k=12 0x4d88fb3d1c949fab beta0=0x0c848249817b018f
gemm nt m=5 n=9 k=12 0x8ba2f16bb9d3cd48 beta0=0x4e43cd0c56138ca9
gemm tn m=5 n=9 k=12 0xe6ea56bfc5eea7d3 beta0=0xf956c470c4935750
gemm tt m=5 n=9 k=12 0xef5146f5416dfeb0 beta0=0x51b7563220b53718
gemm nn m=13 n=9 k=7 0x5c824c4b4487c7db beta0=0x8065b28d2afe1937
gemm nt m=13 n=9 k=7 0xeccda3b1444bbd82 beta0=0x6a5f800c53260501
gemm tn m=13 n=9 k=7 0x2fdfa9225767ec35 beta0=0x34fe62d5d24310b3
gemm tt m=13 n=9 k=7 0xb4677f9a8b0dac1a beta0=0x15ee8c7f5a656e5e
gemm nn m=40 n=1 k=30 0xf29f41ad8d85b7d5 beta0=0xb483eafb16e342b0
gemm nt m=40 n=1 k=30 0xf29f41ad8d85b7d5 beta0=0xb483eafb16e342b0
gemm tn m=40 n=1 k=30 0x9189d10b27a152ca beta0=0x133496c422bc828a
gemm tt m=40 n=1 k=30 0x9f6f4a8ea120d989 beta0=0x133496c422bc828a
gemm nn m=13 n=9 k=37 0xcbfe340882d20e81 beta0=0xc682e19e2efd577d
gemm nt m=13 n=9 k=37 0x0e3970dab1427ac6 beta0=0x45a1c07642a1a581
gemm tn m=13 n=9 k=37 0x8f5cc5d5097c5f40 beta0=0x04e46289974f15f1
gemm tt m=13 n=9 k=37 0x94ea3b6cdcfe8339 beta0=0x20eda629eb9d8c4d
gemm nn m=64 n=64 k=64 0x80c0235b98f51ecc beta0=0x86a1bb38cb3fe654
gemm nt m=64 n=64 k=64 0x72d0d5c63133681d beta0=0xe938739b164f3703
gemm tn m=64 n=64 k=64 0xb4a7d311dee41dea beta0=0x4ab83668bdb62927
gemm tt m=64 n=64 k=64 0xc1b29d74856f326d beta0=0xff5562f2ca04acb0
gemm nn m=21 n=5 k=300 0xc03bed428d39b97a beta0=0xa21452bebe5cdc82
gemm nt m=21 n=5 k=300 0x21a696a3e54a7598 beta0=0x6023aef6acc159cf
gemm tn m=21 n=5 k=300 0x217fe2e18559e753 beta0=0xf1512e08ebe11345
gemm tt m=21 n=5 k=300 0xcf568e7acca154df beta0=0x85c8a782f793e24d
gemm nn m=100 n=3 k=20 0xc4d90c6b0dfb6402 beta0=0x526400c9ae54f1ff
gemm nt m=100 n=3 k=20 0xe03dc32cec8be360 beta0=0xf431ec3ec23676e5
gemm tn m=100 n=3 k=20 0xc2b2b172870c95b1 beta0=0xa49498f44f9485fc
gemm tt m=100 n=3 k=20 0xa589a6d81fba564d beta0=0x573bf369ec02418f
gemm_kernel lr5-lr9 into lowrank: lowrank k=8 u=0xb01de21abfa78d42 v=0x72d221eefad5617b
gemm_kernel lr5-lr9 into null: lowrank k=4 u=0x4129d441a2ffc47c v=0x5b2f1f22c338cc58
gemm_kernel lr9-lr5 into lowrank: lowrank k=8 u=0x5757c8ff4ab567a1 v=0xb50d7fb1e0541d8a
gemm_kernel lr9-lr5 into null: lowrank k=4 u=0x8c24d0e465111103 v=0xcc3b490920ffa00d
gemm_kernel lr6-dense into lowrank: lowrank k=10 u=0xe8d6cbbc470b48ea v=0xc7c2eea484b35585
gemm_kernel lr6-dense into null: lowrank k=6 u=0x5c471233b034d856 v=0x61cea5fa189a454c
gemm_kernel dense-lr6 into lowrank: lowrank k=10 u=0x476702218192d0be v=0x818d000f293fd63b
gemm_kernel dense-lr6 into null: lowrank k=6 u=0xfa8d6ac517dc181a v=0xbc1aba6e8dbf5419
fixture n=230 nt=8 dense=7 lowrank=6 null=15
solve_tlr 0x8fdb6e3dfe07e8ba
solve_tlr_multi cols=1 0x8fdb6e3dfe07e8ba
solve_tlr_multi cols=3 0x1a8bca8d1605ad28
solve_tlr_multi cols=17 0xec7fd27a5a98e88e
tlr_matvec 0xefb72a0b3a5f6d8f
solve_refined x=0xdfc63aadbcc416a2 history=0xea9d35832fe5d7e4
";

#[test]
fn dense_layer_matches_the_recorded_goldens() {
    let actual = actual();
    let moved: Vec<String> = actual
        .lines()
        .zip(GOLDEN.lines())
        .filter(|(now, recorded)| now != recorded)
        .map(|(now, recorded)| format!("  recorded: {recorded}\n  now:      {now}"))
        .collect();
    assert!(
        actual == GOLDEN,
        "dense-layer drift on {} line(s):\n{}\n\nwhole table now:\n{actual}",
        moved.len(),
        moved.join("\n")
    );
}
