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

    // C −= A·Bᵀ into a low-rank and into a null destination, for each
    // operand-format pair with a low-rank side: the product's factor pair
    // stacked against the destination and recompressed (the update-path
    // goldens at the end of this file pin the dense destination, the
    // `ka = kb` tie and dense×dense).
    // These eight lines (and the shift-retry factor below) were
    // re-recorded once, when the recompression core's truncation moved
    // from the Jacobi SVD to the pivoted QR; the eight kept their ranks.
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
gemm_kernel lr5-lr9 into lowrank: lowrank k=8 u=0x2e340bf87ad6ea33 v=0x5e0b717070da651a
gemm_kernel lr5-lr9 into null: lowrank k=4 u=0x32cc26ab609f62ac v=0xec7dacf8a955fbee
gemm_kernel lr9-lr5 into lowrank: lowrank k=8 u=0xef76af9ebfe0dd2f v=0xb4f16a2801505f6b
gemm_kernel lr9-lr5 into null: lowrank k=4 u=0xd8c85782ceb85ed2 v=0xecfa09a01a687808
gemm_kernel lr6-dense into lowrank: lowrank k=10 u=0x188d3f07b66e8e80 v=0xd7d304019e799674
gemm_kernel lr6-dense into null: lowrank k=6 u=0x0622f8b75f452e62 v=0xf7fbca5aad1ede5d
gemm_kernel dense-lr6 into lowrank: lowrank k=10 u=0x126917b88a09b791 v=0x0aa7c11dff563d19
gemm_kernel dense-lr6 into null: lowrank k=6 u=0x9634909f1bd5bad2 v=0x6466a719e2c70d38
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

// ---- Loop-order goldens ---------------------------------------------------
//
// Appended, with every line above left as it was, at the commit before the
// dense loops were put in orders the core can overlap (GEMM row tails and
// the SYRK head on the SIMD kernel, four-column Householder reflections,
// column-oriented POTRF and left TRSM). They pin the shapes those orders
// meet that the table above does not: row tails at b ∤ 8, k > KC, SYRK
// strips past the first, unblocked POTRF including its failing pivot, every
// TRSM variant at 1, 4, 5 and 256 right-hand sides, each Householder
// entry point on tall, wide and τ = 0 inputs, the pivoted QR (tile
// compression and the recompression core's truncation), the SVD, tile
// compression, and the diagonal-shift retry of `factorize`.
//
// One line was re-recorded since, once: `qr tall m=150 n=56`, when `Qr`
// moved to block reflectors above 32 reflectors (56 here). The shift-retry
// line was re-recorded once more, in a new format, when the retry moved
// from restarting the whole factorization into the failing panel's
// POTRF: it now lists each shifted panel with its retries. Every other QR
// line factors at most 32 columns and keeps the one-reflector loop's bits.
// The `jacobi_svd` line pins the plain Jacobi loop that recompression's
// SVD-optimal oracle runs, with no truncation floor. It was appended while
// that loop still lived in `kernels::reference` and passed unedited once
// the loop became `jacobi_svd`.

use hicma_parsec::linalg::{jacobi_svd, potrf_unblocked, ColPivQr, Qr};
use hicma_parsec::tlr::compress_tile;

/// A Gaussian-kernel block between two 1D point sets `offset` apart: the
/// smooth, graded input of tile compression.
fn gaussian_tile(rows: usize, cols: usize, offset: f64, width: f64) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        let d = (i as f64 - j as f64 + offset) / width;
        (-d * d).exp()
    })
}

/// The bits of every Householder entry point of a [`Qr`] of `a`.
fn qr_line(name: &str, a: Matrix) -> String {
    let (m, n) = (a.rows(), a.cols());
    let qr = Qr::new_in(a, vec![7.0; 3]);
    let k = qr.k();
    let mut r = Matrix::zeros(0, 0);
    qr.r_into(&mut r);
    let x = rand_mat(k, 9, 91 + (m * n) as u64);
    let mut qx = Matrix::zeros(0, 0);
    qr.apply_q(&x, &mut qx);
    let mut qtx = rand_mat(m, 6, 92 + (m * n) as u64);
    qr.apply_qt(&mut qtx);
    let q = qr.q_thin();
    let (factors, taus) = qr.into_parts();
    format!(
        "qr {name} m={m} n={n} factors={:#018x} taus={:#018x} r={:#018x} q={:#018x} \
         apply_q={:#018x} apply_qt={:#018x}",
        bits(factors.as_slice()),
        bits(&taus),
        bits(r.as_slice()),
        bits(q.as_slice()),
        bits(qx.as_slice()),
        bits(qtx.as_slice())
    )
}

fn actual_loop_orders() -> String {
    let mut out = String::new();

    // Row tails (100 = 12·8 + 4, 150 = 18·8 + 6), column tails, one
    // column (the unpacked sweep) and k on both sides of KC = 256.
    for m in [100usize, 150] {
        for n in [1usize, 3, 4, 150] {
            for k in [20usize, 150, 300] {
                let mut hashes = Vec::new();
                for (ta, tb) in [
                    (Trans::No, Trans::No),
                    (Trans::No, Trans::Yes),
                    (Trans::Yes, Trans::No),
                    (Trans::Yes, Trans::Yes),
                ] {
                    let (ar, ac) = shape(ta, m, k);
                    let (br, bc) = shape(tb, k, n);
                    let a = rand_mat(ar, ac, 151 + (m * k) as u64);
                    let b = rand_mat(br, bc, 152 + (k * n) as u64);
                    let mut c = rand_mat(m, n, 153 + (m * n) as u64);
                    gemm_serial(ta, tb, 1.3, &a, &b, 0.7, &mut c);
                    let mut c0 = Matrix::from_fn(m, n, |_, _| f64::NAN);
                    gemm_serial(ta, tb, -1.0, &a, &b, 0.0, &mut c0);
                    hashes.push(format!("{:#018x}/{:#018x}", bits(c.as_slice()), bits(c0.as_slice())));
                }
                writeln!(out, "gemm tails m={m} n={n} k={k} nn,nt,tn,tt={}", hashes.join(",")).unwrap();
            }
        }
    }

    // Several 32-column strips, each with its own diagonal head, over
    // (k = 150) and under (k = 37) a tile's width.
    for n in [100usize, 150] {
        for k in [37usize, 150] {
            for (trans, name) in [(Trans::No, "no"), (Trans::Yes, "trans")] {
                let (ar, ac) = shape(trans, n, k);
                let a = rand_mat(ar, ac, 161 + (n * k) as u64);
                let mut c = rand_mat(n, n, 162 + n as u64);
                syrk_serial(trans, -1.0, &a, 1.0, &mut c);
                let mut c0 = Matrix::from_fn(n, n, |_, _| f64::NAN);
                syrk_serial(trans, 0.5, &a, 0.0, &mut c0);
                let lower_only: Vec<f64> = (0..n).flat_map(|j| c0.col(j)[j..].to_vec()).collect();
                writeln!(
                    out,
                    "syrk strips {name} n={n} k={k} beta1={:#018x} beta0={:#018x}",
                    bits(c.as_slice()),
                    bits(&lower_only)
                )
                .unwrap();
            }
        }
    }

    for n in [1usize, 2, 37, 64] {
        let mut a = spd(n, 170 + n as u64);
        potrf_unblocked(&mut a).expect("SPD fixture");
        writeln!(out, "potrf_unblocked n={n} {:#018x}", bits(a.as_slice())).unwrap();
    }
    // A pivot that fails only after the columns before it have updated it.
    let mut a = spd(37, 177);
    a[(20, 20)] -= 30.0;
    let err = potrf_unblocked(&mut a).expect_err("indefinite fixture");
    let head: Vec<f64> = (0..err.pivot).flat_map(|j| a.col(j)[j..].to_vec()).collect();
    writeln!(out, "potrf_unblocked failing pivot={} factored={:#018x}", err.pivot, bits(&head))
        .unwrap();

    for order in [37usize, 150] {
        for width in [1usize, 4, 5, 256] {
            let mut hashes = Vec::new();
            for (side, trans) in [
                (Side::Left, Trans::No),
                (Side::Left, Trans::Yes),
                (Side::Right, Trans::No),
                (Side::Right, Trans::Yes),
            ] {
                let (m, n) = if side == Side::Left { (order, width) } else { (width, order) };
                let a = lower(order, 181 + order as u64);
                let mut b = rand_mat(m, n, 182 + (m * n) as u64);
                let alpha = if width == 5 { -0.75 } else { 1.0 };
                trsm(side, Uplo::Lower, trans, alpha, &a, &mut b);
                hashes.push(format!("{:#018x}", bits(b.as_slice())));
            }
            writeln!(
                out,
                "trsm order={order} rhs={width} left-no,left-trans,right-no,right-trans={}",
                hashes.join(",")
            )
            .unwrap();
        }
    }

    for kt in [1usize, 4, 5, 7, 56] {
        writeln!(out, "{}", qr_line("tall", decaying(150, kt, 190 + kt as u64))).unwrap();
    }
    writeln!(out, "{}", qr_line("wide", rand_mat(20, 37, 197))).unwrap();
    // Column 1 is subnormal-scale: its reflector has τ = 0.
    let tiny = Matrix::from_fn(150, 5, |i, j| {
        let v = ((i * 7 + j * 3) % 13) as f64 - 6.0;
        if j == 1 {
            1e-300 * v
        } else {
            v / 13.0
        }
    });
    writeln!(out, "{}", qr_line("tau0", tiny)).unwrap();

    let tile = gaussian_tile(200, 200, 60.0, 40.0);
    let f = ColPivQr::with_tolerance(tile, 1e-8, usize::MAX);
    let perm: Vec<u64> = f.perm().iter().map(|&p| p as u64).collect();
    writeln!(
        out,
        "colpiv gaussian 200x200 rank={} perm={:#018x} factors={:#018x} q={:#018x}",
        f.rank(),
        fnv(perm.into_iter()),
        bits(f.factors().as_slice()),
        bits(f.q_thin().as_slice())
    )
    .unwrap();

    // A graded core: columns of a random basis scaled by 0.7^c.
    let core = {
        let r = rand_mat(56, 56, 199);
        Matrix::from_fn(56, 56, |i, c| r[(i, c)] * 0.7f64.powi(c as i32))
    };
    let svd = jacobi_svd(&core);
    writeln!(
        out,
        "jacobi_svd graded 56x56 k={} u={:#018x} s={:#018x} v={:#018x}",
        svd.s.len(),
        bits(svd.u.as_slice()),
        bits(&svd.s),
        bits(svd.v.as_slice())
    )
    .unwrap();

    for eps in [1e-4, 1e-8] {
        let t = compress_tile(gaussian_tile(150, 150, 90.0, 50.0), &CompressionConfig::with_accuracy(eps));
        writeln!(out, "compress_tile eps={eps:e} {}", tile_bits(&t)).unwrap();
    }

    // Barely indefinite: a POTRF fails a pivot, restores its tile and
    // factors it plus `εI`; the line lists each shifted panel with its
    // retries (recorded when the shift moved from a restart of the whole
    // factorization into the failing panel's POTRF).
    let n = 96usize;
    let dense = Matrix::from_fn(n, n, |i, j| {
        let d = (i as f64 - j as f64) / 16.0;
        (-d * d).exp() - if i == j { 1e-7 } else { 0.0 }
    });
    let mut m = TlrMatrix::from_dense(&dense, 24, &CompressionConfig::with_accuracy(1e-8));
    let cfg = FactorConfig::with_accuracy(1e-8);
    let report = factorize(&mut m, &cfg).expect("the retry rescues the fixture");
    let tiles: Vec<u64> = (0..m.nt())
        .flat_map(|i| (0..=i).map(move |j| (i, j)))
        .map(|(i, j)| fnv(tile_bits(m.tile(i, j)).bytes().map(u64::from)))
        .collect();
    let panels: Vec<String> =
        report.panel_shifts.iter().map(|p| format!("{}:{}", p.panel, p.attempts)).collect();
    writeln!(
        out,
        "factorize shift retry attempts={} shift={:#018x} panels={} factor={:#018x}",
        report.shift_attempts,
        report.diagonal_shift.to_bits(),
        panels.join(","),
        fnv(tiles.into_iter())
    )
    .unwrap();
    out
}

const GOLDEN_LOOP_ORDERS: &str = "\
gemm tails m=100 n=1 k=20 nn,nt,tn,tt=0x518be341feb90ebd/0x1ea70cb7d972cb52,0x518be341feb90ebd/0x1ea70cb7d972cb52,0x2dc4235261f716f0/0x77432ef86ea18dd0,0x173d5a2bf008d0e8/0x77432ef86ea18dd0
gemm tails m=100 n=1 k=150 nn,nt,tn,tt=0xd154a7e122f4deeb/0x0b5ef8ec9daa0e90,0xd154a7e122f4deeb/0x0b5ef8ec9daa0e90,0x4c1a4968af16bdf6/0xa49c6afb4f6fb7af,0xc2bfee93a082c752/0xa49c6afb4f6fb7af
gemm tails m=100 n=1 k=300 nn,nt,tn,tt=0x7cd9b0b756c2b9a0/0xa4d170132ac04aaf,0x7cd9b0b756c2b9a0/0xa4d170132ac04aaf,0xeb710163e78028cc/0x549e9680e31a59da,0x7afde478670d677a/0x549e9680e31a59da
gemm tails m=100 n=3 k=20 nn,nt,tn,tt=0x5c5609bf23aed0a9/0x18bbc3ac12136644,0x0b564dc35ae6e4d5/0xd94c509d776dd6bd,0x22a154db24b5940a/0x2f36693c39e665f6,0xcb679f9bf7d0f80b/0xa335af825cc4113c
gemm tails m=100 n=3 k=150 nn,nt,tn,tt=0x11590f0b0b388722/0x45e6cfac735dad96,0xb68b571132b02039/0xfb5f06f1d89d2170,0xd90f5e4b52b71fcf/0x7a4258b2e9aef00d,0x860348fc0431e461/0x7279ae03ae81f175
gemm tails m=100 n=3 k=300 nn,nt,tn,tt=0x447f9e3fdd4a8479/0xfe666a31ed946b3e,0x334328499ed52282/0x9125820636c81e13,0x7f94537207d10d29/0x660f5c92f8067f52,0xfffc34296eac97b6/0x6d61b317ecc325c5
gemm tails m=100 n=4 k=20 nn,nt,tn,tt=0x937024360c79c2e7/0x0d7f30ff6ea98502,0x573e72369a065f69/0xf2c7d2370a7ffb37,0xc309720f257cdc28/0xd8db1753a0425e5a,0x8aac2d343178ff4c/0xc1bcf7ed2f12aed1
gemm tails m=100 n=4 k=150 nn,nt,tn,tt=0x268a94f704ac25b7/0xe975b8b19230634f,0x32844fc86022e743/0x26028cc3ce6391c9,0x07e899722c1826fb/0x827e968b7cd5e591,0x0ca435f502ff4f4a/0x3dda6fa8a3c927e9
gemm tails m=100 n=4 k=300 nn,nt,tn,tt=0x16d854665d6d7381/0x7fa43cdd0ba5f290,0x84e87438fa3c19b9/0xf03e84abdab17b35,0xa16d795c2bf54091/0xd8ca0b7a38d6147f,0x139373dff8ab1f67/0x386777f5dbd4a766
gemm tails m=100 n=150 k=20 nn,nt,tn,tt=0x8c3bd0c9df1b5f03/0x41e96305b32ac536,0xe2c2f664a0b25fd3/0x7aed09bdbb497ccb,0xe7abfc3bc8ce1415/0x60ede71e70838fa2,0x28233eb345f6b422/0xe501295de7f5cea1
gemm tails m=100 n=150 k=150 nn,nt,tn,tt=0xfeb569499fbb187c/0x521b7ed1be806bd6,0x24fb232d63bfde7a/0x6a66cf4f4e59864c,0x7e5dd49a3dd280c9/0x8e2e9c0ac3cd70a7,0x089931321f0ff3b8/0x0edb464a9bcfaa0a
gemm tails m=100 n=150 k=300 nn,nt,tn,tt=0xe63d9989eac1e503/0xc6bb78eb3a1e8a3e,0x1f1495818c74e82a/0x15582c7932a8c1e2,0xfb5f01c0b70a9c05/0x480a02b1788a30ac,0x0a6210bffec8518b/0xe4425bdb03d20e2f
gemm tails m=150 n=1 k=20 nn,nt,tn,tt=0x22b63f0f42d5a3eb/0xfbc3b535c8104c31,0x22b63f0f42d5a3eb/0xfbc3b535c8104c31,0xbadf7f65a447a40f/0xde17ffd12a4259c2,0x8ce76c3473353358/0xde17ffd12a4259c2
gemm tails m=150 n=1 k=150 nn,nt,tn,tt=0xe7ae363155e3d646/0xb69759e225328de1,0xe7ae363155e3d646/0xb69759e225328de1,0x64a18aaeb9f985a0/0x120dd6e604fb39c5,0xaeeb59a1725d41b5/0x120dd6e604fb39c5
gemm tails m=150 n=1 k=300 nn,nt,tn,tt=0x78cadf53b391c709/0x356f2f5553255b28,0x78cadf53b391c709/0x356f2f5553255b28,0x75d25fdd1c1d87f4/0x28fe6c0d4e333ca8,0xcd3c3add60c93edf/0x28fe6c0d4e333ca8
gemm tails m=150 n=3 k=20 nn,nt,tn,tt=0xd64c7ceb7f3fe0cb/0xaa140ed3a9912e18,0x1c682f7aa7f5bea2/0xf1d1963eb252d938,0xde193875b2c457d7/0x1b7fa78f8285f853,0x006b2adc42ce2d1f/0x543c548d60c2ea49
gemm tails m=150 n=3 k=150 nn,nt,tn,tt=0x29278598be92659c/0x3e53b46f3979e98a,0xdddafaac4dbb70b3/0xaae7b5c2eb89f863,0x70fa0519103cce1a/0xfd1a7972b47b37b0,0xa13c32d68a365a55/0x7417583581bb60a0
gemm tails m=150 n=3 k=300 nn,nt,tn,tt=0xfb13669e3a60e44b/0xd28ba0985170b640,0xd3b6fdedf3320a7f/0x7587cae73e783ab5,0x44a02be6028d4125/0x5c7456b7df50fb0b,0xa4448acd88afbb34/0x781dd40f48603d34
gemm tails m=150 n=4 k=20 nn,nt,tn,tt=0x07978f13b4a6ecaa/0x7172108c81ecb48c,0xcbd8a2a1b5cc0927/0xb6278984c5b41a2e,0x51836d974106d571/0xd46a2991a3f52c0b,0xdcfc40499d6ef2e4/0x1a2583b19c4df3fe
gemm tails m=150 n=4 k=150 nn,nt,tn,tt=0xeefd89acb4c08c24/0x11b3cbafbfd7bb09,0x65bb7662e147cc66/0x78d3982b67ac740d,0xe975c9eb4311d4f3/0x568ce865fda3120f,0xfd79096a23635667/0xc4f18716a719a94c
gemm tails m=150 n=4 k=300 nn,nt,tn,tt=0xf0948a7bf584f80f/0x8c10f976675d45b7,0x4dc5faaecbb83f49/0x26fe16f9d5589054,0x25c3f6848c4501af/0xd21930d247cafd61,0x9d7a8a618d7e6a3c/0x0293873e635d3d05
gemm tails m=150 n=150 k=20 nn,nt,tn,tt=0x41645f99c24abdac/0x51eb24a9019830b4,0x42e63f58e06d72c6/0xa308f616d7ece101,0x3b5aa02adfd381cc/0xdcbb4fbccb33be96,0x6214567b018f267c/0xb7859f4836f2c683
gemm tails m=150 n=150 k=150 nn,nt,tn,tt=0x6117c08021c96512/0xa8f156c019c5d9d4,0x9e11d3337b120321/0xe9367eb93ee6196e,0x4d3969207714396b/0x9b9e3a5640d09961,0x7e5326a554910284/0x1492e514cf40c5a9
gemm tails m=150 n=150 k=300 nn,nt,tn,tt=0xfab994f81200efdc/0xdabc54f18f146638,0x60336d2301609a52/0xfb1d4a022bd7c7be,0xa2dcc71046edb8f0/0x8fec100a6238e222,0xd51d309b1190f4ce/0x6d9c53fb511c4dfb
syrk strips no n=100 k=37 beta1=0x209f130819bd8339 beta0=0xbc5cc7300ae20e6b
syrk strips trans n=100 k=37 beta1=0x52cac02efe9bb448 beta0=0x8947f6e3fd501b44
syrk strips no n=100 k=150 beta1=0x142cf46a2dfff65c beta0=0x3a7e8afd488eb128
syrk strips trans n=100 k=150 beta1=0xbe971ff305799b29 beta0=0x22fbec2bb466b6e1
syrk strips no n=150 k=37 beta1=0x2f64a97bb92349e5 beta0=0xa6821dd2194e3644
syrk strips trans n=150 k=37 beta1=0x439897e2aaabb541 beta0=0x8cbf53e1458babe4
syrk strips no n=150 k=150 beta1=0x75c576ac32dc52c0 beta0=0xee8fbc61fdad4a16
syrk strips trans n=150 k=150 beta1=0xb74e7e41928634ac beta0=0x7f6e0d4040a2fdc0
potrf_unblocked n=1 0xbc55ac027e2c3cc1
potrf_unblocked n=2 0x809358526985da0b
potrf_unblocked n=37 0x08afc5724235abf7
potrf_unblocked n=64 0xcb46a3c7aedadf58
potrf_unblocked failing pivot=20 factored=0x5aac9754c587eae9
trsm order=37 rhs=1 left-no,left-trans,right-no,right-trans=0x04bb520f8a73df55,0xf7a284f80f7f34dd,0xf7a284f80f7f34dd,0x04bb520f8a73df55
trsm order=37 rhs=4 left-no,left-trans,right-no,right-trans=0xc929f3047aacc109,0xfbda6aed380729eb,0x973a282175abb254,0x8fd2443936c9980b
trsm order=37 rhs=5 left-no,left-trans,right-no,right-trans=0x594922fe1b3aa995,0xb7fa6724b68b10b0,0xc2ae9436b9adfd34,0x4191e08b9a3836bc
trsm order=37 rhs=256 left-no,left-trans,right-no,right-trans=0xd5ffdb7dc7ef3e22,0xb305d4703451d2f1,0x51e3e7095793fe0d,0xd2d58e210dbed772
trsm order=150 rhs=1 left-no,left-trans,right-no,right-trans=0x9fbea67da9624c21,0x82bd1c9a52161958,0x82bd1c9a52161958,0x9fbea67da9624c21
trsm order=150 rhs=4 left-no,left-trans,right-no,right-trans=0xadedf2d120962d8c,0xcade5290dd551216,0xdadc277277ebff54,0x080ad88cb4a0f5a0
trsm order=150 rhs=5 left-no,left-trans,right-no,right-trans=0xfdaade379948de81,0x72d8b083a262a6ab,0x210d8c2ada22eedf,0x0bab11a8e3a71b7c
trsm order=150 rhs=256 left-no,left-trans,right-no,right-trans=0x05301c14d5817d90,0xa8b638a3d50f31b3,0x4cad35c3976b3e1e,0x1d0067bcce44daaf
qr tall m=150 n=1 factors=0xb6f76ecdbcff22f0 taus=0xadc7ac5615d72e8b r=0x43c0e430471b1fb2 q=0xdee03f8769196b60 apply_q=0x79ec32b6a1843f68 apply_qt=0x04efeb432214f214
qr tall m=150 n=4 factors=0xfbe4b64f596167b0 taus=0xd4a8316641d33bcf r=0xa668450dc7d1279e q=0xbc0a7eba694b944d apply_q=0x63ddf26e0b9b89ec apply_qt=0x2b9ea636d19daf30
qr tall m=150 n=5 factors=0x3e403b805ede349e taus=0x877b4b50a036c99b r=0x7f808eb5a8f2f6c2 q=0x626b773cd50850ea apply_q=0xb8c6909c852e9f03 apply_qt=0x9a013838c9208369
qr tall m=150 n=7 factors=0x8bec3be8da085435 taus=0x70f0d2a116c306d2 r=0x3cfd887c62bb76fd q=0x9223aa5de6ffa6a4 apply_q=0x9c3de98453a51dfe apply_qt=0xf17d63bf64d43e67
qr tall m=150 n=56 factors=0x187e3f398fb6b090 taus=0xacb7505923b91ebe r=0xf86b2619578a3303 q=0xa68eb3523dee6d7d apply_q=0xd65b2e9ca4e5885b apply_qt=0xbac6af89bda10224
qr wide m=20 n=37 factors=0xceb814e85c58e171 taus=0x4e9927800adff948 r=0xf9e38a0035601aa8 q=0x8a7da9ed011a1f15 apply_q=0xbbdb24ffa9af07ba apply_qt=0xcab80067626bf6c0
qr tau0 m=150 n=5 factors=0xe9a6327feeccaac7 taus=0x0b1dfc34f0e620df r=0x435ab54d166f1e4d q=0x4442feab9d0bbe0f apply_q=0x0c909b7d6458d00e apply_qt=0x4823d5bd3c25ff00
colpiv gaussian 200x200 rank=19 perm=0xbbf831d6c558e197 factors=0x9a39cf3ea462bcbd q=0x055d274eac543d01
jacobi_svd graded 56x56 k=56 u=0x6d6efb9c8e41e5d7 s=0x85b6e904c5b43342 v=0xe15f37be760fa960
compress_tile eps=1e-4 lowrank k=9 u=0xcca37d20f2a4b01b v=0x1ee531d3552d60b8
compress_tile eps=1e-8 lowrank k=13 u=0xda1343da0bf07068 v=0x6a4e0f5f2ae3eb98
factorize shift retry attempts=12 shift=0x3eb0c6f784902b2c panels=0:3,1:3,2:3,3:3 factor=0xae7f2236d96c7081
";

#[test]
fn loop_order_shapes_match_the_recorded_goldens() {
    let actual = actual_loop_orders();
    let moved: Vec<String> = actual
        .lines()
        .zip(GOLDEN_LOOP_ORDERS.lines())
        .filter(|(now, recorded)| now != recorded)
        .map(|(now, recorded)| format!("  recorded: {recorded}\n  now:      {now}"))
        .collect();
    assert!(
        actual == GOLDEN_LOOP_ORDERS,
        "loop-order drift on {} line(s):\n{}\n\nwhole table now:\n{actual}",
        moved.len(),
        moved.join("\n")
    );
}

// ---- Kernel-block goldens -------------------------------------------------
//
// Appended, with every line above left as it was, when kernel tiles began to
// be evaluated as blocks (squared distances a column at a time, then the
// kernel over the column, with the crate's own `exp`). They pin the bits of
// a diagonal block (its lower half mirrored) and an off-diagonal block with
// a ragged edge, for each kernel, so a build for another target (SSE2 or
// AVX2/FMA) that moved a bit of the kernel reads as one line.

use hicma_parsec::linalg::TileSource;
use hicma_parsec::mesh::{GaussianRbf, MaternKernel, MaternNu, Point3, WendlandRbf};

fn actual_kernel_blocks() -> String {
    // 150 points in a 0.1-cube (an LCG, so no RNG crate decides the bits).
    let mut state = 0x5EED_u64;
    let mut unit = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let points: Vec<Point3> =
        (0..150).map(|_| Point3 { x: 0.1 * unit(), y: 0.1 * unit(), z: 0.1 * unit() }).collect();
    let hash = |source: &dyn TileSource| {
        let diagonal = source.block(0..64, 0..64);
        let ragged = source.block(64..150, 0..64);
        fnv([bits(diagonal.as_slice()), bits(ragged.as_slice())].into_iter())
    };
    let gaussian = GaussianRbf { delta: 0.01, nugget: 1e-8 };
    let wendland = WendlandRbf { radius: 0.04, nugget: 1e-6 };
    let matern = |nu| MaternKernel::new(0.01, nu);
    format!(
        "kernel_block gaussian={:#018x} wendland={:#018x} matern12={:#018x} matern32={:#018x} \
         matern52={:#018x}\n",
        hash(&gaussian.generator(&points)),
        hash(&wendland.generator(&points)),
        hash(&matern(MaternNu::Half).generator(&points)),
        hash(&matern(MaternNu::ThreeHalves).generator(&points)),
        hash(&matern(MaternNu::FiveHalves).generator(&points)),
    )
}

const GOLDEN_KERNEL_BLOCKS: &str = "\
kernel_block gaussian=0x6c1a6e373174faaf wendland=0x715f4566682994b1 matern12=0x3adab3621bb5ba8f matern32=0xea7df07f76a89971 matern52=0x8f8a112f85fd6349
";

#[test]
fn kernel_blocks_match_the_recorded_goldens() {
    let actual = actual_kernel_blocks();
    assert!(
        actual == GOLDEN_KERNEL_BLOCKS,
        "kernel-block drift:\n  recorded: {GOLDEN_KERNEL_BLOCKS}  now:      {actual}"
    );
}

// ---- Update-path goldens --------------------------------------------------
//
// Appended, with every line above left as it was, at the commit before
// `gemm_kernel` wrote every product as one factor pair applied through the
// update path behind `subtract_lowrank`. They pin the `gemm_kernel` lines
// the first table leaves out: each low-rank operand pair accumulated into
// a dense destination (where the update's −1 rides on the dense GEMM), the
// `ka = kb` tie of the rank branch into a low-rank and into a null
// destination, and dense×dense into both (the destination goes dense).

fn actual_update_path() -> String {
    let mut out = String::new();
    let (b, cc) = (48usize, CompressionConfig::with_accuracy(1e-6));
    let lr = |k: usize, seed: u64| Tile::LowRank {
        u: decaying(b, k, seed),
        v: decaying(b, k, seed + 1),
    };
    let dense_tile = |seed: u64| Tile::Dense(rand_mat(b, b, seed));
    let mut line = |name: &str, dest: &str, ta: &Tile, tb: &Tile, c0: Tile| {
        let mut c = c0;
        gemm_kernel(ta, tb, &mut c, &cc);
        writeln!(out, "gemm_kernel {name} into {dest}: {}", tile_bits(&c)).unwrap();
    };
    for (name, ta, tb) in [
        ("lr5-lr9", lr(5, 61), lr(9, 63)),
        ("lr9-lr5", lr(9, 65), lr(5, 67)),
        ("lr6-dense", lr(6, 69), dense_tile(71)),
        ("dense-lr6", dense_tile(73), lr(6, 75)),
    ] {
        line(name, "dense", &ta, &tb, dense_tile(79));
    }
    for (name, ta, tb) in [
        ("lr7-lr7", lr(7, 81), lr(7, 83)),
        ("dense-dense", dense_tile(85), dense_tile(87)),
    ] {
        line(name, "lowrank", &ta, &tb, lr(4, 77));
        line(name, "null", &ta, &tb, Tile::Null { rows: b, cols: b });
    }
    out
}

const GOLDEN_UPDATE_PATH: &str = "\
gemm_kernel lr5-lr9 into dense: dense 0x23e43abcf2b66210
gemm_kernel lr9-lr5 into dense: dense 0x0a53cbb58b9a83fa
gemm_kernel lr6-dense into dense: dense 0x6233993d39da3f9e
gemm_kernel dense-lr6 into dense: dense 0xc0648da9691991c6
gemm_kernel lr7-lr7 into lowrank: lowrank k=8 u=0x5637040b9159950d v=0xbebcf483df731564
gemm_kernel lr7-lr7 into null: lowrank k=4 u=0x01576cabfa3c2e43 v=0xadd0c8009fd56ace
gemm_kernel dense-dense into lowrank: dense 0x8f3a7d38a470f8dd
gemm_kernel dense-dense into null: dense 0xd548b083af861eb6
";

#[test]
fn update_path_matches_the_recorded_goldens() {
    let actual = actual_update_path();
    let moved: Vec<String> = actual
        .lines()
        .zip(GOLDEN_UPDATE_PATH.lines())
        .filter(|(now, recorded)| now != recorded)
        .map(|(now, recorded)| format!("  recorded: {recorded}\n  now:      {now}"))
        .collect();
    assert!(
        actual == GOLDEN_UPDATE_PATH,
        "update-path drift on {} line(s):\n{}\n\nwhole table now:\n{actual}",
        moved.len(),
        moved.join("\n")
    );
}
