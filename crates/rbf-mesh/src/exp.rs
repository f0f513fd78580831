//! The exponential every kernel of this crate evaluates.
//!
//! libm's `exp` is an opaque call, so a loop around it runs one entry at a
//! time. This one is plain arithmetic — a Cody–Waite reduction, a Taylor
//! polynomial and a `2ⁿ` bit splice, with no table and no branch but two
//! selects — so it inlines into `KernelSource::block`'s kernel loop and
//! vectorizes there on the baseline x86-64 (SSE2) target. The entrywise
//! path calls the same function, so a block and its entries agree bit for
//! bit; without a branch, an entry near the cutoff costs what any other
//! does instead of a mispredicted jump. It uses no fused multiply-add: the
//! bits are the same on every target.

/// Below this argument the result is exactly `0`. `exp(−708) ≈ 3.3e−308`
/// is still normal, so no result is ever subnormal.
const CUTOFF: f64 = -708.0;
/// Arguments above this are clamped to it, where the result overflows to
/// `+∞`; the clamp keeps `n` (below) within the exponent field.
const CEILING: f64 = 710.0;

/// A bound on the relative error of [`exp`] against the exact exponential
/// wherever the result is normal, `4·2⁻⁵³` (derivation at [`exp`]).
pub(crate) const EXP_ERROR: f64 = 2.0 * f64::EPSILON;
/// How far the computed [`exp`] can fall short of monotone:
/// `exp(x₁) ≤ exp(x₂)·(1 + EXP_DEFECT)` whenever `x₁ ≤ x₂`. Both are within
/// [`EXP_ERROR`] of the exact values, and the exact exponential is
/// increasing, so the defect is at most `(1 + e)/(1 − e) − 1`.
pub(crate) const EXP_DEFECT: f64 = 2.0 * EXP_ERROR / (1.0 - EXP_ERROR);

/// `ln 2` split as fdlibm does: `LN2_HI` has 32 significant bits, so
/// `n·LN2_HI` is exact for `|n| < 2²¹`.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
/// `1.5·2⁵²`: adding it rounds a double of magnitude below `2⁵¹` to the
/// nearest integer, which then sits in the low bits of the sum.
const SHIFT: f64 = 6_755_399_441_055_744.0;
/// `2/k!` for `k = 0, 1, …, 13`: the Taylor polynomial of `2·eʳ`. The
/// factor 2 is exact and lets the splice build `2ⁿ⁻¹`, which stays normal
/// down to the cutoff and up to the overflow.
const TAYLOR: [f64; 14] = [
    2.0,
    2.0,
    1.0,
    2.0 / 6.0,
    2.0 / 24.0,
    2.0 / 120.0,
    2.0 / 720.0,
    2.0 / 5_040.0,
    2.0 / 40_320.0,
    2.0 / 362_880.0,
    2.0 / 3_628_800.0,
    2.0 / 39_916_800.0,
    2.0 / 479_001_600.0,
    2.0 / 6_227_020_800.0,
];

/// `eˣ`, within [`EXP_ERROR`] relative, exactly `0` below −708 and `+∞`
/// above 709.79; `exp(0) == 1` exactly and a NaN stays NaN.
///
/// `x = n·ln 2 + r` with `n = round(x·log₂e)`, `|r| ≤ 0.3467`, and
/// `eˣ = (2·eʳ)·2ⁿ⁻¹`. Error, in units of `u = 2⁻⁵³` relative:
/// - reduction: `n·LN2_HI` and `x − n·LN2_HI` are exact (`|n| ≤ 1025`,
///   and Sterbenz); the step with `LN2_LO` rounds twice, which moves `r` by
///   less than `u·(|r| + 1025·LN2_LO)` and `eʳ` by less than `0.35 u`
///   (`LN2_HI + LN2_LO` is `ln 2` to `2⁻⁸⁵`);
/// - truncation: `|r|¹⁴/14!·e^|r|` is below `0.08 u` of `2·eʳ ≥ √2`;
/// - the evaluation's 29 roundings and the rounded coefficients `2/k!`
///   (`k ≥ 3`): a running bound over `|r| ≤ 0.3467`, taken at the largest
///   intermediate and divided by the smallest result, is `3.43 u`;
/// - the splice and the product by `2ⁿ⁻¹` are exact, because the result is
///   normal from the cutoff up.
///
/// The sum, `3.86 u`, is below `EXP_ERROR`.
#[inline]
pub(crate) fn exp(x: f64) -> f64 {
    let below = x < CUTOFF;
    let x = if x > CEILING { CEILING } else { x };
    let shifted = x * std::f64::consts::LOG2_E + SHIFT;
    let n = shifted - SHIFT;
    let r = (x - n * LN2_HI) - n * LN2_LO;
    // `2·eʳ = 2 + r·(2 + r·(1 + r·q))`, the tail `q` by Estrin's scheme:
    // its roundings are damped by `r³`, and its short dependency chains
    // keep a lone (scalar) evaluation from waiting on 13 in a row.
    let c = &TAYLOR;
    let (r2, pair) = (r * r, |k: usize| c[k] + c[k + 1] * r);
    let r4 = r2 * r2;
    let q = (pair(3) + pair(5) * r2)
        + (pair(7) + pair(9) * r2) * r4
        + (pair(11) + c[13] * r2) * (r4 * r4);
    let p = c[0] + r * (c[1] + r * (c[2] + r * q));
    // The low 12 bits of `shifted` hold `n` modulo 2¹², and the high bits
    // of `SHIFT` are shifted out: this is `2ⁿ⁻¹` for `−1021 ≤ n ≤ 1025`.
    let half_scale = f64::from_bits(shifted.to_bits().wrapping_add(1022) << 52);
    if below {
        0.0
    } else {
        p * half_scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distance in units in the last place between two positive doubles.
    fn ulps(a: f64, b: f64) -> u64 {
        a.to_bits().abs_diff(b.to_bits())
    }

    #[test]
    fn within_two_ulp_of_libm_on_the_whole_range() {
        let steps = 2_000_000;
        let mut worst = (0, 0.0);
        for k in 0..=steps {
            let x = CUTOFF * k as f64 / steps as f64;
            let d = ulps(exp(x), x.exp());
            if d > worst.0 {
                worst = (d, x);
            }
        }
        assert!(worst.0 <= 2, "{} ulp at x = {:e}", worst.0, worst.1);
    }

    #[test]
    fn within_two_ulp_of_libm_at_every_reduction_boundary() {
        // Where `x·log₂e` crosses a half-integer, `n` steps by one and `r`
        // jumps from about +ln2/2 to −ln2/2; and at every `n·ln 2`, `r ≈ 0`.
        for n in -1022..=0 {
            for center in
                [n as f64 * std::f64::consts::LN_2, (n as f64 + 0.5) * std::f64::consts::LN_2]
            {
                let mut x = center;
                for _ in 0..4 {
                    x = x.next_down();
                }
                for _ in 0..9 {
                    if (CUTOFF..=0.0).contains(&x) {
                        let d = ulps(exp(x), x.exp());
                        assert!(d <= 2, "{d} ulp at x = {x:e}");
                    }
                    x = x.next_up();
                }
            }
        }
    }

    #[test]
    fn exact_at_zero_and_zero_below_the_cutoff() {
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
        assert!(exp(CUTOFF) > f64::MIN_POSITIVE, "normal down to the cutoff");
        for x in [CUTOFF.next_down(), -708.5, -745.2, -1e4, -1e300, f64::NEG_INFINITY] {
            assert_eq!(exp(x).to_bits(), 0.0f64.to_bits(), "x = {x:e}");
        }
        assert!(exp(f64::NAN).is_nan());
        assert!(ulps(exp(709.0), 709f64.exp()) <= 2);
        assert_eq!(exp(709.8), f64::INFINITY);
        assert_eq!(exp(1e300), f64::INFINITY);
    }

    #[test]
    fn non_increasing_as_the_magnitude_grows_within_the_defect() {
        let check = |xs: &mut dyn Iterator<Item = f64>| {
            let mut prev = f64::INFINITY;
            for x in xs {
                let next = exp(x);
                assert!(next <= prev * (1.0 + EXP_DEFECT), "at {x:e}: {next:e} after {prev:e}");
                prev = next;
            }
        };
        // A sweep over the whole range, from 0 down.
        let steps = 700_000;
        check(&mut (0..=steps).map(|k| CUTOFF * k as f64 / steps as f64));
        // Consecutive doubles where the result crosses a power of two and
        // where the reduction steps `n`: a rounding there is what could
        // make the later value the larger one.
        for n in -1021..=0 {
            for center in
                [n as f64 * std::f64::consts::LN_2, (n as f64 + 0.5) * std::f64::consts::LN_2]
            {
                let start = (0..64).fold(center, |x, _| x.next_up());
                check(&mut std::iter::successors(Some(start), |x| Some(x.next_down())).take(128));
            }
        }
    }
}
