//! Generalized Pareto Distribution (GPD) fitting for Peaks-Over-Threshold.
//!
//! Implements Grimshaw's reduction of the two-parameter GPD maximum
//! likelihood problem to a one-dimensional root search, with a
//! method-of-moments fallback for degenerate samples, following
//! Siffer et al., "Anomaly Detection in Streams with Extreme Value Theory"
//! (KDD 2017).

/// Fitted GPD parameters for exceedances `y >= 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpdFit {
    /// Shape parameter γ (xi). Positive: heavy tail; negative: bounded tail.
    pub gamma: f64,
    /// Scale parameter σ > 0.
    pub sigma: f64,
    /// Log-likelihood of the sample under the fit.
    pub log_likelihood: f64,
}

/// How a GPD fit was obtained — the "fit iterations" telemetry: how many
/// candidate parameter pairs were scored and how many Grimshaw roots the
/// search found, plus whether the sample was degenerate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GpdFitInfo {
    /// Candidate `(gamma, sigma)` pairs evaluated by likelihood.
    pub candidates: usize,
    /// Roots found by the Grimshaw one-dimensional search.
    pub roots: usize,
    /// `true` when the sample was (almost) constant and the fit collapsed
    /// to the degenerate exponential.
    pub degenerate: bool,
}

/// Fits a GPD to non-negative exceedances by maximum likelihood
/// (Grimshaw's trick), falling back to method of moments.
///
/// Panics if `peaks` is empty or contains negative values.
pub(crate) fn fit_gpd(peaks: &[f64]) -> GpdFit {
    fit_gpd_detailed(peaks).0
}

/// `fit_gpd` plus a [`GpdFitInfo`] describing the search.
pub fn fit_gpd_detailed(peaks: &[f64]) -> (GpdFit, GpdFitInfo) {
    assert!(!peaks.is_empty(), "cannot fit GPD to zero peaks");
    assert!(
        peaks.iter().all(|&p| p >= 0.0),
        "exceedances must be non-negative"
    );
    let n = peaks.len() as f64;
    let mean = peaks.iter().sum::<f64>() / n;
    let min = peaks.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = peaks.iter().cloned().fold(f64::NEG_INFINITY, f64::max);

    // Degenerate sample: all peaks (almost) identical.
    if max - min < 1e-12 || mean < 1e-300 {
        return (
            GpdFit {
                gamma: 0.0,
                sigma: mean.max(1e-12),
                log_likelihood: f64::NEG_INFINITY,
            },
            GpdFitInfo {
                candidates: 0,
                roots: 0,
                degenerate: true,
            },
        );
    }

    let mut candidates: Vec<(f64, f64)> = Vec::new(); // (gamma, sigma)

    // Grimshaw: roots x of w(x) = u(x) v(x) - 1, searched over (-1/max, 0)
    // and (0, 2*(mean-min)/min^2).
    let w = Grimshaw::new(peaks);
    let mut roots_found = 0usize;
    let eps = 1e-8 / max;
    let lo_bound = -1.0 / max + eps;
    let hi_bound = 2.0 * (mean - min) / (min * min).max(1e-12);
    for (a, b) in [(lo_bound, -eps), (eps, hi_bound.max(eps * 2.0))] {
        for x in find_roots(&w, a, b, 64) {
            roots_found += 1;
            let gamma = w.u(x) - 1.0;
            if x.abs() > 1e-300 {
                let sigma = gamma / x;
                if sigma > 0.0 {
                    candidates.push((gamma, sigma));
                }
            }
        }
    }

    // Method of moments: gamma = 0.5*(1 - mean^2/var), sigma = mean*(1-gamma).
    let var = peaks.iter().map(|&y| (y - mean) * (y - mean)).sum::<f64>() / n;
    if var > 1e-300 {
        let gamma_mom = 0.5 * (1.0 - mean * mean / var);
        let sigma_mom = mean * (1.0 - gamma_mom);
        if sigma_mom > 0.0 {
            candidates.push((gamma_mom, sigma_mom));
        }
    }
    // Exponential fit (gamma -> 0) is always a valid candidate.
    candidates.push((0.0, mean));

    let info = GpdFitInfo {
        candidates: candidates.len(),
        roots: roots_found,
        degenerate: false,
    };
    let mut best = GpdFit {
        gamma: 0.0,
        sigma: mean,
        log_likelihood: f64::NEG_INFINITY,
    };
    for (gamma, sigma) in candidates {
        let ll = gpd_log_likelihood(peaks, gamma, sigma);
        if ll > best.log_likelihood {
            best = GpdFit {
                gamma,
                sigma,
                log_likelihood: ll,
            };
        }
    }
    (best, info)
}

/// Log-likelihood of exceedances under GPD(γ, σ).
pub fn gpd_log_likelihood(peaks: &[f64], gamma: f64, sigma: f64) -> f64 {
    if sigma <= 0.0 {
        return f64::NEG_INFINITY;
    }
    let n = peaks.len() as f64;
    if gamma.abs() < 1e-9 {
        // Exponential limit.
        -n * sigma.ln() - peaks.iter().sum::<f64>() / sigma
    } else {
        let mut acc = 0.0;
        for &y in peaks {
            let t = 1.0 + gamma * y / sigma;
            if t <= 0.0 {
                return f64::NEG_INFINITY;
            }
            acc += t.ln();
        }
        -n * sigma.ln() - (1.0 + 1.0 / gamma) * acc
    }
}

/// GPD quantile helper: the anomaly threshold
/// `z_q = t + (σ/γ) ((q n / N_t)^{-γ} - 1)` from POT, where `t` is the
/// initial threshold, `n` the number of observations and `n_peaks` the
/// number of exceedances.
pub fn pot_quantile(fit: &GpdFit, t: f64, q: f64, n_obs: usize, n_peaks: usize) -> f64 {
    let r = q * n_obs as f64 / n_peaks as f64;
    if fit.gamma.abs() < 1e-9 {
        t - fit.sigma * r.ln()
    } else {
        t + (fit.sigma / fit.gamma) * (r.powf(-fit.gamma) - 1.0)
    }
}

/// Unit roundoff of f64.
const EPS: f64 = f64::EPSILON / 2.0;
/// Assumed accuracy of libm's `ln` (`f64::ln`): within 1 ulp, a relative
/// error of at most 2^-52.
const LIBM_LN_REL: f64 = f64::EPSILON;
/// Relative error bound of [`ln_and_recip`]'s logarithm against the true
/// one: 16 ulp. fdlibm's algorithm is accurate to under 1 ulp; a dense
/// sweep test keeps this variant within 2 ulp of libm.
const FAST_LN_REL: f64 = 16.0 * f64::EPSILON;
/// Relative error bound of [`ln_and_recip`]'s reciprocal: three roundings.
const FAST_RECIP_REL: f64 = 5.0 * EPS;
/// Terms `t = 1 + x y` the fast pass accepts. Inside this range every
/// `ln t` and `1 / t`, every sum of them and every product the bound
/// covers stays finite and normal, so the rounding model behind the bound
/// holds; outside it the exact evaluation decides.
const T_MIN: f64 = f64::from_bits((1023 - 256) << 52);
const T_MAX: f64 = f64::from_bits((1023 + 256) << 52);
/// Products of `w` values smaller than this may round differently to zero;
/// the search decides them on exact values.
const TINY: f64 = 1e-290;
/// Fewest peaks for which the fast pass pays. Below this an evaluation is
/// latency-bound (one logarithm's dependency chain against a few pipelined
/// libm calls): with the fast pass, fits at 5-8 peaks ran at 0.55-0.97x
/// the exact search's speed; from 12 peaks on they run 1.1-1.6x faster.
const FAST_MIN_PEAKS: usize = 12;

/// Grimshaw's function over a fixed peak set:
///
/// `w(x) = u(x) v(x) - 1`, `u(x) = 1 + mean(ln(1 + x y_i))`,
/// `v(x) = mean(1 / (1 + x y_i))`.
///
/// The root search only looks at the signs of `w` and of products of two
/// `w` values, so [`Grimshaw::w`] evaluates it first in one fused 4-lane
/// pass, with a rigorous bound on how far that pass can be from the exact
/// sequential evaluation. Only where the bound cannot certify the sign
/// does it run the exact evaluation, whose rounding every decision
/// therefore follows bit for bit.
struct Grimshaw<'a> {
    peaks: &'a [f64],
    n: f64,
    /// Relative slack of the fast/exact distance bound, per unit of
    /// `(1 + mean|ln t|) * mean(1/t)`.
    slack: f64,
}

/// One evaluation of `w`.
#[derive(Clone, Copy, Debug)]
enum W {
    /// Exactly what the sequential evaluation returns.
    Exact(f64),
    /// A fast value less than half its own magnitude from the exact one:
    /// the exact value is finite, has the same sign and is at least half
    /// as large.
    Certified(f64),
}

impl W {
    fn is_finite(self) -> bool {
        match self {
            W::Exact(v) => v.is_finite(),
            W::Certified(_) => true,
        }
    }

    /// A lower bound on the magnitude of the exact value.
    fn floor(self) -> f64 {
        match self {
            W::Exact(v) => v.abs(),
            W::Certified(v) => 0.5 * v.abs(),
        }
    }

    fn value(self) -> f64 {
        match self {
            W::Exact(v) | W::Certified(v) => v,
        }
    }
}

impl<'a> Grimshaw<'a> {
    fn new(peaks: &'a [f64]) -> Self {
        let n = peaks.len() as f64;
        // gamma_{n-1}: the worst-case relative error of summing n terms in
        // any order.
        let g = (n - 1.0) * EPS / (1.0 - (n - 1.0) * EPS);
        let slack = 1.25 * (LIBM_LN_REL + FAST_LN_REL + FAST_RECIP_REL + 5.0 * g + 10.0 * EPS);
        Grimshaw { peaks, n, slack }
    }

    /// The exact sums `(sum ln t, sum 1/t)`, each added in peak order from
    /// `-0.0` as `Iterator::sum` does: the same bits as two separate sums.
    fn exact_sums(&self, x: f64) -> (f64, f64) {
        let (mut ln_sum, mut inv_sum) = (-0.0, -0.0);
        for &y in self.peaks {
            let t = 1.0 + x * y;
            ln_sum += t.ln();
            inv_sum += 1.0 / t;
        }
        (ln_sum, inv_sum)
    }

    fn u(&self, x: f64) -> f64 {
        1.0 + self.exact_sums(x).0 / self.n
    }

    fn exact(&self, x: f64) -> f64 {
        #[cfg(test)]
        tests::EXACT_EVALS.with(|c| c.set(c.get() + 1));
        let (ln_sum, inv_sum) = self.exact_sums(x);
        (1.0 + ln_sum / self.n) * (inv_sum / self.n) - 1.0
    }

    /// `w(x)`, certified from the fast pass where possible.
    ///
    /// Both passes compute every `t = 1 + x y` identically; they differ in
    /// `ln t` and `1 / t` ([`ln_and_recip`] vs libm and one division) and
    /// in the summation order. With `P = 1 + sum|ln t| / n`,
    /// `Q = sum(1/t) / n` and `g = gamma_{n-1}`, first-order error analysis
    /// of the two sums, `u`, `v` and the final product and subtraction
    /// gives `|w_fast - w_exact| <= 1.01 P Q (LIBM_LN_REL + FAST_LN_REL +
    /// FAST_RECIP_REL) + P Q (4.1 g + 9.3 eps) + 2.01 eps |w_fast|`;
    /// `slack` rounds those factors up and adds 25% for `P` and `Q` being
    /// rounded sums themselves.
    ///
    /// Peaks are non-negative, so every `ln t` has the sign of `x` (or is
    /// zero) and `sum|ln t| = |sum ln t|`; the fast logarithm's relative
    /// error keeps those signs.
    fn w(&self, x: f64) -> W {
        if self.peaks.len() < FAST_MIN_PEAKS {
            return W::Exact(self.exact(x));
        }
        let Some((ln_sum, inv_sum)) = self.fast_sums(x) else {
            return W::Exact(self.exact(x));
        };
        let w = (1.0 + ln_sum / self.n) * (inv_sum / self.n) - 1.0;
        let bound = (1.0 + ln_sum.abs() / self.n) * (inv_sum / self.n) * self.slack
            + 3.0 * EPS * w.abs()
            + TINY;
        if w.abs() > 2.0 * bound {
            W::Certified(w)
        } else {
            W::Exact(self.exact(x))
        }
    }

    /// `(sum ln t, sum 1/t)` over four lanes, or `None` when a `t` leaves
    /// `[T_MIN, T_MAX]`. Blocks of terms are mapped into scratch first,
    /// which the compiler vectorizes, then added lane-wise (zero padding
    /// adds nothing).
    fn fast_sums(&self, x: f64) -> Option<(f64, f64)> {
        const BLOCK: usize = 32;
        const T_SPAN: u64 = T_MAX.to_bits() - T_MIN.to_bits();
        let (mut ln, mut inv) = ([0.0f64; BLOCK], [0.0f64; BLOCK]);
        let (mut ln_sum, mut inv_sum) = ([0.0f64; 4], [0.0f64; 4]);
        let mut out_of_range = 0u64;
        for ys in self.peaks.chunks(BLOCK) {
            for ((l, r), &y) in ln.iter_mut().zip(inv.iter_mut()).zip(ys) {
                let t = 1.0 + x * y;
                out_of_range |= (t.to_bits().wrapping_sub(T_MIN.to_bits()) > T_SPAN) as u64;
                (*l, *r) = ln_and_recip(t);
            }
            let lanes = ys.len().next_multiple_of(4);
            ln[ys.len()..lanes].fill(0.0);
            inv[ys.len()..lanes].fill(0.0);
            for (l, r) in ln[..lanes]
                .chunks_exact(4)
                .zip(inv[..lanes].chunks_exact(4))
            {
                for j in 0..4 {
                    ln_sum[j] += l[j];
                    inv_sum[j] += r[j];
                }
            }
        }
        let sum4 = |s: [f64; 4]| (s[0] + s[1]) + (s[2] + s[3]);
        (out_of_range == 0).then(|| (sum4(ln_sum), sum4(inv_sum)))
    }

    /// `a * b` as the exact values would give it, or a stand-in with the
    /// same sign and the same comparisons with zero.
    fn product(&self, (xa, a): (f64, W), (xb, b): (f64, W)) -> f64 {
        match (a, b) {
            (W::Exact(a), W::Exact(b)) => a * b,
            _ if a.floor() * b.floor() > TINY => a.value() * b.value(),
            _ => self.resolve(xa, a) * self.resolve(xb, b),
        }
    }

    fn resolve(&self, x: f64, w: W) -> f64 {
        match w {
            W::Exact(v) => v,
            W::Certified(_) => self.exact(x),
        }
    }
}

/// `(ln t, 1 / t)` for `t` in `[T_MIN, T_MAX]`, written so it vectorizes.
/// The logarithm is fdlibm's: `t = 2^k m` with `m` in `[sqrt(1/2),
/// sqrt(2))` and a degree-14 minimax polynomial in `s = f / (2 + f)`,
/// `f = m - 1`, accurate to under 1 ulp; the polynomial runs on fused
/// multiply-adds (single instructions on the x86-64-v3 baseline the
/// workspace builds for). One division serves both results:
/// `q = 1 / (t (2 + f))` gives `1 / t = (2 + f) q` and `s = f t q`, each
/// within a few roundings. Garbage, but no panic, outside the domain.
#[inline(always)]
fn ln_and_recip(t: f64) -> (f64, f64) {
    // fdlibm's constants, by bit pattern.
    const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
    const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
    const LG1: f64 = f64::from_bits(0x3fe5_5555_5555_5593);
    const LG2: f64 = f64::from_bits(0x3fd9_9999_9997_fa04);
    const LG3: f64 = f64::from_bits(0x3fd2_4924_9422_9359);
    const LG4: f64 = f64::from_bits(0x3fcc_71c5_1d8e_78af);
    const LG5: f64 = f64::from_bits(0x3fc7_4664_96cb_03de);
    const LG6: f64 = f64::from_bits(0x3fc3_9a09_d078_c69f);
    const LG7: f64 = f64::from_bits(0x3fc2_f112_df3e_5244);
    // High word of sqrt(1/2); adding `0x3ff00000 - SQRT_HALF` carries the
    // mantissas at or above sqrt(2) into the exponent.
    const SQRT_HALF: u64 = 0x3fe6_a09e;
    const TWO52: f64 = 4_503_599_627_370_496.0;
    let bits = t.to_bits();
    let hx = (bits >> 32).wrapping_add(0x3ff0_0000 - SQRT_HALF);
    // k + 1023 in the low bits of 2^52's mantissa: an exact int-to-float.
    let k = f64::from_bits(0x4330_0000_0000_0000 | (hx >> 20)) - (TWO52 + 1023.0);
    let m = f64::from_bits((((hx & 0x000f_ffff) + SQRT_HALF) << 32) | (bits & 0xffff_ffff));
    let f = m - 1.0;
    let d = 2.0 + f;
    let q = 1.0 / (t * d);
    let s = f * t * q;
    let hfsq = 0.5 * f * f;
    let z = s * s;
    let w = z * z;
    let t1 = w * w.mul_add(w.mul_add(LG6, LG4), LG2);
    let t2 = z * w.mul_add(w.mul_add(w.mul_add(LG7, LG5), LG3), LG1);
    let r = t2 + t1;
    (s * (hfsq + r) + k * LN2_LO - hfsq + f + k * LN2_HI, d * q)
}

/// Finds the sign-change roots of Grimshaw's `w` on `[a, b]` by grid scan
/// plus bisection, step for step the search an exact `w` would run: every
/// decision reads a product of two [`W`]s through [`Grimshaw::product`].
///
/// Once a bisection step needs the exact evaluation, the rest of that
/// bisection evaluates exactly without trying the fast pass: its points
/// only get closer to the root, where the bound cannot certify anything.
/// Bisection stops at a fixed point (the midpoint equals the end it would
/// replace), where the remaining steps would change nothing.
fn find_roots(w: &Grimshaw, a: f64, b: f64, grid: usize) -> Vec<f64> {
    let mut roots = Vec::new();
    if !(a.is_finite() && b.is_finite()) || a >= b {
        return roots;
    }
    let step = (b - a) / grid as f64;
    let mut p0 = (a, w.w(a));
    for i in 1..=grid {
        let x1 = a + step * i as f64;
        let p1 = (x1, w.w(x1));
        if p0.1.is_finite() && p1.1.is_finite() && w.product(p0, p1) < 0.0 {
            // Bisection refinement.
            let (mut lo, mut hi) = (p0, p1);
            let mut noisy = false;
            for _ in 0..60 {
                let x = 0.5 * (lo.0 + hi.0);
                let mid = if x == lo.0 {
                    lo
                } else if x == hi.0 {
                    hi
                } else if noisy {
                    (x, W::Exact(w.exact(x)))
                } else {
                    (x, w.w(x))
                };
                noisy |= matches!(mid.1, W::Exact(_));
                if w.product(lo, mid) <= 0.0 {
                    if x == hi.0 {
                        break;
                    }
                    hi = mid;
                } else {
                    if x == lo.0 {
                        break;
                    }
                    lo = mid;
                }
            }
            roots.push(0.5 * (lo.0 + hi.0));
        }
        p0 = p1;
    }
    roots
}

#[cfg(test)]
mod tests {
    use super::*;
    use tranad_tensor::Rng;

    thread_local! {
        /// Exact evaluations of `w` on this thread.
        pub(super) static EXACT_EVALS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// Samples from GPD(gamma, sigma) by inverse transform.
    fn sample_gpd(gamma: f64, sigma: f64, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Rng::new(seed);
        (0..n)
            .map(|_| {
                let u: f64 = rng.range_f64(1e-12, 1.0);
                if gamma.abs() < 1e-12 {
                    -sigma * u.ln()
                } else {
                    sigma / gamma * (u.powf(-gamma) - 1.0)
                }
            })
            .collect()
    }

    #[test]
    fn recovers_exponential() {
        let peaks = sample_gpd(0.0, 2.0, 20_000, 1);
        let fit = fit_gpd(&peaks);
        assert!(fit.gamma.abs() < 0.05, "gamma {}", fit.gamma);
        assert!((fit.sigma - 2.0).abs() < 0.1, "sigma {}", fit.sigma);
    }

    #[test]
    fn recovers_heavy_tail() {
        let peaks = sample_gpd(0.3, 1.0, 20_000, 2);
        let fit = fit_gpd(&peaks);
        assert!((fit.gamma - 0.3).abs() < 0.08, "gamma {}", fit.gamma);
        assert!((fit.sigma - 1.0).abs() < 0.1, "sigma {}", fit.sigma);
    }

    #[test]
    fn recovers_bounded_tail() {
        let peaks = sample_gpd(-0.2, 1.0, 20_000, 3);
        let fit = fit_gpd(&peaks);
        assert!((fit.gamma + 0.2).abs() < 0.08, "gamma {}", fit.gamma);
    }

    #[test]
    fn degenerate_identical_peaks() {
        let fit = fit_gpd(&[0.5; 10]);
        assert!(fit.sigma > 0.0);
        assert_eq!(fit.gamma, 0.0);
    }

    #[test]
    #[should_panic(expected = "zero peaks")]
    fn empty_panics() {
        fit_gpd(&[]);
    }

    #[test]
    fn quantile_monotone_in_risk() {
        let peaks = sample_gpd(0.1, 1.0, 5_000, 4);
        let fit = fit_gpd(&peaks);
        let z4 = pot_quantile(&fit, 10.0, 1e-4, 100_000, peaks.len());
        let z3 = pot_quantile(&fit, 10.0, 1e-3, 100_000, peaks.len());
        let z2 = pot_quantile(&fit, 10.0, 1e-2, 100_000, peaks.len());
        assert!(z4 > z3 && z3 > z2, "quantiles {z4} {z3} {z2}");
        assert!(z2 > 10.0, "threshold must exceed initial threshold");
    }

    #[test]
    fn likelihood_prefers_true_params() {
        let peaks = sample_gpd(0.2, 1.5, 10_000, 5);
        let good = gpd_log_likelihood(&peaks, 0.2, 1.5);
        let bad = gpd_log_likelihood(&peaks, -0.4, 0.3);
        assert!(good > bad);
    }

    #[test]
    fn fast_ln_stays_well_inside_its_bound() {
        // Against libm, itself within 1 ulp of the truth: observing at most
        // FAST_LN_REL / 8 here leaves the fast logarithm within FAST_LN_REL
        // of the true one with room to spare. The reciprocal's three
        // roundings put it within FAST_RECIP_REL of libm's 1 / t as well.
        let limit = FAST_LN_REL / 8.0;
        let mut worst = 0.0f64;
        let mut check = |t: f64| {
            let ((got, recip), want) = (ln_and_recip(t), t.ln());
            let err = if want == 0.0 {
                got.abs()
            } else {
                ((got - want) / want).abs()
            };
            assert!(err <= limit, "fast ln({t:e}) = {got:e}, ln = {want:e}");
            assert!(
                (recip - 1.0 / t).abs() <= FAST_RECIP_REL / t,
                "fast 1/{t:e} = {recip:e}"
            );
            worst = worst.max(err);
        };
        let mut rng = Rng::new(17);
        // Every binade of the accepted range, densely.
        for e in -256..256 {
            let scale = 2f64.powi(e);
            for _ in 0..2_000 {
                check(scale * rng.range_f64(1.0, 2.0));
            }
            check(scale);
            check(scale * std::f64::consts::SQRT_2);
            check(scale * std::f64::consts::FRAC_1_SQRT_2);
        }
        assert_eq!(ln_and_recip(T_MIN).0, T_MIN.ln());
        assert_eq!(ln_and_recip(T_MAX).0, T_MAX.ln());
        // Around 1, where ln t is tiny and only a relative bound helps, and
        // across the reduction's switch points at sqrt(2) 2^k, ulp by ulp.
        for base in [
            1.0,
            std::f64::consts::SQRT_2,
            std::f64::consts::FRAC_1_SQRT_2,
            2.0,
            0.5,
        ] {
            let b = f64::to_bits(base);
            for k in 0..50_000u64 {
                check(f64::from_bits(b + k));
                check(f64::from_bits(b - k));
            }
        }
        for _ in 0..200_000 {
            check(1.0 + rng.range_f64(-1e-3, 1e-3));
            check(10f64.powf(rng.range_f64(-8.0, 24.0)));
        }
        assert!(
            worst > 0.0 && worst <= f64::EPSILON,
            "worst relative error {worst:e}"
        );
    }

    /// Peak sets of the kinds the parity suite streams, at a few sizes.
    fn peak_sets() -> Vec<Vec<f64>> {
        let mut sets = Vec::new();
        for (i, gamma) in [-0.45, -0.1, 0.0, 0.3, 0.9].into_iter().enumerate() {
            for n in [FAST_MIN_PEAKS, 17, 93, 400] {
                sets.push(sample_gpd(gamma, 0.7, n, 40 + i as u64));
            }
        }
        let mut rng = Rng::new(41);
        sets.push(
            (0..200)
                .map(|_| 10f64.powf(rng.range_f64(-6.0, 6.0)))
                .collect(),
        );
        sets.push(
            (0..200)
                .map(|_| if rng.chance(0.7) { 0.0 } else { rng.next_f64() })
                .collect(),
        );
        sets
    }

    /// Grimshaw's two search intervals for `peaks`, as `fit_gpd_detailed`
    /// derives them.
    fn intervals(peaks: &[f64]) -> [(f64, f64); 2] {
        let n = peaks.len() as f64;
        let mean = peaks.iter().sum::<f64>() / n;
        let min = peaks.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = peaks.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let eps = 1e-8 / max;
        let hi_bound = 2.0 * (mean - min) / (min * min).max(1e-12);
        [(-1.0 / max + eps, -eps), (eps, hi_bound.max(eps * 2.0))]
    }

    #[test]
    fn certified_values_carry_the_exact_sign() {
        let mut rng = Rng::new(42);
        let (mut certified, mut exact) = (0usize, 0usize);
        for peaks in peak_sets() {
            let w = Grimshaw::new(&peaks);
            for (a, b) in intervals(&peaks) {
                let mut xs: Vec<f64> = (0..=64).map(|i| a + (b - a) / 64.0 * i as f64).collect();
                xs.extend((0..200).map(|_| rng.range_f64(a, b)));
                for root in find_roots(&w, a, b, 64) {
                    xs.extend((-20..=20).map(|k| root + k as f64 * root.abs() * 1e-15));
                }
                for x in xs {
                    let want = w.exact(x);
                    match w.w(x) {
                        W::Certified(v) => {
                            certified += 1;
                            assert!(
                                want.is_finite() && (v - want).abs() < 0.5 * v.abs(),
                                "x {x:e}: certified {v:e}, exact {want:e}"
                            );
                        }
                        W::Exact(v) => {
                            exact += 1;
                            assert_eq!(v.to_bits(), want.to_bits(), "x {x:e}");
                        }
                    }
                }
            }
        }
        assert!(
            certified > 4 * exact && exact > 0,
            "{certified} certified, {exact} exact"
        );
    }

    #[test]
    fn streaming_fits_take_the_exact_fallback() {
        // Bisection ends in w's rounding noise, which no bound resolves:
        // every fit that finds a root must have decided some steps exactly,
        // while most evaluations are still certified.
        let mut rng = Rng::new(43);
        let peaks = sample_gpd(0.2, 1.0, 200, 44);
        let mut spread: Vec<f64> = (0..100)
            .map(|_| 10f64.powf(rng.range_f64(-6.0, 6.0)))
            .collect();
        spread.extend(std::iter::repeat_n(0.0, 20));
        let (mut exact, mut evals) = (0, 0);
        for set in [&peaks[..], &spread[..]] {
            for k in 4..=set.len() {
                EXACT_EVALS.with(|c| c.set(0));
                let (_, info) = fit_gpd_detailed(&set[..k]);
                let fit_exact = EXACT_EVALS.with(|c| c.get());
                assert!(
                    info.roots == 0 || fit_exact > 0,
                    "{k} peaks: no exact evaluation"
                );
                exact += fit_exact;
                // Two 65-point grids plus up to 60 steps per root.
                evals += 130 + 60 * info.roots;
            }
        }
        assert!(
            exact * 2 < evals,
            "{exact} exact evaluations of at most {evals}"
        );
    }
}
