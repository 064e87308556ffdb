//! Diagonal-covariance Gaussian mixture model fitted with EM — the density
//! estimator behind the DAGMM baseline's energy score.

use tranad_data::SignalRng;

/// A fitted diagonal GMM.
#[derive(Debug, Clone)]
pub(crate) struct DiagGmm {
    /// Mixture weights (sum to 1).
    pub weights: Vec<f64>,
    /// Component means `[k][d]`.
    pub means: Vec<Vec<f64>>,
    /// Component variances `[k][d]` (floored for stability).
    pub vars: Vec<Vec<f64>>,
}

const VAR_FLOOR: f64 = 1e-6;

impl DiagGmm {
    /// Fits `k` components to `points` (each of equal dimension) with EM,
    /// initialized from randomly chosen points.
    pub(crate) fn fit(points: &[Vec<f64>], k: usize, iters: usize, seed: u64) -> DiagGmm {
        assert!(!points.is_empty(), "cannot fit GMM to no points");
        let k = k.min(points.len()).max(1);
        let d = points[0].len();
        let mut rng = SignalRng::new(seed);

        let mut means: Vec<Vec<f64>> = (0..k)
            .map(|_| points[rng.index(0, points.len())].clone())
            .collect();
        let global_var: Vec<f64> = {
            let n = points.len() as f64;
            let mean: Vec<f64> = (0..d)
                .map(|j| points.iter().map(|p| p[j]).sum::<f64>() / n)
                .collect();
            (0..d)
                .map(|j| {
                    (points.iter().map(|p| (p[j] - mean[j]).powi(2)).sum::<f64>() / n)
                        .max(VAR_FLOOR)
                })
                .collect()
        };
        let mut vars: Vec<Vec<f64>> = vec![global_var.clone(); k];
        let mut weights = vec![1.0 / k as f64; k];

        let mut resp = vec![vec![0.0; k]; points.len()];
        for _ in 0..iters {
            // E step.
            for (p, r) in points.iter().zip(resp.iter_mut()) {
                let mut log_probs: Vec<f64> = (0..k)
                    .map(|c| weights[c].max(1e-300).ln() + log_gauss(p, &means[c], &vars[c]))
                    .collect();
                let max = log_probs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let mut total = 0.0;
                for lp in &mut log_probs {
                    *lp = (*lp - max).exp();
                    total += *lp;
                }
                for (rc, lp) in r.iter_mut().zip(&log_probs) {
                    *rc = lp / total;
                }
            }
            // M step.
            for c in 0..k {
                let nc: f64 = resp.iter().map(|r| r[c]).sum();
                if nc < 1e-9 {
                    // Dead component: re-seed on a random point.
                    means[c] = points[rng.index(0, points.len())].clone();
                    vars[c] = global_var.clone();
                    weights[c] = 1e-6;
                    continue;
                }
                weights[c] = nc / points.len() as f64;
                for j in 0..d {
                    let mu = points
                        .iter()
                        .zip(&resp)
                        .map(|(p, r)| r[c] * p[j])
                        .sum::<f64>()
                        / nc;
                    means[c][j] = mu;
                    vars[c][j] = (points
                        .iter()
                        .zip(&resp)
                        .map(|(p, r)| r[c] * (p[j] - mu) * (p[j] - mu))
                        .sum::<f64>()
                        / nc)
                        .max(VAR_FLOOR);
                }
            }
            let wsum: f64 = weights.iter().sum();
            for w in &mut weights {
                *w /= wsum;
            }
        }
        DiagGmm {
            weights,
            means,
            vars,
        }
    }

    /// The DAGMM sample energy: negative log-likelihood under the mixture.
    pub(crate) fn energy(&self, point: &[f64]) -> f64 {
        let log_probs: Vec<f64> = (0..self.weights.len())
            .map(|c| {
                self.weights[c].max(1e-300).ln() + log_gauss(point, &self.means[c], &self.vars[c])
            })
            .collect();
        let max = log_probs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let lse = max
            + log_probs
                .iter()
                .map(|lp| (lp - max).exp())
                .sum::<f64>()
                .ln();
        -lse
    }
}

fn log_gauss(x: &[f64], mean: &[f64], var: &[f64]) -> f64 {
    let mut acc = 0.0;
    for ((&xi, &mu), &v) in x.iter().zip(mean).zip(var) {
        acc += -0.5 * ((xi - mu) * (xi - mu) / v + v.ln() + (std::f64::consts::TAU).ln());
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_clusters(n: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = SignalRng::new(seed);
        (0..n)
            .map(|i| {
                let center = if i % 2 == 0 { 0.0 } else { 10.0 };
                vec![center + 0.3 * rng.normal(), center + 0.3 * rng.normal()]
            })
            .collect()
    }

    #[test]
    fn finds_two_clusters() {
        let pts = two_clusters(400, 1);
        let gmm = DiagGmm::fit(&pts, 2, 30, 2);
        let mut centers: Vec<f64> = gmm.means.iter().map(|m| m[0]).collect();
        centers.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(centers[0].abs() < 1.0, "centers {centers:?}");
        assert!((centers[1] - 10.0).abs() < 1.0, "centers {centers:?}");
    }

    #[test]
    fn energy_high_for_outliers() {
        let pts = two_clusters(400, 3);
        let gmm = DiagGmm::fit(&pts, 2, 30, 4);
        let inlier = gmm.energy(&[0.0, 0.0]);
        let outlier = gmm.energy(&[5.0, 5.0]);
        assert!(outlier > inlier + 5.0, "inlier {inlier}, outlier {outlier}");
    }

    #[test]
    fn single_point_degenerate() {
        let gmm = DiagGmm::fit(&[vec![1.0, 2.0]], 4, 5, 5);
        assert!(gmm.energy(&[1.0, 2.0]).is_finite());
    }

    #[test]
    fn weights_sum_to_one() {
        let pts = two_clusters(200, 6);
        let gmm = DiagGmm::fit(&pts, 3, 20, 7);
        let sum: f64 = gmm.weights.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }
}
