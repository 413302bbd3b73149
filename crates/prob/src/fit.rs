//! Fitting parametric distributions to weighted samples (§4.3).
//!
//! Beyond the closed-form Gaussian KL fit (in [`crate::samples`]), the
//! paper calls for "more flexible distributions … a mixture of Gaussians
//! may be appropriate … Selecting the number of mixture components …
//! can be done using standard model selection techniques such as Akaike
//! Information Criterion (AIC) and the Bayesian Information Criterion
//! (BIC)". This module implements weighted EM for 1-D Gaussian mixtures
//! and AIC/BIC model selection over the component count.

use crate::dist::{Gaussian, GaussianMixture, MixtureComponent};
use crate::samples::WeightedSamples;

/// Configuration for the weighted EM fitter.
#[derive(Debug, Clone)]
pub struct EmConfig {
    /// Maximum EM iterations.
    pub max_iters: usize,
    /// Relative log-likelihood improvement below which EM stops.
    pub tol: f64,
    /// Floor on component variances (prevents singular collapse).
    pub var_floor: f64,
}

impl Default for EmConfig {
    fn default() -> Self {
        EmConfig {
            max_iters: 200,
            tol: 1e-8,
            var_floor: 1e-9,
        }
    }
}

/// Result of one EM fit.
#[derive(Debug, Clone)]
pub struct GmmFit {
    pub mixture: GaussianMixture,
    /// Weighted log-likelihood at convergence (scaled by sample count).
    pub log_likelihood: f64,
    /// Iterations used.
    pub iterations: usize,
}

/// Fit a k-component Gaussian mixture to weighted samples with EM.
///
/// The sample weights enter the E-step responsibilities multiplicatively,
/// so the particle filter's weighted clouds fit directly without
/// resampling first. Returns `None` if the data cannot support `k`
/// components (fewer distinct values than components).
///
/// # Bit-identity
///
/// The E-step runs once per (sample, component) pair per iteration, so it
/// hoists everything that does not depend on the sample: `ln w_j`, `σ_j`,
/// `ln σ_j` and `½ ln 2π` are computed once per iteration, and each
/// `exp(l_j − max)` is computed once and reused for both the normalizer
/// and the responsibility. It still performs exactly the arithmetic of
/// summing `ln w_j` and [`Gaussian::ln_pdf`] per pair, in the same order,
/// so every fitted weight, mean, sd, log-likelihood and iteration count
/// is bit-identical to that direct form (a test keeps the direct form as
/// its reference). That is also why `z = (x − μ_j) / σ_j` stays a
/// division: multiplying by a precomputed `1/σ_j` rounds differently.
pub fn fit_gmm_weighted(samples: &WeightedSamples, k: usize, cfg: &EmConfig) -> Option<GmmFit> {
    assert!(k >= 1);
    let n = samples.len();
    if n < k {
        return None;
    }
    // Count distinct values cheaply.
    {
        let mut vals: Vec<f64> = samples.values().to_vec();
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        vals.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        if vals.len() < k {
            return None;
        }
    }

    // Init: means at spread quantiles, shared variance from the data.
    let global_var = samples.variance().max(cfg.var_floor);
    let mut means: Vec<f64> = (0..k)
        .map(|i| samples.quantile((i as f64 + 0.5) / k as f64))
        .collect();
    let mut vars = vec![(global_var / k as f64).max(cfg.var_floor); k];
    let mut weights = vec![1.0 / k as f64; k];

    let scale = n as f64; // treat normalized weights as fractional counts of n
    let mut prev_ll = f64::NEG_INFINITY;
    let mut resp = vec![0.0f64; n * k];
    let mut iterations = 0;
    let mut comps = vec![EComponent::default(); k];
    let half_ln_2pi = 0.5 * (2.0 * std::f64::consts::PI).ln();
    // Per-sample scratch for the k log-terms and the k exponentials.
    let mut stack = [0.0f64; 2 * STACK_K];
    let mut heap = Vec::new();
    let scratch: &mut [f64] = if k <= STACK_K {
        &mut stack[..2 * k]
    } else {
        heap.resize(2 * k, 0.0);
        &mut heap
    };

    for iter in 0..cfg.max_iters {
        iterations = iter + 1;
        // E-step: responsibilities r_{ij} ∝ w_j · N(x_i; μ_j, σ_j²).
        for (j, c) in comps.iter_mut().enumerate() {
            let g = Gaussian::from_mean_var(means[j], vars[j].max(cfg.var_floor));
            let sd = g.std_dev();
            *c = EComponent {
                ln_w: weights[j].max(1e-300).ln(),
                mean: g.mean(),
                sd,
                ln_sd: sd.ln(),
            };
        }
        // Constant k at the hot call sites lets the per-pair loops unroll.
        let ll = match k {
            1 => e_step(1, samples, &comps, half_ln_2pi, scale, scratch, &mut resp),
            2 => e_step(2, samples, &comps, half_ln_2pi, scale, scratch, &mut resp),
            3 => e_step(3, samples, &comps, half_ln_2pi, scale, scratch, &mut resp),
            _ => e_step(k, samples, &comps, half_ln_2pi, scale, scratch, &mut resp),
        };

        // M-step.
        for j in 0..k {
            let rj: f64 = (0..n).map(|i| resp[i * k + j]).sum();
            if rj <= 1e-300 {
                // Dead component: re-seed at a random-ish quantile.
                means[j] = samples.quantile(((j as f64) + 0.37) / k as f64);
                vars[j] = global_var;
                weights[j] = 1e-6;
                continue;
            }
            let mu: f64 = (0..n)
                .map(|i| resp[i * k + j] * samples.values()[i])
                .sum::<f64>()
                / rj;
            let var: f64 = (0..n)
                .map(|i| {
                    let d = samples.values()[i] - mu;
                    resp[i * k + j] * d * d
                })
                .sum::<f64>()
                / rj;
            means[j] = mu;
            vars[j] = var.max(cfg.var_floor);
            weights[j] = rj;
        }
        let wsum: f64 = weights.iter().sum();
        for w in weights.iter_mut() {
            *w /= wsum;
        }

        if (ll - prev_ll).abs() <= cfg.tol * (1.0 + ll.abs()) {
            prev_ll = ll;
            break;
        }
        prev_ll = ll;
    }

    let mixture = GaussianMixture::new(
        (0..k)
            .map(|j| MixtureComponent {
                weight: weights[j],
                dist: Gaussian::from_mean_var(means[j], vars[j].max(cfg.var_floor)),
            })
            .collect(),
    );
    Some(GmmFit {
        mixture,
        log_likelihood: prev_ll,
        iterations,
    })
}

/// Component counts up to this use stack scratch in the E-step.
const STACK_K: usize = 32;

/// One component's per-iteration constants, as the E-step reads them.
#[derive(Debug, Clone, Copy, Default)]
struct EComponent {
    ln_w: f64,
    mean: f64,
    sd: f64,
    ln_sd: f64,
}

/// One E-step: fills `resp` (row-major n × k) and returns the weighted
/// log-likelihood. `scratch` holds at least 2k values.
#[inline(always)]
fn e_step(
    k: usize,
    samples: &WeightedSamples,
    comps: &[EComponent],
    half_ln_2pi: f64,
    scale: f64,
    scratch: &mut [f64],
    resp: &mut [f64],
) -> f64 {
    let comps = &comps[..k];
    let (logs, exps) = scratch.split_at_mut(k);
    let exps = &mut exps[..k];
    let mut ll = 0.0;
    for ((x, wi), r) in samples.iter().zip(resp.chunks_exact_mut(k)) {
        // log-sum-exp over components for stability; the log-density is
        // `Gaussian::ln_pdf`'s expression, term for term.
        for (l, c) in logs.iter_mut().zip(comps) {
            let z = (x - c.mean) / c.sd;
            *l = c.ln_w + (-0.5 * z * z - c.ln_sd - half_ln_2pi);
        }
        let max_l = logs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for (e, &l) in exps.iter_mut().zip(logs.iter()) {
            *e = (l - max_l).exp();
        }
        let denom: f64 = exps.iter().sum();
        ll += wi * scale * (max_l + denom.ln());
        for (rij, &e) in r.iter_mut().zip(exps.iter()) {
            *rij = wi * (e / denom);
        }
    }
    ll
}

/// Model-selection criterion for choosing the component count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelSelection {
    /// AIC = 2p − 2·lnL.
    Aic,
    /// BIC = p·ln n − 2·lnL (penalizes harder; the paper names both).
    Bic,
}

impl ModelSelection {
    fn score(&self, ll: f64, params: usize, n: usize) -> f64 {
        match self {
            ModelSelection::Aic => 2.0 * params as f64 - 2.0 * ll,
            ModelSelection::Bic => params as f64 * (n as f64).ln() - 2.0 * ll,
        }
    }
}

/// Outcome of model selection over k = 1..=max_k.
#[derive(Debug, Clone)]
pub struct GmmSelection {
    /// The winning mixture.
    pub mixture: GaussianMixture,
    /// Chosen component count.
    pub k: usize,
    /// (k, criterion score) for every candidate that could be fitted.
    pub scores: Vec<(usize, f64)>,
}

/// Fit mixtures with 1..=max_k components and pick the count minimizing
/// the chosen criterion — the paper's §4.3 procedure for deciding how many
/// "humps" a tuple-level distribution needs.
pub fn select_gmm(
    samples: &WeightedSamples,
    max_k: usize,
    criterion: ModelSelection,
    cfg: &EmConfig,
) -> GmmSelection {
    assert!(max_k >= 1);
    let n = samples.len();
    let mut best: Option<(f64, usize, GaussianMixture)> = None;
    let mut scores = Vec::new();
    for k in 1..=max_k {
        let Some(fit) = fit_gmm_weighted(samples, k, cfg) else {
            continue;
        };
        let params = 3 * k - 1; // k means, k variances, k−1 free weights
        let score = criterion.score(fit.log_likelihood, params, n);
        scores.push((k, score));
        let better = match &best {
            None => true,
            Some((s, _, _)) => score < *s,
        };
        if better {
            best = Some((score, k, fit.mixture));
        }
    }
    let (_, k, mixture) = best.expect("k=1 fit always succeeds for non-empty samples");
    GmmSelection { mixture, k, scores }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "expected {b}, got {a}");
    }

    fn draw(mix: &GaussianMixture, n: usize, seed: u64) -> WeightedSamples {
        let mut rng = StdRng::seed_from_u64(seed);
        WeightedSamples::unweighted((0..n).map(|_| mix.sample(&mut rng)).collect())
    }

    #[test]
    fn single_component_matches_moment_fit() {
        let truth = GaussianMixture::from_triples(&[(1.0, 2.0, 1.5)]);
        let s = draw(&truth, 3000, 1);
        let fit = fit_gmm_weighted(&s, 1, &EmConfig::default()).unwrap();
        close(fit.mixture.mean(), s.mean(), 1e-6);
        close(fit.mixture.variance(), s.variance(), 1e-5);
    }

    #[test]
    fn recovers_well_separated_bimodal() {
        let truth = GaussianMixture::from_triples(&[(0.4, -5.0, 0.8), (0.6, 5.0, 1.0)]);
        let s = draw(&truth, 4000, 2);
        let fit = fit_gmm_weighted(&s, 2, &EmConfig::default()).unwrap();
        let mut comps: Vec<_> = fit.mixture.components().to_vec();
        comps.sort_by(|a, b| a.dist.mean().partial_cmp(&b.dist.mean()).unwrap());
        close(comps[0].dist.mean(), -5.0, 0.15);
        close(comps[1].dist.mean(), 5.0, 0.15);
        close(comps[0].weight, 0.4, 0.03);
    }

    #[test]
    fn weighted_samples_shift_the_fit() {
        // Same values, weights concentrated on the right cluster.
        let xs: Vec<f64> = vec![-5.0, -4.9, -5.1, 5.0, 4.9, 5.1];
        let ws = vec![0.01, 0.01, 0.01, 1.0, 1.0, 1.0];
        let s = WeightedSamples::new(xs, ws);
        let fit = fit_gmm_weighted(&s, 1, &EmConfig::default()).unwrap();
        assert!(fit.mixture.mean() > 4.0, "mean {}", fit.mixture.mean());
    }

    #[test]
    fn returns_none_when_insufficient_distinct_values() {
        let s = WeightedSamples::unweighted(vec![1.0, 1.0, 1.0]);
        assert!(fit_gmm_weighted(&s, 2, &EmConfig::default()).is_none());
        assert!(fit_gmm_weighted(&s, 1, &EmConfig::default()).is_some());
    }

    #[test]
    fn bic_picks_one_component_for_unimodal() {
        let truth = GaussianMixture::from_triples(&[(1.0, 0.0, 1.0)]);
        let s = draw(&truth, 1500, 3);
        let sel = select_gmm(&s, 3, ModelSelection::Bic, &EmConfig::default());
        assert_eq!(sel.k, 1, "scores: {:?}", sel.scores);
    }

    #[test]
    fn bic_picks_two_components_for_bimodal() {
        // The §4.3 scenario: object may have moved shelves → two humps.
        let truth = GaussianMixture::from_triples(&[(0.5, -4.0, 0.5), (0.5, 4.0, 0.5)]);
        let s = draw(&truth, 1500, 4);
        let sel = select_gmm(&s, 3, ModelSelection::Bic, &EmConfig::default());
        assert_eq!(sel.k, 2, "scores: {:?}", sel.scores);
    }

    #[test]
    fn aic_never_scores_worse_fit_better() {
        let truth = GaussianMixture::from_triples(&[(0.5, -3.0, 0.7), (0.5, 3.0, 0.7)]);
        let s = draw(&truth, 1000, 5);
        let sel = select_gmm(&s, 3, ModelSelection::Aic, &EmConfig::default());
        // k = 2 must beat k = 1 on AIC for clearly bimodal data.
        let score = |k: usize| sel.scores.iter().find(|(kk, _)| *kk == k).map(|(_, s)| *s);
        if let (Some(s1), Some(s2)) = (score(1), score(2)) {
            assert!(s2 < s1, "AIC(2)={s2} should beat AIC(1)={s1}");
        }
    }

    #[test]
    fn em_is_deterministic_for_fixed_input() {
        let truth = GaussianMixture::from_triples(&[(0.5, -2.0, 0.5), (0.5, 2.0, 0.5)]);
        let s = draw(&truth, 500, 6);
        let a = fit_gmm_weighted(&s, 2, &EmConfig::default()).unwrap();
        let b = fit_gmm_weighted(&s, 2, &EmConfig::default()).unwrap();
        close(a.log_likelihood, b.log_likelihood, 0.0);
    }

    /// The direct E-step form, kept as the reference `fit_gmm_weighted`
    /// must match bit for bit: per pair it recomputes `ln w_j` and
    /// `Gaussian::ln_pdf` and calls `exp` twice.
    fn fit_gmm_weighted_reference(
        samples: &WeightedSamples,
        k: usize,
        cfg: &EmConfig,
    ) -> Option<GmmFit> {
        assert!(k >= 1);
        let n = samples.len();
        if n < k {
            return None;
        }
        // Count distinct values cheaply.
        {
            let mut vals: Vec<f64> = samples.values().to_vec();
            vals.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            vals.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
            if vals.len() < k {
                return None;
            }
        }

        // Init: means at spread quantiles, shared variance from the data.
        let global_var = samples.variance().max(cfg.var_floor);
        let mut means: Vec<f64> = (0..k)
            .map(|i| samples.quantile((i as f64 + 0.5) / k as f64))
            .collect();
        let mut vars = vec![(global_var / k as f64).max(cfg.var_floor); k];
        let mut weights = vec![1.0 / k as f64; k];

        let scale = n as f64; // treat normalized weights as fractional counts of n
        let mut prev_ll = f64::NEG_INFINITY;
        let mut resp = vec![0.0f64; n * k];
        let mut iterations = 0;

        for iter in 0..cfg.max_iters {
            iterations = iter + 1;
            // E-step: responsibilities r_{ij} ∝ w_j · N(x_i; μ_j, σ_j²).
            let comps: Vec<Gaussian> = means
                .iter()
                .zip(vars.iter())
                .map(|(&m, &v)| Gaussian::from_mean_var(m, v.max(cfg.var_floor)))
                .collect();
            let mut ll = 0.0;
            for (i, (x, wi)) in samples.iter().enumerate() {
                // log-sum-exp over components for stability.
                let mut logs = [f64::NEG_INFINITY; 32];
                let logs = &mut logs[..k.min(32)];
                let mut heap_logs;
                let logs: &mut [f64] = if k <= 32 {
                    logs
                } else {
                    heap_logs = vec![f64::NEG_INFINITY; k];
                    &mut heap_logs
                };
                for j in 0..k {
                    logs[j] = weights[j].max(1e-300).ln() + comps[j].ln_pdf(x);
                }
                let max_l = logs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let denom: f64 = logs.iter().map(|&l| (l - max_l).exp()).sum();
                ll += wi * scale * (max_l + denom.ln());
                for j in 0..k {
                    resp[i * k + j] = wi * ((logs[j] - max_l).exp() / denom);
                }
            }

            // M-step.
            for j in 0..k {
                let rj: f64 = (0..n).map(|i| resp[i * k + j]).sum();
                if rj <= 1e-300 {
                    // Dead component: re-seed at a random-ish quantile.
                    means[j] = samples.quantile(((j as f64) + 0.37) / k as f64);
                    vars[j] = global_var;
                    weights[j] = 1e-6;
                    continue;
                }
                let mu: f64 = (0..n)
                    .map(|i| resp[i * k + j] * samples.values()[i])
                    .sum::<f64>()
                    / rj;
                let var: f64 = (0..n)
                    .map(|i| {
                        let d = samples.values()[i] - mu;
                        resp[i * k + j] * d * d
                    })
                    .sum::<f64>()
                    / rj;
                means[j] = mu;
                vars[j] = var.max(cfg.var_floor);
                weights[j] = rj;
            }
            let wsum: f64 = weights.iter().sum();
            for w in weights.iter_mut() {
                *w /= wsum;
            }

            if (ll - prev_ll).abs() <= cfg.tol * (1.0 + ll.abs()) {
                prev_ll = ll;
                break;
            }
            prev_ll = ll;
        }

        let mixture = GaussianMixture::new(
            (0..k)
                .map(|j| MixtureComponent {
                    weight: weights[j],
                    dist: Gaussian::from_mean_var(means[j], vars[j].max(cfg.var_floor)),
                })
                .collect(),
        );
        Some(GmmFit {
            mixture,
            log_likelihood: prev_ll,
            iterations,
        })
    }

    /// `select_gmm`'s `(k, scores)` over the reference fitter.
    fn select_reference(
        samples: &WeightedSamples,
        max_k: usize,
        criterion: ModelSelection,
        cfg: &EmConfig,
    ) -> (usize, Vec<(usize, f64)>) {
        let mut best: Option<(f64, usize)> = None;
        let mut scores = Vec::new();
        for k in 1..=max_k {
            let Some(fit) = fit_gmm_weighted_reference(samples, k, cfg) else {
                continue;
            };
            let score = criterion.score(fit.log_likelihood, 3 * k - 1, samples.len());
            scores.push((k, score));
            if best.is_none_or(|(s, _)| score < s) {
                best = Some((score, k));
            }
        }
        (best.expect("k = 1 always fits").1, scores)
    }

    /// Bit equality of two fits: every weight, mean and sd, the
    /// log-likelihood and the iteration count.
    fn same_bits(got: &Option<GmmFit>, want: &Option<GmmFit>) -> Result<(), String> {
        let (got, want) = match (got, want) {
            (None, None) => return Ok(()),
            (Some(g), Some(w)) => (g, w),
            _ => return Err(format!("fit presence differs: {got:?} vs {want:?}")),
        };
        let bits = |f: &GmmFit| {
            let mut b: Vec<u64> = f
                .mixture
                .components()
                .iter()
                .flat_map(|c| [c.weight, c.dist.mean(), c.dist.std_dev()])
                .map(f64::to_bits)
                .collect();
            b.push(f.log_likelihood.to_bits());
            b.push(f.iterations as u64);
            b
        };
        if bits(got) == bits(want) {
            Ok(())
        } else {
            Err(format!("fits differ:\n got {got:?}\nwant {want:?}"))
        }
    }

    /// Weighted samples that stress EM: up to four clusters whose spreads
    /// span 1e-6 to 10, exact duplicate values, and weights spanning
    /// 1e-12 to 1.
    fn stress_samples(seed: u64, n: usize) -> WeightedSamples {
        let mut rng = StdRng::seed_from_u64(seed);
        let clusters = rng.gen_range(1..=4usize);
        let centers: Vec<f64> = (0..clusters).map(|_| rng.gen_range(-50.0..50.0)).collect();
        let spreads: Vec<f64> = (0..clusters)
            .map(|_| 10f64.powf(rng.gen_range(-6.0..1.0)))
            .collect();
        let mut xs: Vec<f64> = Vec::with_capacity(n);
        for _ in 0..n {
            if !xs.is_empty() && rng.gen::<f64>() < 0.25 {
                let i = rng.gen_range(0..xs.len());
                xs.push(xs[i]);
            } else {
                let c = rng.gen_range(0..clusters);
                xs.push(centers[c] + spreads[c] * rng.gen_range(-1.0..1.0));
            }
        }
        let ws = (0..n)
            .map(|_| 10f64.powf(-12.0 * rng.gen::<f64>()))
            .collect();
        WeightedSamples::new(xs, ws)
    }

    /// Inputs on which EM kills a component: at iteration 14, every
    /// responsibility of component 1 underflows and the M-step re-seeds it.
    fn dead_component_case() -> (WeightedSamples, EmConfig) {
        let xs = vec![
            -0.30017397117812794,
            -0.2927937219805949,
            -0.3001735830760455,
            -89.6190741522102,
            -360.00268334565556,
            965.6493740040376,
            -88.82429810037056,
            -0.3001676268359265,
            6.939759175302029,
            -89.6190741522102,
            -89.6190741432512,
            -89.6190741522102,
            -360.00268334565556,
            7.102862597182136,
            6.939759168098911,
            6.939759168098911,
            -89.6190741522102,
            -360.00268334565556,
        ];
        let ws = vec![
            0.013015984757650619,
            0.731772703528424,
            9.763726881142065e-6,
            0.0,
            1.1037377714981737e-11,
            0.0,
            0.7953123098218823,
            1.2732742925964382e-5,
            3.242983822278843e-10,
            0.7999631539264138,
            0.030709031363305724,
            0.005747265993176855,
            2.404567914774395e-248,
            0.0,
            0.00032742745807100667,
            1.5294721543410641e-56,
            0.0071112107721999366,
            0.4137534358147331,
        ];
        let cfg = EmConfig {
            max_iters: 200,
            tol: -1.0,
            var_floor: 1e-300,
        };
        (WeightedSamples::new(xs, ws), cfg)
    }

    #[test]
    fn dead_component_reseed_is_bit_identical() {
        let (s, cfg) = dead_component_case();
        // Stopping right after the re-seed leaves component 1 with the
        // re-seed's shared sd and 1e-6 weight: proof the branch ran.
        let at_death = EmConfig {
            max_iters: 14,
            ..cfg.clone()
        };
        let want = fit_gmm_weighted_reference(&s, 3, &at_death).unwrap();
        let c1 = want.mixture.components()[1];
        assert_eq!(c1.dist.std_dev(), s.variance().max(cfg.var_floor).sqrt());
        assert!(c1.weight < 2e-6, "weight {}", c1.weight);
        for cfg in [at_death, cfg] {
            let got = fit_gmm_weighted(&s, 3, &cfg);
            same_bits(&got, &fit_gmm_weighted_reference(&s, 3, &cfg)).unwrap();
        }
    }

    #[test]
    fn heap_scratch_arm_is_bit_identical() {
        // More components than the E-step's stack scratch holds.
        let k = STACK_K + 1;
        let s = stress_samples(7, 48);
        let cfg = EmConfig {
            max_iters: 40,
            ..EmConfig::default()
        };
        let got = fit_gmm_weighted(&s, k, &cfg);
        let want = fit_gmm_weighted_reference(&s, k, &cfg);
        assert!(want.is_some(), "the samples support k = {k}");
        same_bits(&got, &want).unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The hoisted E-step changes no bit of any fit or selection,
        /// including k > 3 (the generic arm) and k > n (no fit).
        #[test]
        fn em_matches_the_direct_form_bit_for_bit(
            seed in 0..u64::MAX,
            n in 1..=256usize,
            k in 1..=5usize,
        ) {
            let s = stress_samples(seed, n);
            // Odd seeds never meet the tolerance, so every fit runs to
            // `max_iters`.
            let cfg = if seed % 2 == 0 {
                EmConfig::default()
            } else {
                EmConfig { max_iters: 60, tol: -1.0, ..EmConfig::default() }
            };
            let got = fit_gmm_weighted(&s, k, &cfg);
            let want = fit_gmm_weighted_reference(&s, k, &cfg);
            if let Err(e) = same_bits(&got, &want) {
                prop_assert!(false, "k = {k}, n = {n}: {e}");
            }
            let criterion = if seed % 3 == 0 { ModelSelection::Aic } else { ModelSelection::Bic };
            let sel = select_gmm(&s, k, criterion, &cfg);
            let (want_k, want_scores) = select_reference(&s, k, criterion, &cfg);
            prop_assert_eq!(sel.k, want_k);
            let score_bits = |v: &[(usize, f64)]| {
                v.iter().map(|&(k, s)| (k, s.to_bits())).collect::<Vec<_>>()
            };
            prop_assert_eq!(score_bits(&sel.scores), score_bits(&want_scores));
        }
    }
}
