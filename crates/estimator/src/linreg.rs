//! Tiny dense least-squares solver (normal equations + Gaussian
//! elimination with partial pivoting). The predictor models have at most
//! four coefficients, so nothing heavier is warranted: the solver works
//! in fixed-size arrays on the stack, and a fit allocates only the
//! coefficient vectors it returns.

/// The widest feature row the solver accepts.
const MAX_K: usize = 8;

/// Fits `y ≈ X·θ` by ordinary least squares. `rows` holds feature
/// vectors; all must have the same length `k ≤ 8`.
///
/// Returns `None` if the normal matrix is singular (e.g. fewer
/// independent samples than coefficients).
///
/// # Panics
///
/// Panics if `rows` and `targets` have different lengths, rows have
/// inconsistent widths, or rows are wider than 8.
///
/// # Examples
///
/// ```
/// use estimator::linreg::least_squares;
/// // y = 2x + 1
/// let rows = vec![vec![0.0, 1.0], vec![1.0, 1.0], vec![2.0, 1.0]];
/// let theta = least_squares(&rows, &[1.0, 3.0, 5.0]).unwrap();
/// assert!((theta[0] - 2.0).abs() < 1e-9);
/// assert!((theta[1] - 1.0).abs() < 1e-9);
/// ```
pub fn least_squares(rows: &[Vec<f64>], targets: &[f64]) -> Option<Vec<f64>> {
    assert_eq!(rows.len(), targets.len(), "rows/targets length mismatch");
    let k = width(rows)?;
    let theta = fit_rows(k, rows.iter().zip(targets))?;
    Some(theta[..k].to_vec())
}

/// The common width of `rows`; `None` when there are none.
fn width(rows: &[Vec<f64>]) -> Option<usize> {
    let k = rows.first()?.len();
    assert!(rows.iter().all(|r| r.len() == k), "ragged feature rows");
    Some(k)
}

/// Least squares over `k`-wide `(row, target)` samples, summed in the
/// order given; the first `k` entries of the result are the fit.
fn fit_rows<'a>(
    k: usize,
    samples: impl Iterator<Item = (&'a Vec<f64>, &'a f64)>,
) -> Option<[f64; MAX_K]> {
    assert!(k <= MAX_K, "at most {MAX_K} features, got {k}");
    // Normal equations: (XᵀX) θ = Xᵀy.
    let mut ata = [[0.0; MAX_K]; MAX_K];
    let mut aty = [0.0; MAX_K];
    for (row, &y) in samples {
        for i in 0..k {
            aty[i] += row[i] * y;
            for j in 0..k {
                ata[i][j] += row[i] * row[j];
            }
        }
    }
    solve(k, ata, aty)
}

/// Solves the leading `k`×`k` system `A x = b` by Gaussian elimination
/// with partial pivoting.
fn solve(k: usize, mut a: [[f64; MAX_K]; MAX_K], mut b: [f64; MAX_K]) -> Option<[f64; MAX_K]> {
    for col in 0..k {
        // Pivot.
        let pivot = (col..k).max_by(|&i, &j| {
            a[i][col]
                .abs()
                .partial_cmp(&a[j][col].abs())
                .expect("NaN in normal matrix")
        })?;
        if a[pivot][col].abs() < 1e-18 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        // Eliminate below.
        let pivot_row = a[col];
        for row in col + 1..k {
            let f = a[row][col] / pivot_row[col];
            for (v, p) in a[row][col..k].iter_mut().zip(&pivot_row[col..k]) {
                *v -= f * p;
            }
            b[row] -= f * b[col];
        }
    }
    // Back-substitution.
    let mut x = [0.0; MAX_K];
    for col in (0..k).rev() {
        let mut acc = b[col];
        for (a, x) in a[col][col + 1..k].iter().zip(&x[col + 1..k]) {
            acc -= a * x;
        }
        x[col] = acc / a[col][col];
    }
    Some(x)
}

/// Fits `y ≈ max_k (X·θ_k)` — a max-affine model with `k` planes — by
/// alternating partition refitting (Magnani & Boyd). Useful when the
/// target is a roofline: the max of a memory-bound and a compute-bound
/// linear regime.
///
/// Returns `None` when any refit becomes singular with no usable fallback.
///
/// # Panics
///
/// Panics if `k` is zero or inputs are inconsistent.
pub fn fit_max_affine(
    rows: &[Vec<f64>],
    targets: &[f64],
    k: usize,
    iters: usize,
) -> Option<Vec<Vec<f64>>> {
    assert!(k > 0, "need at least one plane");
    assert_eq!(rows.len(), targets.len());
    let dim = width(rows)?;
    if k == 1 {
        return least_squares(rows, targets).map(|t| vec![t]);
    }
    // Initial partition: split by target magnitude (regimes of a roofline
    // sort roughly by latency).
    let mut order: Vec<usize> = (0..rows.len()).collect();
    order.sort_by(|&a, &b| targets[a].partial_cmp(&targets[b]).expect("NaN target"));
    let mut assign = vec![0usize; rows.len()];
    for (pos, &i) in order.iter().enumerate() {
        assign[i] = pos * k / rows.len();
    }
    let mut planes: Vec<[f64; MAX_K]> = Vec::with_capacity(k);
    for _ in 0..iters {
        // Refit each plane from the rows assigned to it, in row order;
        // if any is singular, every plane takes the fit of all rows.
        planes.clear();
        for p in 0..k {
            let members = || {
                rows.iter()
                    .zip(targets)
                    .zip(&assign)
                    .filter(|(_, &a)| a == p)
            };
            let plane = if members().count() >= dim {
                fit_rows(dim, members().map(|(sample, _)| sample))
            } else {
                None
            };
            match plane {
                Some(plane) => planes.push(plane),
                None => break,
            }
        }
        if planes.len() < k {
            let all = fit_rows(dim, rows.iter().zip(targets))?;
            planes.clear();
            planes.resize(k, all);
        }
        // Reassign each point to the plane that predicts highest there
        // (the plane that would represent it in the max).
        let mut changed = false;
        for (row, a) in rows.iter().zip(&mut assign) {
            let best = (0..k)
                .max_by(|&a, &b| {
                    predict(&planes[a][..dim], row)
                        .partial_cmp(&predict(&planes[b][..dim], row))
                        .expect("NaN prediction")
                })
                .expect("k > 0");
            if best != *a {
                *a = best;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    Some(planes.iter().map(|p| p[..dim].to_vec()).collect())
}

/// Evaluates a max-affine model at a feature vector.
pub fn predict_max_affine(planes: &[Vec<f64>], features: &[f64]) -> f64 {
    planes
        .iter()
        .map(|p| predict(p, features))
        .fold(f64::NEG_INFINITY, f64::max)
}

/// Dot product of a coefficient vector with a feature vector.
///
/// # Panics
///
/// Panics in debug builds on length mismatch.
pub fn predict(theta: &[f64], features: &[f64]) -> f64 {
    debug_assert_eq!(theta.len(), features.len());
    theta.iter().zip(features).map(|(t, f)| t * f).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_fit_quadratic() {
        // y = 3a + 5b - 2, features [a, b, 1].
        let rows: Vec<Vec<f64>> = (0..20)
            .map(|i| {
                let a = i as f64;
                let b = (i * i % 7) as f64;
                vec![a, b, 1.0]
            })
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| 3.0 * r[0] + 5.0 * r[1] - 2.0).collect();
        let theta = least_squares(&rows, &y).unwrap();
        assert!((theta[0] - 3.0).abs() < 1e-9);
        assert!((theta[1] - 5.0).abs() < 1e-9);
        assert!((theta[2] + 2.0).abs() < 1e-9);
    }

    #[test]
    fn singular_returns_none() {
        // Two identical columns → singular.
        let rows = vec![vec![1.0, 1.0], vec![2.0, 2.0], vec![3.0, 3.0]];
        assert!(least_squares(&rows, &[1.0, 2.0, 3.0]).is_none());
    }

    #[test]
    fn empty_input_returns_none() {
        assert!(least_squares(&[], &[]).is_none());
    }

    #[test]
    fn least_squares_minimizes_noise() {
        // Noisy y = 2x with symmetric noise: slope should be near 2.
        let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64, 1.0]).collect();
        let y: Vec<f64> = (0..100)
            .map(|i| 2.0 * i as f64 + if i % 2 == 0 { 0.5 } else { -0.5 })
            .collect();
        let theta = least_squares(&rows, &y).unwrap();
        assert!((theta[0] - 2.0).abs() < 0.01, "slope {}", theta[0]);
    }

    #[test]
    fn predict_is_dot_product() {
        assert_eq!(predict(&[2.0, -1.0], &[3.0, 4.0]), 2.0);
    }

    #[test]
    fn max_affine_recovers_roofline() {
        // y = max(3a + 1, 0.5a + 20): kink at a ≈ 7.6.
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64, 1.0]).collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| (3.0 * r[0] + 1.0f64).max(0.5 * r[0] + 20.0))
            .collect();
        let planes = fit_max_affine(&rows, &y, 2, 20).unwrap();
        for (r, &truth) in rows.iter().zip(&y) {
            let est = predict_max_affine(&planes, r);
            assert!(
                (est - truth).abs() / truth < 0.05,
                "at {r:?}: est {est} vs {truth}"
            );
        }
    }

    #[test]
    fn max_affine_k1_equals_least_squares() {
        let rows = vec![vec![1.0, 1.0], vec![2.0, 1.0], vec![3.0, 1.0]];
        let y = [2.0, 4.0, 6.0];
        let planes = fit_max_affine(&rows, &y, 1, 5).unwrap();
        let theta = least_squares(&rows, &y).unwrap();
        assert_eq!(planes[0], theta);
    }
}
