//! Property-based tests for the estimator.

use estimator::linreg::{fit_max_affine, least_squares, predict, predict_max_affine};
use estimator::{ContentionGuard, GuardQuery};
use proptest::prelude::*;

/// The fits as they were before they moved onto fixed-size stack
/// arrays: per-fit `Vec` matrices, a cloned pivot row, and each plane
/// refit from a fresh copy of its rows. Kept as the reference the
/// in-place fits must match bit for bit.
mod reference {
    use estimator::linreg::predict;

    pub fn least_squares(rows: &[Vec<f64>], targets: &[f64]) -> Option<Vec<f64>> {
        assert_eq!(rows.len(), targets.len(), "rows/targets length mismatch");
        let n = rows.len();
        if n == 0 {
            return None;
        }
        let k = rows[0].len();
        assert!(rows.iter().all(|r| r.len() == k), "ragged feature rows");
        let mut ata = vec![vec![0.0; k]; k];
        let mut aty = vec![0.0; k];
        for (row, &y) in rows.iter().zip(targets) {
            for i in 0..k {
                aty[i] += row[i] * y;
                for j in 0..k {
                    ata[i][j] += row[i] * row[j];
                }
            }
        }
        solve(ata, aty)
    }

    fn solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
        let k = b.len();
        for col in 0..k {
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
            let pivot_row = a[col].clone();
            for row in col + 1..k {
                let f = a[row][col] / pivot_row[col];
                for (j, v) in a[row].iter_mut().enumerate().skip(col) {
                    *v -= f * pivot_row[j];
                }
                b[row] -= f * b[col];
            }
        }
        let mut x = vec![0.0; k];
        for col in (0..k).rev() {
            let mut acc = b[col];
            for j in col + 1..k {
                acc -= a[col][j] * x[j];
            }
            x[col] = acc / a[col][col];
        }
        Some(x)
    }

    pub fn fit_max_affine(
        rows: &[Vec<f64>],
        targets: &[f64],
        k: usize,
        iters: usize,
    ) -> Option<Vec<Vec<f64>>> {
        assert!(k > 0, "need at least one plane");
        assert_eq!(rows.len(), targets.len());
        if rows.is_empty() {
            return None;
        }
        if k == 1 {
            return least_squares(rows, targets).map(|t| vec![t]);
        }
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_by(|&a, &b| targets[a].partial_cmp(&targets[b]).expect("NaN target"));
        let mut assign = vec![0usize; rows.len()];
        for (pos, &i) in order.iter().enumerate() {
            assign[i] = pos * k / rows.len();
        }
        let mut planes: Vec<Vec<f64>> = Vec::new();
        for _ in 0..iters {
            planes = (0..k)
                .map(|p| {
                    let idx: Vec<usize> = (0..rows.len()).filter(|&i| assign[i] == p).collect();
                    if idx.len() >= rows[0].len() {
                        let r: Vec<Vec<f64>> = idx.iter().map(|&i| rows[i].clone()).collect();
                        let t: Vec<f64> = idx.iter().map(|&i| targets[i]).collect();
                        least_squares(&r, &t)
                    } else {
                        None
                    }
                })
                .collect::<Option<Vec<_>>>()
                .or_else(|| least_squares(rows, targets).map(|t| vec![t; k]))?;
            let mut changed = false;
            for i in 0..rows.len() {
                let best = (0..k)
                    .max_by(|&a, &b| {
                        predict(&planes[a], &rows[i])
                            .partial_cmp(&predict(&planes[b], &rows[i]))
                            .expect("NaN prediction")
                    })
                    .expect("k > 0");
                if best != assign[i] {
                    assign[i] = best;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        Some(planes)
    }
}

/// Feature values: continuous; small integers that make repeated rows,
/// ties between targets and ties between planes likely; and tiny values
/// whose normal matrices fall near the solver's singularity threshold.
fn feature() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1_000.0f64..1_000.0,
        (0u8..4).prop_map(f64::from),
        Just(0.0),
        -1e-9f64..1e-9,
    ]
}

/// Up to 60 rows of `width` features cut from `cells`, with column
/// `degenerate - 1` (when non-zero and in range) overwritten by column 0
/// or by zeros, so the normal matrix is often singular.
fn rows_of(width: usize, cells: &[f64], degenerate: usize, zero: bool) -> Vec<Vec<f64>> {
    cells
        .chunks_exact(width)
        .take(60)
        .map(|c| {
            let mut row = c.to_vec();
            if (1..width).contains(&(degenerate.wrapping_sub(1))) {
                row[degenerate - 1] = if zero { 0.0 } else { row[0] };
            }
            row
        })
        .collect()
}

/// A fit's coefficients as bit patterns, for exact comparison.
fn bits(fit: Option<Vec<f64>>) -> Option<Vec<u64>> {
    fit.map(|t| t.iter().map(|x| x.to_bits()).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The in-place least squares returns the reference's coefficients
    /// bit for bit, and `None` in the same cases: empty, too few rows,
    /// and rank-deficient sets.
    #[test]
    fn least_squares_matches_the_reference_bit_for_bit(
        width in 1usize..9,
        cells in prop::collection::vec(feature(), 0..240),
        targets in prop::collection::vec(feature(), 60..61),
        degenerate in 0usize..9,
        zero in any::<bool>(),
    ) {
        let rows = rows_of(width, &cells, degenerate, zero);
        let targets = &targets[..rows.len()];
        prop_assert_eq!(
            bits(least_squares(&rows, targets)),
            bits(reference::least_squares(&rows, targets))
        );
    }

    /// The in-place max-affine fit returns the reference's planes bit
    /// for bit, and `None` in the same cases, for one to three planes,
    /// any iteration budget, and rank-deficient row sets.
    #[test]
    fn max_affine_matches_the_reference_bit_for_bit(
        width in 1usize..5,
        cells in prop::collection::vec(feature(), 0..240),
        targets in prop::collection::vec(feature(), 60..61),
        degenerate in 0usize..5,
        zero in any::<bool>(),
        planes in 1usize..4,
        iters in 0usize..21,
    ) {
        let rows = rows_of(width, &cells, degenerate, zero);
        let targets = &targets[..rows.len()];
        let plane_bits =
            |fit: Option<Vec<Vec<f64>>>| fit.map(|ps| ps.into_iter().map(|p| bits(Some(p))).collect::<Vec<_>>());
        prop_assert_eq!(
            plane_bits(fit_max_affine(&rows, targets, planes, iters)),
            plane_bits(reference::fit_max_affine(&rows, targets, planes, iters))
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Least squares recovers exact linear relationships.
    #[test]
    fn least_squares_recovers_exact_fit(
        a in -100.0f64..100.0,
        b in -100.0f64..100.0,
        xs in prop::collection::vec(-1000.0f64..1000.0, 5..50),
    ) {
        // Need at least two distinct x values for a well-posed fit.
        prop_assume!(xs.iter().any(|&x| (x - xs[0]).abs() > 1e-6));
        let rows: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x, 1.0]).collect();
        let y: Vec<f64> = xs.iter().map(|&x| a * x + b).collect();
        let theta = least_squares(&rows, &y).expect("well-posed");
        for (row, target) in rows.iter().zip(&y) {
            prop_assert!((predict(&theta, row) - target).abs() < 1e-6 * (1.0 + target.abs()));
        }
    }

    /// Max-affine fitting reproduces any max-of-two-lines target closely.
    #[test]
    fn max_affine_recovers_two_lines(
        a1 in 0.1f64..10.0, b1 in -50.0f64..50.0,
        a2 in 0.1f64..10.0, b2 in -50.0f64..50.0,
    ) {
        // Require a visible kink inside the sample range.
        prop_assume!((a1 - a2).abs() > 0.2);
        let kink = (b2 - b1) / (a1 - a2);
        prop_assume!((5.0..95.0).contains(&kink));
        let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64, 1.0]).collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| (a1 * r[0] + b1).max(a2 * r[0] + b2))
            .collect();
        let planes = fit_max_affine(&rows, &y, 2, 25).expect("fits");
        prop_assert_eq!(&planes, &reference::fit_max_affine(&rows, &y, 2, 25).expect("fits"));
        for (r, &target) in rows.iter().zip(&y) {
            let est = predict_max_affine(&planes, r);
            prop_assert!(
                (est - target).abs() <= 0.08 * (1.0 + target.abs()),
                "at x={}: est {est} vs {target}",
                r[0]
            );
        }
    }

    /// The guard is monotone under observation: observing can never
    /// lower any cell, and the global max dominates every cell.
    #[test]
    fn guard_observation_is_monotone(
        observations in prop::collection::vec(
            (0u64..200_000, 0u64..200_000, 1usize..512, 0u64..200_000, 0u32..7, 0.5f64..2.0),
            1..60,
        ),
    ) {
        let mut guard = ContentionGuard::flat(1.0);
        let mut queries = Vec::new();
        for (pn, pr, bs, dc, sms_idx, slow) in observations {
            let q = GuardQuery {
                prefill_new: pn,
                prefill_reused: pr,
                decode_batch: bs,
                decode_context: dc,
                decode_sms: 16 * (sms_idx + 1),
            };
            let before = guard.factor(&q);
            guard.observe(&q, slow);
            let after = guard.factor(&q);
            prop_assert!(after >= slow.max(1.0) - 1e-12);
            prop_assert!(after + 1e-12 >= before.min(slow.max(1.0)));
            queries.push(q);
        }
        for q in &queries {
            prop_assert!(guard.factor(q) <= guard.max_slowdown() + 1e-12);
            prop_assert!(guard.factor(q) >= 1.0);
        }
    }
}
