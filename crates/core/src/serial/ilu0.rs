//! Zero-fill incomplete factorization ILU(0).
//!
//! The static-pattern baseline the paper contrasts ILUT against: no fill is
//! allowed, so `L + U` has exactly the pattern of `A` and concurrency can be
//! extracted with a one-time colouring (paper Figure 1a).

use crate::breakdown::PivotDoctor;
use crate::factors::LuFactors;
use crate::options::{BreakdownPolicy, FactorError};
use pilut_sparse::{CsrMatrix, WorkRow};

/// Computes ILU(0): Gaussian elimination restricted to the pattern of `A`.
///
/// Aborts on the first unusable pivot; use [`ilu0_with`] to recover instead.
pub fn ilu0(a: &CsrMatrix) -> Result<LuFactors, FactorError> {
    ilu0_with(a, BreakdownPolicy::Abort)
}

/// [`ilu0`] with an explicit [`BreakdownPolicy`] for unusable pivots. Note
/// that the recovery policies may shrink the factor pattern below the
/// pattern of `A` (scrubbed entries, replaced rows).
pub fn ilu0_with(a: &CsrMatrix, policy: BreakdownPolicy) -> Result<LuFactors, FactorError> {
    assert_eq!(a.n_rows(), a.n_cols(), "ILU(0) needs a square matrix");
    policy.validate()?;
    let mut doctor = PivotDoctor::new(policy);
    let n = a.n_rows();
    // The factor pattern is A's: a symmetric pattern splits its
    // off-diagonal entries evenly between the strict parts.
    let half = a.nnz().saturating_sub(n) / 2;
    let mut f = LuFactors::with_capacity(n, 1, half, half);
    let mut w = WorkRow::new(n);
    let mut lower: Vec<(usize, f64)> = Vec::new();
    let mut upper: Vec<(usize, f64)> = Vec::new();
    for i in 0..n {
        let (cols, vals) = a.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            w.set(j, v);
        }
        // Pivots are exactly the lower-pattern positions of row i (no fill
        // can appear, so a simple ascending sweep over the original pattern
        // is a complete elimination order).
        lower.clear();
        for &k in cols.iter().filter(|&&k| k < i) {
            let wk = w.get(k);
            // lint: allow(float-eq): skips exactly cancelled multipliers
            if wk == 0.0 {
                // The position is part of the pattern even when the value
                // cancelled to zero — ILU(0) is defined by structure alone.
                lower.push((k, 0.0));
                w.drop_pos(k);
                continue;
            }
            let (ucols, uvals) = f.u_row(k);
            let mult = wk / f.diag(k)[0];
            lower.push((k, mult));
            // Update only positions already present in row i.
            for (&j, &uv) in ucols.iter().zip(uvals) {
                if w.contains(j) {
                    w.add(j, -mult * uv);
                }
            }
            w.drop_pos(k);
        }
        upper.clear();
        for (j, v) in w.drain_sorted() {
            if j >= i {
                upper.push((j, v));
            }
        }
        doctor.repair_row(i, a.row_norm2(i), &mut lower, &mut upper)?;
        f.push_row(&lower, &upper);
    }
    Ok(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::IlutOptions;
    use crate::serial::ilut::ilut;
    use pilut_sparse::gen;

    #[test]
    fn pattern_matches_original_matrix() {
        let a = gen::convection_diffusion_2d(6, 6, 3.0, 1.0);
        let f = ilu0(&a).unwrap();
        f.check_structure().unwrap();
        for i in 0..a.n_rows() {
            let (cols, _) = a.row(i);
            let mut merged: Vec<usize> = f.l_row(i).0.to_vec();
            merged.push(i);
            merged.extend_from_slice(f.u_row(i).0);
            assert_eq!(merged, cols.to_vec(), "row {i} pattern changed");
        }
    }

    #[test]
    fn tridiagonal_ilu0_is_exact() {
        // A tridiagonal matrix creates no fill, so ILU(0) = LU exactly.
        let a = gen::laplace_2d(10, 1);
        let f = ilu0(&a).unwrap();
        let x_true: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let b = a.spmv_owned(&x_true);
        let x = f.solve(&b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-12);
        }
    }

    #[test]
    fn agrees_with_unbounded_ilut_on_no_fill_matrix() {
        let a = gen::laplace_2d(12, 1);
        let f0 = ilu0(&a).unwrap();
        let ft = ilut(&a, &IlutOptions::new(100, 0.0)).unwrap();
        assert_eq!(f0, ft);
    }

    #[test]
    fn zero_pivot_detected() {
        use pilut_sparse::CsrMatrix;
        let a = CsrMatrix::from_raw(2, 2, vec![0, 1, 2], vec![1, 0], vec![1.0, 1.0]);
        assert_eq!(
            ilu0(&a).err(),
            Some(FactorError::StructurallySingular { row: 0 })
        );
    }

    #[test]
    fn recovery_policies_factor_the_singular_pattern() {
        use crate::options::BreakdownPolicy;
        use pilut_sparse::CsrMatrix;
        let a = CsrMatrix::from_raw(2, 2, vec![0, 1, 2], vec![1, 0], vec![1.0, 1.0]);
        for policy in [BreakdownPolicy::shift(), BreakdownPolicy::ReplaceRow] {
            let f = ilu0_with(&a, policy).unwrap();
            f.check_structure().unwrap();
        }
    }
}
