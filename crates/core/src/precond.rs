//! Preconditioner interface and serial implementations.

use crate::factors::LuFactors;
use crate::options::FactorError;
use pilut_sparse::CsrMatrix;
use std::sync::{Mutex, PoisonError};

/// A preconditioner `M`: given a residual-like vector `r`, produces
/// `z ≈ M⁻¹ r`.
pub trait Preconditioner {
    fn apply(&self, r: &[f64]) -> Vec<f64>;

    /// Applies `M⁻¹ r` into a caller-owned buffer — the zero-allocation
    /// steady-state form. The default delegates to
    /// [`Preconditioner::apply`] (and so still allocates); the in-repo
    /// implementations override it with true in-place solves.
    fn apply_into(&self, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(&self.apply(r));
    }

    /// Display name for experiment tables.
    fn name(&self) -> String {
        "preconditioner".to_string()
    }
}

/// No preconditioning (`M = I`).
pub struct IdentityPreconditioner;

impl Preconditioner for IdentityPreconditioner {
    fn apply(&self, r: &[f64]) -> Vec<f64> {
        r.to_vec()
    }

    fn apply_into(&self, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
    }

    fn name(&self) -> String {
        "none".to_string()
    }
}

/// Diagonal (Jacobi) preconditioning — the baseline of the paper's Table 3.
pub struct DiagonalPreconditioner {
    inv_diag: Vec<f64>,
}

impl DiagonalPreconditioner {
    /// # Panics
    /// Panics if the matrix has a zero or non-finite diagonal entry; use
    /// [`DiagonalPreconditioner::try_new`] to get a typed error instead.
    pub fn new(a: &CsrMatrix) -> Self {
        // lint: allow(unwrap): documented panic on unusable diagonals
        Self::try_new(a).expect("unusable diagonal")
    }

    /// Builds Jacobi preconditioning, reporting an unusable diagonal entry
    /// as a typed error — the fallible entry point the robust-solve ladder
    /// uses to decide whether this rung is available at all.
    pub fn try_new(a: &CsrMatrix) -> Result<Self, FactorError> {
        let mut inv_diag = Vec::with_capacity(a.n_rows());
        for (i, &d) in a.diagonal().iter().enumerate() {
            if !d.is_finite() {
                return Err(FactorError::NonFinite { row: i });
            }
            // lint: allow(float-eq): exact zero-diagonal guard
            if d == 0.0 {
                return Err(FactorError::ZeroPivot { row: i });
            }
            inv_diag.push(1.0 / d);
        }
        Ok(DiagonalPreconditioner { inv_diag })
    }
}

impl Preconditioner for DiagonalPreconditioner {
    fn apply(&self, r: &[f64]) -> Vec<f64> {
        r.iter().zip(&self.inv_diag).map(|(x, d)| x * d).collect()
    }

    fn apply_into(&self, r: &[f64], z: &mut [f64]) {
        for ((zi, x), d) in z.iter_mut().zip(r).zip(&self.inv_diag) {
            *zi = x * d;
        }
    }

    fn name(&self) -> String {
        "Diagonal".to_string()
    }
}

/// Incomplete-LU preconditioning: `M⁻¹ r = U⁻¹ L⁻¹ r`, for scalar and
/// blocked factors alike.
pub struct IluPreconditioner {
    factors: LuFactors,
    label: String,
    /// Padded solve buffer, present only when the block size does not
    /// divide `n`: the sweeps then work over `padded_len() > n` lanes, so
    /// the in-place apply stages through this scratch (reserved once here)
    /// and copies the first `n` lanes out. Otherwise the sweeps run
    /// directly in the caller's buffer. Behind a mutex because `apply_into`
    /// takes `&self` — preconditioners are shared immutably by the solvers.
    padded: Option<Mutex<Vec<f64>>>,
}

impl IluPreconditioner {
    /// Wraps factors as a preconditioner, labelled `ILU` (or `BILU(b)` for
    /// blocked factors).
    pub fn new(factors: LuFactors) -> Self {
        let label = match factors.block_size() {
            1 => "ILU".to_string(),
            b => format!("BILU({b})"),
        };
        Self::with_label(factors, label)
    }

    /// Wraps factors with a custom label for reporting.
    pub fn with_label(factors: LuFactors, label: impl Into<String>) -> Self {
        let padded = (factors.padded_len() != factors.n())
            .then(|| Mutex::new(vec![0.0; factors.padded_len()]));
        IluPreconditioner {
            factors,
            label: label.into(),
            padded,
        }
    }

    /// The underlying factors.
    pub fn factors(&self) -> &LuFactors {
        &self.factors
    }
}

impl Preconditioner for IluPreconditioner {
    fn apply(&self, r: &[f64]) -> Vec<f64> {
        self.factors.solve(r)
    }

    fn apply_into(&self, r: &[f64], z: &mut [f64]) {
        match &self.padded {
            None => self.factors.solve_into(r, z),
            Some(padded) => {
                // Every solve overwrites the whole scratch, so a guard
                // poisoned by an earlier panic holds nothing to distrust.
                let mut padded = padded.lock().unwrap_or_else(PoisonError::into_inner);
                self.factors.solve_into(r, &mut padded);
                z.copy_from_slice(&padded[..z.len()]);
            }
        }
    }

    fn name(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::IlutOptions;
    use crate::serial::{block_ilut, ilut};
    use pilut_sparse::gen;

    #[test]
    fn identity_is_noop() {
        let r = vec![1.0, -2.0];
        assert_eq!(IdentityPreconditioner.apply(&r), r);
    }

    #[test]
    fn diagonal_scales() {
        let a = gen::laplace_2d(3, 3); // diagonal entries all equal
        let p = DiagonalPreconditioner::new(&a);
        let d = a.get(0, 0).unwrap();
        let z = p.apply(&[d; 9]);
        for zi in z {
            assert!((zi - 1.0).abs() < 1e-15);
        }
    }

    #[test]
    fn ilu_preconditioner_applies_factors() {
        let a = gen::laplace_2d(5, 5);
        let f = ilut(&a, &IlutOptions::new(25, 0.0)).unwrap();
        let x_true = vec![2.0; 25];
        let b = a.spmv_owned(&x_true);
        let p = IluPreconditioner::with_label(f, "ILUT(25,0)");
        let x = p.apply(&b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9);
        }
        assert_eq!(p.name(), "ILUT(25,0)");
    }

    #[test]
    fn ilu_preconditioner_applies_blocked_factors() {
        use pilut_sparse::BcsrMatrix;
        let a = gen::laplace_2d(5, 5); // n = 25: b = 4 pads, b = 1 does not
        let x_true = vec![2.0; 25];
        let b = a.spmv_owned(&x_true);
        for (bs, name) in [(4, "BILU(4)"), (1, "ILU")] {
            let ab = BcsrMatrix::from_csr(&a, bs);
            let f = block_ilut(&ab, &IlutOptions::new(25, 0.0)).unwrap();
            let p = IluPreconditioner::new(f);
            assert_eq!(p.name(), name);
            let mut z = vec![0.0; 25];
            p.apply_into(&b, &mut z);
            assert_eq!(z, p.apply(&b), "{name}: apply_into vs apply");
            for (xi, ti) in z.iter().zip(&x_true) {
                assert!((xi - ti).abs() < 1e-9, "{name}");
            }
        }
    }
}
