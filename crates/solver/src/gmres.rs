//! Restarted GMRES with right preconditioning — one kernel for both
//! execution modes.
//!
//! [`gmres()`] and [`crate::dist_gmres::dist_gmres`] run the same restarted
//! Arnoldi/Givens recurrence, `restart_cycles`. They differ only in the
//! space the vectors live in, which a `Space` supplies: the inner
//! product (a local sum, or a local sum then an all-reduce), the operator
//! and preconditioner actions, the logical-clock charge for local vector
//! work, and whether a correction is finite on every rank.

use crate::report::Breakdown;
use pilut_core::dist::op::LinOp;
use pilut_core::precond::Preconditioner;
use pilut_sparse::vec_ops::{axpy, dot};

/// Solver parameters.
#[derive(Clone, Debug)]
pub struct GmresOptions {
    /// Inner (Krylov) dimension before restarting — GMRES(restart).
    pub restart: usize,
    /// Stop when `‖r‖ ≤ rtol · ‖r₀‖`.
    pub rtol: f64,
    /// Hard cap on matrix–vector products.
    pub max_matvecs: usize,
}

impl Default for GmresOptions {
    fn default() -> Self {
        GmresOptions {
            restart: 30,
            rtol: 1e-7,
            max_matvecs: 10_000,
        }
    }
}

/// Solver outcome.
#[derive(Clone, Debug)]
pub struct GmresResult {
    pub x: Vec<f64>,
    pub converged: bool,
    /// Matrix–vector products performed (the paper's "NMV" column).
    pub matvecs: usize,
    /// Final relative residual (true residual, recomputed).
    pub rel_residual: f64,
    /// Residual-norm history: the residual norm at the top of each restart
    /// cycle, then the Givens estimate after each inner step — one entry
    /// per matvec on a clean convergence.
    pub history: Vec<f64>,
    /// Why the iteration stopped early, when it did not converge cleanly:
    /// non-finite poisoning of the Arnoldi process or stagnation across
    /// restart cycles. `None` on clean convergence or a plain budget stop.
    pub breakdown: Option<Breakdown>,
}

/// The space GMRES iterates in: everything the serial and the distributed
/// solve do differently.
pub(crate) trait Space {
    /// The inner product `aᵀb` (collective when distributed).
    fn dot(&mut self, a: &[f64], b: &[f64]) -> f64;
    /// `y = A x`.
    fn matvec(&mut self, x: &[f64], y: &mut [f64]);
    /// `z = M⁻¹ r`.
    fn precond(&mut self, r: &[f64], z: &mut [f64]);
    /// Charges `flops` of local vector work to the logical clock.
    fn work(&mut self, flops: f64);
    /// Whether `z` is finite everywhere — on every rank, when distributed,
    /// so that all ranks take the same branch.
    fn agree_finite(&mut self, z: &[f64]) -> bool;
}

/// The serial space: plain dot products, no logical clock.
struct Serial<'a, A: ?Sized> {
    a: &'a A,
    precond: &'a dyn Preconditioner,
}

impl<A: LinOp + ?Sized> Space for Serial<'_, A> {
    fn dot(&mut self, a: &[f64], b: &[f64]) -> f64 {
        dot(a, b)
    }

    fn matvec(&mut self, x: &[f64], y: &mut [f64]) {
        self.a.apply_into(x, y);
    }

    fn precond(&mut self, r: &[f64], z: &mut [f64]) {
        self.precond.apply_into(r, z);
    }

    fn work(&mut self, _flops: f64) {}

    fn agree_finite(&mut self, z: &[f64]) -> bool {
        z.iter().all(|zi| zi.is_finite())
    }
}

/// Solves `A x = b` with right-preconditioned GMRES(restart):
/// iterates on `A M⁻¹ u = b`, `x = M⁻¹ u`. The operator is any [`LinOp`]
/// (a plain `CsrMatrix` at every existing call site).
pub fn gmres<A: LinOp + ?Sized>(
    a: &A,
    b: &[f64],
    precond: &dyn Preconditioner,
    opts: &GmresOptions,
) -> GmresResult {
    assert_eq!(b.len(), a.n_rows());
    let x = vec![0.0; b.len()];
    krylov(&mut Serial { a, precond }, b, x, opts, None)
}

/// GMRES(restart) in `space` from the iterate `x`. When `ckpt` is given it
/// is overwritten with the iterate at the end of every restart cycle.
pub(crate) fn krylov<S: Space>(
    space: &mut S,
    b: &[f64],
    mut x: Vec<f64>,
    opts: &GmresOptions,
    ckpt: Option<&mut Vec<f64>>,
) -> GmresResult {
    let n = b.len();
    let b_norm = space.dot(b, b).sqrt();
    // lint: allow(float-eq): exact zero-RHS short-circuit
    if b_norm == 0.0 {
        // The exact solution of `A x = 0` is zero whatever the start.
        x.fill(0.0);
        return GmresResult {
            x,
            converged: true,
            matvecs: 0,
            rel_residual: 0.0,
            history: Vec::new(),
            breakdown: None,
        };
    }
    let m = opts.restart.max(1);
    let ws = Workspace {
        v: (0..=m).map(|_| vec![0.0; n]).collect(),
        h: vec![vec![0.0; m]; m + 1],
        cs: vec![0.0; m],
        sn: vec![0.0; m],
        g: vec![0.0; m + 1],
        y: vec![0.0; m],
        ax: vec![0.0; n],
        z: vec![0.0; n],
        w: vec![0.0; n],
        vy: vec![0.0; n],
        history: Vec::new(),
    };
    restart_cycles(space, b, b_norm, x, opts, ws, ckpt)
}

/// The per-solve workspace, allocated once: the Krylov basis `v`, the
/// Hessenberg matrix `h[i][j]`, the Givens cosines and sines, the rotated
/// right-hand side `g` and the least-squares solution `y`, the length-n
/// staging vectors (`A x`, `M⁻¹ v`, the new column, `V y`) and the
/// residual history. Restart cycles and inner iterations only reuse it.
struct Workspace {
    v: Vec<Vec<f64>>,
    h: Vec<Vec<f64>>,
    cs: Vec<f64>,
    sn: Vec<f64>,
    g: Vec<f64>,
    y: Vec<f64>,
    ax: Vec<f64>,
    z: Vec<f64>,
    w: Vec<f64>,
    vy: Vec<f64>,
    history: Vec<f64>,
}

/// The restart cycles of GMRES(m), after the one-time workspace
/// allocation: modified Gram–Schmidt Arnoldi, Givens rotations for the
/// least-squares problem, `x += M⁻¹ (V y)` at the end of each cycle.
///
/// The inner loop and the end-of-cycle correction run under the
/// `gmres_inner` allocation-audit region and acquire nothing; the history
/// reserves its cycle's entries before the region opens. Distributed, each
/// `space.work` charge advances the logical clock between two collectives:
/// moving one changes the simulated time the golden pins record.
fn restart_cycles<S: Space>(
    space: &mut S,
    b: &[f64],
    b_norm: f64,
    mut x: Vec<f64>,
    opts: &GmresOptions,
    ws: Workspace,
    mut ckpt: Option<&mut Vec<f64>>,
) -> GmresResult {
    let Workspace {
        mut v,
        mut h,
        mut cs,
        mut sn,
        mut g,
        mut y,
        mut ax,
        mut z,
        mut w,
        mut vy,
        mut history,
    } = ws;
    let n = b.len() as f64;
    let m = y.len();
    let target = opts.rtol * b_norm;
    let mut matvecs = 0usize;
    let mut breakdown: Option<Breakdown> = None;
    // Stagnation watch: restart cycles in a row without measurable progress.
    let mut prev_beta = f64::INFINITY;
    let mut stalled_cycles = 0usize;

    'outer: loop {
        // r = b - A x, normalized straight into the first basis vector.
        space.matvec(&x, &mut ax);
        matvecs += 1;
        for ((ri, bi), yi) in v[0].iter_mut().zip(b).zip(&ax) {
            *ri = bi - yi;
        }
        let beta = space.dot(&v[0], &v[0]).sqrt();
        history.push(beta);
        if !beta.is_finite() {
            breakdown = Some(Breakdown::NonFinite { at: matvecs });
            break 'outer;
        }
        if beta <= target || matvecs >= opts.max_matvecs {
            return GmresResult {
                x,
                converged: beta <= target,
                matvecs,
                rel_residual: beta / b_norm,
                history,
                breakdown: None,
            };
        }
        if beta >= prev_beta * (1.0 - 1e-12) {
            stalled_cycles += 1;
            if stalled_cycles >= 2 {
                breakdown = Some(Breakdown::Stagnation { at: matvecs });
                break 'outer;
            }
        } else {
            stalled_cycles = 0;
        }
        prev_beta = beta;
        for ri in &mut v[0] {
            *ri /= beta;
        }
        space.work(n);
        for col in h.iter_mut() {
            col.fill(0.0);
        }
        g.fill(0.0);
        g[0] = beta;
        let mut inner = 0usize;
        // At most one history entry per inner step.
        history.reserve(m);

        let audit = pilut_allocaudit::region("gmres_inner");
        for j in 0..m {
            // w = A M⁻¹ v_j.
            space.precond(&v[j], &mut z);
            space.matvec(&z, &mut w);
            matvecs += 1;
            // Modified Gram–Schmidt.
            for i in 0..=j {
                let hij = space.dot(&w, &v[i]);
                h[i][j] = hij;
                axpy(-hij, &v[i], &mut w);
                space.work(2.0 * n);
            }
            let wn = space.dot(&w, &w).sqrt();
            if !wn.is_finite() {
                // The preconditioner or the operator poisoned this column
                // (NaN/Inf anywhere in w makes its norm non-finite, the
                // same verdict on every rank): discard it and fall through
                // to the clean-prefix solve below.
                breakdown = Some(Breakdown::NonFinite { at: matvecs });
                inner = j;
                break;
            }
            h[j + 1][j] = wn;
            // Apply existing Givens rotations to the new column.
            for i in 0..j {
                let t = cs[i] * h[i][j] + sn[i] * h[i + 1][j];
                h[i + 1][j] = -sn[i] * h[i][j] + cs[i] * h[i + 1][j];
                h[i][j] = t;
            }
            // New rotation annihilating h[j+1][j].
            let denom = (h[j][j] * h[j][j] + wn * wn).sqrt();
            // lint: allow(float-eq): exact-zero guard before division
            if denom == 0.0 {
                // Exact breakdown: the solution lies in the current space.
                inner = j;
                break;
            }
            cs[j] = h[j][j] / denom;
            sn[j] = wn / denom;
            h[j][j] = denom;
            g[j + 1] = -sn[j] * g[j];
            g[j] *= cs[j];
            inner = j + 1;
            history.push(g[j + 1].abs());
            // lint: allow(float-eq): exact (lucky) breakdown test
            let lucky = wn == 0.0;
            if !lucky {
                for (next, wi) in v[j + 1].iter_mut().zip(&w) {
                    *next = wi / wn;
                }
                space.work(n);
            }
            if g[j + 1].abs() <= target || matvecs >= opts.max_matvecs || lucky {
                break;
            }
        }
        // Back-substitute y from the triangular H and accumulate V y.
        y[..inner].fill(0.0);
        for i in (0..inner).rev() {
            let mut s = g[i];
            for k in i + 1..inner {
                s -= h[i][k] * y[k];
            }
            y[i] = s / h[i][i];
        }
        vy.fill(0.0);
        for (i, yi) in y[..inner].iter().enumerate() {
            axpy(*yi, &v[i], &mut vy);
        }
        space.work(2.0 * inner as f64 * n);
        space.precond(&vy, &mut z);
        drop(audit);
        // x += M⁻¹ (V y), guarded: a poisoned correction is discarded on
        // every rank rather than destroying the best iterate so far.
        if space.agree_finite(&z) {
            axpy(1.0, &z, &mut x);
        } else {
            breakdown.get_or_insert(Breakdown::NonFinite { at: matvecs });
        }
        space.work(n);
        // End of the restart cycle: the iterate is consistent on every rank
        // (the correction above was applied under a collective verdict), so
        // this is the safe point to checkpoint for rank-loss recovery.
        if let Some(c) = ckpt.as_deref_mut() {
            c.clear();
            c.extend_from_slice(&x);
        }
        if breakdown.is_some() || matvecs >= opts.max_matvecs {
            break 'outer;
        }
    }
    // Budget exhausted or breakdown: report the true residual.
    space.matvec(&x, &mut ax);
    for ((ri, bi), yi) in w.iter_mut().zip(b).zip(&ax) {
        *ri = bi - yi;
    }
    let mut rel = space.dot(&w, &w).sqrt() / b_norm;
    if !rel.is_finite() {
        rel = f64::INFINITY;
    }
    GmresResult {
        converged: rel <= opts.rtol,
        x,
        matvecs,
        rel_residual: rel,
        history,
        breakdown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pilut_core::precond::{DiagonalPreconditioner, IdentityPreconditioner, IluPreconditioner};
    use pilut_core::serial::{ilut, IlutOptions};
    use pilut_sparse::vec_ops::norm2;
    use pilut_sparse::{gen, CsrMatrix};

    fn problem(nx: usize, cx: f64) -> (CsrMatrix, Vec<f64>, Vec<f64>) {
        let a = gen::convection_diffusion_2d(nx, nx, cx, cx / 2.0);
        let x_true = vec![1.0; a.n_rows()];
        let b = a.spmv_owned(&x_true);
        (a, b, x_true)
    }

    #[test]
    fn converges_unpreconditioned_on_small_spd() {
        let (a, b, x_true) = problem(8, 0.0);
        let r = gmres(&a, &b, &IdentityPreconditioner, &GmresOptions::default());
        assert!(r.converged, "relres {}", r.rel_residual);
        let err: f64 =
            r.x.iter()
                .zip(&x_true)
                .map(|(x, t)| (x - t).abs())
                .fold(0.0, f64::max);
        assert!(err < 1e-5, "err {err}");
    }

    #[test]
    fn ilut_preconditioning_cuts_matvec_count() {
        let (a, b, _) = problem(16, 12.0);
        let plain = gmres(
            &a,
            &b,
            &DiagonalPreconditioner::new(&a),
            &GmresOptions::default(),
        );
        let f = ilut(&a, &IlutOptions::new(10, 1e-4)).unwrap();
        let pre = gmres(&a, &b, &IluPreconditioner::new(f), &GmresOptions::default());
        assert!(pre.converged);
        assert!(
            plain.matvecs > 2 * pre.matvecs,
            "ILUT should slash iterations: diag {} vs ilut {}",
            plain.matvecs,
            pre.matvecs
        );
    }

    #[test]
    fn small_restart_still_converges() {
        let (a, b, _) = problem(12, 6.0);
        let f = ilut(&a, &IlutOptions::new(5, 1e-2)).unwrap();
        let r = gmres(
            &a,
            &b,
            &IluPreconditioner::new(f),
            &GmresOptions {
                restart: 5,
                ..Default::default()
            },
        );
        assert!(r.converged, "relres {}", r.rel_residual);
    }

    #[test]
    fn respects_matvec_budget() {
        let (a, b, _) = problem(16, 20.0);
        let r = gmres(
            &a,
            &b,
            &IdentityPreconditioner,
            &GmresOptions {
                max_matvecs: 7,
                rtol: 1e-14,
                ..Default::default()
            },
        );
        assert!(!r.converged);
        assert!(r.matvecs <= 7);
    }

    #[test]
    fn zero_rhs_returns_zero() {
        let (a, _, _) = problem(5, 0.0);
        let r = gmres(
            &a,
            &vec![0.0; a.n_rows()],
            &IdentityPreconditioner,
            &GmresOptions::default(),
        );
        assert!(r.converged);
        assert!(r.x.iter().all(|&v| v == 0.0));
        assert_eq!(r.matvecs, 0);
    }

    #[test]
    fn history_is_monotone_within_cycles() {
        let (a, b, _) = problem(10, 4.0);
        let r = gmres(&a, &b, &IdentityPreconditioner, &GmresOptions::default());
        // GMRES residuals are non-increasing within a restart cycle; the
        // recorded history interleaves cycles, so check overall reduction.
        assert!(r.history.last().unwrap() < &r.history[0]);
        // One entry per restart cycle plus one per inner step — one per
        // matvec on a clean convergence.
        assert_eq!(r.history.len(), r.matvecs);
    }

    #[test]
    fn unbounded_matvec_budget_converges() {
        let (a, b, _) = problem(10, 4.0);
        let r = gmres(
            &a,
            &b,
            &IdentityPreconditioner,
            &GmresOptions {
                max_matvecs: usize::MAX,
                ..Default::default()
            },
        );
        assert!(r.converged, "relres {}", r.rel_residual);
        assert_eq!(r.history.len(), r.matvecs);
    }

    /// The identity, except that its `k`-th application (1-based) returns a
    /// NaN in the first entry.
    struct PoisonAt {
        k: usize,
        calls: std::cell::Cell<usize>,
    }

    impl Preconditioner for PoisonAt {
        fn apply(&self, r: &[f64]) -> Vec<f64> {
            let mut z = vec![0.0; r.len()];
            self.apply_into(r, &mut z);
            z
        }

        fn apply_into(&self, r: &[f64], z: &mut [f64]) {
            self.calls.set(self.calls.get() + 1);
            z.copy_from_slice(r);
            if self.calls.get() == self.k {
                z[0] = f64::NAN;
            }
        }
    }

    #[test]
    fn poisoned_preconditioner_reports_non_finite_with_a_finite_iterate() {
        let (a, b, _) = problem(10, 4.0);
        // Applications 1 and 2 build two clean Arnoldi columns; the third
        // poisons column three (the fourth matvec), which is discarded.
        let pre = PoisonAt {
            k: 3,
            calls: std::cell::Cell::new(0),
        };
        let r = gmres(&a, &b, &pre, &GmresOptions::default());
        assert_eq!(r.breakdown, Some(Breakdown::NonFinite { at: 4 }));
        assert_eq!(r.matvecs, 4);
        assert!(!r.converged);
        assert!(r.x.iter().all(|v| v.is_finite()));
        // The clean two-column prefix still corrected the zero start.
        assert!(r.rel_residual < 1.0, "relres {}", r.rel_residual);
    }

    #[test]
    fn reported_residual_is_true_residual() {
        let (a, b, _) = problem(9, 3.0);
        let f = ilut(&a, &IlutOptions::new(8, 1e-3)).unwrap();
        let r = gmres(&a, &b, &IluPreconditioner::new(f), &GmresOptions::default());
        let ax = a.spmv_owned(&r.x);
        let resid: Vec<f64> = b.iter().zip(&ax).map(|(bi, yi)| bi - yi).collect();
        let true_rel = norm2(&resid) / norm2(&b);
        assert!((true_rel - r.rel_residual).abs() < 1e-8 || true_rel <= r.rel_residual * 1.5);
    }
}
