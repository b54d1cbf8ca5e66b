//! Distributed restarted GMRES on the `pilut-par` virtual machine.
//!
//! Vectors are distributed in local-view order (interiors then interfaces of
//! each rank). Inner products are all-reduces, the matrix–vector product is
//! any [`DistOperator`] — canonically [`DistCsr`](pilut_core::dist::op::DistCsr),
//! the planned boundary exchange of [`pilut_core::dist::spmv`] — and the
//! preconditioner action is either a diagonal scaling or the parallel
//! ILUT/ILUT\* triangular solves of [`pilut_core::trisolve`]. The
//! recurrence is the one GMRES kernel of [`mod@crate::gmres`] over this
//! space; its small Hessenberg least-squares problem is replicated on every
//! rank — the deterministic reduction tree guarantees bit-identical replicas.

use pilut_core::dist::op::DistOperator;
use pilut_core::dist::{DistMatrix, LocalView};
use pilut_core::parallel::RankFactors;
use pilut_core::trisolve::{dist_solve, dist_solve_into, SolveScratch, TrisolvePlan};
use pilut_par::Ctx;
use pilut_sparse::vec_ops::dot;

use crate::gmres::{krylov, GmresOptions, Space};
use crate::report::Breakdown;

/// A distributed preconditioner: maps a local residual slice to a local
/// correction slice. Collective — every rank calls `apply` together.
pub trait DistPrecond {
    fn apply(&mut self, ctx: &mut Ctx, local: &LocalView, r: &[f64]) -> Vec<f64>;

    /// Applies the correction into a caller-owned buffer — the
    /// zero-allocation steady-state form. The default delegates to
    /// [`DistPrecond::apply`]; the in-repo implementations override it
    /// with in-place solves.
    fn apply_into(&mut self, ctx: &mut Ctx, local: &LocalView, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(&self.apply(ctx, local, r));
    }

    fn name(&self) -> String;
}

/// No preconditioning.
pub struct DistIdentity;

impl DistPrecond for DistIdentity {
    fn apply(&mut self, _ctx: &mut Ctx, _local: &LocalView, r: &[f64]) -> Vec<f64> {
        r.to_vec()
    }

    fn apply_into(&mut self, _ctx: &mut Ctx, _local: &LocalView, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
    }

    fn name(&self) -> String {
        "none".into()
    }
}

/// Diagonal (Jacobi) preconditioning — the paper's baseline.
pub struct DistDiagonal {
    inv_diag: Vec<f64>,
}

impl DistDiagonal {
    /// Extracts the locally owned diagonal for Jacobi preconditioning.
    ///
    /// # Panics
    /// Panics on a zero or non-finite diagonal entry; use
    /// [`DistDiagonal::try_new`] for a typed error.
    pub fn new(dm: &DistMatrix, local: &LocalView) -> Self {
        // lint: allow(unwrap): documented panic on unusable diagonals
        Self::try_new(dm, local).expect("unusable diagonal")
    }

    /// Fallible construction: reports the first locally owned row with an
    /// unusable diagonal instead of panicking.
    pub fn try_new(
        dm: &DistMatrix,
        local: &LocalView,
    ) -> Result<Self, pilut_core::options::FactorError> {
        let mut inv_diag = Vec::with_capacity(local.nodes.len());
        for &g in &local.nodes {
            let d = dm.matrix().get(g, g).unwrap_or(0.0);
            if !d.is_finite() {
                return Err(pilut_core::options::FactorError::NonFinite { row: g });
            }
            // lint: allow(float-eq): exact zero-diagonal guard
            if d == 0.0 {
                return Err(pilut_core::options::FactorError::ZeroPivot { row: g });
            }
            inv_diag.push(1.0 / d);
        }
        Ok(DistDiagonal { inv_diag })
    }
}

impl DistPrecond for DistDiagonal {
    fn apply(&mut self, ctx: &mut Ctx, _local: &LocalView, r: &[f64]) -> Vec<f64> {
        ctx.work(r.len() as f64);
        r.iter().zip(&self.inv_diag).map(|(x, d)| x * d).collect()
    }

    fn apply_into(&mut self, ctx: &mut Ctx, _local: &LocalView, r: &[f64], z: &mut [f64]) {
        ctx.work(r.len() as f64);
        for ((zi, x), d) in z.iter_mut().zip(r).zip(&self.inv_diag) {
            *zi = x * d;
        }
    }

    fn name(&self) -> String {
        "Diagonal".into()
    }
}

/// Parallel incomplete-LU preconditioning: forward + backward substitution
/// through the distributed factors.
pub struct DistIlu {
    pub rf: RankFactors,
    pub plan: TrisolvePlan,
    pub label: String,
    /// Reusable sweep workspace: built with the plan so every steady-state
    /// apply runs the zero-allocation [`dist_solve_into`] path.
    scratch: SolveScratch,
}

impl DistIlu {
    /// Builds the triangular-solve plan (collective).
    pub fn new(ctx: &mut Ctx, dm: &DistMatrix, local: &LocalView, rf: RankFactors) -> Self {
        let plan = TrisolvePlan::build(ctx, dm, local, &rf);
        let scratch = SolveScratch::build(local, &plan);
        DistIlu {
            rf,
            plan,
            label: "ILU".into(),
            scratch,
        }
    }

    /// Sets the label used in convergence reports.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }
}

impl DistPrecond for DistIlu {
    fn apply(&mut self, ctx: &mut Ctx, local: &LocalView, r: &[f64]) -> Vec<f64> {
        dist_solve(ctx, local, &self.rf, &self.plan, r)
    }

    fn apply_into(&mut self, ctx: &mut Ctx, local: &LocalView, r: &[f64], z: &mut [f64]) {
        dist_solve_into(ctx, local, &self.rf, &self.plan, r, &mut self.scratch, z);
    }

    fn name(&self) -> String {
        self.label.clone()
    }
}

/// Outcome of a distributed solve (per rank; scalar fields identical on all
/// ranks).
#[derive(Clone, Debug)]
pub struct DistGmresResult {
    /// This rank's slice of the solution, in local-view order.
    pub x_local: Vec<f64>,
    pub converged: bool,
    pub matvecs: usize,
    pub rel_residual: f64,
    /// Why the iteration stopped early (identical on every rank: the
    /// detection runs on all-reduced scalars, so every rank sees the same
    /// values and takes the same branch). `None` on clean convergence or a
    /// plain budget stop.
    pub breakdown: Option<Breakdown>,
}

/// The distributed space: every dot product is a local sum, its flops,
/// then an all-reduce, and local vector work is charged to the logical
/// clock.
struct Distributed<'a> {
    ctx: &'a mut Ctx,
    op: &'a mut dyn DistOperator,
    local: &'a LocalView,
    precond: &'a mut dyn DistPrecond,
}

impl Space for Distributed<'_> {
    fn dot(&mut self, a: &[f64], b: &[f64]) -> f64 {
        let local = dot(a, b);
        self.ctx.work(2.0 * a.len() as f64);
        self.ctx.all_reduce_sum(local)
    }

    fn matvec(&mut self, x: &[f64], y: &mut [f64]) {
        self.op.apply_into(self.ctx, x, y);
    }

    fn precond(&mut self, r: &[f64], z: &mut [f64]) {
        self.precond.apply_into(self.ctx, self.local, r, z);
    }

    fn work(&mut self, flops: f64) {
        self.ctx.work(flops);
    }

    fn agree_finite(&mut self, z: &[f64]) -> bool {
        let poisoned = z.iter().any(|zi| !zi.is_finite()) as u64;
        self.ctx.all_reduce_sum_u64(poisoned) == 0
    }
}

/// Right-preconditioned GMRES(restart) over a distributed operator.
/// Collective: every rank calls with its own slices.
pub fn dist_gmres(
    ctx: &mut Ctx,
    op: &mut dyn DistOperator,
    local: &LocalView,
    precond: &mut dyn DistPrecond,
    b: &[f64],
    opts: &GmresOptions,
) -> DistGmresResult {
    dist_gmres_from(ctx, op, local, precond, b, opts, None, None)
}

/// [`dist_gmres`] with a warm start and a checkpoint hook — the entry point
/// of the self-healing solve ladder (`crate::dist_robust`).
///
/// `x0` seeds the iterate (zeros when `None`); `ckpt`, when supplied, is
/// overwritten with the current iterate at the end of **every outer restart
/// cycle**. Because the write happens between collectives, a rank-loss
/// unwind anywhere inside the next cycle leaves `ckpt` holding a complete,
/// consistent iterate from at most one restart ago — the recovery driver
/// re-seeds the shrunk-world solve from it instead of starting over.
/// Checkpoint cadence is therefore the restart length; see DESIGN §14.
#[allow(clippy::too_many_arguments)]
pub fn dist_gmres_from(
    ctx: &mut Ctx,
    op: &mut dyn DistOperator,
    local: &LocalView,
    precond: &mut dyn DistPrecond,
    b: &[f64],
    opts: &GmresOptions,
    x0: Option<Vec<f64>>,
    ckpt: Option<&mut Vec<f64>>,
) -> DistGmresResult {
    let nl = local.len();
    assert_eq!(b.len(), nl);
    assert_eq!(op.local_len(), nl);
    let x = x0.unwrap_or_else(|| vec![0.0; nl]);
    assert_eq!(x.len(), nl, "warm start must be in local-view order");
    let mut space = Distributed {
        ctx,
        op,
        local,
        precond,
    };
    let r = krylov(&mut space, b, x, opts, ckpt);
    DistGmresResult {
        x_local: r.x,
        converged: r.converged,
        matvecs: r.matvecs,
        rel_residual: r.rel_residual,
        breakdown: r.breakdown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pilut_core::dist::op::DistCsr;
    use pilut_core::options::IlutOptions;
    use pilut_core::parallel::par_ilut;
    use pilut_par::{Machine, MachineModel};
    use pilut_sparse::gen;

    /// Runs distributed GMRES and returns (global x, matvecs, converged).
    fn solve(
        a: pilut_sparse::CsrMatrix,
        p: usize,
        ilut_opts: Option<IlutOptions>,
        opts: GmresOptions,
    ) -> (Vec<f64>, usize, bool) {
        let n = a.n_rows();
        let x_true: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
        let b_global = a.spmv_owned(&x_true);
        let dm = DistMatrix::from_matrix(a, p, 23);
        let out = Machine::run_checked(p, MachineModel::cray_t3d(), |ctx| {
            let local = dm.local_view(ctx.rank());
            let mut op = DistCsr::new(ctx, &dm, &local);
            let b: Vec<f64> = local.nodes.iter().map(|&g| b_global[g]).collect();
            let mut pre: Box<dyn DistPrecond> = match &ilut_opts {
                Some(io) => {
                    let rf = par_ilut(ctx, &dm, &local, io).unwrap();
                    Box::new(DistIlu::new(ctx, &dm, &local, rf))
                }
                None => Box::new(DistDiagonal::new(&dm, &local)),
            };
            let r = dist_gmres(ctx, &mut op, &local, pre.as_mut(), &b, &opts);
            (local.nodes.clone(), r)
        });
        let mut x = vec![f64::NAN; n];
        let mut mv = 0;
        let mut conv = true;
        for (nodes, r) in out.results {
            for (g, v) in nodes.into_iter().zip(r.x_local) {
                x[g] = v;
            }
            mv = r.matvecs;
            conv = r.converged;
        }
        let err = x
            .iter()
            .zip(&x_true)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(!conv || err < 1e-4, "converged but wrong: err={err}");
        (x, mv, conv)
    }

    #[test]
    fn diagonal_preconditioned_solve_converges() {
        let a = gen::laplace_2d(10, 10);
        let (_, mv, conv) = solve(a, 3, None, GmresOptions::default());
        assert!(conv, "did not converge in {mv} matvecs");
    }

    #[test]
    fn parallel_ilut_preconditioner_beats_diagonal() {
        let a = gen::convection_diffusion_2d(14, 14, 8.0, 4.0);
        let (_, mv_diag, c1) = solve(a.clone(), 4, None, GmresOptions::default());
        let (_, mv_ilut, c2) = solve(
            a,
            4,
            Some(IlutOptions::new(10, 1e-4)),
            GmresOptions::default(),
        );
        assert!(c1 && c2);
        assert!(
            mv_ilut * 2 < mv_diag,
            "parallel ILUT ({mv_ilut}) should need far fewer matvecs than diagonal ({mv_diag})"
        );
    }

    #[test]
    fn ilut_star_preconditioner_converges_comparably() {
        let a = gen::laplace_3d(6, 6, 6);
        let (_, mv_ilut, c1) = solve(
            a.clone(),
            3,
            Some(IlutOptions::new(10, 1e-4)),
            GmresOptions::default(),
        );
        let (_, mv_star, c2) = solve(
            a,
            3,
            Some(IlutOptions::star(10, 1e-4, 2)),
            GmresOptions::default(),
        );
        assert!(c1 && c2);
        // The paper finds the two comparable in quality; allow generous slack.
        assert!(
            mv_star <= 3 * mv_ilut.max(1),
            "ILUT* quality collapsed: {mv_star} vs {mv_ilut}"
        );
    }

    #[test]
    fn small_restart_matches_paper_setup() {
        let a = gen::laplace_2d(12, 12);
        let (_, _, conv) = solve(
            a,
            2,
            Some(IlutOptions::new(5, 1e-2)),
            GmresOptions {
                restart: 10,
                ..Default::default()
            },
        );
        assert!(conv);
    }

    #[test]
    fn matvec_budget_respected() {
        let a = gen::laplace_2d(12, 12);
        let (_, mv, conv) = solve(
            a,
            2,
            None,
            GmresOptions {
                max_matvecs: 5,
                rtol: 1e-12,
                ..Default::default()
            },
        );
        assert!(!conv);
        assert!(mv <= 5);
    }

    /// The identity, except that the `k`-th application (1-based) on rank
    /// `rank` returns NaNs.
    struct PoisonOnRank {
        rank: usize,
        k: usize,
        calls: usize,
    }

    impl DistPrecond for PoisonOnRank {
        fn apply(&mut self, ctx: &mut Ctx, local: &LocalView, r: &[f64]) -> Vec<f64> {
            let mut z = vec![0.0; r.len()];
            self.apply_into(ctx, local, r, &mut z);
            z
        }

        fn apply_into(&mut self, ctx: &mut Ctx, _local: &LocalView, r: &[f64], z: &mut [f64]) {
            self.calls += 1;
            z.copy_from_slice(r);
            if self.calls == self.k && ctx.rank() == self.rank {
                z.fill(f64::NAN);
            }
        }

        fn name(&self) -> String {
            "poison".into()
        }
    }

    #[test]
    fn poisoned_correction_on_one_rank_is_skipped_on_every_rank() {
        // GMRES(5) runs five clean inner steps; the sixth application is the
        // end-of-cycle correction M⁻¹(V y), poisoned on rank 1 only. The
        // verdict is collective, so rank 0 skips its (finite) correction too
        // and both ranks report the same breakdown.
        let a = gen::laplace_2d(12, 12);
        let dm = DistMatrix::from_matrix(a, 2, 23);
        let out = Machine::run_checked(2, MachineModel::cray_t3d(), |ctx| {
            let local = dm.local_view(ctx.rank());
            let mut op = DistCsr::new(ctx, &dm, &local);
            let b = vec![1.0; local.len()];
            let mut pre = PoisonOnRank {
                rank: 1,
                k: 6,
                calls: 0,
            };
            let opts = GmresOptions {
                restart: 5,
                rtol: 1e-14,
                ..Default::default()
            };
            dist_gmres(ctx, &mut op, &local, &mut pre, &b, &opts)
        });
        for r in &out.results {
            assert_eq!(r.breakdown, Some(Breakdown::NonFinite { at: 6 }));
            assert_eq!(r.matvecs, 6);
            assert!(!r.converged);
        }
        let x0 = &out.results[0].x_local;
        assert!(!x0.is_empty());
        assert!(x0.iter().all(|&v| v == 0.0), "rank 0 kept the zero start");
    }

    #[test]
    fn warm_start_at_the_solution_converges_immediately() {
        let a = gen::laplace_2d(8, 8);
        let n = a.n_rows();
        let x_true: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
        let b_global = a.spmv_owned(&x_true);
        let dm = DistMatrix::from_matrix(a, 3, 23);
        let out = Machine::run_checked(3, MachineModel::cray_t3d(), |ctx| {
            let local = dm.local_view(ctx.rank());
            let mut op = DistCsr::new(ctx, &dm, &local);
            let b: Vec<f64> = local.nodes.iter().map(|&g| b_global[g]).collect();
            let x0: Vec<f64> = local.nodes.iter().map(|&g| x_true[g]).collect();
            let mut pre = DistIdentity;
            let r = dist_gmres_from(
                ctx,
                &mut op,
                &local,
                &mut pre,
                &b,
                &GmresOptions::default(),
                Some(x0),
                None,
            );
            (r.converged, r.matvecs)
        });
        for (conv, mv) in out.results {
            assert!(conv);
            assert_eq!(mv, 1, "an exact warm start costs one residual matvec");
        }
    }

    #[test]
    fn zero_rhs_returns_zeros_not_the_warm_start() {
        let a = gen::laplace_2d(6, 6);
        let dm = DistMatrix::from_matrix(a, 2, 23);
        let out = Machine::run_checked(2, MachineModel::cray_t3d(), |ctx| {
            let local = dm.local_view(ctx.rank());
            let mut op = DistCsr::new(ctx, &dm, &local);
            let b = vec![0.0; local.len()];
            let x0 = vec![7.5; local.len()];
            let mut pre = DistIdentity;
            let r = dist_gmres_from(
                ctx,
                &mut op,
                &local,
                &mut pre,
                &b,
                &GmresOptions::default(),
                Some(x0),
                None,
            );
            (r.converged, r.x_local)
        });
        for (conv, x) in out.results {
            assert!(conv);
            assert!(x.iter().all(|&v| v == 0.0), "Ax = 0 has the zero solution");
        }
    }

    #[test]
    fn checkpoint_holds_the_iterate_of_a_completed_cycle() {
        // Force at least one full restart cycle (tiny restart length), then
        // check the checkpoint matches the final iterate: the last completed
        // cycle's x is exactly what convergence was declared on.
        let a = gen::laplace_2d(8, 8);
        let n = a.n_rows();
        let x_true: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
        let b_global = a.spmv_owned(&x_true);
        let dm = DistMatrix::from_matrix(a, 2, 23);
        let out = Machine::run_checked(2, MachineModel::cray_t3d(), |ctx| {
            let local = dm.local_view(ctx.rank());
            let mut op = DistCsr::new(ctx, &dm, &local);
            let b: Vec<f64> = local.nodes.iter().map(|&g| b_global[g]).collect();
            let mut pre = DistDiagonal::new(&dm, &local);
            let mut ckpt = Vec::new();
            let r = dist_gmres_from(
                ctx,
                &mut op,
                &local,
                &mut pre,
                &b,
                &GmresOptions {
                    restart: 5,
                    ..Default::default()
                },
                None,
                Some(&mut ckpt),
            );
            (r.converged, r.x_local, ckpt)
        });
        for (conv, x, ckpt) in out.results {
            assert!(conv);
            assert_eq!(
                x, ckpt,
                "convergence is detected at the top of a cycle, so the last \
                 checkpoint and the returned iterate coincide"
            );
        }
    }
}
