//! Restarted GMRES (Saad & Schultz 1986), serial and distributed.
//!
//! The paper evaluates its preconditioners inside GMRES(10)/GMRES(50)
//! (Table 3): right-preconditioned, modified Gram–Schmidt Arnoldi, Givens
//! rotations for the least-squares problem, restart after `restart` inner
//! steps, convergence when the residual norm drops by a fixed factor.
//!
//! * [`gmres()`] — the serial solver over [`pilut_core::precond::Preconditioner`];
//! * [`dist_gmres()`] — the distributed solver running on the `pilut-par`
//!   virtual machine, with distributed SpMV, all-reduce inner products and
//!   the parallel triangular solves as the preconditioner action.
//!
//! Both run one restarted-GMRES kernel ([`mod@gmres`]) over a local or an
//! all-reduced inner-product space; at p = 1 they return the same bits.

//! Robustness layer: all solvers detect numerical breakdown (non-finite
//! Arnoldi/recurrence values, stagnation across restarts, indefinite
//! curvature in CG) and report it as a typed [`Breakdown`] instead of
//! looping on garbage; [`solve_robust`] wraps GMRES in a fallback ladder
//! (caller's ILUT → boosted-shift refactorization → Jacobi →
//! unpreconditioned) and returns a structured [`SolveReport`] naming the
//! rung that produced the answer.

//! Rank-loss recovery: [`dist_solve_robust`] wraps the distributed solve in
//! the lost-rank rung — a kill mid-solve (under `MachineBuilder::recovery`)
//! shrinks the world, rebuilds plans and factors, warm-starts GMRES from a
//! per-restart-cycle checkpoint, and records the recovery in the report.

pub mod cg;
pub mod dist_gmres;
pub mod dist_robust;
pub mod gmres;
pub mod report;
pub mod robust;

pub use cg::{cg, CgOptions, CgResult, IcPreconditioner};
pub use dist_gmres::{
    dist_gmres, dist_gmres_from, DistDiagonal, DistGmresResult, DistIdentity, DistIlu, DistPrecond,
};
pub use dist_robust::{dist_solve_robust, DistSolveReport, SolveError};
pub use gmres::{gmres, GmresOptions, GmresResult};
pub use report::{AttemptOutcome, AttemptRecord, Breakdown, RecoveryRecord, SolveReport};
pub use robust::solve_robust;
