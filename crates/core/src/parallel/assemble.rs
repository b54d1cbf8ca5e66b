//! Gathering a distributed factorization into one serial object.
//!
//! The parallel factorization eliminates the unknowns in a specific global
//! order — each rank's interiors, then the interface levels. Assembling the
//! per-rank [`RankFactors`] under that order yields an ordinary
//! [`LuFactors`] plus the [`Permutation`] relating the orders, which lets
//! tests, debuggers, and single-node consumers apply or inspect a parallel
//! factorization with the plain serial machinery.

use crate::factors::LuFactors;
use crate::parallel::{FactorRow, RankFactors};
use pilut_sparse::Permutation;

/// The assembled form of a distributed factorization.
pub struct AssembledFactors {
    /// Factors in *elimination order* numbering.
    pub factors: LuFactors,
    /// Maps original node ids to elimination positions
    /// (`perm.new_of(node) = position`).
    pub perm: Permutation,
}

impl AssembledFactors {
    /// Applies `(LU)⁻¹` in the **original** numbering.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let pb = self.perm.apply_vec(b);
        let px = self.factors.solve(&pb);
        self.perm.unapply_vec(&px)
    }
}

/// Merges the per-rank outputs of a parallel factorization (one entry per
/// rank, rank order) into a serial [`LuFactors`] under the global
/// elimination order.
///
/// # Panics
/// Panics if the rank outputs are inconsistent (missing rows, mismatched
/// level counts) — they must all come from one collective run.
pub fn assemble_factors(per_rank: &[RankFactors], n: usize) -> AssembledFactors {
    // Build the elimination order: interiors rank by rank, then each level
    // across ranks (members of one level are independent, so any order
    // within the level is valid; sorted keeps it canonical).
    let q = per_rank.first().map_or(0, |rf| rf.levels.len());
    let mut order: Vec<usize> = Vec::with_capacity(n);
    for rf in per_rank {
        assert_eq!(
            rf.levels.len(),
            q,
            "rank {} disagrees on level count",
            rf.rank
        );
        order.extend_from_slice(&rf.interior);
    }
    for l in 0..q {
        let mut level: Vec<usize> = per_rank
            .iter()
            .flat_map(|rf| rf.levels[l].iter().copied())
            .collect();
        level.sort_unstable();
        order.extend_from_slice(&level);
    }
    assert_eq!(order.len(), n, "rank outputs do not cover the matrix");
    let perm = Permutation::from_old_order(&order);

    let mut row_of: Vec<Option<&FactorRow>> = vec![None; n];
    for rf in per_rank {
        for (&node, row) in &rf.rows {
            row_of[node] = Some(row);
        }
    }
    let rows = || per_rank.iter().flat_map(|rf| rf.rows.values());
    let nnz_l = rows().map(|r| r.l.len()).sum();
    let nnz_u = rows().map(|r| r.u.len()).sum();
    let mut factors = LuFactors::with_capacity(n, 1, nnz_l, nnz_u);
    let (mut l, mut u) = (Vec::new(), Vec::new());
    for (pos, &node) in order.iter().enumerate() {
        let row = row_of[node].unwrap_or_else(|| panic!("no rank output for node {node}"));
        l.clear();
        l.extend(row.l.iter().map(|&(c, v)| (perm.new_of(c), v)));
        l.sort_unstable_by_key(|&(c, _)| c);
        u.clear();
        u.push((pos, row.diag));
        u.extend(row.u.iter().map(|&(c, v)| (perm.new_of(c), v)));
        u.sort_unstable_by_key(|&(c, _)| c);
        factors.push_row(&l, &u);
    }
    debug_assert!(
        factors.check_structure().is_ok(),
        "{:?}",
        factors.check_structure()
    );
    AssembledFactors { factors, perm }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::DistMatrix;
    use crate::options::IlutOptions;
    use crate::parallel::par_ilut;
    use pilut_par::{Machine, MachineModel};
    use pilut_sparse::gen;

    #[test]
    fn assembled_factors_solve_like_the_machine() {
        let a = gen::laplace_2d(8, 8);
        let n = a.n_rows();
        let dm = DistMatrix::from_matrix(a.clone(), 3, 7);
        let opts = IlutOptions::new(n, 0.0); // exact
        let out = Machine::run_checked(3, MachineModel::cray_t3d(), |ctx| {
            let local = dm.local_view(ctx.rank());
            par_ilut(ctx, &dm, &local, &opts).unwrap()
        });
        let asm = assemble_factors(&out.results, n);
        asm.factors.check_structure().unwrap();
        let x_true: Vec<f64> = (0..n).map(|i| (i % 5) as f64).collect();
        let b = a.spmv_owned(&x_true);
        let x = asm.solve(&b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9, "{xi} vs {ti}");
        }
    }

    #[test]
    fn elimination_order_is_triangular() {
        // After assembly, every L column index must precede its row and
        // every U column must follow it — check_structure verifies this, so
        // a dropped-factorization assembly exercising interface levels must
        // pass it too.
        let a = gen::laplace_3d(6, 6, 6);
        let dm = DistMatrix::from_matrix(a, 4, 11);
        let opts = IlutOptions::star(5, 1e-4, 2);
        let out = Machine::run_checked(4, MachineModel::cray_t3d(), |ctx| {
            let local = dm.local_view(ctx.rank());
            par_ilut(ctx, &dm, &local, &opts).unwrap()
        });
        let asm = assemble_factors(&out.results, 216);
        asm.factors.check_structure().unwrap();
    }
}
