//! Shared helpers for the integration tests of the distributed factors.

use pilut_core::parallel::RankFactors;

/// One row of a rank's factors in global numbering: `(node, L, pivot, U)`,
/// each strict part sorted by global column.
pub type GlobalRow = (usize, Vec<(usize, f64)>, f64, Vec<(usize, f64)>);

/// Every row of `rf` in global numbering, ascending by node.
pub fn global_rows(rf: &RankFactors) -> Vec<GlobalRow> {
    let f = rf.factors();
    let global = |(cols, vals): (&[usize], &[f64])| {
        let mut part: Vec<(usize, f64)> = cols
            .iter()
            .map(|&c| rf.global_of(c))
            .zip(vals.iter().copied())
            .collect();
        part.sort_unstable_by_key(|&(c, _)| c);
        part
    };
    let mut rows: Vec<GlobalRow> = (0..f.n())
        .map(|e| {
            (
                rf.global_of(e),
                global(f.l_row(e)),
                f.diag(e)[0],
                global(f.u_row(e)),
            )
        })
        .collect();
    rows.sort_unstable_by_key(|r| r.0);
    rows
}
