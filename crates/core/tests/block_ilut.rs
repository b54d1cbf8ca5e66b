//! Blocked-vs-scalar ILUT differentials at integration scale.
//!
//! The anchor property: at block size 1 the blocked pipeline (BCSR
//! conversion → `block_ilut` → tile sweep) is *bitwise* the scalar
//! pipeline (`ilut` → `LuFactors::solve`). At real
//! block sizes the factors differ (tile-granular dropping), so those are
//! checked for quality and internal consistency instead.

use pilut_core::serial::{block_ilut, block_ilut_with_stats, ilut_with_stats};
use pilut_core::{IlutOptions, LuFactors};
use pilut_sparse::vec_ops::norm2;
use pilut_sparse::{gen, BcsrMatrix};

/// Every stored scalar entry as `(row, col, value bits)`, row by row: `L`,
/// then the pivot, then strict `U` (`b = 1` factors).
fn entry_bits(f: &LuFactors) -> Vec<(usize, usize, u64)> {
    assert_eq!(f.block_size(), 1);
    let mut out = Vec::new();
    for i in 0..f.n() {
        let (lc, lv) = f.l_row(i);
        let (uc, uv) = f.u_row(i);
        let diag = [i];
        let cols = lc.iter().chain(&diag).chain(uc);
        let vals = lv.iter().chain(f.diag(i)).chain(uv);
        out.extend(cols.zip(vals).map(|(&c, v)| (i, c, v.to_bits())));
    }
    out
}

#[test]
fn b1_pipeline_is_bitwise_scalar_on_random_matrices() {
    for seed in 0..4u64 {
        let a = gen::random_diag_dominant(200, 6, seed);
        let opts = IlutOptions::new(8, 1e-3);
        let (sf, ss) = ilut_with_stats(&a, &opts).unwrap();
        let ab = BcsrMatrix::from_csr(&a, 1);
        let (bf, bs) = block_ilut_with_stats(&ab, &opts).unwrap();
        assert_eq!(ss.flops.to_bits(), bs.flops.to_bits(), "seed {seed}");
        assert_eq!((ss.nnz_l, ss.nnz_u), (bs.nnz_l, bs.nnz_u));
        assert_eq!(
            entry_bits(&sf),
            entry_bits(&bf.to_lu_factors()),
            "seed {seed}"
        );
        // The tile sweep must also be bitwise the scalar sweep at b = 1
        // (per-row arithmetic order is unchanged).
        let r: Vec<f64> = (0..a.n_rows())
            .map(|i| ((i * 31) % 17) as f64 - 8.0)
            .collect();
        let (xs, xb) = (sf.solve(&r), bf.solve(&r));
        for (x, y) in xs.iter().zip(&xb) {
            assert_eq!(x.to_bits(), y.to_bits(), "seed {seed} trisolve");
        }
    }
}

#[test]
fn blocked_preconditioner_quality_tracks_scalar() {
    // At real block sizes the tile-granular cap keeps *more* scalar fill
    // per retained unit, so with matched caps the blocked preconditioner
    // should land in the scalar one's quality neighbourhood.
    let a = gen::convection_diffusion_2d(16, 16, 4.0, -3.0);
    let n = a.n_rows();
    let x_true: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
    let rhs = a.spmv_owned(&x_true);
    let resid = |x: &[f64]| {
        let ax = a.spmv_owned(x);
        norm2(&ax.iter().zip(&rhs).map(|(u, v)| u - v).collect::<Vec<_>>())
    };
    let scalar = {
        let f = pilut_core::ilut(&a, &IlutOptions::new(10, 1e-4)).unwrap();
        resid(&f.solve(&rhs))
    };
    let r0 = norm2(&rhs);
    for b in [2usize, 4] {
        let ab = BcsrMatrix::from_csr(&a, b);
        let f = block_ilut(&ab, &IlutOptions::new(10, 1e-4)).unwrap();
        f.check_structure().unwrap();
        let rb = resid(&f.solve(&rhs));
        assert!(
            rb < 0.2 * r0,
            "b={b}: blocked preconditioner barely helps: {rb} vs r0={r0}"
        );
        assert!(
            rb < 50.0 * scalar + 1e-12,
            "b={b}: blocked residual {rb} far off scalar {scalar}"
        );
    }
}

#[test]
fn panel_solve_bitwise_at_scale() {
    let a = gen::laplace_2d(16, 16); // n = 256, divisible by 4
    let ab = BcsrMatrix::from_csr(&a, 4);
    let f = block_ilut(&ab, &IlutOptions::new(6, 1e-3)).unwrap();
    let n = a.n_rows();
    let k = 8;
    let rhs: Vec<f64> = (0..n * k)
        .map(|i| ((i * 131) % 263) as f64 * 0.01 - 1.3)
        .collect();
    let panel = f.solve_panel(&rhs, k);
    for c in 0..k {
        let col: Vec<f64> = (0..n).map(|i| rhs[i * k + c]).collect();
        let single = f.solve(&col);
        for i in 0..n {
            assert_eq!(
                panel[i * k + c].to_bits(),
                single[i].to_bits(),
                "col {c} row {i}"
            );
        }
    }
}
