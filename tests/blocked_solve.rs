//! End-to-end blocked path through the public facade: supernode-guided
//! block-size selection, BCSR as the GMRES operator, and the blocked ILUT
//! factors as the preconditioner.

use pilut::prelude::*;

#[test]
fn gmres_over_bcsr_with_blocked_ilut_matches_csr() {
    let a = gen::convection_diffusion_2d(20, 20, 10.0, 20.0);
    let n = a.n_rows();
    let x_true: Vec<f64> = (0..n).map(|i| 1.0 + ((i % 7) as f64) * 0.5).collect();
    let rhs = a.spmv_owned(&x_true);
    let opts = GmresOptions {
        restart: 20,
        rtol: 1e-10,
        ..Default::default()
    };

    // Scalar reference path.
    let sf = ilut(&a, &IlutOptions::new(10, 1e-4)).unwrap();
    let reference = gmres(&a, &rhs, &IluPreconditioner::new(sf), &opts);
    assert!(reference.converged, "scalar path must converge");

    // Blocked path: detection picks the block size, BCSR is the operator,
    // blocked ILUT the preconditioner.
    let b = suggest_block_size(&a, &[2, 4], 0.25);
    assert!(b >= 2, "banded stencil should support blocking, got b={b}");
    let ab = BcsrMatrix::from_csr(&a, b);
    let bf = block_ilut(&ab, &IlutOptions::new(10, 1e-4)).unwrap();
    let precond = IluPreconditioner::new(bf);
    assert_eq!(precond.name(), format!("BILU({b})"));
    let blocked = gmres(&ab, &rhs, &precond, &opts);
    assert!(blocked.converged, "blocked path must converge");
    assert!(
        blocked.matvecs <= 3 * reference.matvecs + 10,
        "blocked path needs {} matvecs vs scalar {}",
        blocked.matvecs,
        reference.matvecs
    );
    for (x, t) in blocked.x.iter().zip(&x_true) {
        assert!((x - t).abs() < 1e-6, "solution off: {x} vs {t}");
    }
}

#[test]
fn storage_generic_consumers_see_one_matrix() {
    // CSR and BCSR are two storages of one matrix: every logical accessor
    // agrees, padding included nowhere.
    let a = gen::laplace_2d(9, 9);
    let blocked = BcsrMatrix::from_csr(&a, 4);
    assert_eq!(blocked.nnz(), a.nnz());
    for i in 0..a.n_rows() {
        for j in 0..a.n_cols() {
            assert_eq!(a.get(i, j), blocked.get(i, j), "({i},{j})");
        }
    }
    let frob_blocked = (0..blocked.n_brows())
        .map(|bi| blocked.block_row_norm(bi).powi(2))
        .sum::<f64>()
        .sqrt();
    assert!((a.frobenius_norm() - frob_blocked).abs() < 1e-12);
}
