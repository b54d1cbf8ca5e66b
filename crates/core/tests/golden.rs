//! Golden bit patterns: serial ILUT factors and one preconditioner
//! application `(LU)⁻¹ r` on the paper's G40 and TORSO stand-ins, plus the
//! per-rank factors of the parallel ILUT on the same matrices.
//!
//! The serial digests were recorded from the row-of-`Vec` factor layout
//! that preceded the tile arena; the distributed digests from the
//! per-row hash-map layout that preceded the rank arena. Both are taken in
//! global numbering, so they hold the factor storage and the triangular
//! sweeps to bitwise-unchanged behaviour across layout changes. Any change
//! to a factor entry, a pivot, or the solve arithmetic moves a digest.

use pilut_core::dist::DistMatrix;
use pilut_core::parallel::{assemble_factors, par_ilut};
use pilut_core::serial::ilut;
use pilut_core::trisolve::{dist_solve, TrisolvePlan};
use pilut_core::{IlutOptions, LuFactors};
use pilut_par::{Machine, MachineModel};
use pilut_sparse::gen;

mod common;

/// FNV-1a over the little-endian bytes of `x`.
fn mix(h: &mut u64, x: u64) {
    for byte in x.to_le_bytes() {
        *h ^= u64::from(byte);
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of scalar factors, row by row: the `L` length and its
/// `(col, value bits)`, the pivot bits, then the strict-`U` length and its
/// `(col, value bits)`.
fn factor_digest(f: &LuFactors) -> u64 {
    let mut h = FNV_OFFSET;
    let part = |h: &mut u64, (cols, vals): (&[usize], &[f64])| {
        mix(h, cols.len() as u64);
        for (&c, v) in cols.iter().zip(vals) {
            mix(h, c as u64);
            mix(h, v.to_bits());
        }
    };
    for i in 0..f.n() {
        part(&mut h, f.l_row(i));
        mix(&mut h, f.diag(i)[0].to_bits());
        part(&mut h, f.u_row(i));
    }
    h
}

fn vector_digest(x: &[f64]) -> u64 {
    let mut h = FNV_OFFSET;
    for v in x {
        mix(&mut h, v.to_bits());
    }
    h
}

/// `(n, nnz, factor digest, solve digest)` for ILUT on `a`.
fn pin(a: &pilut_sparse::CsrMatrix, opts: &IlutOptions) -> (usize, usize, u64, u64) {
    let f = ilut(a, opts).unwrap();
    assert_eq!(f.block_size(), 1);
    let n = a.n_rows();
    let r: Vec<f64> = (0..n).map(|i| ((i * 37) % 19) as f64 - 9.0).collect();
    (n, f.nnz(), factor_digest(&f), vector_digest(&f.solve(&r)))
}

#[test]
fn g40_ilut_factors_and_solve_are_bitwise_pinned() {
    assert_eq!(
        pin(&gen::g40(1), &IlutOptions::new(10, 1e-4)),
        (1600, 32433, 0x278d_b30c_2ee1_8fec, 0x69d5_5759_63ba_921f)
    );
}

#[test]
fn torso_ilut_factors_and_solve_are_bitwise_pinned() {
    assert_eq!(
        pin(&gen::torso(12), &IlutOptions::new(20, 1e-6)),
        (504, 14301, 0x69f6_3e49_66d1_ada5, 0x1e8c_3f8a_1ab9_b6b0)
    );
}

/// Per-rank digests of `par_ilut` on `a` at `p` ranks (partition seed 17):
/// rows ascending by global id, each as the node, the `L` length and its
/// `(global col, value bits)`, the pivot bits, then `U` the same way.
fn dist_pin(a: &pilut_sparse::CsrMatrix, opts: &IlutOptions, p: usize) -> Vec<u64> {
    let dm = DistMatrix::from_matrix(a.clone(), p, 17);
    let out = Machine::run_checked(p, MachineModel::cray_t3d(), |ctx| {
        let local = dm.local_view(ctx.rank());
        let rf = par_ilut(ctx, &dm, &local, opts).unwrap();
        let mut h = FNV_OFFSET;
        let part = |h: &mut u64, entries: &[(usize, f64)]| {
            mix(h, entries.len() as u64);
            for &(c, v) in entries {
                mix(h, c as u64);
                mix(h, v.to_bits());
            }
        };
        for (g, l, d, u) in common::global_rows(&rf) {
            mix(&mut h, g as u64);
            part(&mut h, &l);
            mix(&mut h, d.to_bits());
            part(&mut h, &u);
        }
        h
    });
    out.results
}

#[test]
fn g40_parallel_ilut_factors_are_bitwise_pinned() {
    let (a, opts) = (gen::g40(1), IlutOptions::new(10, 1e-4));
    assert_eq!(
        dist_pin(&a, &opts, 2),
        [0xe5e1_1723_6d12_917e, 0x2760_9f66_6604_fd75]
    );
    assert_eq!(
        dist_pin(&a, &opts, 4),
        [
            0x7814_b984_9601_08f9,
            0x0be5_c70b_f39e_91c9,
            0x5366_eab0_1426_3040,
            0x69a2_8097_5357_4768
        ]
    );
}

#[test]
fn torso_parallel_ilut_factors_are_bitwise_pinned() {
    let (a, opts) = (gen::torso(12), IlutOptions::new(20, 1e-6));
    assert_eq!(
        dist_pin(&a, &opts, 2),
        [0xd3b5_809c_ea61_45c8, 0xeeaa_bb50_3933_df6f]
    );
    assert_eq!(
        dist_pin(&a, &opts, 4),
        [
            0x1cc7_bacd_ee07_82c6,
            0x2c97_2403_68d4_cacf,
            0x8622_004b_850d_38d6,
            0x9652_2302_2f72_1c31
        ]
    );
}

/// At p = 1 the distributed solve and the serial sweep over the assembled
/// factors must agree bit for bit.
#[test]
fn single_rank_dist_solve_is_bitwise_the_assembled_solve() {
    for (a, opts) in [
        (gen::g40(1), IlutOptions::new(10, 1e-4)),
        (gen::torso(12), IlutOptions::new(20, 1e-6)),
    ] {
        let n = a.n_rows();
        let r: Vec<f64> = (0..n).map(|i| ((i * 37) % 19) as f64 - 9.0).collect();
        let dm = DistMatrix::from_matrix(a, 1, 17);
        let out = Machine::run_checked(1, MachineModel::cray_t3d(), |ctx| {
            let local = dm.local_view(ctx.rank());
            let rf = par_ilut(ctx, &dm, &local, &opts).unwrap();
            let plan = TrisolvePlan::build(ctx, &dm, &local, &rf);
            let bl: Vec<f64> = local.nodes.iter().map(|&g| r[g]).collect();
            let x = dist_solve(ctx, &local, &rf, &plan, &bl);
            let mut xg = vec![0.0; n];
            for (&g, v) in local.nodes.iter().zip(x) {
                xg[g] = v;
            }
            (rf, xg)
        });
        let (rfs, xs): (Vec<_>, Vec<_>) = out.results.into_iter().unzip();
        let want = assemble_factors(&rfs, n).solve(&r);
        assert_eq!(vector_digest(&xs[0]), vector_digest(&want));
        assert!(xs[0]
            .iter()
            .zip(&want)
            .all(|(x, w)| x.to_bits() == w.to_bits()));
    }
}
