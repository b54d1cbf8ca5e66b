//! Golden bit patterns: serial ILUT factors and one preconditioner
//! application `(LU)⁻¹ r` on the paper's G40 and TORSO stand-ins, plus the
//! per-rank factors and level schedules of the parallel ILUT and ILU(0) on
//! the same matrices.
//!
//! The serial digests were recorded from the row-of-`Vec` factor layout
//! that preceded the tile arena; the distributed digests from the
//! per-row hash-map layout that preceded the rank arena. Both are taken in
//! global numbering, so they hold the factor storage and the triangular
//! sweeps to bitwise-unchanged behaviour across layout changes. Any change
//! to a factor entry, a pivot, or the solve arithmetic moves a digest.

use pilut_core::dist::{DistMatrix, LocalView};
use pilut_core::parallel::{assemble_factors, par_ilu0, par_ilut, RankFactors};
use pilut_core::serial::ilut;
use pilut_core::trisolve::{dist_solve, TrisolvePlan};
use pilut_core::{IlutOptions, LuFactors};
use pilut_par::{Ctx, Machine, MachineModel};
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

/// Runs `factor` on `a` at `p` ranks (partition seed 17) and digests each
/// rank's result with `digest`.
fn per_rank(
    a: &pilut_sparse::CsrMatrix,
    p: usize,
    factor: impl Fn(&mut Ctx, &DistMatrix, &LocalView) -> RankFactors + Sync,
    digest: fn(&RankFactors) -> u64,
) -> Vec<u64> {
    let dm = DistMatrix::from_matrix(a.clone(), p, 17);
    let out = Machine::run_checked(p, MachineModel::cray_t3d(), |ctx| {
        let local = dm.local_view(ctx.rank());
        digest(&factor(ctx, &dm, &local))
    });
    out.results
}

/// A rank's rows ascending by global id, each as the node, the `L` length
/// and its `(global col, value bits)`, the pivot bits, then `U` the same way.
fn rows_digest(rf: &RankFactors) -> u64 {
    let mut h = FNV_OFFSET;
    let part = |h: &mut u64, entries: &[(usize, f64)]| {
        mix(h, entries.len() as u64);
        for &(c, v) in entries {
            mix(h, c as u64);
            mix(h, v.to_bits());
        }
    };
    for (g, l, d, u) in common::global_rows(rf) {
        mix(&mut h, g as u64);
        part(&mut h, &l);
        mix(&mut h, d.to_bits());
        part(&mut h, &u);
    }
    h
}

/// A rank's level schedule: every level index `l`, then the length and the
/// nodes of `rf.level(l)`.
fn schedule_digest(rf: &RankFactors) -> u64 {
    let mut h = FNV_OFFSET;
    for l in 0..rf.n_levels() {
        mix(&mut h, l as u64);
        mix(&mut h, rf.level(l).len() as u64);
        for &g in rf.level(l) {
            mix(&mut h, g as u64);
        }
    }
    h
}

/// Per-rank row digests of `par_ilut` on `a` at `p` ranks.
fn dist_pin(a: &pilut_sparse::CsrMatrix, opts: &IlutOptions, p: usize) -> Vec<u64> {
    let ilut =
        |ctx: &mut Ctx, dm: &DistMatrix, local: &LocalView| par_ilut(ctx, dm, local, opts).unwrap();
    per_rank(a, p, ilut, rows_digest)
}

/// Per-rank level-schedule digests of `par_ilut` on `a` at `p` ranks.
fn schedule_pin(a: &pilut_sparse::CsrMatrix, opts: &IlutOptions, p: usize) -> Vec<u64> {
    let ilut =
        |ctx: &mut Ctx, dm: &DistMatrix, local: &LocalView| par_ilut(ctx, dm, local, opts).unwrap();
    per_rank(a, p, ilut, schedule_digest)
}

/// Per-rank row digests of `par_ilu0` on `a` at `p` ranks.
fn ilu0_pin(a: &pilut_sparse::CsrMatrix, p: usize) -> Vec<u64> {
    let ilu0 =
        |ctx: &mut Ctx, dm: &DistMatrix, local: &LocalView| par_ilu0(ctx, dm, local).unwrap();
    per_rank(a, p, ilu0, rows_digest)
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

#[test]
fn parallel_ilut_level_schedules_are_pinned() {
    let (a, opts) = (gen::g40(1), IlutOptions::new(10, 1e-4));
    assert_eq!(
        schedule_pin(&a, &opts, 2),
        [0x68cc_b1d8_d0e9_e024, 0xcc2d_81d8_f1a6_0f8b]
    );
    assert_eq!(
        schedule_pin(&a, &opts, 4),
        [
            0xe921_60d7_5363_4d13,
            0x8ac0_b140_8c58_62e3,
            0x8181_a14b_0b4a_e8e2,
            0xbc71_1d62_0059_c52a
        ]
    );
    let (a, opts) = (gen::torso(12), IlutOptions::new(20, 1e-6));
    assert_eq!(
        schedule_pin(&a, &opts, 2),
        [0x895c_4196_7405_29b5, 0x3d41_22b3_8ff1_4bb1]
    );
    assert_eq!(
        schedule_pin(&a, &opts, 4),
        [
            0x0645_aec9_293b_a7c0,
            0x5662_4053_d312_3ccc,
            0x660b_e479_a5ef_d56e,
            0x9cff_ab30_3e6f_040e
        ]
    );
}

#[test]
fn g40_parallel_ilu0_factors_are_bitwise_pinned() {
    let a = gen::g40(1);
    assert_eq!(
        ilu0_pin(&a, 2),
        [0x9897_c8ac_6b1a_5ebc, 0x1703_fc4d_f181_c182]
    );
    assert_eq!(
        ilu0_pin(&a, 4),
        [
            0xe873_e302_5818_8cd1,
            0x2b05_f9e3_89dc_9f04,
            0xc399_5be7_7145_70bc,
            0x1480_f4d5_7fc1_832b
        ]
    );
}

#[test]
fn torso_parallel_ilu0_factors_are_bitwise_pinned() {
    let a = gen::torso(12);
    assert_eq!(
        ilu0_pin(&a, 2),
        [0x40cf_09db_5875_3441, 0x3ebf_2199_db87_d6f4]
    );
    assert_eq!(
        ilu0_pin(&a, 4),
        [
            0x90c2_38bc_8835_86be,
            0x7854_dacf_6111_6d15,
            0x46ad_7a4f_3cdd_23f5,
            0x2bb4_1ee9_9069_d6e4
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
