//! Golden bit patterns for restarted GMRES, serial and distributed, on the
//! paper's G40 and TORSO stand-ins with their ILUT preconditioners.
//!
//! The digests were recorded while the serial and the distributed solver
//! were still two separate copies of the Arnoldi/Givens recurrence, so they
//! hold the shared kernel to the behaviour of both: every iterate bit, the
//! residual history, the matvec count, the restart checkpoint, the
//! simulated T3D clock and the per-tag traffic. A third test pins the two
//! modes to each other: at p = 1 the distributed solve is bit for bit the
//! serial solve over the assembled factors.

use pilut_core::dist::op::DistCsr;
use pilut_core::dist::DistMatrix;
use pilut_core::parallel::assemble::AssembledFactors;
use pilut_core::parallel::{assemble_factors, par_ilut};
use pilut_core::precond::{IluPreconditioner, Preconditioner};
use pilut_core::serial::ilut;
use pilut_core::IlutOptions;
use pilut_par::{Machine, MachineModel};
use pilut_solver::{dist_gmres, dist_gmres_from, gmres, Breakdown, DistIlu, GmresOptions};
use pilut_sparse::{gen, CsrMatrix};

/// FNV-1a over the little-endian bytes of `x`.
fn mix(h: &mut u64, x: u64) {
    for byte in x.to_le_bytes() {
        *h ^= u64::from(byte);
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn vector_digest(x: &[f64]) -> u64 {
    let mut h = FNV_OFFSET;
    for v in x {
        mix(&mut h, v.to_bits());
    }
    h
}

/// The right-hand side every pin solves: `b_i = ((i·37) mod 19) − 9`.
fn rhs(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 37) % 19) as f64 - 9.0).collect()
}

/// GMRES(10) to a tolerance tight enough that both matrices restart at
/// least once.
fn restarting() -> GmresOptions {
    GmresOptions {
        restart: 10,
        rtol: 1e-15,
        ..Default::default()
    }
}

/// `(matvecs, breakdown, x digest, history digest, rel_residual bits)` of
/// serial GMRES with the ILUT preconditioner on `a`.
fn serial_pin(a: &CsrMatrix, opts: &IlutOptions) -> (usize, Option<Breakdown>, u64, u64, u64) {
    let pre = IluPreconditioner::new(ilut(a, opts).unwrap());
    let r = gmres(a, &rhs(a.n_rows()), &pre, &restarting());
    assert!(r.converged && r.matvecs > 11, "the pin must restart");
    (
        r.matvecs,
        r.breakdown,
        vector_digest(&r.x),
        vector_digest(&r.history),
        r.rel_residual.to_bits(),
    )
}

#[test]
fn g40_serial_gmres_is_bitwise_pinned() {
    assert_eq!(
        serial_pin(&gen::g40(1), &IlutOptions::new(10, 1e-4)),
        (
            17,
            None,
            0xc3c0_1de2_d8bf_b81a,
            0x9a25_048b_0013_4c3e,
            0x3ccc_21a3_9177_decf
        )
    );
}

#[test]
fn torso_serial_gmres_is_bitwise_pinned() {
    assert_eq!(
        serial_pin(&gen::torso(12), &IlutOptions::new(20, 1e-6)),
        (
            14,
            None,
            0xd0d8_8aab_eaac_5870,
            0x3724_51b4_db40_d84a,
            0x3cb8_5982_1bfb_3513
        )
    );
}

/// Distributed GMRES(10) with the parallel ILUT preconditioner on `a` at
/// `p` ranks (partition seed 17). Per rank, one digest of the matvec count,
/// the `rel_residual` bits, the `x_local` bits, the checkpoint bits and the
/// rank's logical clock after the solve; then one digest of the run's
/// per-tag `(messages, bytes)` table.
fn dist_pin(a: &CsrMatrix, opts: &IlutOptions, p: usize) -> (Vec<u64>, u64) {
    let b = rhs(a.n_rows());
    let dm = DistMatrix::from_matrix(a.clone(), p, 17);
    let out = Machine::run_checked(p, MachineModel::cray_t3d(), |ctx| {
        let local = dm.local_view(ctx.rank());
        let rf = par_ilut(ctx, &dm, &local, opts).unwrap();
        let mut pre = DistIlu::new(ctx, &dm, &local, rf);
        let mut op = DistCsr::new(ctx, &dm, &local);
        let bl: Vec<f64> = local.nodes.iter().map(|&g| b[g]).collect();
        let mut ckpt = Vec::new();
        let r = dist_gmres_from(
            ctx,
            &mut op,
            &local,
            &mut pre,
            &bl,
            &restarting(),
            None,
            Some(&mut ckpt),
        );
        assert!(r.converged && r.matvecs > 11, "the pin must restart");
        let mut h = FNV_OFFSET;
        mix(&mut h, r.matvecs as u64);
        mix(&mut h, r.rel_residual.to_bits());
        mix(&mut h, vector_digest(&r.x_local));
        mix(&mut h, vector_digest(&ckpt));
        mix(&mut h, ctx.time().to_bits());
        h
    });
    let mut tags = FNV_OFFSET;
    for (&tag, &(messages, bytes)) in &out.stats.by_tag {
        mix(&mut tags, tag);
        mix(&mut tags, messages);
        mix(&mut tags, bytes);
    }
    (out.results, tags)
}

#[test]
fn g40_dist_gmres_is_bitwise_pinned() {
    let (a, opts) = (gen::g40(1), IlutOptions::new(10, 1e-4));
    assert_eq!(
        dist_pin(&a, &opts, 2),
        (
            vec![0x14d3_10f4_a3f2_fb9f, 0xe0b9_58ab_4403_b0b0],
            0x9bcd_4838_3504_ceea
        )
    );
    assert_eq!(
        dist_pin(&a, &opts, 4),
        (
            vec![
                0x2356_5ca3_93bd_59ed,
                0x7460_f893_ab41_06a4,
                0xc6a8_272b_e61a_a53c,
                0x5e20_9b8b_fe29_9cc4
            ],
            0x013e_2131_f546_3063
        )
    );
}

#[test]
fn torso_dist_gmres_is_bitwise_pinned() {
    let (a, opts) = (gen::torso(12), IlutOptions::new(20, 1e-6));
    assert_eq!(
        dist_pin(&a, &opts, 2),
        (
            vec![0x4465_13cf_b9ae_d2f5, 0xef0b_15bf_b377_9ce4],
            0x22f4_6e0d_69f3_3f9d
        )
    );
    assert_eq!(
        dist_pin(&a, &opts, 4),
        (
            vec![
                0x6200_0eeb_797b_517b,
                0x1792_e10d_c65d_7e2b,
                0x63c2_5f9f_1873_b733,
                0x76ef_84cc_148b_5f69
            ],
            0x9542_a69b_c09e_180c
        )
    );
}

/// `(LU)⁻¹` of a gathered distributed factorization, in original numbering.
struct Assembled(AssembledFactors);

impl Preconditioner for Assembled {
    fn apply(&self, r: &[f64]) -> Vec<f64> {
        self.0.solve(r)
    }
}

/// At p = 1, distributed GMRES with the parallel ILUT preconditioner returns
/// exactly the bits of serial GMRES over the assembled factors: the same
/// iterate, the same matvec count, the same residual.
#[test]
fn single_rank_dist_gmres_is_bitwise_the_serial_solve() {
    for (a, opts) in [
        (gen::g40(1), IlutOptions::new(10, 1e-4)),
        (gen::torso(12), IlutOptions::new(20, 1e-6)),
    ] {
        let n = a.n_rows();
        let b = rhs(n);
        let gopts = GmresOptions {
            restart: 10,
            rtol: 1e-10,
            ..Default::default()
        };
        let dm = DistMatrix::from_matrix(a.clone(), 1, 17);
        let out = Machine::run_checked(1, MachineModel::cray_t3d(), |ctx| {
            let local = dm.local_view(ctx.rank());
            let rf = par_ilut(ctx, &dm, &local, &opts).unwrap();
            let mut pre = DistIlu::new(ctx, &dm, &local, rf);
            let mut op = DistCsr::new(ctx, &dm, &local);
            let bl: Vec<f64> = local.nodes.iter().map(|&g| b[g]).collect();
            let r = dist_gmres(ctx, &mut op, &local, &mut pre, &bl, &gopts);
            let mut xg = vec![0.0; n];
            for (&g, v) in local.nodes.iter().zip(&r.x_local) {
                xg[g] = *v;
            }
            (pre.rf, xg, r)
        });
        let (rf, xg, dist) = out.results.into_iter().next().unwrap();
        let pre = Assembled(assemble_factors(&[rf], n));
        let serial = gmres(&a, &b, &pre, &gopts);
        assert!(serial.converged && dist.converged);
        assert_eq!(dist.matvecs, serial.matvecs);
        assert_eq!(dist.rel_residual.to_bits(), serial.rel_residual.to_bits());
        assert_eq!(dist.breakdown, serial.breakdown);
        let same = xg
            .iter()
            .zip(&serial.x)
            .filter(|(d, s)| d.to_bits() == s.to_bits())
            .count();
        assert_eq!(same, n, "iterate entries equal to the last bit");
    }
}
