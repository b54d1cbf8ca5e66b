//! Golden bit patterns: serial ILUT factors and one preconditioner
//! application `(LU)⁻¹ r` on the paper's G40 and TORSO stand-ins.
//!
//! The pinned digests were recorded from the row-of-`Vec` factor layout
//! that preceded the tile arena, so they hold the factor storage and the
//! triangular sweeps to bitwise-unchanged behaviour across layout changes.
//! Any change to a factor entry, a pivot, or the solve arithmetic moves a
//! digest.

use pilut_core::serial::ilut;
use pilut_core::{IlutOptions, LuFactors};
use pilut_sparse::gen;

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
