//! Storage and triangular sweeps for incomplete LU factors.
//!
//! Every serial factorization — `ilut`, `ilu0`, `iluk`, the assembled
//! parallel factors, and the blocked `block_ilut` — writes one layout: block
//! rows of dense `b × b` tiles (`b = 1` for the scalar kernels) held in
//! CSR-style arenas. Conventions (matching the paper's Algorithm 2.1):
//!
//! * `l_row(I)` holds the **strict** block-lower tiles of block row `I` —
//!   the multipliers; the identity diagonal of `L` is implicit;
//! * `u_row(I)` holds the **strict** block-upper tiles;
//! * `diag(I)` is the diagonal tile, kept factored (Doolittle `L\U` packed,
//!   no pivoting — see `pilut_sparse::tile::lu_factor`) so both the
//!   elimination's pivot application and the backward sweep reuse it. At
//!   `b = 1` it is the pivot `u_ii` itself.
//!
//! Rows past `n` in the last block row (when `n % b != 0`) are padding:
//! their diagonal-tile lanes carry 1.0 and nothing couples them, so they
//! solve to whatever the padded right-hand side holds (zeros) and never
//! perturb real lanes.
//!
//! The arenas are filled row by row as the factorization finishes each
//! row, and the triangular sweeps stream them in natural order: forward
//! over block rows `0, 1, …`, backward over `…, 1, 0`. One arena keeps that
//! stream prefetcher-friendly instead of hopping between per-row heap
//! allocations.

use pilut_sparse::tile;

/// Bound on [`LuFactors::with_fill_cap`]'s up-front reservation per strict
/// part, in stored tiles of the input matrix: it covers the exact LU of
/// the banded bench problems (a 64² Laplacian fills about 13 × nnz(A) per
/// part) without reserving the quadratic cap of unbounded `m`.
const FILL_RESERVE_PER_TILE: usize = 16;

/// An incomplete LU factorization stored as CSR arenas of dense `b × b`
/// tiles (see the module docs for the conventions).
#[derive(Clone, Debug, PartialEq)]
pub struct LuFactors {
    n: usize,
    b: usize,
    /// Row pointer into `l_cols` (one entry per finished block row, plus 0).
    l_ptr: Vec<usize>,
    /// Strict block-lower block-column indices, ascending per row.
    l_cols: Vec<usize>,
    /// Tile `t` of the arena occupies `l_vals[t·b² .. (t+1)·b²]`.
    l_vals: Vec<f64>,
    /// Row pointer into `u_cols`.
    u_ptr: Vec<usize>,
    /// Strict block-upper block-column indices, ascending per row.
    u_cols: Vec<usize>,
    /// Strict-upper tiles, parallel to `u_cols`.
    u_vals: Vec<f64>,
    /// Factored diagonal tiles, `L\U`-packed, `b²` slots per block row.
    diag: Vec<f64>,
}

impl LuFactors {
    /// Empty factors of dimension `n` with `b × b` tiles, reserving room
    /// for `l_tiles` / `u_tiles` strict tiles so the row appends of a
    /// factorization that knows its fill bound never reallocate.
    pub(crate) fn with_capacity(n: usize, b: usize, l_tiles: usize, u_tiles: usize) -> Self {
        assert!((1..=tile::MAX_BLOCK).contains(&b), "block size {b}");
        let (nb, bb) = (n.div_ceil(b), b * b);
        let mut ptr = Vec::with_capacity(nb + 1);
        ptr.push(0);
        LuFactors {
            n,
            b,
            l_ptr: ptr.clone(),
            l_cols: Vec::with_capacity(l_tiles),
            l_vals: Vec::with_capacity(l_tiles * bb),
            u_ptr: ptr,
            u_cols: Vec::with_capacity(u_tiles),
            u_vals: Vec::with_capacity(u_tiles * bb),
            diag: Vec::with_capacity(nb * bb),
        }
    }

    /// Empty factors for an ILUT-style kernel that keeps at most `m` tiles
    /// per strict part of each block row, on a matrix storing `a_tiles`
    /// tiles. Reserving that fill cap up front means the row appends never
    /// reallocate, so neither time nor peak memory pays a realloc copy.
    /// With `m ≥ n` the cap is quadratic in `n`, so the reservation is
    /// also bounded by [`FILL_RESERVE_PER_TILE`]` · a_tiles`; past that
    /// the arena grows by doubling. Untouched reserved pages are not
    /// resident, which is why the bound can be generous.
    pub(crate) fn with_fill_cap(n: usize, b: usize, m: usize, a_tiles: usize) -> Self {
        let nb = n.div_ceil(b);
        let cap = nb.saturating_mul(m.min(nb.saturating_sub(1)));
        let reserve = cap.min(FILL_RESERVE_PER_TILE.saturating_mul(a_tiles));
        Self::with_capacity(n, b, reserve, reserve)
    }

    /// Appends the next scalar row (`b = 1`): the strict lower `(col, val)`
    /// pairs, and the upper pairs led by the diagonal `(i, u_ii)`, both in
    /// ascending column order.
    pub(crate) fn push_row(&mut self, lower: &[(usize, f64)], upper: &[(usize, f64)]) {
        debug_assert_eq!(self.b, 1);
        let i = self.diag.len();
        let Some((&(dc, d), strict)) = upper.split_first() else {
            panic!("U row {i} is empty");
        };
        assert_eq!(dc, i, "U row {i} must lead with its diagonal");
        self.l_cols.extend(lower.iter().map(|&(c, _)| c));
        self.l_vals.extend(lower.iter().map(|&(_, v)| v));
        self.l_ptr.push(self.l_cols.len());
        self.u_cols.extend(strict.iter().map(|&(c, _)| c));
        self.u_vals.extend(strict.iter().map(|&(_, v)| v));
        self.u_ptr.push(self.u_cols.len());
        self.diag.push(d);
    }

    /// Appends the next block row: strict lower and upper block columns
    /// with their concatenated `b²`-slot tiles, and the factored diagonal
    /// tile (padding lanes set to 1.0).
    pub(crate) fn push_tile_row(
        &mut self,
        l_cols: &[usize],
        l_tiles: &[f64],
        u_cols: &[usize],
        u_tiles: &[f64],
        diag: &[f64],
    ) {
        let bb = self.b * self.b;
        assert_eq!(l_tiles.len(), l_cols.len() * bb);
        assert_eq!(u_tiles.len(), u_cols.len() * bb);
        assert_eq!(diag.len(), bb);
        self.l_cols.extend_from_slice(l_cols);
        self.l_vals.extend_from_slice(l_tiles);
        self.l_ptr.push(self.l_cols.len());
        self.u_cols.extend_from_slice(u_cols);
        self.u_vals.extend_from_slice(u_tiles);
        self.u_ptr.push(self.u_cols.len());
        self.diag.extend_from_slice(diag);
    }

    /// Scalar dimension of the factored matrix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Tile dimension `b` (1 for the scalar factorizations).
    pub fn block_size(&self) -> usize {
        self.b
    }

    /// Number of block rows (`⌈n/b⌉`).
    pub fn n_brows(&self) -> usize {
        self.n.div_ceil(self.b)
    }

    /// Lanes of the padded solve buffer ([`LuFactors::solve_into`]
    /// scratch): `n_brows · b`, which is `n` whenever `b` divides `n`.
    pub fn padded_len(&self) -> usize {
        self.n_brows() * self.b
    }

    /// Block row `bi` of `L`: `(block columns, concatenated tiles)`.
    pub fn l_row(&self, bi: usize) -> (&[usize], &[f64]) {
        let bb = self.b * self.b;
        let (s, e) = (self.l_ptr[bi], self.l_ptr[bi + 1]);
        (&self.l_cols[s..e], &self.l_vals[s * bb..e * bb])
    }

    /// Block row `bi` of the strict upper part of `U`: `(block columns,
    /// concatenated tiles)`.
    pub fn u_row(&self, bi: usize) -> (&[usize], &[f64]) {
        let bb = self.b * self.b;
        let (s, e) = (self.u_ptr[bi], self.u_ptr[bi + 1]);
        (&self.u_cols[s..e], &self.u_vals[s * bb..e * bb])
    }

    /// The factored (`L\U`-packed) diagonal tile of block row `bi`; at
    /// `b = 1` the one-slot `[u_ii]`.
    pub fn diag(&self, bi: usize) -> &[f64] {
        let bb = self.b * self.b;
        &self.diag[bi * bb..(bi + 1) * bb]
    }

    /// Stored slots in `L` (`tiles · b²`; the entry count at `b = 1`).
    pub fn nnz_l(&self) -> usize {
        self.l_vals.len()
    }

    /// Stored slots in `U`, diagonal tiles included.
    pub fn nnz_u(&self) -> usize {
        self.u_vals.len() + self.diag.len()
    }

    /// Stored slots across both factors. At `b > 1` this counts padded
    /// tile slots; [`LuFactors::to_lu_factors`]`.nnz()` counts the useful
    /// entries.
    pub fn nnz(&self) -> usize {
        self.nnz_l() + self.nnz_u()
    }

    /// Validates the structural conventions; used by tests and
    /// `debug_assert!`s.
    pub fn check_structure(&self) -> Result<(), String> {
        let (b, nb) = (self.b, self.n_brows());
        if self.diag.len() != nb * b * b {
            return Err(format!(
                "row count mismatch: {nb} block rows, {} diagonal slots",
                self.diag.len()
            ));
        }
        for bi in 0..nb {
            let (lcols, _) = self.l_row(bi);
            if lcols.iter().any(|&c| c >= bi) {
                return Err(format!("L row {bi} has a column at or past the diagonal"));
            }
            let (ucols, _) = self.u_row(bi);
            if ucols.iter().any(|&c| c <= bi) {
                return Err(format!("U row {bi} has a column at or before the diagonal"));
            }
            let ascending = |cols: &[usize]| cols.windows(2).all(|w| w[0] < w[1]);
            if !ascending(lcols) || !ascending(ucols) {
                return Err(format!("row {bi} columns do not ascend"));
            }
            let d = self.diag(bi);
            for r in 0..b {
                let p = d[r * b + r];
                // lint: allow(float-eq): exact zero-pivot test
                if !p.is_finite() || p == 0.0 {
                    return Err(format!("row {bi} lane {r} has unusable pivot {p}"));
                }
            }
        }
        Ok(())
    }

    /// Applies `(LU)⁻¹ r` — the preconditioner action.
    pub fn solve(&self, r: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.padded_len()];
        self.solve_into(r, &mut x);
        x.truncate(self.n);
        x
    }

    /// Applies `(LU)⁻¹ r` into a caller-owned buffer of
    /// [`LuFactors::padded_len`] lanes — the zero-allocation steady-state
    /// form of [`LuFactors::solve`]. On return the first `n` lanes are the
    /// solution and any padding lanes are zero.
    pub fn solve_into(&self, r: &[f64], x: &mut [f64]) {
        let _audit = pilut_allocaudit::region("trisolve_replay");
        assert_eq!(r.len(), self.n);
        assert_eq!(x.len(), self.padded_len());
        x[..self.n].copy_from_slice(r);
        x[self.n..].fill(0.0);
        // Hoist the block-size dispatch out of the per-tile loop: the sweep
        // body monomorphizes on `B`, so a 4×4 tile update is sixteen
        // unrolled fused ops with the accumulator in registers.
        match self.b {
            1 => sweep::<1>(self, x),
            2 => sweep::<2>(self, x),
            3 => sweep::<3>(self, x),
            4 => sweep::<4>(self, x),
            b => unreachable!("block size {b} exceeds MAX_BLOCK"),
        }
    }

    /// Applies `(LU)⁻¹` to an `n × k` right-hand-side panel stored row-major
    /// (`rhs[i·k + c]` = row `i`, right-hand side `c`), amortising every
    /// tile load over `k` solves. Column `c` of the result is
    /// bitwise-identical to `solve` of column `c` alone.
    pub fn solve_panel(&self, rhs: &[f64], k: usize) -> Vec<f64> {
        let mut x = vec![0.0; self.padded_len() * k];
        self.solve_panel_into(rhs, k, &mut x);
        x.truncate(self.n * k);
        x
    }

    /// Applies `(LU)⁻¹` to an `n × k` panel into a caller-owned buffer of
    /// `padded_len · k` lanes — the zero-allocation form of
    /// [`LuFactors::solve_panel`].
    pub fn solve_panel_into(&self, rhs: &[f64], k: usize, x: &mut [f64]) {
        let _audit = pilut_allocaudit::region("trisolve_replay");
        assert!(k >= 1, "panel width must be at least 1");
        assert_eq!(rhs.len(), self.n * k);
        assert_eq!(x.len(), self.padded_len() * k);
        x[..self.n * k].copy_from_slice(rhs);
        x[self.n * k..].fill(0.0);
        match self.b {
            1 => panel_sweep::<1>(self, k, x),
            2 => panel_sweep::<2>(self, k, x),
            3 => panel_sweep::<3>(self, k, x),
            4 => panel_sweep::<4>(self, k, x),
            b => unreachable!("block size {b} exceeds MAX_BLOCK"),
        }
    }

    /// The scalar (`b = 1`) refinement of the factors: an [`LuFactors`]
    /// whose product equals the blocked `L·U` exactly.
    ///
    /// With each diagonal tile `D = L_d U_d` (unit-lower/upper, as stored),
    /// the scalar factors are `L_s = (I + M)·diag(L_d)` and
    /// `U_s = diag(U_d) + diag(L_d)⁻¹·V` — so off-diagonal `L` tiles become
    /// `M·L_d` and off-diagonal `U` tiles `L_d⁻¹·V`, while the in-block
    /// entries come straight from the packed tile LU. At `b = 1` both
    /// corrections are identities and the conversion is a bitwise copy.
    /// Exact zeros (tile padding) are skipped, as are padding lanes.
    pub fn to_lu_factors(&self) -> LuFactors {
        let (n, b) = (self.n, self.b);
        if b == 1 {
            return self.clone();
        }
        let bb = b * b;
        let mut out = LuFactors::with_capacity(n, 1, self.nnz_l(), self.nnz_u());
        // Per-lane assembly buffers for one block row.
        let mut lower: Vec<Vec<(usize, f64)>> = vec![Vec::new(); b];
        let mut upper: Vec<Vec<(usize, f64)>> = vec![Vec::new(); b];
        let mut m = [0.0f64; tile::MAX_BLOCK * tile::MAX_BLOCK];
        // Scatters a corrected off-diagonal tile into the lane rows,
        // skipping padding columns and exact zeros.
        let scatter = |rows: &mut [Vec<(usize, f64)>], bj: usize, m: &[f64]| {
            for (r, row) in rows.iter_mut().enumerate() {
                for c in 0..b {
                    let (col, v) = (bj * b + c, m[r * b + c]);
                    // lint: allow(float-eq): padding slots are exact zeros
                    if col < n && v != 0.0 {
                        row.push((col, v));
                    }
                }
            }
        };
        for bi in 0..self.n_brows() {
            let rows = (n - bi * b).min(b);
            let dlu_i = self.diag(bi);
            for row in lower.iter_mut().chain(&mut upper) {
                row.clear();
            }
            // Strict block-lower tiles, corrected to M·L_d(J).
            let (lcols, ltiles) = self.l_row(bi);
            for (t, &bj) in ltiles.chunks_exact(bb).zip(lcols) {
                let dlu_j = self.diag(bj);
                for r in 0..b {
                    for c in 0..b {
                        let mut s = t[r * b + c];
                        for q in c + 1..b {
                            s += t[r * b + q] * dlu_j[q * b + c];
                        }
                        m[r * b + c] = s;
                    }
                }
                scatter(&mut lower[..rows], bj, &m);
            }
            // In-block entries from the packed diagonal LU.
            for r in 0..rows {
                for c in 0..rows {
                    let v = dlu_i[r * b + c];
                    let side = if c < r { &mut lower[r] } else { &mut upper[r] };
                    // lint: allow(float-eq): skip exact zeros off the pivot lane
                    if c == r || v != 0.0 {
                        side.push((bi * b + c, v));
                    }
                }
            }
            // Strict block-upper tiles, corrected to L_d(I)⁻¹·V.
            let (ucols, utiles) = self.u_row(bi);
            for (v, &bj) in utiles.chunks_exact(bb).zip(ucols) {
                for c in 0..b {
                    for r in 0..b {
                        let mut s = v[r * b + c];
                        for q in 0..r {
                            s -= dlu_i[r * b + q] * m[q * b + c];
                        }
                        m[r * b + c] = s;
                    }
                }
                scatter(&mut upper[..rows], bj, &m);
            }
            for r in 0..rows {
                out.push_row(&lower[r], &upper[r]);
            }
        }
        out
    }
}

// Monomorphized sweep bodies behind the `solve_into` / `solve_panel_into`
// dispatch: with `B` a compile-time constant the tile loops fully unroll
// and the accumulator lives in registers. Each block row's update order is
// the generic `tile::matvec_sub` / `tile::panel_sub` order, so every
// specialization — including `B = 1`, where the tile ops are the scalar
// ops — is bitwise the plain row-by-row substitution.

/// `acc -= Σ_t tile_t · x[col_t]` over one block row of an arena.
#[inline(always)]
fn tile_row_sub<const B: usize>(acc: &mut [f64; B], cols: &[usize], tiles: &[f64], x: &[f64]) {
    for (t, &bj) in tiles.chunks_exact(B * B).zip(cols) {
        let xj = &x[bj * B..bj * B + B];
        for i in 0..B {
            let mut s = acc[i];
            for j in 0..B {
                s -= t[i * B + j] * xj[j];
            }
            acc[i] = s;
        }
    }
}

/// Forward `L y = b` over block rows `0, 1, …`, then backward `U x = y`
/// over `…, 1, 0`, in place on `n_brows · B` lanes.
fn sweep<const B: usize>(f: &LuFactors, x: &mut [f64]) {
    let nb = f.n_brows();
    for bi in 0..nb {
        let (s, e) = (f.l_ptr[bi], f.l_ptr[bi + 1]);
        if s == e {
            continue;
        }
        let mut acc = [0.0f64; B];
        acc.copy_from_slice(&x[bi * B..bi * B + B]);
        tile_row_sub::<B>(
            &mut acc,
            &f.l_cols[s..e],
            &f.l_vals[s * B * B..e * B * B],
            x,
        );
        x[bi * B..bi * B + B].copy_from_slice(&acc);
    }
    for bi in (0..nb).rev() {
        let (s, e) = (f.u_ptr[bi], f.u_ptr[bi + 1]);
        let mut acc = [0.0f64; B];
        acc.copy_from_slice(&x[bi * B..bi * B + B]);
        tile_row_sub::<B>(
            &mut acc,
            &f.u_cols[s..e],
            &f.u_vals[s * B * B..e * B * B],
            x,
        );
        tile::lu_solve_vec(B, &f.diag[bi * B * B..(bi + 1) * B * B], &mut acc);
        x[bi * B..bi * B + B].copy_from_slice(&acc);
    }
}

/// `acc -= Σ_t tile_t · X[col_t]` over one block row, for a `B × k` panel.
#[inline(always)]
fn panel_row_sub<const B: usize>(
    acc: &mut [f64],
    cols: &[usize],
    tiles: &[f64],
    x: &[f64],
    k: usize,
) {
    for (t, &bj) in tiles.chunks_exact(B * B).zip(cols) {
        let xj = &x[bj * B * k..(bj + 1) * B * k];
        for i in 0..B {
            for j in 0..B {
                let aij = t[i * B + j];
                let (yrow, xrow) = (i * k, j * k);
                for c in 0..k {
                    acc[yrow + c] -= aij * xj[xrow + c];
                }
            }
        }
    }
}

/// The [`sweep`] order over an `n_brows · B × k` row-major panel.
fn panel_sweep<const B: usize>(f: &LuFactors, k: usize, x: &mut [f64]) {
    // The accumulator stages one block-row of the panel (`B·k` lanes).
    // Stack space for every realistic panel width keeps the sweep off the
    // heap in the steady state; only panels wider than `PANEL_ACC_LANES / B`
    // right-hand sides fall back to an allocation.
    const PANEL_ACC_LANES: usize = 256;
    let mut stack_acc = [0.0f64; PANEL_ACC_LANES];
    let mut heap_acc: Vec<f64>;
    let acc: &mut [f64] = if B * k <= PANEL_ACC_LANES {
        &mut stack_acc[..B * k]
    } else {
        heap_acc = vec![0.0f64; B * k];
        &mut heap_acc
    };
    let nb = f.n_brows();
    for bi in 0..nb {
        let (s, e) = (f.l_ptr[bi], f.l_ptr[bi + 1]);
        if s == e {
            continue;
        }
        acc.copy_from_slice(&x[bi * B * k..(bi + 1) * B * k]);
        panel_row_sub::<B>(acc, &f.l_cols[s..e], &f.l_vals[s * B * B..e * B * B], x, k);
        x[bi * B * k..(bi + 1) * B * k].copy_from_slice(acc);
    }
    for bi in (0..nb).rev() {
        let (s, e) = (f.u_ptr[bi], f.u_ptr[bi + 1]);
        acc.copy_from_slice(&x[bi * B * k..(bi + 1) * B * k]);
        panel_row_sub::<B>(acc, &f.u_cols[s..e], &f.u_vals[s * B * B..e * B * B], x, k);
        tile::lu_solve_panel(B, k, f.diag(bi), acc);
        x[bi * B * k..(bi + 1) * B * k].copy_from_slice(acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact LU of [[2,1],[4,5]]: L21 = 2, U = [[2,1],[0,3]].
    fn small() -> LuFactors {
        let mut f = LuFactors::with_capacity(2, 1, 1, 1);
        f.push_row(&[], &[(0, 2.0), (1, 1.0)]);
        f.push_row(&[(0, 2.0)], &[(1, 3.0)]);
        f
    }

    /// Factors with b=2, n=3 (ragged): block row 0 (rows 0-1) has diagonal
    /// tile [[4,1],[2,5]] and a U tile to block 1 with only column 2 real;
    /// block row 1 (row 2 + padding) has an L tile and diagonal
    /// [[3,0],[0,1]] (padding lane 1).
    fn tiny() -> LuFactors {
        let mut d0 = [4.0, 1.0, 2.0, 5.0];
        tile::lu_factor(2, &mut d0).expect("nonsingular");
        let mut d1 = [3.0, 0.0, 0.0, 1.0];
        tile::lu_factor(2, &mut d1).expect("nonsingular");
        let mut f = LuFactors::with_capacity(3, 2, 1, 1);
        f.push_tile_row(&[], &[], &[1], &[1.0, 0.0, -1.0, 0.0], &d0);
        f.push_tile_row(&[0], &[0.5, -0.25, 0.0, 0.0], &[], &[], &d1);
        f
    }

    #[test]
    fn structure_check_passes() {
        assert!(small().check_structure().is_ok());
        assert!(tiny().check_structure().is_ok());
    }

    #[test]
    fn structure_check_catches_bad_rows() {
        let mut f = LuFactors::with_capacity(2, 1, 1, 1);
        f.push_row(&[], &[(0, 2.0)]);
        f.push_row(&[], &[(1, 0.0)]);
        assert!(f.check_structure().is_err(), "zero pivot");
        let mut g = LuFactors::with_capacity(2, 1, 1, 1);
        g.push_row(&[], &[(0, 2.0)]);
        g.push_row(&[(1, 1.0)], &[(1, 3.0)]);
        assert!(g.check_structure().is_err(), "L column on the diagonal");
        let mut h = LuFactors::with_capacity(2, 1, 0, 0);
        h.push_row(&[], &[(0, 2.0)]);
        assert!(h.check_structure().is_err(), "missing row");
    }

    #[test]
    fn solve_inverts_product() {
        let f = small();
        // A = [[2,1],[4,5]]; A * [1, 2] = [4, 14].
        let x = f.solve(&[4.0, 14.0]);
        assert!((x[0] - 1.0).abs() < 1e-14);
        assert!((x[1] - 2.0).abs() < 1e-14);
    }

    #[test]
    fn blocked_solve_matches_scalar_refinement() {
        let f = tiny();
        let s = f.to_lu_factors();
        s.check_structure()
            .expect("refinement is a valid b = 1 factorization");
        assert_eq!(s.block_size(), 1);
        let r = vec![1.0, -2.0, 3.0];
        let got = f.solve(&r);
        let want = s.solve(&r);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-12, "{got:?} vs {want:?}");
        }
    }

    #[test]
    fn panel_columns_match_single_solves_bitwise() {
        for f in [small(), tiny()] {
            let k = 3;
            let rhs: Vec<f64> = (0..f.n() * k).map(|i| (i as f64) * 0.7 - 1.0).collect();
            let panel = f.solve_panel(&rhs, k);
            for c in 0..k {
                let col: Vec<f64> = (0..f.n()).map(|i| rhs[i * k + c]).collect();
                let single = f.solve(&col);
                for i in 0..f.n() {
                    assert_eq!(panel[i * k + c], single[i], "panel col {c} row {i}");
                }
            }
        }
    }
}
