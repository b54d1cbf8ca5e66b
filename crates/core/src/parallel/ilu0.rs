//! Parallel ILU(0) — the static-pattern contrast case of paper §3.
//!
//! Because ILU(0) admits no fill, the sparsity structure of every interface
//! reduced matrix is known *before* any numeric work: it is simply the
//! original interface–interface coupling pattern. The elimination schedule
//! can therefore be computed up front — the paper's Figure 1(a) colouring —
//! and the reduced matrices never need to be formed explicitly. Here the
//! schedule is obtained by repeatedly peeling a distributed independent set
//! off the *static* pattern (Jones–Plassmann-style, reusing the same
//! modified-Luby machinery as the ILUT path), after which the numeric
//! factorization replays the schedule level by level with pattern-restricted
//! updates.
//!
//! The output is a [`RankFactors`] like the ILUT path's, so the parallel
//! triangular solves and the distributed GMRES preconditioner wrapper work
//! unchanged.

use crate::breakdown::{PivotDoctor, PivotFault};
use crate::dist::exchange::tags;
use crate::dist::{DistMatrix, LocalView};
use crate::options::{BreakdownPolicy, FactorError};
use crate::parallel::dist_mis::{build_level_links, dist_mis};
use crate::parallel::reduced::{LaneRows, ReducedRows};
use crate::parallel::{
    collective_fault_verdict, initial_cols, own_pos, ship_u_rows, FactorRow, ParStats, RankFactors,
};
use pilut_par::Ctx;
use pilut_sparse::WorkRow;

/// Runs the parallel zero-fill factorization. Collective. Aborts on the
/// first unusable pivot; use [`par_ilu0_with`] to recover instead.
pub fn par_ilu0(
    ctx: &mut Ctx,
    dm: &DistMatrix,
    local: &LocalView,
) -> Result<RankFactors, FactorError> {
    par_ilu0_with(ctx, dm, local, BreakdownPolicy::Abort)
}

/// [`par_ilu0`] with an explicit [`BreakdownPolicy`]. Collective; every
/// rank must pass the same policy.
pub fn par_ilu0_with(
    ctx: &mut Ctx,
    dm: &DistMatrix,
    local: &LocalView,
    policy: BreakdownPolicy,
) -> Result<RankFactors, FactorError> {
    policy.validate()?; // deterministic: every rank rejects the same way
    let mut doctor = PivotDoctor::new(policy);
    let a = dm.matrix();
    let n = dm.n();
    let mut role = vec![0u8; n];
    for &v in &local.interior {
        role[v] = 1;
    }
    for &v in &local.interface {
        role[v] = 2;
    }
    let mut rows = vec![FactorRow::default(); local.len()];
    let mut stats = ParStats::default();
    let mut w = WorkRow::new(n);
    let mut my_err: Option<(usize, PivotFault)> = None;

    // ---- Phase 1: interiors, ascending global id, pattern-restricted
    // (interior `p` is local-view position `p`).
    for (p, &i) in local.interior.iter().enumerate() {
        let (cols, vals) = a.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            w.set(j, v);
        }
        let mut lower: Vec<(usize, f64)> = Vec::new();
        // Pivots: my interiors preceding i, in the original pattern only (no
        // fill can extend the pivot set).
        for &k in cols.iter().filter(|&&k| role[k] == 1 && k < i) {
            let wk = w.get(k);
            w.drop_pos(k);
            let urow = &rows[own_pos(local, k)];
            let mult = wk / urow.diag;
            lower.push((k, mult));
            for &(j, uv) in &urow.u {
                if w.contains(j) {
                    w.add(j, -mult * uv);
                }
            }
            stats.flops += 2.0 * urow.u.len() as f64 + 1.0;
            ctx.work(2.0 * urow.u.len() as f64 + 1.0);
        }
        let mut diag = 0.0;
        let mut has_diag = false;
        let mut upper: Vec<(usize, f64)> = Vec::new();
        for (j, v) in w.drain_sorted() {
            if j == i {
                diag = v;
                has_diag = true;
            } else {
                upper.push((j, v));
            }
        }
        doctor.repair_or_defer(
            i,
            a.row_norm2(i),
            has_diag,
            &mut diag,
            &mut lower,
            &mut upper,
            &mut my_err,
            1.0,
        );
        rows[p] = FactorRow {
            l: lower,
            diag,
            u: upper,
        };
    }

    // ---- Phase 1b: eliminate interiors from interface rows (pattern-
    // restricted); the surviving interface-column values are the rank's
    // slice of A_I, whose pattern equals the original one.
    let mut reduced = ReducedRows::new(n, local.interface.clone());
    let n_interior = local.interior.len();
    for (slot, &i) in local.interface.iter().enumerate() {
        let (cols, vals) = a.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            w.set(j, v);
        }
        let mut lower: Vec<(usize, f64)> = Vec::new();
        for &k in cols.iter().filter(|&&k| role[k] == 1) {
            let wk = w.get(k);
            w.drop_pos(k);
            let urow = &rows[own_pos(local, k)];
            let mult = wk / urow.diag;
            lower.push((k, mult));
            for &(j, uv) in &urow.u {
                if w.contains(j) {
                    w.add(j, -mult * uv);
                }
            }
            stats.flops += 2.0 * urow.u.len() as f64 + 1.0;
            ctx.work(2.0 * urow.u.len() as f64 + 1.0);
        }
        let rest = reduced.row_mut(slot);
        w.drain_sorted_into(rest);
        stats.reduced_nnz_initial += rest.len();
        rows[n_interior + slot].l = lower;
    }
    stats.reduced_nnz_peak = stats.reduced_nnz_initial;
    let initial_reduced_cols = initial_cols(&reduced);

    // ---- Symbolic schedule: peel independent sets off the static pattern.
    // (This is the "colouring" of Figure 1a: it depends only on structure.)
    // `pattern` holds the still-unscheduled rows, each restricted to the
    // still-unscheduled columns (local ones we know directly; remote ones
    // from the previous levels' outcomes).
    let mut pattern = reduced.clone();
    let mut scheduled = vec![false; n];
    let mut schedule: Vec<Vec<usize>> = Vec::new();
    let mut level_idx = 0u64;
    loop {
        let left = ctx.all_reduce_sum_u64(pattern.live().len() as u64);
        if left == 0 {
            break;
        }
        let plan = build_level_links(ctx, dm.dist(), &mut pattern);
        let mis = dist_mis(ctx, &plan, &pattern, 0xC0105, level_idx, 5)?;
        for &v in mis.my_in.iter().chain(&mis.remote_in) {
            scheduled[v] = true;
        }
        pattern.retire(&mis.my_in);
        for k in 0..pattern.live().len() {
            let slot = pattern.live()[k];
            pattern.row_mut(slot).retain(|&(c, _)| !scheduled[c]);
        }
        schedule.push(mis.my_in);
        level_idx += 1;
    }

    // ---- Numeric interface factorization, level by level.
    let mut remote_u = LaneRows::default();
    let (mut pivots, mut mults) = (Vec::new(), Vec::new());
    for level in &schedule {
        // Finish the rows of this level: their remaining couplings to
        // *unfactored* nodes form U; couplings to already-factored interface
        // nodes were eliminated in earlier sweeps below.
        for &v in level {
            // lint: allow(unwrap): the schedule lists my interface rows only
            let rr = reduced.take(reduced.slot_of(v).expect("scheduled row missing"));
            let mut diag = 0.0;
            let mut has_diag = false;
            let mut upper = Vec::with_capacity(rr.len());
            for (c, val) in rr {
                if c == v {
                    diag = val;
                    has_diag = true;
                } else {
                    upper.push((c, val));
                }
            }
            let row = &mut rows[own_pos(local, v)];
            let mut l = std::mem::take(&mut row.l);
            doctor.repair_or_defer(
                v,
                a.row_norm2(v),
                has_diag,
                &mut diag,
                &mut l,
                &mut upper,
                &mut my_err,
                1.0,
            );
            row.l = l;
            row.diag = diag;
            row.u = upper;
        }
        reduced.retire(level);

        // Ship the new U rows along the current level's plan, then eliminate
        // this level's unknowns from the remaining rows (pattern-restricted).
        let plan = build_level_links(ctx, dm.dist(), &mut reduced);
        let is_member = |v: usize| level.binary_search(&v).is_ok();
        let member_row = |v: usize| is_member(v).then(|| &rows[own_pos(local, v)]);
        ship_u_rows(ctx, &plan, tags::U0, n, member_row, &mut remote_u)?;
        let remote_row = |reduced: &ReducedRows, k| remote_u.get(reduced.lane_of(k)?);
        for idx in 0..reduced.live().len() {
            let slot = reduced.live()[idx];
            let i = reduced.node(slot);
            // Remote members of this level, detectable from the shipped rows.
            let shipped = |c| remote_row(&reduced, c).is_some();
            pivots.clear();
            let cols = reduced.cols(slot);
            pivots.extend(cols.filter(|&c| c != i && (is_member(c) || shipped(c))));
            if pivots.is_empty() {
                continue;
            }
            for &(c, v) in reduced.row(slot) {
                w.set(c, v);
            }
            mults.clear();
            for &k in &pivots {
                let (diag_k, u_k) = match local.pos_of(k) {
                    Some(p) => (rows[p].diag, &rows[p].u[..]),
                    // lint: allow(unwrap): remote pivots were picked for their shipped rows
                    None => remote_row(&reduced, k).expect("missing U row for level pivot"),
                };
                let wk = w.get(k);
                w.drop_pos(k);
                // lint: allow(float-eq): skips exactly cancelled multipliers
                if wk == 0.0 {
                    continue;
                }
                let mult = wk / diag_k;
                for &(j, uv) in u_k {
                    if w.contains(j) {
                        w.add(j, -mult * uv);
                    }
                }
                stats.flops += 2.0 * u_k.len() as f64 + 1.0;
                ctx.work(2.0 * u_k.len() as f64 + 1.0);
                mults.push((k, mult));
            }
            let row = &mut rows[n_interior + slot];
            row.l.extend_from_slice(&mults);
            row.l.sort_unstable_by_key(|&(c, _)| c);
            w.drain_sorted_into(reduced.row_mut(slot));
        }
    }

    // Global error check once at the end (the schedule loop above already
    // synchronised every rank the same number of times).
    let err_flag = ctx.all_reduce_sum_u64(my_err.map_or(0, |_| 1));
    if err_flag > 0 {
        return Err(collective_fault_verdict(ctx, &my_err));
    }
    stats.breakdowns_repaired = doctor.repairs();
    Ok(RankFactors::from_rows(
        ctx.rank(),
        local,
        rows,
        &schedule,
        initial_reduced_cols,
        stats,
    ))
}
