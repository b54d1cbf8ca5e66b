//! Parallel forward/backward substitution (paper §5).
//!
//! The solves mirror the factorization's two-phase structure. Forward
//! (`L y = b`): every rank solves its interior unknowns locally, then the
//! interface unknowns level by level — after computing a level, each rank
//! pushes the new `x` values to exactly the ranks whose later rows reference
//! them. Backward (`U x = y`) runs the levels in reverse and finishes with
//! the interiors. Communication volume is proportional to the interface
//! size, but the `q` levels impose `q` implicit synchronisation points —
//! which is why ILUT\*'s smaller `q` makes its triangular solves faster
//! (paper Table 2 / Figure 6).
//!
//! There is no substitution loop here: a rank's rows live in one
//! [`LuFactors`] arena in elimination order, so every
//! segment — the interiors, then each level — is a contiguous row range,
//! and the solve runs the serial forward/backward row-range kernels over
//! one segment at a time. Remote values land in the arena's halo lanes
//! (one per ghost column) of the same solve buffer.
//!
//! The exchange is fully planned: [`TrisolvePlan::build`] builds one
//! [`CommPlan`] per direction, asks every owner for the *level index* of
//! each needed node ([`CommPlan::exchange_labels`]), and restricts the plan
//! into one sub-plan per level, with the send and receive lanes of every
//! sub-plan precomputed. A sweep then replays a fixed schedule — at
//! iteration `l` it drains the batches of the previously computed level
//! into the halo lanes and, after computing level `l`, ships one
//! values-only message per peer that needs any of them. This is valid
//! because remote `L` dependencies sit at strictly earlier levels and
//! remote `U` dependencies at strictly later ones (the level construction
//! eliminates a row only against already-pivoted levels), and received
//! values persist for any level-skipping consumer. No node ids travel on
//! the wire.

use crate::dist::exchange::{tags, CommPlan};
use crate::dist::{DistMatrix, LocalView};
use crate::factors::{backward_rows, forward_rows, LuFactors};
use crate::parallel::RankFactors;
use pilut_par::collectives::ReduceOp;
use pilut_par::Ctx;

/// One level's traffic in one direction: the sub-plan plus the solve-buffer
/// lanes its values leave from and arrive in.
struct LevelExchange {
    plan: CommPlan,
    /// Elimination positions of the values shipped, in send-schedule order.
    send_lanes: Vec<usize>,
    /// Halo lanes of the values received, in receive-schedule order.
    recv_lanes: Vec<usize>,
}

/// The communication plan for repeated triangular solves with one
/// factorization: one per-level exchange per direction.
pub struct TrisolvePlan {
    /// `fwd[l]`: level-`l` forward traffic (my level-`l` nodes on the send
    /// side, remote level-`l` nodes on the receive side).
    fwd: Vec<LevelExchange>,
    /// `bwd[l]`: level-`l` backward traffic.
    bwd: Vec<LevelExchange>,
    /// Elimination position of each local-view position.
    elim_of: Vec<usize>,
    /// Solve-buffer length: owned rows plus halo lanes.
    lanes: usize,
}

/// One strict part of an arena row: `LuFactors::l_row` or `u_row`.
type RowPart = fn(&LuFactors, usize) -> (&[usize], &[f64]);

/// Builds one direction's per-level schedule: plan the exchange from the
/// ghost columns that `part` names, learn each needed node's level from its
/// owner, restrict the plan level by level, and resolve every scheduled
/// node to its solve-buffer lane.
fn build_sweep(
    ctx: &mut Ctx,
    tag: u64,
    dm: &DistMatrix,
    local: &LocalView,
    rf: &RankFactors,
    elim_of: &[usize],
    part: RowPart,
) -> Vec<LevelExchange> {
    let f = rf.factors();
    let n_owned = f.n();
    let needed = (0..n_owned)
        .flat_map(|e| part(f, e).0.iter().copied())
        .filter(|&c| c >= n_owned)
        .map(|c| rf.global_of(c));
    let plan = CommPlan::build(ctx, tag, needed, |j| dm.dist().owner(j));
    // Owned node → interface level (`None` for interiors and remote nodes).
    let level_of = |g: usize| Some(rf.level_of_row(elim_of[local.pos_of(g)?])? as u64);
    let remote_level = plan.exchange_labels(ctx, |g| {
        // lint: allow(unwrap): peers only reference interface pivots, which all carry a level
        level_of(g).expect("referenced node has no level")
    });
    let lane_of = |g: usize| match local.pos_of(g) {
        Some(p) => elim_of[p],
        // lint: allow(unwrap): the plan receives only nodes my rows reference
        None => n_owned + rf.ghosts().binary_search(&g).expect("unknown ghost"),
    };
    (0..rf.n_levels())
        .map(|l| {
            let plan = plan
                .restrict(
                    |g| level_of(g) == Some(l as u64),
                    |g| remote_level.get(&g).copied() == Some(l as u64),
                )
                // Each level gets a private wire-tag namespace: values of two
                // adjacent levels can be in flight from one sender at once, and
                // sharing a wire tag would let a reordered network swap them.
                .rebase(tag + ((l as u64) << 20));
            let lanes = |lists: &[(usize, Vec<usize>)]| {
                let nodes = lists.iter().flat_map(|(_, ns)| ns.iter().copied());
                nodes.map(lane_of).collect()
            };
            LevelExchange {
                send_lanes: lanes(plan.send_lists()),
                recv_lanes: lanes(plan.recv_lists()),
                plan,
            }
        })
        .collect()
}

impl TrisolvePlan {
    /// Collectively builds the plan from the distributed factors.
    pub fn build(ctx: &mut Ctx, dm: &DistMatrix, local: &LocalView, rf: &RankFactors) -> Self {
        // The factorization's level loop is collective (one push per
        // iteration on every rank), so the global level count must agree —
        // the whole sweep schedule hangs on that.
        let n_levels = rf.n_levels();
        let lmax = ctx.all_reduce_u64(vec![n_levels as u64], ReduceOp::Max)[0];
        assert_eq!(lmax as usize, n_levels, "level count differs across ranks");
        let n_owned = rf.factors().n();
        assert_eq!(local.len(), n_owned, "factors belong to another view");
        // Elimination positions listed in local-view order.
        let mut elim_of: Vec<usize> = (0..n_owned).collect();
        elim_of.sort_unstable_by_key(|&e| local.pos_of(rf.global_of(e)));
        let fwd = build_sweep(ctx, tags::FWD, dm, local, rf, &elim_of, LuFactors::l_row);
        let bwd = build_sweep(ctx, tags::BWD, dm, local, rf, &elim_of, LuFactors::u_row);
        TrisolvePlan {
            fwd,
            bwd,
            elim_of,
            lanes: n_owned + rf.ghosts().len(),
        }
    }
}

/// Caller-owned workspace for repeated [`dist_solve_into`] calls: the solve
/// buffer in elimination order plus its halo lanes, sized once from the
/// plan so the steady-state solve allocates nothing. Build one per
/// `(local, plan)` pair and reuse it across every solve of a Krylov
/// iteration.
pub struct SolveScratch {
    x: Vec<f64>,
}

impl SolveScratch {
    /// Reserves the workspace for solves over `local` with `plan`.
    pub fn build(local: &LocalView, plan: &TrisolvePlan) -> Self {
        debug_assert_eq!(local.len(), plan.elim_of.len());
        SolveScratch {
            x: vec![0.0; plan.lanes],
        }
    }
}

/// Solves `L U x = b` for this rank's unknowns. `b` is in local-view order
/// (interiors first, then interfaces); so is the returned `x`.
///
/// Collective: all ranks must call with their own local data.
pub fn dist_solve(
    ctx: &mut Ctx,
    local: &LocalView,
    rf: &RankFactors,
    plan: &TrisolvePlan,
    b: &[f64],
) -> Vec<f64> {
    let mut scratch = SolveScratch::build(local, plan);
    let mut x = vec![0.0; local.len()];
    dist_solve_into(ctx, local, rf, plan, b, &mut scratch, &mut x);
    x
}

/// Solves `L U x = b` into a caller-owned buffer using a reusable
/// [`SolveScratch`] — the zero-allocation steady-state form of
/// [`dist_solve`]. The whole replay runs under the `trisolve_replay` audit
/// region, and with a warmed scratch it performs no heap acquisitions.
///
/// Collective: all ranks must call with their own local data.
pub fn dist_solve_into(
    ctx: &mut Ctx,
    local: &LocalView,
    rf: &RankFactors,
    plan: &TrisolvePlan,
    b: &[f64],
    scratch: &mut SolveScratch,
    out: &mut [f64],
) {
    let _audit = pilut_allocaudit::region("trisolve_replay");
    assert_eq!(b.len(), local.len());
    assert_eq!(out.len(), local.len());
    let x = &mut scratch.x;
    for (&e, &v) in plan.elim_of.iter().zip(b) {
        x[e] = v;
    }
    forward_segments(ctx, rf, plan, x);
    backward_segments(ctx, rf, plan, x);
    for (o, &e) in out.iter_mut().zip(&plan.elim_of) {
        *o = x[e];
    }
}

/// The forward segments in place: interiors (their `L` columns are
/// earlier interiors, all local), then each level — drain the previous
/// level's batches into the halo, substitute, ship this level's values.
fn forward_segments(ctx: &mut Ctx, rf: &RankFactors, plan: &TrisolvePlan, x: &mut [f64]) {
    let f = rf.factors();
    forward_rows::<1>(f, x, 0..rf.interior().len());
    for (l, ex) in plan.fwd.iter().enumerate() {
        if l > 0 {
            let prev = &plan.fwd[l - 1];
            prev.plan.recv_values(ctx, x, &prev.recv_lanes);
        }
        forward_rows::<1>(f, x, rf.level_rows(l));
        ex.plan.send_values(ctx, x, &ex.send_lanes);
    }
    ctx.work(2.0 * f.nnz_l() as f64);
}

/// The backward segments in place: levels in reverse — drain the batches
/// of the level computed just before (the next-higher index), substitute,
/// ship — then the interiors, whose `U` columns are all local.
fn backward_segments(ctx: &mut Ctx, rf: &RankFactors, plan: &TrisolvePlan, x: &mut [f64]) {
    let f = rf.factors();
    let n_levels = plan.bwd.len();
    for (l, ex) in plan.bwd.iter().enumerate().rev() {
        if l + 1 < n_levels {
            let prev = &plan.bwd[l + 1];
            prev.plan.recv_values(ctx, x, &prev.recv_lanes);
        }
        backward_rows::<1>(f, x, rf.level_rows(l));
        ex.plan.send_values(ctx, x, &ex.send_lanes);
    }
    backward_rows::<1>(f, x, 0..rf.interior().len());
    ctx.work(2.0 * (f.nnz_u() - f.n()) as f64 + f.n() as f64);
}
