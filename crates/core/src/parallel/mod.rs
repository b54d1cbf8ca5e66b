//! The parallel ILUT / ILUT\* factorization (paper §4).
//!
//! Two phases per rank:
//!
//! 1. **Interior factorization** (zero communication): the rank's interior
//!    rows are ILUT-factored against each other; then each interface row is
//!    partially eliminated against the rank's own interior `U` rows
//!    (interface rows never couple to *remote* interiors), yielding the
//!    rank's slice of the global reduced matrix `A_I⁰` plus the initial
//!    interface `L` rows.
//! 2. **Interface factorization**: iteratively compute a distributed
//!    independent set `I_l` of the current reduced matrix, factor its rows
//!    (pure dropping — independence means no elimination is needed), ship
//!    the new `U` rows to the ranks whose remaining rows reference them, and
//!    apply Algorithm 4.2 to form `A_I^{l+1}`. ILUT keeps every
//!    above-threshold entry in the reduced rows; ILUT\* caps each row at
//!    `k·m` entries, which is the paper's key scalability modification.

pub mod assemble;
pub mod dist_mis;
pub mod ilu0;
mod reduced;

pub use assemble::assemble_factors;
pub use ilu0::{par_ilu0, par_ilu0_with};
pub use reduced::ReducedRows;

use crate::breakdown::{PivotDoctor, PivotFault};
use crate::dist::exchange::{tags, CommPlan};
use crate::dist::{DistMatrix, LocalView};
use crate::factors::LuFactors;
use crate::options::{FactorError, IlutOptions};
use crate::serial::drop_rules::{selection_cost, threshold_and_cap, threshold_and_cap_in_place};
use dist_mis::{build_level_links, dist_mis, note_err};
use pilut_par::{Ctx, Payload};
use pilut_sparse::WorkRow;
use reduced::LaneRows;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

/// One row while the factorization is running, in global column ids: `l`
/// couples to rows eliminated earlier, `u` to rows eliminated later. `L`
/// has an implicit unit diagonal; `diag` is the `U` pivot.
#[derive(Clone, Debug, Default)]
pub(crate) struct FactorRow {
    l: Vec<(usize, f64)>,
    diag: f64,
    u: Vec<(usize, f64)>,
}

/// Counters describing one rank's factorization.
#[derive(Clone, Debug, Default)]
pub struct ParStats {
    /// Global number of interface levels (independent sets) — the paper's `q`.
    pub levels: usize,
    /// Modelled floating-point operations on this rank.
    pub flops: f64,
    /// Retained entries in L (strict) / U (incl. diagonal) on this rank.
    pub nnz_l: usize,
    pub nnz_u: usize,
    /// Entries in this rank's slice of the initial reduced matrix.
    pub reduced_nnz_initial: usize,
    /// Largest reduced-matrix slice seen across levels.
    pub reduced_nnz_peak: usize,
    /// Rows on this rank whose pivot the
    /// [`BreakdownPolicy`](crate::options::BreakdownPolicy) repaired;
    /// always 0 under `Abort`.
    pub breakdowns_repaired: usize,
}

/// One rank's share of the distributed factorization: its rows in one
/// scalar [`LuFactors`] arena.
///
/// Rows sit in the rank's *elimination order* — interiors ascending, then
/// the members of interface level 0, level 1, … — so each solve segment is
/// a contiguous row range. Columns use an extended local numbering: an
/// owned node is its elimination position, a remote node (a *ghost*) is
/// `n_owned + slot` with the ghosts sorted by global id. The ghost columns
/// are the arena's halo lanes, the same owned-then-halo split a
/// [`DistVector`](crate::dist::exchange::DistVector) uses.
#[derive(Clone, Debug)]
pub struct RankFactors {
    pub rank: usize,
    factors: LuFactors,
    /// Global id of every extended column: the owned rows in elimination
    /// order, then the ghosts ascending.
    global: Vec<usize>,
    /// Segment bounds: interiors are rows `0..level_ptr[0]`, level `l` is
    /// rows `level_ptr[l]..level_ptr[l + 1]`.
    level_ptr: Vec<usize>,
    /// Column pattern of my slice of the *initial* reduced matrix `A_I⁰`
    /// (after interior elimination, before any interface level) — used by
    /// the Figure 1/2 structure illustrations.
    pub initial_reduced_cols: Vec<(usize, Vec<usize>)>,
    pub stats: ParStats,
}

impl RankFactors {
    /// Packs finished rows (indexed by local-view position, global column
    /// ids) into the arena: numbers the ghosts, maps every column to the
    /// extended local numbering, sorts, and appends the rows in elimination
    /// order. `levels[l]` lists my members of level `l`, ascending, and
    /// sets `stats.levels`, `stats.nnz_l` and `stats.nnz_u` from them.
    pub(crate) fn from_rows(
        rank: usize,
        local: &LocalView,
        rows: Vec<FactorRow>,
        levels: &[Vec<usize>],
        initial_reduced_cols: Vec<(usize, Vec<usize>)>,
        mut stats: ParStats,
    ) -> Self {
        let n_owned = local.len();
        let mut global = local.interior.clone();
        let mut level_ptr = vec![global.len()];
        for level in levels {
            global.extend_from_slice(level);
            level_ptr.push(global.len());
        }
        assert_eq!(global.len(), n_owned, "levels miss an interface row");
        let mut elim_of = vec![0; n_owned];
        for (e, &g) in global.iter().enumerate() {
            elim_of[own_pos(local, g)] = e;
        }
        let mut ghosts: Vec<usize> = rows
            .iter()
            .flat_map(|r| r.l.iter().chain(&r.u))
            .map(|&(c, _)| c)
            .filter(|&c| !local.owns(c))
            .collect();
        ghosts.sort_unstable();
        ghosts.dedup();
        let col_of = |c: usize| match local.pos_of(c) {
            Some(p) => elim_of[p],
            // lint: allow(unwrap): every remote column was numbered as a ghost above
            None => n_owned + ghosts.binary_search(&c).expect("unnumbered ghost"),
        };
        let nnz_l = rows.iter().map(|r| r.l.len()).sum();
        let nnz_u = rows.iter().map(|r| r.u.len()).sum();
        let mut factors = LuFactors::with_halo(n_owned, ghosts.len(), nnz_l, nnz_u);
        let (mut l, mut u) = (Vec::new(), Vec::new());
        for (e, &g) in global.iter().enumerate() {
            let row = &rows[own_pos(local, g)];
            l.clear();
            l.extend(row.l.iter().map(|&(c, v)| (col_of(c), v)));
            l.sort_unstable_by_key(|&(c, _)| c);
            u.clear();
            u.push((e, row.diag));
            u.extend(row.u.iter().map(|&(c, v)| (col_of(c), v)));
            u.sort_unstable_by_key(|&(c, _)| c);
            factors.push_row(&l, &u);
        }
        global.extend(ghosts);
        debug_assert_eq!(factors.check_structure(), Ok(()));
        stats.levels = levels.len();
        (stats.nnz_l, stats.nnz_u) = (factors.nnz_l(), factors.nnz_u());
        RankFactors {
            rank,
            factors,
            global,
            level_ptr,
            initial_reduced_cols,
            stats,
        }
    }

    /// The rows as one `b = 1` arena in elimination order, with the ghosts
    /// as halo lanes.
    pub fn factors(&self) -> &LuFactors {
        &self.factors
    }

    /// Interior nodes in elimination order (ascending global id).
    pub fn interior(&self) -> &[usize] {
        &self.global[..self.level_ptr[0]]
    }

    /// Number of interface levels (every rank records every level).
    pub fn n_levels(&self) -> usize {
        self.level_ptr.len() - 1
    }

    /// My interface nodes factored in global level `l`, ascending (possibly
    /// empty).
    pub fn level(&self, l: usize) -> &[usize] {
        &self.global[self.level_rows(l)]
    }

    /// Arena rows of level `l`.
    pub(crate) fn level_rows(&self, l: usize) -> Range<usize> {
        self.level_ptr[l]..self.level_ptr[l + 1]
    }

    /// The level of arena row `e` (`None` for an interior row).
    pub(crate) fn level_of_row(&self, e: usize) -> Option<usize> {
        self.level_ptr.partition_point(|&p| p <= e).checked_sub(1)
    }

    /// Global id of extended column `pos`: an owned row's elimination
    /// position below `factors().n()`, a ghost's halo lane above it.
    pub fn global_of(&self, pos: usize) -> usize {
        self.global[pos]
    }

    /// The remote nodes my rows reference, ascending — halo lane `k` is
    /// `ghosts()[k]`.
    pub fn ghosts(&self) -> &[usize] {
        &self.global[self.factors.n()..]
    }
}

/// Column patterns of the initial reduced rows, for
/// [`RankFactors::initial_reduced_cols`].
pub(crate) fn initial_cols(reduced: &ReducedRows) -> Vec<(usize, Vec<usize>)> {
    let slots = 0..reduced.n_slots();
    slots
        .map(|s| (reduced.node(s), reduced.cols(s).collect()))
        .collect()
}

/// Local-view position of one of this rank's own nodes.
fn own_pos(local: &LocalView, g: usize) -> usize {
    // lint: allow(unwrap): callers only ask for rows this rank owns
    local.pos_of(g).expect("node is not owned by this rank")
}

/// Ships the freshly factored `U` rows of one interface level along the
/// level plan, in one full framed round: each rank sends one (possibly
/// empty) batch to every peer that references its nodes and receives one
/// from every peer whose nodes it references. `member_row(v)` is the row
/// of `v` if it is a member of the level. Wire format per peer: `U64 =
/// [node, len, cols…]*`, `F64 = [diag, vals…]*`, nodes in the pair's agreed
/// order. The received rows land in `out` by receive lane; columns must
/// lie below `n`. A malformed frame yields [`FactorError::Protocol`] from
/// the rank that received it.
pub(crate) fn ship_u_rows<'a>(
    ctx: &mut Ctx,
    plan: &CommPlan,
    tag: u64,
    n: usize,
    member_row: impl Fn(usize) -> Option<&'a FactorRow>,
    out: &mut LaneRows,
) -> Result<(), FactorError> {
    out.reset(plan.recv_lists().iter().map(|(_, nodes)| nodes.len()).sum());
    let mut err = None;
    // A full round drains the receive lists in peer order, so each list's
    // lanes follow on from the previous list's.
    let mut first_lane = 0;
    plan.replay_framed(
        ctx,
        tag,
        |_| true,
        |_| true,
        |_, nodes| {
            let mut bu = Vec::new();
            let mut bf = Vec::new();
            for (v, row) in nodes.iter().filter_map(|&v| Some((v, member_row(v)?))) {
                bu.push(v as u64);
                bu.push(row.u.len() as u64);
                bu.extend(row.u.iter().map(|&(c, _)| c as u64));
                bf.push(row.diag);
                bf.extend(row.u.iter().map(|&(_, x)| x));
            }
            Payload::mixed(bu, bf)
        },
        |peer, nodes, payload| {
            if let Err(what) = decode_u_rows(payload, nodes, first_lane, n, out) {
                note_err(&mut err, tags::tag_name(tag), peer, what);
            }
            first_lane += nodes.len();
        },
    );
    err.map_or(Ok(()), Err)
}

/// Decodes one peer's `U`-row batch into `out`; the pair's agreed list
/// `nodes` (ascending) starts at receive lane `first_lane`. Every row must
/// name a node of `nodes`, in ascending order, with columns below `n`, and
/// both halves must hold exactly the entries the headers announce.
fn decode_u_rows(
    payload: Payload,
    nodes: &[usize],
    first_lane: usize,
    n: usize,
    out: &mut LaneRows,
) -> Result<(), String> {
    let Payload::Mixed(bu, bf) = &payload else {
        return Err(format!("expected a mixed frame, got {payload:?}"));
    };
    let (mut bu, mut bf) = (&bu[..], &bf[..]);
    let mut prev = None;
    while let [node, len, rest @ ..] = bu {
        let (node, len) = (*node as usize, *len as usize);
        // `None < Some(_)`: the first row of a frame always passes.
        let pos = nodes
            .binary_search(&node)
            .ok()
            .filter(|_| prev < Some(node));
        let Some(pos) = pos else {
            return Err(format!(
                "row for node {node} is not next in the agreed list"
            ));
        };
        if rest.len() < len || bf.len() <= len {
            return Err(format!("node {node}: {len} entries overrun the frame"));
        }
        let (cols, next_u) = rest.split_at(len);
        let (head, next_f) = bf.split_at(len + 1);
        if let Some(c) = cols.iter().find(|&&c| c >= n as u64) {
            return Err(format!("node {node}: column {c} is out of range (n = {n})"));
        }
        let u = cols
            .iter()
            .map(|&c| c as usize)
            .zip(head[1..].iter().copied());
        out.push(first_lane + pos, head[0], u);
        (bu, bf, prev) = (next_u, next_f, Some(node));
    }
    match (bu.len(), bf.len()) {
        (0, 0) => Ok(()),
        (0, k) => Err(format!("{k} trailing values")),
        _ => Err("truncated row header".to_string()),
    }
}

/// Agrees on a factorization error once at least one rank flagged a fault
/// (collective). Every rank min-reduces its first deferred fault encoded as
/// `row << 2 | kind`, then the id of the rank holding the winner. The
/// owning rank reports the detailed per-row error; its peers report
/// [`FactorError::RankFailure`] naming it.
pub(crate) fn collective_fault_verdict(
    ctx: &mut Ctx,
    my_err: &Option<(usize, PivotFault)>,
) -> FactorError {
    let me = ctx.rank() as u64;
    let mine = my_err.map_or(u64::MAX, |(row, fault)| ((row as u64) << 2) | fault.code());
    let winner = ctx.all_reduce_u64(vec![mine], pilut_par::collectives::ReduceOp::Min)[0];
    let owner = ctx.all_reduce_u64(
        vec![if mine == winner { me } else { u64::MAX }],
        pilut_par::collectives::ReduceOp::Min,
    )[0];
    if mine == winner {
        PivotFault::from_code(winner & 3).error_at((winner >> 2) as usize)
    } else {
        FactorError::RankFailure {
            rank: owner as usize,
        }
    }
}

/// Runs the parallel ILUT / ILUT\* factorization. Collective: every rank of
/// the machine must call it with the same `dm` and `opts`.
pub fn par_ilut(
    ctx: &mut Ctx,
    dm: &DistMatrix,
    local: &LocalView,
    opts: &IlutOptions,
) -> Result<RankFactors, FactorError> {
    opts.validate()?; // deterministic: every rank rejects the same way
    let mut doctor = PivotDoctor::new(opts.breakdown);
    let a = dm.matrix();
    let me = ctx.rank();
    let n = dm.n();

    // Role map: 0 = remote, 1 = my interior, 2 = my interface.
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
    let mut heap: BinaryHeap<Reverse<usize>> = BinaryHeap::new();
    let mut in_heap = vec![false; n];
    // Scratch buffers reused across rows by both phase-1 sweeps; a kept
    // row copies out at its exact size.
    let mut entries: Vec<(usize, f64)> = Vec::new();
    let (mut lower, mut upper) = (Vec::new(), Vec::new());
    // First unusable pivot met on this rank, deferred to the collective
    // error check (only set under `BreakdownPolicy::Abort`).
    let mut my_err: Option<(usize, PivotFault)> = None;

    // ---- Phase 1: interior rows (ascending global id = elimination order;
    // interior `p` is local-view position `p`).
    for (p, &i) in local.interior.iter().enumerate() {
        let norm_i = a.row_norm2(i);
        let tau_i = opts.tau * norm_i;
        let (cols, vals) = a.row(i);
        debug_assert!(heap.is_empty(), "heap drained by the previous row");
        for (&j, &v) in cols.iter().zip(vals) {
            w.set(j, v);
            if role[j] == 1 && j < i && !in_heap[j] {
                in_heap[j] = true;
                heap.push(Reverse(j));
            }
        }
        eliminate(
            ctx,
            &mut w,
            &mut heap,
            &mut in_heap,
            local,
            &rows,
            tau_i,
            i,
            &role,
            false,
            &mut stats,
        );
        // Split: lower = my interiors with smaller id (the multipliers);
        // everything else is "later" (interface nodes factor after ALL
        // interiors regardless of their global id).
        w.drain_sorted_into(&mut entries);
        stats.flops += selection_cost(entries.len());
        ctx.work(selection_cost(entries.len()));
        lower.clear();
        upper.clear();
        let mut diag = 0.0;
        let mut has_diag = false;
        for &(j, v) in &entries {
            if j == i {
                diag = v;
                has_diag = true;
            } else if role[j] == 1 && j < i {
                lower.push((j, v));
            } else {
                upper.push((j, v));
            }
        }
        let fallback = if tau_i > 0.0 { tau_i } else { 1.0 };
        doctor.repair_or_defer(
            i,
            norm_i,
            has_diag,
            &mut diag,
            &mut lower,
            &mut upper,
            &mut my_err,
            fallback,
        );
        threshold_and_cap_in_place(&mut lower, tau_i, opts.m, None);
        threshold_and_cap_in_place(&mut upper, tau_i, opts.m, None);
        let (l, u) = (lower.clone(), upper.clone());
        rows[p] = FactorRow { l, diag, u };
    }

    // ---- Phase 1b: interface rows — eliminate my interiors, build the
    // initial reduced rows (interface `slot` is local-view position
    // `n_interior + slot`).
    let mut reduced = ReducedRows::new(n, local.interface.clone());
    // Row thresholds by local-view position (only interface rows read it).
    let mut tau_of = vec![0.0; local.len()];
    let n_interior = local.interior.len();
    for (slot, &i) in local.interface.iter().enumerate() {
        let tau_i = opts.tau * a.row_norm2(i);
        tau_of[n_interior + slot] = tau_i;
        let (cols, vals) = a.row(i);
        debug_assert!(heap.is_empty(), "heap drained by the previous row");
        for (&j, &v) in cols.iter().zip(vals) {
            w.set(j, v);
            if role[j] == 1 && !in_heap[j] {
                in_heap[j] = true;
                heap.push(Reverse(j));
            }
        }
        eliminate(
            ctx,
            &mut w,
            &mut heap,
            &mut in_heap,
            local,
            &rows,
            tau_i,
            i,
            &role,
            true,
            &mut stats,
        );
        w.drain_sorted_into(&mut entries);
        stats.flops += selection_cost(entries.len());
        ctx.work(selection_cost(entries.len()));
        // Lower: my interior columns, factored earlier. Rest: interface
        // columns (mine or remote) plus the diagonal.
        let rest = &mut upper;
        lower.clear();
        rest.clear();
        for &(j, v) in &entries {
            if role[j] == 1 {
                lower.push((j, v));
            } else {
                rest.push((j, v));
            }
        }
        threshold_and_cap_in_place(&mut lower, tau_i, opts.m, None);
        rows[n_interior + slot].l = lower.clone();
        // Reduced row: threshold always applies; ILUT* additionally caps.
        threshold_and_cap_in_place(rest, tau_i, opts.reduced_cap(), Some(i));
        ctx.copy_words(rest.len() as f64);
        stats.reduced_nnz_initial += rest.len();
        reduced.row_mut(slot).extend_from_slice(rest);
    }
    stats.reduced_nnz_peak = stats.reduced_nnz_initial;
    let initial_reduced_cols = initial_cols(&reduced);

    // ---- Phase 2: iterative interface factorization.
    let mut levels: Vec<Vec<usize>> = Vec::new();
    let mut level_idx = 0u64;
    let mut remote_u = LaneRows::default();
    let (mut pivots, mut mults) = (Vec::new(), Vec::new());
    loop {
        // Collective loop head: termination and error detection.
        let flags = ctx.all_reduce_u64(
            vec![reduced.live().len() as u64, my_err.map_or(0, |_| 1)],
            pilut_par::collectives::ReduceOp::Sum,
        );
        if flags[1] > 0 {
            return Err(collective_fault_verdict(ctx, &my_err));
        }
        if flags[0] == 0 {
            break;
        }

        // Track the peak reduced-matrix size.
        let cur_nnz = reduced.live().iter().map(|&s| reduced.row(s).len()).sum();
        stats.reduced_nnz_peak = stats.reduced_nnz_peak.max(cur_nnz);

        let plan = build_level_links(ctx, dm.dist(), &mut reduced);
        let mis = dist_mis(ctx, &plan, &reduced, opts.seed, level_idx, opts.mis_rounds)?;

        // Factor my I_l rows: independence means only rule-2 dropping.
        for &v in &mis.my_in {
            // lint: allow(unwrap): set members are my live rows
            let rr = reduced.take(reduced.slot_of(v).expect("member is not a row of mine"));
            let pv = own_pos(local, v);
            let tau_v = tau_of[pv];
            let mut diag = 0.0;
            let mut has_diag = false;
            let mut off = Vec::with_capacity(rr.len());
            for (c, val) in rr {
                if c == v {
                    diag = val;
                    has_diag = true;
                } else {
                    off.push((c, val));
                }
            }
            let row = &mut rows[pv];
            let mut l = std::mem::take(&mut row.l);
            let fallback = if tau_v > 0.0 { tau_v } else { 1.0 };
            doctor.repair_or_defer(
                v,
                a.row_norm2(v),
                has_diag,
                &mut diag,
                &mut l,
                &mut off,
                &mut my_err,
                fallback,
            );
            let u = threshold_and_cap(off, tau_v, opts.m, None);
            stats.flops += selection_cost(u.len());
            ctx.work(selection_cost(u.len()));
            row.l = l;
            row.diag = diag;
            row.u = u;
        }
        reduced.retire(&mis.my_in);
        levels.push(mis.my_in.clone());

        // Ship the new U rows along the level plan.
        let is_member = |v: usize| mis.my_in.binary_search(&v).is_ok();
        let member_row = |v: usize| is_member(v).then(|| &rows[own_pos(local, v)]);
        ship_u_rows(ctx, &plan, tags::UROWS, n, member_row, &mut remote_u)?;

        // Algorithm 4.2: eliminate the I_l unknowns from my remaining rows.
        let remote_row = |reduced: &ReducedRows, k| remote_u.get(reduced.lane_of(k)?);
        let in_level = |j: usize| is_member(j) || mis.remote_in.binary_search(&j).is_ok();
        for idx in 0..reduced.live().len() {
            let slot = reduced.live()[idx];
            let i = reduced.node(slot);
            let pi = n_interior + slot;
            let tau_i = tau_of[pi];
            // Pivot columns of this row that belong to I_l (no new ones can
            // appear during the sweep: U rows of independent nodes contain no
            // I_l columns).
            pivots.clear();
            pivots.extend(reduced.cols(slot).filter(|&c| c != i && in_level(c)));
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
                    // lint: allow(unwrap): pivot rows are received before their level runs
                    None => remote_row(&reduced, k).expect("missing U row for level pivot"),
                };
                let wk = w.get(k);
                w.drop_pos(k);
                // lint: allow(float-eq): skips exactly cancelled multipliers
                if wk == 0.0 {
                    continue;
                }
                let mult = wk / diag_k;
                stats.flops += 1.0;
                if mult.abs() < tau_i {
                    continue; // first dropping rule
                }
                for &(j, uv) in u_k {
                    w.add(j, -mult * uv);
                }
                let cost = 2.0 * u_k.len() as f64;
                stats.flops += cost;
                ctx.work(cost + 1.0);
                mults.push((k, mult));
            }
            // Merge multipliers into the row's L and reapply rule 3.
            let row = &mut rows[pi];
            let mut lmerge = std::mem::take(&mut row.l);
            lmerge.extend_from_slice(&mults);
            let cost = selection_cost(lmerge.len());
            stats.flops += cost;
            ctx.work(cost);
            row.l = threshold_and_cap(lmerge, tau_i, opts.m, None);
            // The surviving working row becomes the next-level reduced row.
            let rr = reduced.row_mut(slot);
            w.drain_sorted_into(rr);
            threshold_and_cap_in_place(rr, tau_i, opts.reduced_cap(), Some(i));
            ctx.copy_words(rr.len() as f64);
        }
        level_idx += 1;
    }

    stats.breakdowns_repaired = doctor.repairs();
    Ok(RankFactors::from_rows(
        me,
        local,
        rows,
        &levels,
        initial_reduced_cols,
        stats,
    ))
}

/// The shared elimination sweep of phases 1/1b: pops eligible pivots in
/// ascending global order, applies dropping rule 1, and updates `w` with the
/// pivot's `U` row. Eligible pivots are this rank's interiors (`role == 1`);
/// for an *interior* row `i` only interiors preceding it (`j < i`) are
/// eligible (`all_interiors = false`); for an *interface* row every interior
/// is (`all_interiors = true`), since all interiors factor before any
/// interface node. Fill positions join the heap under the same rule.
#[allow(clippy::too_many_arguments)]
fn eliminate(
    ctx: &mut Ctx,
    w: &mut WorkRow,
    heap: &mut BinaryHeap<Reverse<usize>>,
    in_heap: &mut [bool],
    local: &LocalView,
    rows: &[FactorRow],
    tau_i: f64,
    i: usize,
    role: &[u8],
    all_interiors: bool,
    stats: &mut ParStats,
) {
    while let Some(Reverse(k)) = heap.pop() {
        in_heap[k] = false;
        let wk = w.get(k);
        // lint: allow(float-eq): skips exactly cancelled multipliers
        if wk == 0.0 {
            w.drop_pos(k);
            continue;
        }
        let urow = &rows[own_pos(local, k)];
        let mult = wk / urow.diag;
        stats.flops += 1.0;
        if mult.abs() < tau_i {
            w.drop_pos(k);
            continue;
        }
        w.set(k, mult);
        for &(j, uv) in &urow.u {
            let newly = !w.contains(j);
            w.add(j, -mult * uv);
            // New fill joins the elimination when it lands on an eligible
            // pivot column.
            if newly && role[j] == 1 && (all_interiors || j < i) && !in_heap[j] {
                in_heap[j] = true;
                heap.push(Reverse(j));
            }
        }
        let cost = 2.0 * urow.u.len() as f64 + 1.0;
        stats.flops += cost - 1.0;
        ctx.work(cost);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Distribution;
    use pilut_par::{Machine, MachineModel};
    use pilut_sparse::gen;

    /// Decodes a batch for the agreed list `[1, 4, 6]` at lanes `1..4` of
    /// a 10-node matrix.
    fn decode(bu: Vec<u64>, bf: Vec<f64>) -> Result<LaneRows, String> {
        let mut out = LaneRows::default();
        out.reset(4);
        decode_u_rows(Payload::mixed(bu, bf), &[1, 4, 6], 1, 10, &mut out).map(|()| out)
    }

    #[test]
    fn u_row_frames_decode_or_fail_structured() {
        let ok = decode(vec![1, 0, 4, 2, 6, 9], vec![2.0, 3.0, 0.5, -0.5]).unwrap();
        assert_eq!(ok.get(1), Some((2.0, &[][..])));
        assert_eq!(ok.get(2), Some((3.0, &[(6, 0.5), (9, -0.5)][..])));
        assert_eq!((ok.get(0), ok.get(3)), (None, None));
        for (bu, bf, what) in [
            (vec![1], vec![], "truncated row header"),
            (vec![4, 3, 6], vec![1.0, 2.0, 3.0, 4.0], "entries overrun"),
            (vec![4, 1, 6], vec![1.0], "entries overrun"),
            (vec![4, 1, 10], vec![1.0, 2.0], "column 10 is out of range"),
            (vec![1, 0, 1, 0], vec![2.0, 2.0], "not next"),
            (vec![4, 0, 1, 0], vec![2.0, 2.0], "not next"),
            (vec![5, 0], vec![2.0], "not next"),
            (vec![1, 0], vec![2.0, 3.0], "1 trailing values"),
        ] {
            let err = decode(bu.clone(), bf).unwrap_err();
            assert!(err.contains(what), "{bu:?}: {err}");
        }
        let mut out = LaneRows::default();
        out.reset(1);
        let err = decode_u_rows(Payload::u64s(vec![1, 0]), &[1], 0, 10, &mut out).unwrap_err();
        assert!(err.contains("mixed frame"), "{err}");
    }

    #[test]
    fn u_row_protocol_error_reaches_the_caller_structured() {
        // Rank 1 replays a truncated U-row frame in place of the real
        // batch; the receiving rank must get FactorError::Protocol, not a
        // panic.
        let dm = DistMatrix::new(gen::laplace_2d(2, 1), Distribution::block(2, 2));
        let out = Machine::run(2, MachineModel::cray_t3d(), |ctx| {
            let me = ctx.rank();
            let plan = CommPlan::build(ctx, tags::UROWS, vec![1 - me], |j| j);
            if me == 1 {
                plan.replay_framed(
                    ctx,
                    tags::UROWS,
                    |_| true,
                    |_| true,
                    |_, _| Payload::mixed(vec![1, 2, 0], vec![4.0, 1.0]),
                    |_, _, _| {},
                );
                return "sender".to_string();
            }
            let mut out = LaneRows::default();
            match ship_u_rows(ctx, &plan, tags::UROWS, dm.n(), |_| None, &mut out) {
                Err(FactorError::Protocol { tag, what }) => format!("{tag}: {what}"),
                other => format!("unexpected: {other:?}"),
            }
        });
        assert_eq!(out.results[1], "sender");
        assert!(
            out.results[0].starts_with("urows: from rank 1: node 1:"),
            "{}",
            out.results[0]
        );
    }
}
