//! Phase-2 state of one rank, addressed densely (paper §4): the remaining
//! rows of its slice of the reduced matrix `A_I^l` by interface slot, and
//! the remote `U` rows of the current level by receive lane.

use crate::dist::exchange::CommPlan;
use std::ops::Range;

/// Index of a global id that is neither one of my slots nor a bound lane.
const NONE: usize = usize::MAX;

/// A rank's remaining reduced rows, by *slot*: the position of the row's
/// node among the store's nodes (a rank's interface nodes, ascending).
///
/// The store also keeps the slots still in the reduced system and one
/// `O(n)` global-id index that serves the whole factorization: a node of
/// mine maps to its slot, and a remote node to its *receive lane* — its
/// position in the receive lists of the bound level plan, concatenated in
/// peer order (the lanes [`CommPlan::recv_values`] uses). Binding the next
/// plan resets only the entries the previous one set.
#[derive(Clone, Debug)]
pub struct ReducedRows {
    /// Global id of each slot, ascending.
    nodes: Vec<usize>,
    /// Each slot's row in global column ids; empty once the row leaves.
    rows: Vec<Vec<(usize, f64)>>,
    /// Slots still in the reduced system, ascending.
    live: Vec<usize>,
    /// Global id → slot `s` as `s`, receive lane `l` as `nodes.len() + l`,
    /// anything else `NONE`.
    index: Vec<usize>,
    /// Global id of each receive lane of the bound plan.
    lanes: Vec<usize>,
}

impl ReducedRows {
    /// A store over `nodes` (ascending global ids below `n`), every slot
    /// live with an empty row. Fill the rows with
    /// [`ReducedRows::row_mut`].
    pub fn new(n: usize, nodes: Vec<usize>) -> Self {
        debug_assert!(nodes.windows(2).all(|w| w[0] < w[1]), "slots ascend");
        let mut index = vec![NONE; n];
        for (s, &g) in nodes.iter().enumerate() {
            index[g] = s;
        }
        ReducedRows {
            rows: vec![Vec::new(); nodes.len()],
            live: (0..nodes.len()).collect(),
            nodes,
            index,
            lanes: Vec::new(),
        }
    }

    /// Slot `s`'s row, `(global column, value)`.
    pub fn row_mut(&mut self, s: usize) -> &mut Vec<(usize, f64)> {
        &mut self.rows[s]
    }

    pub(crate) fn row(&self, s: usize) -> &[(usize, f64)] {
        &self.rows[s]
    }

    /// Slot `s`'s column pattern.
    pub(crate) fn cols(&self, s: usize) -> impl Iterator<Item = usize> + '_ {
        self.rows[s].iter().map(|&(c, _)| c)
    }

    /// Moves slot `s`'s row out, leaving it empty.
    pub(crate) fn take(&mut self, s: usize) -> Vec<(usize, f64)> {
        std::mem::take(&mut self.rows[s])
    }

    /// Global id of slot `s`.
    pub(crate) fn node(&self, s: usize) -> usize {
        self.nodes[s]
    }

    pub(crate) fn n_slots(&self) -> usize {
        self.nodes.len()
    }

    /// The slots still in the reduced system, ascending.
    pub(crate) fn live(&self) -> &[usize] {
        &self.live
    }

    /// Drops the slots of `members` (ascending global ids) from the live
    /// list.
    pub(crate) fn retire(&mut self, members: &[usize]) {
        let nodes = &self.nodes;
        self.live
            .retain(|&s| members.binary_search(&nodes[s]).is_err());
    }

    /// The slot of global node `g`, if it is one of mine.
    pub(crate) fn slot_of(&self, g: usize) -> Option<usize> {
        self.index.get(g).copied().filter(|&i| i < self.nodes.len())
    }

    /// The receive lane of remote node `g` in the bound plan, if it has
    /// one.
    pub(crate) fn lane_of(&self, g: usize) -> Option<usize> {
        let i = *self.index.get(g)?;
        (i != NONE && i >= self.nodes.len()).then(|| i - self.nodes.len())
    }

    /// Global id of each receive lane of the bound plan.
    pub(crate) fn lanes(&self) -> &[usize] {
        &self.lanes
    }

    /// Indexes the receive lanes of `plan`, the level plan built from
    /// these rows, in place of the previous plan's.
    pub(crate) fn bind_lanes(&mut self, plan: &CommPlan) {
        for &g in &self.lanes {
            self.index[g] = NONE;
        }
        self.lanes.clear();
        for (_, nodes) in plan.recv_lists() {
            self.lanes.extend_from_slice(nodes);
        }
        for (l, &g) in self.lanes.iter().enumerate() {
            self.index[g] = self.nodes.len() + l;
        }
    }
}

/// The remote `U` rows one level shipped, by receive lane of the level
/// plan: one arena, refilled every level.
#[derive(Debug, Default)]
pub(crate) struct LaneRows {
    /// Per lane: the pivot and the entry range of its row, if one arrived.
    at: Vec<Option<(f64, Range<usize>)>>,
    /// Strict `U` entries of every row, in arrival order.
    u: Vec<(usize, f64)>,
}

impl LaneRows {
    /// Empties the arena for a level plan with `n_lanes` receive lanes.
    pub(crate) fn reset(&mut self, n_lanes: usize) {
        self.at.clear();
        self.at.resize(n_lanes, None);
        self.u.clear();
    }

    /// Stores the row of lane `lane`.
    pub(crate) fn push(
        &mut self,
        lane: usize,
        diag: f64,
        u: impl IntoIterator<Item = (usize, f64)>,
    ) {
        let start = self.u.len();
        self.u.extend(u);
        self.at[lane] = Some((diag, start..self.u.len()));
    }

    /// `(pivot, strict U)` of lane `lane`'s row, if one arrived.
    pub(crate) fn get(&self, lane: usize) -> Option<(f64, &[(usize, f64)])> {
        let (diag, range) = self.at[lane].clone()?;
        Some((diag, &self.u[range]))
    }
}
