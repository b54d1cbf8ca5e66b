//! The replay half of [`CommPlan`]: the steady-state data plane.
//!
//! Everything in this file runs *after* a plan is built, inside the
//! plan-once/replay-many steady state, and is therefore on the
//! `no-alloc-in-hot` lint list and under the zero-alloc bench gate. The
//! discipline:
//!
//! * values-only rounds ship pooled buffers ([`pilut_par::pool`]); the
//!   receiver reads them through a borrow and both sides `recycle` their
//!   payload handles, so whichever reference drops last (the receiver,
//!   or the sender's reliable-delivery retention on cumulative ACK)
//!   shelves the buffer back — no per-round heap traffic on either side;
//! * framed rounds stage their frames in a plan-owned scratch vector
//!   whose capacity is reserved at build time;
//! * every replay entry point is wrapped in an `alloc_audit` region, so
//!   the bench harness can attribute (and gate to zero) whatever heap
//!   traffic still slips through.
//!
//! The allocation sites that remain are annotated `allow(alloc-in-hot)`
//! with the setup-vs-steady reasoning inline.

use super::{CommPlan, DistVector};
use crate::dist::LocalView;
use pilut_par::{pool, Ctx, Payload};

impl CommPlan {
    /// The round's wire tag for the send half under `base`, advancing the
    /// send counter. Computed once per round — every peer of one round must
    /// ship under the same tag.
    pub(super) fn send_round_tag(&self, base: u64) -> u64 {
        let mut rounds = self.rounds.borrow_mut();
        // lint: allow(alloc-in-hot): first round under a base tag inserts one map node (setup)
        let entry = rounds.entry(base).or_insert((0, 0));
        let tag = base + entry.0;
        entry.0 += 1;
        tag
    }

    /// The round's wire tag for the receive half under `base`, advancing
    /// the receive counter.
    pub(super) fn recv_round_tag(&self, base: u64) -> u64 {
        let mut rounds = self.rounds.borrow_mut();
        // lint: allow(alloc-in-hot): first round under a base tag inserts one map node (setup)
        let entry = rounds.entry(base).or_insert((0, 0));
        let tag = base + entry.1;
        entry.1 += 1;
        tag
    }

    /// One directed framed round under `tag`, which names both the wire
    /// namespace and the counter key: `make(peer, nodes)` builds a frame
    /// for every send list whose position passes `live_send`, then
    /// `take(peer, nodes, payload)` drains every receive list whose
    /// position passes `live_recv`, both in ascending peer order. Every
    /// frame is staged (in the plan-owned scratch reserved at build)
    /// before a byte ships, so the ledger records the round's messages and
    /// bytes exactly and `bench-verify --slack 0` gates the tag
    /// byte-for-byte.
    ///
    /// `|_| true` on both sides is a full round. A sparser liveness must be
    /// mirror-consistent across ranks — the send list to `q` is live on
    /// rank `r` iff the receive list from `r` is live on `q` — which callers
    /// derive from state both endpoints provably share (the delta-MIS
    /// rounds use the shipped-state view); otherwise the round deadlocks,
    /// which checked runs diagnose. Round tags advance whether or not any
    /// link is live, so sparse and full rounds stay aligned across ranks.
    pub fn replay_framed(
        &self,
        ctx: &mut Ctx,
        tag: u64,
        live_send: impl Fn(usize) -> bool,
        live_recv: impl Fn(usize) -> bool,
        mut make: impl FnMut(usize, &[usize]) -> Payload,
        mut take: impl FnMut(usize, &[usize], Payload),
    ) {
        let _audit = pilut_allocaudit::region("plan_replay");
        let live = || {
            let lists = self.send.iter().enumerate();
            lists
                .filter(|&(k, _)| live_send(k))
                .map(|(_, (peer, nodes))| (*peer, nodes))
        };
        let mut frames = self.frame_scratch.borrow_mut();
        frames.extend(live().map(|(peer, nodes)| make(peer, nodes)));
        self.ship_staged(ctx, tag, &mut frames, live().map(|(peer, _)| peer));
        drop(frames);
        let recv_tag = self.recv_round_tag(tag);
        for (k, (peer, nodes)) in self.recv.iter().enumerate() {
            if live_recv(k) {
                let payload = ctx.recv(*peer, recv_tag);
                take(*peer, nodes, payload);
            }
        }
    }

    /// The symmetric framed round: one exactly-priced message each way
    /// between this rank and every union peer whose send list passes
    /// `live_send` or whose receive list passes `live_recv` (a pair linked
    /// in both directions exchanges one message, not two). The callbacks
    /// see the pair's two lists, `(peer, my nodes it references, its nodes
    /// I reference)`, either possibly empty. Liveness and staging follow
    /// [`CommPlan::replay_framed`].
    pub fn replay_framed_symmetric(
        &self,
        ctx: &mut Ctx,
        tag: u64,
        live_send: impl Fn(usize) -> bool,
        live_recv: impl Fn(usize) -> bool,
        mut make: impl FnMut(usize, &[usize], &[usize]) -> Payload,
        mut take: impl FnMut(usize, &[usize], &[usize], Payload),
    ) {
        let _audit = pilut_allocaudit::region("plan_replay");
        let live = || {
            self.pairs()
                .filter(|&(_, s, r)| s.is_some_and(&live_send) || r.is_some_and(&live_recv))
                .map(|(peer, s, r)| (peer, nodes_at(&self.send, s), nodes_at(&self.recv, r)))
        };
        let mut frames = self.frame_scratch.borrow_mut();
        frames.extend(live().map(|(peer, send, recv)| make(peer, send, recv)));
        self.ship_staged(ctx, tag, &mut frames, live().map(|(peer, _, _)| peer));
        drop(frames);
        let recv_tag = self.recv_round_tag(tag);
        for (peer, send, recv) in live() {
            let payload = ctx.recv(peer, recv_tag);
            take(peer, send, recv, payload);
        }
    }

    /// Every union peer with the positions of its send and receive lists.
    fn pairs(&self) -> impl Iterator<Item = (usize, Option<usize>, Option<usize>)> + '_ {
        let (mut s, mut r) = (0, 0);
        self.union_peers.iter().map(move |&peer| {
            let next = |lists: &[(usize, Vec<usize>)], k: &mut usize| {
                let hit = lists.get(*k).is_some_and(|&(q, _)| q == peer);
                *k += usize::from(hit);
                hit.then(|| *k - 1)
            };
            (peer, next(&self.send, &mut s), next(&self.recv, &mut r))
        })
    }

    /// Records the staged frames' exact cost under `tag`, then ships them,
    /// in order, to `peers` under the round's fresh send tag.
    fn ship_staged(
        &self,
        ctx: &mut Ctx,
        tag: u64,
        frames: &mut Vec<Payload>,
        peers: impl Iterator<Item = usize>,
    ) {
        let bytes: u64 = frames.iter().map(|f| f.bytes() as u64).sum();
        ctx.note_planned(tag, frames.len() as u64, bytes, true);
        let send_tag = self.send_round_tag(tag);
        for (peer, frame) in peers.zip(frames.drain(..)) {
            ctx.send_as(peer, send_tag, tag, frame);
        }
    }

    /// Values-only halo replay: ships the owned values named by the send
    /// schedule (one `f64` batch per peer, no node ids on the wire) and
    /// scatters the received batches into `v`'s halo. Send buffers come
    /// from the registered-buffer pool (warmed at build time) and receive
    /// buffers are returned to it, so a replay performs no heap
    /// allocation on either side.
    pub fn replay_halo(&self, ctx: &mut Ctx, local: &LocalView, v: &mut DistVector) {
        let _audit = pilut_allocaudit::region("replay_halo");
        // Values-only wire format: the byte prediction is exact.
        let cost = self.predicted_cost();
        ctx.note_planned(
            self.stats_tag,
            cost.directed_messages,
            cost.value_bytes,
            true,
        );
        let send_tag = self.send_round_tag(self.tag);
        for (peer, nodes) in &self.send {
            let mut vals = pool::take_f64(nodes.len());
            vals.extend(nodes.iter().map(
                // lint: allow(unwrap): the plan was built from this view's own nodes
                |&g| v.owned[local.pos_of(g).expect("plan refers to non-local node")],
            ));
            ctx.copy_words(vals.len() as f64);
            ctx.send_as(*peer, send_tag, self.stats_tag, Payload::f64s(vals));
        }
        let recv_tag = self.recv_round_tag(self.tag);
        for (peer, nodes) in &self.recv {
            // Borrow the values in place, then recycle the handle: under
            // reliable delivery the sender still retains the frame, and
            // `into_f64` here would deep-copy every round while the pooled
            // buffer died with the retained clone. Whichever side drops
            // the last reference (us now, or the sender's cumulative-ACK
            // release) shelves the buffer back into the pool.
            let payload = ctx.recv(*peer, recv_tag);
            let vals = payload.as_f64();
            assert_eq!(vals.len(), nodes.len(), "plan mismatch from rank {peer}");
            for (&g, &val) in nodes.iter().zip(vals) {
                v.halo[g] = val;
            }
            ctx.copy_words(nodes.len() as f64);
            payload.recycle();
        }
    }

    /// The send half of a values-only round: one `f64` batch per send-side
    /// peer, staged in pooled buffers. `pos` lists, for the send schedule
    /// concatenated in peer order, the lane of `x` holding each value.
    /// Pairs with a matching [`CommPlan::recv_values`] on the other side —
    /// the triangular sweeps use the halves at different loop iterations,
    /// which is why they are split.
    pub fn send_values(&self, ctx: &mut Ctx, x: &[f64], pos: &[usize]) {
        let _audit = pilut_allocaudit::region("send_values");
        let cost = self.predicted_cost();
        ctx.note_planned(
            self.stats_tag,
            cost.directed_messages,
            cost.value_bytes,
            true,
        );
        let send_tag = self.send_round_tag(self.tag);
        let mut lanes = pos;
        for (peer, nodes) in &self.send {
            let (mine, rest) = lanes.split_at(nodes.len());
            lanes = rest;
            let mut vals = pool::take_f64(mine.len());
            vals.extend(mine.iter().map(|&p| x[p]));
            ctx.copy_words(vals.len() as f64);
            ctx.send_as(*peer, send_tag, self.stats_tag, Payload::f64s(vals));
        }
    }

    /// The receive half of a values-only round: drains one `f64` batch per
    /// recv-side peer into the lanes of `x` that `pos` names (the receive
    /// schedule concatenated in peer order), and recycles the batch toward
    /// the registered-buffer pool (the values are read through a borrow —
    /// see [`CommPlan::replay_halo`] for why the receiver must not unwrap
    /// the payload).
    pub fn recv_values(&self, ctx: &mut Ctx, x: &mut [f64], pos: &[usize]) {
        let _audit = pilut_allocaudit::region("recv_values");
        let recv_tag = self.recv_round_tag(self.tag);
        let mut lanes = pos;
        for (peer, nodes) in &self.recv {
            let (mine, rest) = lanes.split_at(nodes.len());
            lanes = rest;
            let payload = ctx.recv(*peer, recv_tag);
            let vals = payload.as_f64();
            assert_eq!(vals.len(), nodes.len(), "plan mismatch from rank {peer}");
            for (&p, &val) in mine.iter().zip(vals) {
                x[p] = val;
            }
            ctx.copy_words(nodes.len() as f64);
            payload.recycle();
        }
    }
}

/// The node list at position `k` of a schedule, empty for `None`.
fn nodes_at(lists: &[(usize, Vec<usize>)], k: Option<usize>) -> &[usize] {
    k.map_or(&[], |k| &lists[k].1)
}
