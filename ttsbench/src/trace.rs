//! Spans taken from outside the program.
//!
//! Every call a solve makes into another layer crosses a public trait
//! object: GMRES sees its matrix as a `LinOp` / `DistOperator` and its
//! preconditioner as a `Preconditioner` / `DistPrecond`. [`Timed`] wraps
//! the real object, forwards each call to its `apply_into` (so the
//! program's zero-allocation path is the one that runs) and adds the call's
//! time to its own tally. Calls between layers that are plain functions
//! (`ilut`, `par_ilut`, `DistCsr::new`, …) are timed where the benchmark
//! makes them, with a [`Span`].

use crate::sys::thread_cpu_ns;
use pilut_core::dist::op::{DistOperator, LinOp};
use pilut_core::dist::LocalView;
use pilut_core::precond::Preconditioner;
use pilut_par::Ctx;
use pilut_solver::dist_gmres::DistPrecond;
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// What one span measured.
#[derive(Clone, Copy, Debug, Default)]
pub struct Reading {
    /// Wall seconds.
    pub wall: f64,
    /// CPU seconds of the calling thread.
    pub cpu: f64,
    /// Logical (simulated T3D) seconds, from `Ctx::time()`; 0 off the VM.
    pub sim: f64,
    /// Heap acquisitions of the calling thread; 0 unless the build has the
    /// counting allocator (`audit` feature).
    pub allocs: f64,
    /// Number of spans folded into this reading.
    pub calls: f64,
}

impl Reading {
    pub fn add(&mut self, r: Reading) {
        self.wall += r.wall;
        self.cpu += r.cpu;
        self.sim += r.sim;
        self.allocs += r.allocs;
        self.calls += r.calls;
    }

    /// Wall time not spent on the CPU: on a rank, time waiting for the
    /// other rank (or for a core).
    pub fn wait(&self) -> f64 {
        (self.wall - self.cpu).max(0.0)
    }
}

/// An open span on the calling thread.
pub struct Span {
    t: Instant,
    cpu: u64,
    sim: f64,
    allocs: u64,
}

impl Span {
    pub fn start() -> Self {
        Self::start_at(0.0)
    }

    /// A span on a rank: also reads the logical clock.
    pub fn start_on(ctx: &Ctx) -> Self {
        Self::start_at(ctx.time())
    }

    fn start_at(sim: f64) -> Self {
        Span {
            allocs: pilut_allocaudit::thread_counts().acquisitions(),
            cpu: thread_cpu_ns(),
            sim,
            t: Instant::now(),
        }
    }

    pub fn stop(&self) -> Reading {
        self.stop_at(0.0)
    }

    pub fn stop_on(&self, ctx: &Ctx) -> Reading {
        self.stop_at(ctx.time())
    }

    fn stop_at(&self, sim: f64) -> Reading {
        let wall = self.t.elapsed().as_secs_f64();
        Reading {
            wall,
            cpu: (thread_cpu_ns() - self.cpu) as f64 * 1e-9,
            sim: sim - self.sim,
            allocs: (pilut_allocaudit::thread_counts().acquisitions() - self.allocs) as f64,
            calls: 1.0,
        }
    }
}

/// Runs `f`; when `on`, records its span into `slot`.
pub fn span<R>(on: bool, slot: &mut Reading, f: impl FnOnce() -> R) -> R {
    if !on {
        return f();
    }
    let s = Span::start();
    let r = f();
    slot.add(s.stop());
    r
}

/// [`span`] on a rank, with the logical clock.
pub fn span_on<R>(on: bool, ctx: &mut Ctx, slot: &mut Reading, f: impl FnOnce(&mut Ctx) -> R) -> R {
    if !on {
        return f(ctx);
    }
    let s = Span::start_on(ctx);
    let r = f(ctx);
    slot.add(s.stop_on(ctx));
    r
}

/// A layer object whose calls are timed. Serial calls (`LinOp`,
/// `Preconditioner`, `&self` methods) record wall time and, for the
/// per-call distribution, each call's duration; rank calls
/// (`DistOperator`, `DistPrecond`) record wall, CPU and logical time.
pub struct Timed<T> {
    inner: T,
    total: Cell<Reading>,
    /// Per-call wall seconds of serial calls. The caller reserves room
    /// before a solve so pushing never reaches the allocator inside it.
    pub durations: RefCell<Vec<f64>>,
}

impl<T> Timed<T> {
    pub fn new(inner: T) -> Self {
        Timed {
            inner,
            total: Cell::new(Reading::default()),
            durations: RefCell::new(Vec::new()),
        }
    }

    pub fn total(&self) -> Reading {
        self.total.get()
    }

    fn note(&self, r: Reading) {
        let mut t = self.total.get();
        t.add(r);
        self.total.set(t);
    }

    fn time_serial(&self, f: impl FnOnce(&T)) {
        let t = Instant::now();
        f(&self.inner);
        let wall = t.elapsed().as_secs_f64();
        self.durations.borrow_mut().push(wall);
        self.note(Reading {
            wall,
            calls: 1.0,
            ..Reading::default()
        });
    }

    fn time_rank(&mut self, ctx: &mut Ctx, f: impl FnOnce(&mut T, &mut Ctx)) {
        let s = Span::start_on(ctx);
        f(&mut self.inner, ctx);
        let r = s.stop_on(ctx);
        self.note(r);
    }
}

impl<A: LinOp + ?Sized> LinOp for Timed<&A> {
    fn n_rows(&self) -> usize {
        self.inner.n_rows()
    }

    fn apply(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n_rows()];
        self.apply_into(x, &mut y);
        y
    }

    fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        self.time_serial(|a| a.apply_into(x, y));
    }
}

impl<P: Preconditioner + ?Sized> Preconditioner for Timed<&P> {
    fn apply(&self, r: &[f64]) -> Vec<f64> {
        let mut z = vec![0.0; r.len()];
        self.apply_into(r, &mut z);
        z
    }

    fn apply_into(&self, r: &[f64], z: &mut [f64]) {
        self.time_serial(|p| p.apply_into(r, z));
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

impl<O: DistOperator> DistOperator for Timed<O> {
    fn local_len(&self) -> usize {
        self.inner.local_len()
    }

    fn apply(&mut self, ctx: &mut Ctx, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.local_len()];
        self.apply_into(ctx, x, &mut y);
        y
    }

    fn apply_into(&mut self, ctx: &mut Ctx, x: &[f64], y: &mut [f64]) {
        self.time_rank(ctx, |op, ctx| op.apply_into(ctx, x, y));
    }

    fn sent_values(&self) -> usize {
        self.inner.sent_values()
    }
}

impl<P: DistPrecond> DistPrecond for Timed<P> {
    fn apply(&mut self, ctx: &mut Ctx, local: &LocalView, r: &[f64]) -> Vec<f64> {
        let mut z = vec![0.0; r.len()];
        self.apply_into(ctx, local, r, &mut z);
        z
    }

    fn apply_into(&mut self, ctx: &mut Ctx, local: &LocalView, r: &[f64], z: &mut [f64]) {
        self.time_rank(ctx, |p, ctx| p.apply_into(ctx, local, r, z));
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}
