//! One operation = one complete time to solution, with or without spans.

use crate::sys::thread_cpu_ns;
use crate::trace::{span, span_on, Reading, Span, Timed};
use crate::workload::{
    gather, gmres_options, rel_residual, DistProblem, SerialProblem, Workload, CHECK_SLACK, RANKS,
    RTOL,
};
use pilut_core::dist::exchange::tags;
use pilut_core::dist::op::DistCsr;
use pilut_core::parallel::{par_ilut, ParStats};
use pilut_core::precond::IluPreconditioner;
use pilut_core::serial::ilut;
use pilut_par::{Ctx, Machine, MachineModel};
use pilut_solver::dist_gmres::{dist_gmres, DistGmresResult, DistIlu};
use pilut_solver::gmres::gmres;
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-layer values of one traced operation, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// The protocol tags whose traffic is reported, with their
/// `par.messages.*` and `par.bytes.*` metric names.
pub const TAGS: [(&str, &str, &str); 8] = [
    ("urows", "par.messages.urows", "par.bytes.urows"),
    ("mis_keys", "par.messages.mis_keys", "par.bytes.mis_keys"),
    ("mis_tent", "par.messages.mis_tent", "par.bytes.mis_tent"),
    ("mis_conf", "par.messages.mis_conf", "par.bytes.mis_conf"),
    ("fwd", "par.messages.fwd", "par.bytes.fwd"),
    ("bwd", "par.messages.bwd", "par.bytes.bwd"),
    ("spmv", "par.messages.spmv", "par.bytes.spmv"),
    ("coll", "par.messages.coll", "par.bytes.coll"),
];

/// What one operation did and whether its answer passed the check.
pub struct Outcome {
    pub wall_s: f64,
    /// CPU seconds of the threads that did the work.
    pub cpu_s: f64,
    /// Simulated T3D seconds (0 for serial workloads).
    pub sim_s: f64,
    pub matvecs: usize,
    pub solves: usize,
    pub messages: u64,
    pub bytes: u64,
    pub failure: Option<String>,
    /// Per-layer values; `None` when the operation ran without spans.
    pub layers: Option<Layers>,
}

impl Outcome {
    fn fail(&mut self, why: String) {
        self.failure.get_or_insert(why);
    }
}

/// Bytes one CSR product reads and writes, computed from array sizes:
/// 8-byte values and column indices, the row pointer, and `x` and `y`.
fn csr_bytes(nnz: usize, n: usize) -> f64 {
    (16 * nnz + 8 * (n + 1) + 16 * n) as f64
}

/// Bytes one forward + backward substitution reads and writes, computed
/// from array sizes: 8-byte value and index per factor entry, input and
/// output vectors.
fn factor_bytes(nnz_lu: usize, n: usize) -> f64 {
    (16 * nnz_lu + 16 * n) as f64
}

/// `ilut` → `IluPreconditioner::new` → `gmres` per right-hand side.
pub fn serial(w: Workload, p: &SerialProblem, traced: bool) -> Outcome {
    let opts = w.ilut_options();
    let gopts = gmres_options();
    let n = p.a.n_rows();
    let mut layers = Layers::new();
    let [mut ilut_r, mut build_r, mut gmres_r, mut spmv, mut tri] = [Reading::default(); 5];
    let mut tri_durations: Vec<f64> = Vec::new();
    let mut results = Vec::with_capacity(p.rhs.len());
    let mut nnz_lu = 0;

    let cpu0 = thread_cpu_ns();
    let t0 = Instant::now();
    let factored = span(traced, &mut ilut_r, || ilut(&p.a, &opts));
    let factored = factored.map(|f| {
        nnz_lu = f.nnz();
        let pre = span(traced, &mut build_r, || IluPreconditioner::new(f));
        for b in &p.rhs {
            if traced {
                let op = Timed::new(&p.a);
                let pc = Timed::new(&pre);
                // Room for every call of the solve, taken before it starts.
                op.durations.borrow_mut().reserve(gopts.max_matvecs + 1);
                pc.durations.borrow_mut().reserve(gopts.max_matvecs + 1);
                results.push(span(true, &mut gmres_r, || gmres(&op, b, &pc, &gopts)));
                spmv.add(op.total());
                tri.add(pc.total());
                tri_durations.extend(pc.durations.borrow().iter());
            } else {
                results.push(gmres(&p.a, b, &pre, &gopts));
            }
        }
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = (thread_cpu_ns() - cpu0) as f64 * 1e-9;

    let mut out = Outcome {
        wall_s,
        cpu_s,
        sim_s: 0.0,
        matvecs: results.iter().map(|r| r.matvecs).sum(),
        solves: results.len(),
        messages: 0,
        bytes: 0,
        failure: None,
        layers: None,
    };
    if let Err(e) = factored {
        out.fail(format!("ilut: {e}"));
    }
    for (i, (r, b)) in results.iter().zip(&p.rhs).enumerate() {
        check(&mut out, i, r.converged, rel_residual(&p.a, b, &r.x));
    }
    if traced {
        let nnz_a = p.a.nnz();
        layers.insert("sparse.spmv_s", spmv.wall);
        layers.insert("sparse.spmv_calls", spmv.calls);
        layers.insert(
            "sparse.spmv_bytes_computed",
            spmv.calls * csr_bytes(nnz_a, n),
        );
        layers.insert("core.serial.ilut_s", ilut_r.wall);
        layers.insert("core.serial.ilut_cpu_s", ilut_r.cpu);
        layers.insert("core.serial.fill_ratio", nnz_lu as f64 / nnz_a as f64);
        layers.insert("core.serial.ilut_allocs", ilut_r.allocs);
        layers.insert("core.trisolve.apply_s", tri.wall);
        layers.insert("core.trisolve.apply_calls", tri.calls);
        layers.insert(
            "core.trisolve.bytes_computed",
            tri.calls * factor_bytes(nnz_lu, n),
        );
        layers.insert("core.trisolve.plan_build_s", build_r.wall);
        layers.insert("solver.gmres_self_s", gmres_r.wall - spmv.wall - tri.wall);
        let breakdowns = results.iter().filter(|r| r.breakdown.is_some()).count();
        layers.insert("solver.breakdowns", breakdowns as f64);
        let spans = ilut_r.wall + build_r.wall + gmres_r.wall;
        layers.insert("trace.span_coverage", spans / wall_s);
        layers.insert(
            "core.trisolve.apply_p50_us",
            median(&mut tri_durations) * 1e6,
        );
        out.layers = Some(layers);
    }
    out
}

fn check(out: &mut Outcome, i: usize, converged: bool, res: f64) {
    if !converged {
        out.fail(format!("rhs {i}: GMRES did not converge"));
    } else if res.is_nan() || res > RTOL * (1.0 + CHECK_SLACK) {
        out.fail(format!("rhs {i}: residual check {res:e} > {RTOL:e}"));
    }
}

/// Median of a sample (sorts it); 0 for an empty one.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// What one rank hands back from a `torso_p2` operation.
struct RankOut {
    solved: Result<DistGmresResult, String>,
    body: Reading,
    spans: Option<RankSpans>,
}

/// One rank's spans of a traced `torso_p2` operation.
#[derive(Default)]
struct RankSpans {
    par_ilut: Reading,
    stats: ParStats,
    spmv_build: Reading,
    plan_build: Reading,
    gmres: Reading,
    spmv: Reading,
    tri: Reading,
    nnz_lu: usize,
    local_len: usize,
}

fn rank_body(ctx: &mut Ctx, w: Workload, p: &DistProblem, traced: bool) -> RankOut {
    let body = Span::start_on(ctx);
    let local = &p.locals[ctx.rank()];
    let gopts = gmres_options();
    let mut sp = RankSpans {
        local_len: local.len(),
        ..RankSpans::default()
    };

    let opts = w.ilut_options();
    let factored = span_on(traced, ctx, &mut sp.par_ilut, |ctx| {
        par_ilut(ctx, &p.dm, local, &opts)
    });
    let rf = match factored {
        Ok(rf) => rf,
        Err(e) => {
            return RankOut {
                solved: Err(format!("par_ilut: {e}")),
                body: body.stop_on(ctx),
                spans: None,
            }
        }
    };
    sp.stats = rf.stats.clone();
    sp.nnz_lu = rf.stats.nnz_l + rf.stats.nnz_u;
    let op = span_on(traced, ctx, &mut sp.spmv_build, |ctx| {
        DistCsr::new(ctx, &p.dm, local)
    });
    let pre = span_on(traced, ctx, &mut sp.plan_build, |ctx| {
        DistIlu::new(ctx, &p.dm, local, rf)
    });

    let b = &p.b_local[ctx.rank()];
    let solved = if traced {
        let (mut op, mut pre) = (Timed::new(op), Timed::new(pre));
        let r = span_on(true, ctx, &mut sp.gmres, |ctx| {
            dist_gmres(ctx, &mut op, local, &mut pre, b, &gopts)
        });
        sp.spmv = op.total();
        sp.tri = pre.total();
        r
    } else {
        let (mut op, mut pre) = (op, pre);
        dist_gmres(ctx, &mut op, local, &mut pre, b, &gopts)
    };
    RankOut {
        solved: Ok(solved),
        body: body.stop_on(ctx),
        spans: traced.then_some(sp),
    }
}

/// One `Machine::run` of `par_ilut` → `DistCsr::new` → `DistIlu::new` →
/// `dist_gmres` on the simulated T3D.
pub fn dist(w: Workload, p: &DistProblem, traced: bool) -> Outcome {
    let t0 = Instant::now();
    let run = Machine::run(RANKS, MachineModel::cray_t3d(), |ctx| {
        rank_body(ctx, w, p, traced)
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let ranks = &run.results;

    let mut out = Outcome {
        wall_s,
        cpu_s: ranks.iter().map(|r| r.body.cpu).sum(),
        sim_s: run.sim_time,
        matvecs: 0,
        solves: 1,
        messages: run.stats.messages,
        bytes: run.stats.bytes,
        failure: None,
        layers: None,
    };
    let solved: Result<Vec<&DistGmresResult>, String> = ranks
        .iter()
        .map(|r| r.solved.as_ref().map_err(Clone::clone))
        .collect();
    match solved {
        Err(e) => out.fail(e),
        Ok(rs) => {
            out.matvecs = rs[0].matvecs;
            let slices: Vec<&[f64]> = rs.iter().map(|r| r.x_local.as_slice()).collect();
            let x = gather(&p.locals, &slices, p.dm.n());
            check(
                &mut out,
                0,
                rs[0].converged,
                rel_residual(p.dm.matrix(), &p.b, &x),
            );
            if traced {
                let breakdowns = rs[0].breakdown.is_some();
                out.layers = Some(dist_layers(&out, &run, p, breakdowns));
            }
        }
    }
    out
}

/// Folds the ranks' spans. Wall and logical times take the slowest rank,
/// which sets the time; CPU, waiting and counts add up over ranks.
fn dist_layers(
    out: &Outcome,
    run: &pilut_par::RunOutput<RankOut>,
    p: &DistProblem,
    breakdowns: bool,
) -> Layers {
    let sp: Vec<&RankSpans> = run
        .results
        .iter()
        .filter_map(|r| r.spans.as_ref())
        .collect();
    let max = |f: &dyn Fn(&RankSpans) -> f64| sp.iter().map(|s| f(s)).fold(0.0, f64::max);
    let sum = |f: &dyn Fn(&RankSpans) -> f64| sp.iter().map(|s| f(s)).sum::<f64>();
    let mut l = Layers::new();
    let nnz_a = p.dm.matrix().nnz() as f64;

    l.insert("core.parallel.par_ilut_s", max(&|s| s.par_ilut.wall));
    l.insert("core.parallel.par_ilut_cpu_s", sum(&|s| s.par_ilut.cpu));
    l.insert("core.parallel.par_ilut_sim_s", max(&|s| s.par_ilut.sim));
    l.insert("core.parallel.par_ilut_wait_s", sum(&|s| s.par_ilut.wait()));
    l.insert("core.parallel.levels", max(&|s| s.stats.levels as f64));
    l.insert(
        "core.parallel.reduced_nnz_peak",
        sum(&|s| s.stats.reduced_nnz_peak as f64),
    );
    l.insert(
        "core.parallel.fill_ratio",
        sum(&|s| s.nnz_lu as f64) / nnz_a,
    );
    l.insert("core.parallel.allocs", sum(&|s| s.par_ilut.allocs));

    l.insert("core.dist.spmv_build_s", max(&|s| s.spmv_build.wall));
    l.insert("core.dist.spmv_s", max(&|s| s.spmv.wall));
    l.insert("core.dist.spmv_sim_s", max(&|s| s.spmv.sim));
    l.insert("core.dist.spmv_calls", max(&|s| s.spmv.calls));

    l.insert("core.trisolve.plan_build_s", max(&|s| s.plan_build.wall));
    l.insert("core.trisolve.dist_apply_s", max(&|s| s.tri.wall));
    l.insert("core.trisolve.dist_apply_sim_s", max(&|s| s.tri.sim));
    l.insert("core.trisolve.dist_apply_wait_s", sum(&|s| s.tri.wait()));
    l.insert("core.trisolve.apply_calls", max(&|s| s.tri.calls));
    l.insert(
        "core.trisolve.bytes_computed",
        sum(&|s| s.tri.calls * factor_bytes(s.nnz_lu, s.local_len)),
    );

    let self_wall = |s: &RankSpans| s.gmres.wall - s.spmv.wall - s.tri.wall;
    let self_sim = |s: &RankSpans| s.gmres.sim - s.spmv.sim - s.tri.sim;
    l.insert("solver.dist_gmres_self_s", max(&self_wall));
    l.insert("solver.dist_gmres_self_sim_s", max(&self_sim));
    l.insert("solver.breakdowns", f64::from(u8::from(breakdowns)));

    let stats = &run.stats;
    l.insert("par.sim_tts_s", out.sim_s);
    l.insert("par.messages", stats.messages as f64);
    l.insert("par.bytes", stats.bytes as f64);
    l.insert("par.collectives", stats.collectives as f64);
    l.insert("par.flops", stats.flops);
    let slowest_body = run.results.iter().map(|r| r.body.wall).fold(0.0, f64::max);
    let overhead = out.wall_s - slowest_body;
    l.insert("par.run_overhead_s", overhead);
    for (&tag, &(m, b)) in &stats.by_tag {
        let name = tags::tag_name(tag);
        if let Some(&(_, messages, bytes)) = TAGS.iter().find(|t| t.0 == name) {
            *l.entry(messages).or_default() += m as f64;
            *l.entry(bytes).or_default() += b as f64;
        }
    }
    let spans = max(&|s| s.par_ilut.wall + s.spmv_build.wall + s.plan_build.wall + s.gmres.wall);
    l.insert("trace.span_coverage", (spans + overhead) / out.wall_s);
    l
}
