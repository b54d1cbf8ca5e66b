//! `xtask bench` — the in-tree, zero-registry-dependency benchmark harness.
//!
//! Times the wall-clock hot paths of the reproduction over fixed-seed
//! generated problems and writes a machine-readable JSON report so every PR
//! has a performance trajectory to compare against (`BENCH_<label>.json` at
//! the repo root by convention). Everything here is plain `std::time`
//! timing — no criterion, no registry crates — so the harness runs in the
//! same offline environment as the tier-1 gate.
//!
//! Scenarios (full mode):
//!
//! * `serial_ilut` — serial ILUT(10, 1e-4) factorization, 64×64
//!   convection–diffusion (n = 4096).
//! * `serial_ilut_unbounded` — serial ILUT(n, 0) on a 64×64 Laplacian
//!   (n = 4096): the exact-LU configuration, which stresses fill handling
//!   and the working row hardest per unknown.
//! * `trisolve_serial` — repeated `LuFactors::solve` on the `serial_ilut`
//!   factors (forward + backward substitution).
//! * `block_ilut` — blocked ILUT(10, 1e-4) at b = 4 on the `serial_ilut`
//!   matrix, BCSR in, dense 4×4 tile micro-kernels inside; the throughput
//!   denominator is the same `nnz(A)` as `serial_ilut`, so the two rows
//!   compare directly.
//! * `block_trisolve` — repeated `LuFactors::solve_into` on the
//!   `block_ilut` factors (the b = 4 tile sweep); the denominator is the
//!   useful entries — the nnz of the factors' scalar refinement
//!   (`to_lu_factors`), so padded tile slots do not count as work and the
//!   row compares directly against `trisolve_serial`.
//! * `block_trisolve_rhs8` — the same factors solved against an n × 8 RHS
//!   panel via `solve_panel_into`; the denominator is useful entries × 8,
//!   so the Mnnz/s figure is per-RHS throughput and the gain over
//!   `block_trisolve` is the panel amortization of the tile loads.
//! * `spmv` — serial CSR SpMV on a 200×200 Laplacian (n = 40 000).
//! * `gmres_ilut` — full right-preconditioned GMRES(30) solve, ILUT
//!   preconditioner, 48×48 convection–diffusion.
//! * `par_ilut_p4` / `par_ilut_p8` — the parallel ILUT factorization on the
//!   simulated machine at p ∈ {4, 8} (48×48 Laplacian), timed inside the
//!   ranks (max over ranks, barrier-aligned start).
//! * `par_ilut_star_p4` / `par_ilut_star_p8` — same with ILUT\*(10, 1e-4, 2).
//! * `dist_trisolve_p4` — the distributed forward/backward solves (paper
//!   §5) with a prebuilt communication plan, p = 4.
//! * `dist_solve_robust_p4` — the self-healing solve with reliable delivery
//!   *and* rank-loss recovery armed but **no faults fired**: the
//!   steady-state overhead of the robustness layers, which must be free
//!   (the protocol state machines only pay when faults fire), and whose
//!   ack/recover tags `bench-verify` gates at zero slack.
//! * `recovery_p4` — the same solve with a deterministic mid-solve kill:
//!   the wall time covers detection, world adoption, re-planning,
//!   re-factorization, and the checkpoint-warm-started re-solve — the
//!   end-to-end time-to-recover. Its planned-traffic column is
//!   deliberately blank: a killed epoch abandons planned rounds mid-
//!   flight, so planned-vs-measured is a fault-free-path contract only.
//!
//! Every scenario reports the median and minimum wall time per operation
//! over `reps` samples (each sample averages `inner` back-to-back
//! operations) plus an nnz-throughput figure with the operation's natural
//! "entries processed" count (for the full GMRES solve that is the
//! entries touched per matrix–vector product — `nnz(A) + nnz(M)` — times
//! the solve's matvec count).
//!
//! `--scaling` appends strong/weak-scaling sweeps to the report: each
//! scaling scenario factors one problem family at p ∈ {1, 2, 4, 8} on the
//! simulated machine (strong: a fixed n = 10⁶ 3-D Laplacian; weak:
//! `fem_torso` grown so the top point passes 10⁶ unknowns) and records a
//! speedup-vs-p curve against the serial ILUT time on the same matrix,
//! plus the smallest p whose speedup crosses 1 — the serial/parallel
//! crossover becomes a tracked number instead of folklore. One timed run
//! per point: these are curve samples on multi-second problems, not
//! gated microbenchmarks.
//!
//! `--profile-alloc` reads the allocation-audit region registry after
//! each scenario and records the memory-plane columns of the v2 schema:
//! total steady-region heap acquisitions (`allocs`, `alloc_bytes`) plus a
//! per-region breakdown (`alloc_regions`). The counting allocator and
//! regions are active throughout the run either way (the xtask binary
//! compiles the `audit` feature in), so profiling changes what is
//! *recorded*, not what is timed. `bench-verify` gates every
//! [`STEADY_REGIONS`] entry of a v2 report to exactly zero acquisitions.
//!
//! `--quick` shrinks the problem sizes and runs the two cheapest scenarios
//! only (and, with `--scaling`, a tiny two-point sweep) — this is the CI
//! smoke configuration, meant to prove the harness and its JSON writer
//! work, not to produce quotable numbers.

use std::path::Path;
use std::time::Instant;

use pilut_core::dist::exchange::tags;
use pilut_core::dist::{DistMatrix, Distribution};
use pilut_core::options::IlutOptions;
use pilut_core::parallel::par_ilut;
use pilut_core::precond::IluPreconditioner;
use pilut_core::serial::{block_ilut, ilut};
use pilut_core::trisolve::{dist_solve_into, SolveScratch, TrisolvePlan};
use pilut_par::{FaultAction, FaultPlan, FaultRule, Machine, MachineModel, MachineStats};
use pilut_solver::{dist_solve_robust, gmres, GmresOptions};
use pilut_sparse::{gen, BcsrMatrix};

/// Audit regions gated to **zero** steady-state heap acquisitions by
/// `bench-verify`: every one of these is a replay path whose plan, pools,
/// and workspaces are fully built before the steady state begins, so a
/// single allocation inside is a regression of the memory plane. Regions
/// outside this list (`mis_rounds`, `plan_replay`) ship content-dependent
/// frames and are *measured*, not gated.
const STEADY_REGIONS: &[&str] = &[
    "gmres_inner",
    "recv_values",
    "replay_halo",
    "send_values",
    "trisolve_replay",
];

/// One scenario's allocation profile, read out of the audit-region
/// registry after the scenario ran (`--profile-alloc`). Totals cover the
/// scenario's whole run — warmup, timed reps, and the untimed stats pass —
/// which is exactly what the zero gate wants: zero per scenario implies
/// zero per operation.
#[derive(Default)]
struct AllocProfile {
    /// Heap acquisitions (allocs + reallocs) inside steady regions.
    allocs: u64,
    /// Bytes acquired inside steady regions.
    bytes: u64,
    /// Per-region breakdown over *all* regions, `"name:allocs/bytes"`
    /// space-separated.
    regions: String,
}

impl AllocProfile {
    /// Folds the audit registry into a profile: steady-region totals plus
    /// the full breakdown string.
    fn from_registry(stats: &[pilut_allocaudit::RegionStats]) -> Self {
        let mut p = AllocProfile::default();
        let mut parts = Vec::with_capacity(stats.len());
        for r in stats {
            if STEADY_REGIONS.contains(&r.name) {
                p.allocs += r.allocs;
                p.bytes += r.bytes;
            }
            parts.push(format!("{}:{}/{}", r.name, r.allocs, r.bytes));
        }
        p.regions = parts.join(" ");
        p
    }
}

/// One scenario's measurement.
struct Measurement {
    name: &'static str,
    /// Problem dimension (unknowns).
    n: usize,
    /// Entries processed per operation (0 when no natural count exists).
    nnz: usize,
    reps: usize,
    inner: usize,
    median_ns: u64,
    min_ns: u64,
    /// Total messages the scenario's machine run put on the wire (0 for
    /// serial scenarios — they have no machine).
    comm_messages: u64,
    /// Total bytes behind `comm_messages`.
    comm_bytes: u64,
    /// Per-tag breakdown, `"name:messages/bytes"` space-separated (empty
    /// for serial scenarios). Names come from `tags::tag_name`.
    comm_tags: String,
    /// Per-tag *predicted* traffic from the static `CommPlan` analysis
    /// (`MachineStats::planned_by_tag`): `"name:messages/bytes"` when the
    /// byte prediction is exact, `"name:messages/~"` for producer-defined
    /// rounds that predict message counts only. `bench-verify` gates the
    /// measured counters against this.
    comm_planned: String,
    /// Steady-region allocation profile (`--profile-alloc`; zeros and an
    /// empty breakdown otherwise). `bench-verify` gates the
    /// [`STEADY_REGIONS`] entries of the breakdown to zero.
    alloc: AllocProfile,
}

impl Measurement {
    fn mnnz_per_s(&self) -> f64 {
        if self.nnz == 0 || self.median_ns == 0 {
            0.0
        } else {
            self.nnz as f64 / (self.median_ns as f64 / 1e9) / 1e6
        }
    }
}

/// Harness configuration, derived from the CLI flags.
struct Cfg {
    quick: bool,
    reps: usize,
}

/// Entry point for `xtask bench`. Returns `Err(message)` on bad usage.
pub fn run(args: &[String]) -> Result<(), String> {
    let mut quick = false;
    let mut scaling = false;
    let mut profile_alloc = false;
    let mut out_path = String::from("BENCH.json");
    let mut label = String::from("local");
    let mut baseline = String::from("none");
    let mut only: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--scaling" => scaling = true,
            "--profile-alloc" => profile_alloc = true,
            "--out" => {
                out_path = it
                    .next()
                    .ok_or_else(|| "--out needs a path".to_string())?
                    .clone();
            }
            "--label" => {
                label = it
                    .next()
                    .ok_or_else(|| "--label needs a value".to_string())?
                    .clone();
            }
            "--baseline" => {
                baseline = it
                    .next()
                    .ok_or_else(|| "--baseline needs a filename".to_string())?
                    .clone();
            }
            "--scenario" => {
                only.push(
                    it.next()
                        .ok_or_else(|| "--scenario needs a name".to_string())?
                        .clone(),
                );
            }
            other => return Err(format!("unknown bench flag {other}")),
        }
    }
    let cfg = Cfg {
        quick,
        reps: if quick { 3 } else { 9 },
    };
    let all: Vec<(&'static str, fn(&Cfg) -> Measurement)> = if quick {
        vec![
            ("spmv", bench_spmv as fn(&Cfg) -> Measurement),
            ("serial_ilut", bench_serial_ilut),
        ]
    } else {
        vec![
            ("serial_ilut", bench_serial_ilut as fn(&Cfg) -> Measurement),
            ("serial_ilut_unbounded", bench_serial_ilut_unbounded),
            ("trisolve_serial", bench_trisolve_serial),
            ("block_ilut", bench_block_ilut),
            ("block_trisolve", bench_block_trisolve),
            ("block_trisolve_rhs8", bench_block_trisolve_rhs8),
            ("spmv", bench_spmv),
            ("gmres_ilut", bench_gmres),
            ("par_ilut_p4", bench_par_ilut_p4),
            ("par_ilut_p8", bench_par_ilut_p8),
            ("par_ilut_star_p4", bench_par_ilut_star_p4),
            ("par_ilut_star_p8", bench_par_ilut_star_p8),
            ("dist_trisolve_p4", bench_dist_trisolve_p4),
            ("dist_solve_robust_p4", bench_dist_solve_robust_p4),
            ("recovery_p4", bench_recovery_p4),
        ]
    };
    if profile_alloc && !pilut_allocaudit::audit_enabled() {
        return Err("--profile-alloc needs the audit feature compiled in".to_string());
    }
    let mut results = Vec::new();
    for (name, f) in all {
        if !only.is_empty() && !only.iter().any(|s| s == name) {
            continue;
        }
        eprint!("bench {name} ... ");
        // Per-scenario audit window: reset the region registry, run the
        // scenario (warmup + timed reps + stats pass — the regions count
        // throughout, so the timings are the same with and without the
        // flag), then read the accumulated per-region traffic back out.
        if profile_alloc {
            pilut_allocaudit::reset_regions();
        }
        let mut m = f(&cfg);
        if profile_alloc {
            m.alloc = AllocProfile::from_registry(&pilut_allocaudit::region_stats());
        }
        eprintln!(
            "median {:.3} ms, min {:.3} ms{}{}",
            m.median_ns as f64 / 1e6,
            m.min_ns as f64 / 1e6,
            if m.nnz > 0 {
                format!(", {:.1} Mnnz/s", m.mnnz_per_s())
            } else {
                String::new()
            },
            if profile_alloc {
                format!(", steady allocs {}", m.alloc.allocs)
            } else {
                String::new()
            }
        );
        results.push(m);
    }
    if results.is_empty() {
        return Err("no scenario matched the --scenario filter".to_string());
    }
    let curves = if scaling {
        run_scaling(quick)
    } else {
        Vec::new()
    };
    let json = render_json(&label, &baseline, quick, &results, &curves);
    std::fs::write(&out_path, &json).map_err(|e| format!("writing {out_path}: {e}"))?;
    println!(
        "bench: wrote {} scenario(s){} to {out_path}",
        results.len(),
        if curves.is_empty() {
            String::new()
        } else {
            format!(" and {} scaling curve(s)", curves.len())
        }
    );
    Ok(())
}

/// Folds a machine run's stats into the measurement's comm fields: the
/// aggregate message/byte totals, the per-tag breakdown string, and the
/// per-tag prediction string from the static plan analysis.
fn comm_fields(stats: &MachineStats) -> (u64, u64, String, String) {
    let detail = stats
        .by_tag
        .iter()
        .map(|(&tag, &(m, b))| format!("{}:{m}/{b}", tags::tag_name(tag)))
        .collect::<Vec<_>>()
        .join(" ");
    let planned = stats
        .planned_by_tag
        .iter()
        .map(|(&tag, &(m, b, exact))| {
            if exact {
                format!("{}:{m}/{b}", tags::tag_name(tag))
            } else {
                format!("{}:{m}/~", tags::tag_name(tag))
            }
        })
        .collect::<Vec<_>>()
        .join(" ");
    (stats.messages, stats.bytes, detail, planned)
}

// ---------------------------------------------------------------------------
// Timing helpers.

/// Times `op` (`reps` samples of `inner` back-to-back calls after one
/// warmup) and returns (median, min) ns per call.
fn sample<F: FnMut()>(reps: usize, inner: usize, mut op: F) -> (u64, u64) {
    op(); // warmup
    let mut ns: Vec<u64> = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        for _ in 0..inner {
            op();
        }
        ns.push((t.elapsed().as_nanos() / inner as u128) as u64);
    }
    ns.sort_unstable();
    (ns[ns.len() / 2], ns[0])
}

/// Like [`sample`] but for operations that measure themselves (the
/// machine-backed scenarios report the max per-rank wall time).
fn sample_reported<F: FnMut() -> u64>(reps: usize, mut op: F) -> (u64, u64) {
    op(); // warmup
    let mut ns: Vec<u64> = Vec::with_capacity(reps);
    for _ in 0..reps {
        ns.push(op());
    }
    ns.sort_unstable();
    (ns[ns.len() / 2], ns[0])
}

// ---------------------------------------------------------------------------
// Scenarios.

fn bench_serial_ilut(cfg: &Cfg) -> Measurement {
    let dim = if cfg.quick { 24 } else { 64 };
    let a = gen::convection_diffusion_2d(dim, dim, 4.0, -3.0);
    let opts = IlutOptions::new(10, 1e-4);
    let (median_ns, min_ns) = sample(cfg.reps, 1, || {
        // lint: allow(unwrap): bench problems factor by construction; a failure here is fatal to the measurement
        let f = ilut(&a, &opts).expect("factorization failed");
        std::hint::black_box(&f);
    });
    Measurement {
        name: "serial_ilut",
        n: a.n_rows(),
        nnz: a.nnz(),
        reps: cfg.reps,
        inner: 1,
        median_ns,
        min_ns,
        comm_messages: 0,
        comm_bytes: 0,
        comm_tags: String::new(),
        comm_planned: String::new(),
        alloc: AllocProfile::default(),
    }
}

fn bench_serial_ilut_unbounded(cfg: &Cfg) -> Measurement {
    let dim = if cfg.quick { 12 } else { 64 };
    let a = gen::laplace_2d(dim, dim);
    let opts = IlutOptions::new(a.n_rows(), 0.0);
    let (median_ns, min_ns) = sample(cfg.reps, 1, || {
        // lint: allow(unwrap): bench problems factor by construction; a failure here is fatal to the measurement
        let f = ilut(&a, &opts).expect("factorization failed");
        std::hint::black_box(&f);
    });
    Measurement {
        name: "serial_ilut_unbounded",
        n: a.n_rows(),
        nnz: a.nnz(),
        reps: cfg.reps,
        inner: 1,
        median_ns,
        min_ns,
        comm_messages: 0,
        comm_bytes: 0,
        comm_tags: String::new(),
        comm_planned: String::new(),
        alloc: AllocProfile::default(),
    }
}

fn bench_trisolve_serial(cfg: &Cfg) -> Measurement {
    let dim = if cfg.quick { 24 } else { 64 };
    let a = gen::convection_diffusion_2d(dim, dim, 4.0, -3.0);
    // lint: allow(unwrap): bench problems factor by construction; a failure here is fatal to the measurement
    let f = ilut(&a, &IlutOptions::new(10, 1e-4)).expect("factorization failed");
    let fill = f.nnz();
    let b: Vec<f64> = (0..a.n_rows()).map(|i| ((i % 13) as f64) - 6.0).collect();
    let mut x = vec![0.0; a.n_rows()];
    let inner = 50;
    let (median_ns, min_ns) = sample(cfg.reps, inner, || {
        f.solve_into(&b, &mut x);
        std::hint::black_box(&x);
    });
    Measurement {
        name: "trisolve_serial",
        n: a.n_rows(),
        nnz: fill,
        reps: cfg.reps,
        inner,
        median_ns,
        min_ns,
        comm_messages: 0,
        comm_bytes: 0,
        comm_tags: String::new(),
        comm_planned: String::new(),
        alloc: AllocProfile::default(),
    }
}

/// Shared setup for the blocked scenarios: the `serial_ilut` matrix
/// blocked at b = 4 (the widest tile the micro-kernels support), so every
/// blocked row in the report has a scalar row to compare against.
fn blocked_setup(cfg: &Cfg) -> (usize, BcsrMatrix) {
    let dim = if cfg.quick { 24 } else { 64 };
    let a = gen::convection_diffusion_2d(dim, dim, 4.0, -3.0);
    let nnz = a.nnz();
    (nnz, BcsrMatrix::from_csr(&a, 4))
}

fn bench_block_ilut(cfg: &Cfg) -> Measurement {
    let (nnz, ab) = blocked_setup(cfg);
    let opts = IlutOptions::new(10, 1e-4);
    let (median_ns, min_ns) = sample(cfg.reps, 1, || {
        // lint: allow(unwrap): bench problems factor by construction; a failure here is fatal to the measurement
        let f = block_ilut(&ab, &opts).expect("factorization failed");
        std::hint::black_box(&f);
    });
    Measurement {
        name: "block_ilut",
        n: ab.n_rows(),
        nnz,
        reps: cfg.reps,
        inner: 1,
        median_ns,
        min_ns,
        comm_messages: 0,
        comm_bytes: 0,
        comm_tags: String::new(),
        comm_planned: String::new(),
        alloc: AllocProfile::default(),
    }
}

fn bench_block_trisolve(cfg: &Cfg) -> Measurement {
    let (_, ab) = blocked_setup(cfg);
    // lint: allow(unwrap): bench problems factor by construction; a failure here is fatal to the measurement
    let f = block_ilut(&ab, &IlutOptions::new(10, 1e-4)).expect("factorization failed");
    let useful = f.to_lu_factors().nnz();
    let b: Vec<f64> = (0..ab.n_rows()).map(|i| ((i % 13) as f64) - 6.0).collect();
    let mut x = vec![0.0; f.padded_len()];
    let inner = 50;
    let (median_ns, min_ns) = sample(cfg.reps, inner, || {
        f.solve_into(&b, &mut x);
        std::hint::black_box(&x);
    });
    Measurement {
        name: "block_trisolve",
        n: ab.n_rows(),
        nnz: useful,
        reps: cfg.reps,
        inner,
        median_ns,
        min_ns,
        comm_messages: 0,
        comm_bytes: 0,
        comm_tags: String::new(),
        comm_planned: String::new(),
        alloc: AllocProfile::default(),
    }
}

fn bench_block_trisolve_rhs8(cfg: &Cfg) -> Measurement {
    let (_, ab) = blocked_setup(cfg);
    // lint: allow(unwrap): bench problems factor by construction; a failure here is fatal to the measurement
    let f = block_ilut(&ab, &IlutOptions::new(10, 1e-4)).expect("factorization failed");
    let k = 8;
    // Per-RHS throughput: the panel streams each stored tile once for k
    // right-hand sides, so the denominator is useful entries × k.
    let useful = f.to_lu_factors().nnz() * k;
    let n = ab.n_rows();
    let rhs: Vec<f64> = (0..n * k).map(|i| ((i % 29) as f64) * 0.25 - 3.5).collect();
    let mut x = vec![0.0; f.padded_len() * k];
    let inner = 10;
    let (median_ns, min_ns) = sample(cfg.reps, inner, || {
        f.solve_panel_into(&rhs, k, &mut x);
        std::hint::black_box(&x);
    });
    Measurement {
        name: "block_trisolve_rhs8",
        n,
        nnz: useful,
        reps: cfg.reps,
        inner,
        median_ns,
        min_ns,
        comm_messages: 0,
        comm_bytes: 0,
        comm_tags: String::new(),
        comm_planned: String::new(),
        alloc: AllocProfile::default(),
    }
}

fn bench_spmv(cfg: &Cfg) -> Measurement {
    let dim = if cfg.quick { 40 } else { 200 };
    let a = gen::laplace_2d(dim, dim);
    let x: Vec<f64> = (0..a.n_rows()).map(|i| (i as f64 * 0.37).sin()).collect();
    let mut y = vec![0.0; a.n_rows()];
    let inner = 50;
    let (median_ns, min_ns) = sample(cfg.reps, inner, || {
        a.spmv(&x, &mut y);
        std::hint::black_box(&y);
    });
    Measurement {
        name: "spmv",
        n: a.n_rows(),
        nnz: a.nnz(),
        reps: cfg.reps,
        inner,
        median_ns,
        min_ns,
        comm_messages: 0,
        comm_bytes: 0,
        comm_tags: String::new(),
        comm_planned: String::new(),
        alloc: AllocProfile::default(),
    }
}

fn bench_gmres(cfg: &Cfg) -> Measurement {
    let dim = if cfg.quick { 16 } else { 48 };
    let a = gen::convection_diffusion_2d(dim, dim, 8.0, 2.0);
    let x_true = vec![1.0; a.n_rows()];
    let b = a.spmv_owned(&x_true);
    // lint: allow(unwrap): bench problems factor by construction; a failure here is fatal to the measurement
    let f = ilut(&a, &IlutOptions::new(10, 1e-4)).expect("factorization failed");
    let fill = f.nnz();
    let pre = IluPreconditioner::new(f);
    let opts = GmresOptions {
        rtol: 1e-8,
        ..GmresOptions::default()
    };
    // One untimed solve to learn the work per solve: the solver is
    // deterministic, so every timed repetition performs the same
    // `matvecs` applications of A (`a.nnz()` entries) and of the ILU
    // preconditioner (`fill` entries). That entry count is the natural
    // throughput denominator — without it the scenario reported
    // `nnz: 0` / `0.00 Mnnz/s` and sat outside the gated trajectory.
    let probe = gmres(&a, &b, &pre, &opts);
    assert!(probe.converged, "gmres bench problem must converge");
    let nnz = (a.nnz() + fill) * probe.matvecs;
    let (median_ns, min_ns) = sample(cfg.reps, 1, || {
        let r = gmres(&a, &b, &pre, &opts);
        assert!(r.converged, "gmres bench problem must converge");
        std::hint::black_box(&r);
    });
    Measurement {
        name: "gmres_ilut",
        n: a.n_rows(),
        nnz,
        reps: cfg.reps,
        inner: 1,
        median_ns,
        min_ns,
        comm_messages: 0,
        comm_bytes: 0,
        comm_tags: String::new(),
        comm_planned: String::new(),
        alloc: AllocProfile::default(),
    }
}

/// Machine-backed factorization scenario: each rank times `inner`
/// collective factorizations after a barrier; the scenario reports the max
/// per-rank wall time, which is what a real machine would observe.
fn bench_par_ilut(name: &'static str, cfg: &Cfg, p: usize, opts: IlutOptions) -> Measurement {
    let dim = if cfg.quick { 16 } else { 48 };
    let a = gen::laplace_2d(dim, dim);
    let nnz = a.nnz();
    let n = a.n_rows();
    let dm = DistMatrix::from_matrix(a, p, 17);
    let inner = 2;
    let (median_ns, min_ns) = sample_reported(cfg.reps, || {
        let out = Machine::run(p, MachineModel::cray_t3d(), |ctx| {
            let local = dm.local_view(ctx.rank());
            ctx.barrier();
            let t = Instant::now();
            for _ in 0..inner {
                // lint: allow(unwrap): bench problems factor by construction; a failure here is fatal to the measurement
                let rf = par_ilut(ctx, &dm, &local, &opts).expect("factorization failed");
                std::hint::black_box(&rf);
            }
            (t.elapsed().as_nanos() / inner as u128) as u64
        });
        out.results.into_iter().max().unwrap_or(0)
    });
    // One untimed run to read the comm volume of a single factorization.
    let stats = Machine::run(p, MachineModel::cray_t3d(), |ctx| {
        let local = dm.local_view(ctx.rank());
        // lint: allow(unwrap): bench problems factor by construction; a failure here is fatal to the measurement
        let rf = par_ilut(ctx, &dm, &local, &opts).expect("factorization failed");
        std::hint::black_box(&rf);
    })
    .stats;
    let (comm_messages, comm_bytes, comm_tags, comm_planned) = comm_fields(&stats);
    Measurement {
        name,
        n,
        nnz,
        reps: cfg.reps,
        inner,
        median_ns,
        min_ns,
        comm_messages,
        comm_bytes,
        comm_tags,
        comm_planned,
        alloc: AllocProfile::default(),
    }
}

fn bench_par_ilut_p4(cfg: &Cfg) -> Measurement {
    bench_par_ilut("par_ilut_p4", cfg, 4, IlutOptions::new(10, 1e-4))
}

fn bench_par_ilut_p8(cfg: &Cfg) -> Measurement {
    bench_par_ilut("par_ilut_p8", cfg, 8, IlutOptions::new(10, 1e-4))
}

fn bench_par_ilut_star_p4(cfg: &Cfg) -> Measurement {
    bench_par_ilut("par_ilut_star_p4", cfg, 4, IlutOptions::star(10, 1e-4, 2))
}

fn bench_par_ilut_star_p8(cfg: &Cfg) -> Measurement {
    bench_par_ilut("par_ilut_star_p8", cfg, 8, IlutOptions::star(10, 1e-4, 2))
}

fn bench_dist_trisolve_p4(cfg: &Cfg) -> Measurement {
    let dim = if cfg.quick { 16 } else { 48 };
    let p = 4;
    let a = gen::laplace_2d(dim, dim);
    let n = a.n_rows();
    let dm = DistMatrix::from_matrix(a, p, 17);
    let opts = IlutOptions::new(10, 1e-4);
    let inner = 20;
    let (median_ns, min_ns) = sample_reported(cfg.reps, || {
        let out = Machine::run(p, MachineModel::cray_t3d(), |ctx| {
            let local = dm.local_view(ctx.rank());
            // lint: allow(unwrap): bench problems factor by construction; a failure here is fatal to the measurement
            let rf = par_ilut(ctx, &dm, &local, &opts).expect("factorization failed");
            let plan = TrisolvePlan::build(ctx, &dm, &local, &rf);
            let b: Vec<f64> = local.nodes.iter().map(|&g| (g as f64).sin()).collect();
            let mut scratch = SolveScratch::build(&local, &plan);
            let mut x = vec![0.0; local.len()];
            ctx.barrier();
            let t = Instant::now();
            for _ in 0..inner {
                dist_solve_into(ctx, &local, &rf, &plan, &b, &mut scratch, &mut x);
                std::hint::black_box(&x);
            }
            (t.elapsed().as_nanos() / inner as u128) as u64
        });
        out.results.into_iter().max().unwrap_or(0)
    });
    // Factor fill for the throughput figure plus the comm volume of one
    // factor + plan build + solve: rebuild once outside timing.
    let (fill, stats) = {
        let out = Machine::run(p, MachineModel::cray_t3d(), |ctx| {
            let local = dm.local_view(ctx.rank());
            // lint: allow(unwrap): bench problems factor by construction; a failure here is fatal to the measurement
            let rf = par_ilut(ctx, &dm, &local, &opts).expect("factorization failed");
            let plan = TrisolvePlan::build(ctx, &dm, &local, &rf);
            let b: Vec<f64> = local.nodes.iter().map(|&g| (g as f64).sin()).collect();
            let mut scratch = SolveScratch::build(&local, &plan);
            let mut x = vec![0.0; local.len()];
            dist_solve_into(ctx, &local, &rf, &plan, &b, &mut scratch, &mut x);
            std::hint::black_box(&x);
            rf.rows
                .values()
                .map(|r| r.l.len() + r.u.len() + 1)
                .sum::<usize>()
        });
        (out.results.into_iter().sum::<usize>(), out.stats)
    };
    let (comm_messages, comm_bytes, comm_tags, comm_planned) = comm_fields(&stats);
    Measurement {
        name: "dist_trisolve_p4",
        n,
        nnz: fill,
        reps: cfg.reps,
        inner,
        median_ns,
        min_ns,
        comm_messages,
        comm_bytes,
        comm_tags,
        comm_planned,
        alloc: AllocProfile::default(),
    }
}

// ---------------------------------------------------------------------------
// Robustness scenarios: the self-healing solve with and without a kill.

/// Shared setup for the robustness scenarios: matrix, known-solution RHS,
/// and partitioned distribution at p = 4.
fn robust_setup(cfg: &Cfg) -> (pilut_sparse::CsrMatrix, Vec<f64>, Distribution) {
    let dim = if cfg.quick { 12 } else { 32 };
    let a = gen::laplace_2d(dim, dim);
    let n = a.n_rows();
    let x_true: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
    let b = a.spmv_owned(&x_true);
    let dist = Distribution::from_matrix(&a, 4, 17);
    (a, b, dist)
}

fn robust_gmres_opts() -> GmresOptions {
    GmresOptions {
        restart: 30,
        rtol: 1e-8,
        max_matvecs: 400,
    }
}

/// Machine with both robustness layers armed (the configuration every
/// robust production solve would run under).
fn robust_machine(plan: Option<FaultPlan>) -> pilut_par::MachineBuilder {
    let mut b = Machine::builder(MachineModel::cray_t3d())
        .reliable(true)
        .recovery(true);
    if let Some(plan) = plan {
        b = b.fault_plan(plan);
    }
    b
}

/// Steady-state overhead scenario: reliable delivery and recovery armed,
/// zero faults fired. Trackable against the plain solve scenarios — the
/// robustness layers must cost nothing when nothing goes wrong, and the
/// recorded planned traffic lets `bench-verify --slack 0` prove no ack or
/// recovery frame ever hit the wire.
fn bench_dist_solve_robust_p4(cfg: &Cfg) -> Measurement {
    let p = 4;
    let (a, b, dist) = robust_setup(cfg);
    let opts = IlutOptions::new(10, 1e-4);
    let gopts = robust_gmres_opts();
    let (median_ns, min_ns) = sample_reported(cfg.reps, || {
        let out = robust_machine(None).run(p, |ctx| {
            ctx.barrier();
            let t = Instant::now();
            let rep = dist_solve_robust(ctx, &a, &b, &dist, &opts, &gopts);
            assert!(rep.converged, "bench solve must converge");
            std::hint::black_box(&rep);
            t.elapsed().as_nanos() as u64
        });
        out.results.into_iter().max().unwrap_or(0)
    });
    let stats = robust_machine(None)
        .run(p, |ctx| {
            let rep = dist_solve_robust(ctx, &a, &b, &dist, &opts, &gopts);
            std::hint::black_box(&rep);
        })
        .stats;
    let (comm_messages, comm_bytes, comm_tags, comm_planned) = comm_fields(&stats);
    Measurement {
        name: "dist_solve_robust_p4",
        n: a.n_rows(),
        nnz: a.nnz(),
        reps: cfg.reps,
        inner: 1,
        median_ns,
        min_ns,
        comm_messages,
        comm_bytes,
        comm_tags,
        comm_planned,
        alloc: AllocProfile::default(),
    }
}

/// The deterministic kill every `recovery_p4` run survives: rank 2 dies at
/// its 60th comm op — mid-factorization, after plans exist.
fn recovery_kill_plan() -> FaultPlan {
    FaultPlan::new(17).with(FaultRule::new(FaultAction::Kill).rank(2).after_op(60))
}

/// Time-to-recover scenario: the same robust solve with a mid-solve kill.
/// The measured wall time spans loss detection, world adoption, the
/// recovery agreement round, shrink-and-redistribute re-planning,
/// re-factorization, and the checkpoint-warm-started re-solve to
/// convergence.
fn bench_recovery_p4(cfg: &Cfg) -> Measurement {
    let p = 4;
    let (a, b, dist) = robust_setup(cfg);
    let opts = IlutOptions::new(10, 1e-4);
    let gopts = robust_gmres_opts();
    // Every run kills a rank by design; keep its induced backtrace out of
    // the bench log (the unwind is caught and handled inside the machine).
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let (median_ns, min_ns) = sample_reported(cfg.reps, || {
        let out = robust_machine(Some(recovery_kill_plan())).run(p, |ctx| {
            ctx.barrier();
            let t = Instant::now();
            let rep = dist_solve_robust(ctx, &a, &b, &dist, &opts, &gopts);
            std::hint::black_box(&rep);
            if rep.dead {
                0
            } else {
                assert!(rep.converged, "survivors must converge");
                assert!(!rep.recoveries.is_empty(), "the kill must be recovered");
                t.elapsed().as_nanos() as u64
            }
        });
        out.results.into_iter().max().unwrap_or(0)
    });
    // Untimed run for the comm totals. The planned column stays blank on
    // purpose: the killed epoch abandons its planned rounds mid-flight, so
    // planned-vs-measured agreement is a contract of the fault-free path
    // only (`dist_solve_robust_p4` carries it).
    let stats = robust_machine(Some(recovery_kill_plan()))
        .run(p, |ctx| {
            let rep = dist_solve_robust(ctx, &a, &b, &dist, &opts, &gopts);
            std::hint::black_box(&rep);
        })
        .stats;
    std::panic::set_hook(default_hook);
    let (comm_messages, comm_bytes, comm_tags, _) = comm_fields(&stats);
    Measurement {
        name: "recovery_p4",
        n: a.n_rows(),
        nnz: a.nnz(),
        reps: cfg.reps,
        inner: 1,
        median_ns,
        min_ns,
        comm_messages,
        comm_bytes,
        comm_tags,
        comm_planned: String::new(),
        alloc: AllocProfile::default(),
    }
}

// ---------------------------------------------------------------------------
// Scaling sweeps (`--scaling`).

/// One (p, time) sample on a scaling curve, with the serial reference time
/// for the same matrix alongside so the speedup is self-contained.
struct ScalingPoint {
    p: usize,
    n: usize,
    nnz: usize,
    /// Serial ILUT wall time on this point's matrix.
    serial_ns: u64,
    /// Max-over-ranks parallel factorization wall time.
    par_ns: u64,
}

impl ScalingPoint {
    fn speedup(&self) -> f64 {
        if self.par_ns == 0 {
            0.0
        } else {
            self.serial_ns as f64 / self.par_ns as f64
        }
    }
}

/// A strong- or weak-scaling sweep over processor counts for one problem
/// family.
struct ScalingScenario {
    scenario: &'static str,
    /// `"strong"` (fixed matrix, growing p) or `"weak"` (matrix grows
    /// with p).
    mode: &'static str,
    /// Generator family, for the report reader.
    gen_name: &'static str,
    points: Vec<ScalingPoint>,
}

impl ScalingScenario {
    /// Smallest p whose speedup over serial reaches 1.0 — the
    /// serial/parallel crossover the report tracks. 0 when no point
    /// crosses.
    fn crossover_p(&self) -> usize {
        self.points
            .iter()
            .filter(|pt| pt.speedup() >= 1.0)
            .map(|pt| pt.p)
            .min()
            .unwrap_or(0)
    }
}

/// Times one serial ILUT factorization of `a`.
fn time_serial_ilut(a: &pilut_sparse::CsrMatrix, opts: &IlutOptions) -> u64 {
    let t = Instant::now();
    // lint: allow(unwrap): bench problems factor by construction; a failure here is fatal to the measurement
    let f = ilut(a, opts).expect("factorization failed");
    std::hint::black_box(&f);
    t.elapsed().as_nanos() as u64
}

/// Times one parallel ILUT factorization of `dm` on `p` simulated ranks;
/// reports the max per-rank wall time after a barrier, as
/// [`bench_par_ilut`] does.
fn time_par_ilut(dm: &DistMatrix, p: usize, opts: &IlutOptions) -> u64 {
    let out = Machine::run(p, MachineModel::cray_t3d(), |ctx| {
        let local = dm.local_view(ctx.rank());
        ctx.barrier();
        let t = Instant::now();
        // lint: allow(unwrap): bench problems factor by construction; a failure here is fatal to the measurement
        let rf = par_ilut(ctx, dm, &local, opts).expect("factorization failed");
        std::hint::black_box(&rf);
        t.elapsed().as_nanos() as u64
    });
    out.results.into_iter().max().unwrap_or(0)
}

/// Runs the strong- and weak-scaling sweeps. Single timed run per point —
/// the full-mode problems are 10–100× the gated scenarios (n ≥ 10⁶ at the
/// top), so each factorization runs for seconds and the curve shape, not
/// the last percent, is the product. Quick mode shrinks both families to
/// a two-point smoke that exercises the identical code path.
fn run_scaling(quick: bool) -> Vec<ScalingScenario> {
    let opts = IlutOptions::new(10, 1e-4);
    let mut out = Vec::new();

    // Strong scaling: one fixed 3-D Laplacian, partitioned for each p.
    let (dim, ps): (usize, &[usize]) = if quick {
        (12, &[1, 2])
    } else {
        (100, &[1, 2, 4, 8])
    };
    let a = gen::laplace_3d(dim, dim, dim);
    let (n, nnz) = (a.n_rows(), a.nnz());
    eprint!("scaling strong_laplace3d n={n} serial ... ");
    let serial_ns = time_serial_ilut(&a, &opts);
    eprintln!("{:.3} s", serial_ns as f64 / 1e9);
    let mut points = Vec::new();
    for &p in ps {
        eprint!("scaling strong_laplace3d p={p} ... ");
        let dm = DistMatrix::from_matrix(a.clone(), p, 17);
        let par_ns = time_par_ilut(&dm, p, &opts);
        let pt = ScalingPoint {
            p,
            n,
            nnz,
            serial_ns,
            par_ns,
        };
        eprintln!("{:.3} s, speedup {:.2}", par_ns as f64 / 1e9, pt.speedup());
        points.push(pt);
    }
    out.push(ScalingScenario {
        scenario: "strong_laplace3d",
        mode: "strong",
        gen_name: "laplace_3d",
        points,
    });

    // Weak scaling: fem_torso grown with p so work per rank stays near
    // constant (the ellipsoid mask keeps ~0.52·dim³ unknowns, so dims are
    // chosen for n(p) ≈ p · n(1); the top full-mode point passes 10⁶
    // unknowns). Serial reference re-timed per point since the matrix
    // changes.
    let pdims: &[(usize, usize)] = if quick {
        &[(1, 10), (2, 13)]
    } else {
        &[(1, 69), (2, 87), (4, 110), (8, 138)]
    };
    let mut points = Vec::new();
    for &(p, dim) in pdims {
        let a = gen::fem_torso(dim, 7);
        let (n, nnz) = (a.n_rows(), a.nnz());
        eprint!("scaling weak_fem_torso p={p} n={n} ... ");
        let serial_ns = time_serial_ilut(&a, &opts);
        let dm = DistMatrix::from_matrix(a, p, 17);
        let par_ns = time_par_ilut(&dm, p, &opts);
        let pt = ScalingPoint {
            p,
            n,
            nnz,
            serial_ns,
            par_ns,
        };
        eprintln!(
            "serial {:.3} s, par {:.3} s, speedup {:.2}",
            serial_ns as f64 / 1e9,
            par_ns as f64 / 1e9,
            pt.speedup()
        );
        points.push(pt);
    }
    out.push(ScalingScenario {
        scenario: "weak_fem_torso",
        mode: "weak",
        gen_name: "fem_torso",
        points,
    });
    out
}

// ---------------------------------------------------------------------------
// JSON.

fn render_json(
    label: &str,
    baseline: &str,
    quick: bool,
    results: &[Measurement],
    curves: &[ScalingScenario],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"pilut-bench-v2\",\n");
    out.push_str(&format!("  \"label\": \"{label}\",\n"));
    out.push_str(&format!("  \"baseline\": \"{baseline}\",\n"));
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str("  \"scenarios\": [\n");
    for (i, m) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"n\": {}, \"nnz\": {}, \"reps\": {}, \"inner\": {}, \
             \"median_ns\": {}, \"min_ns\": {}, \"mnnz_per_s\": {:.2}, \
             \"comm_messages\": {}, \"comm_bytes\": {}, \"comm_tags\": \"{}\", \
             \"comm_planned\": \"{}\", \"allocs\": {}, \"alloc_bytes\": {}, \
             \"alloc_regions\": \"{}\"}}{}\n",
            m.name,
            m.n,
            m.nnz,
            m.reps,
            m.inner,
            m.median_ns,
            m.min_ns,
            m.mnnz_per_s(),
            m.comm_messages,
            m.comm_bytes,
            m.comm_tags,
            m.comm_planned,
            m.alloc.allocs,
            m.alloc.bytes,
            m.alloc.regions,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    if curves.is_empty() {
        out.push_str("  ]\n}\n");
        return out;
    }
    out.push_str("  ],\n");
    out.push_str("  \"scaling\": [\n");
    for (i, c) in curves.iter().enumerate() {
        let points = c
            .points
            .iter()
            .map(|pt| {
                format!(
                    "{{\"p\": {}, \"n\": {}, \"nnz\": {}, \"serial_ns\": {}, \
                     \"par_ns\": {}, \"speedup\": {:.3}}}",
                    pt.p,
                    pt.n,
                    pt.nnz,
                    pt.serial_ns,
                    pt.par_ns,
                    pt.speedup()
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"mode\": \"{}\", \"gen\": \"{}\", \
             \"crossover_p\": {}, \"points\": [{}]}}{}\n",
            c.scenario,
            c.mode,
            c.gen_name,
            c.crossover_p(),
            points,
            if i + 1 < curves.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Entry point for `xtask bench-verify <file> [--slack PCT]`: structural
/// well-formedness check of a bench JSON report plus the planned-vs-
/// measured traffic gate, used by the CI smoke run. Verifies the schema
/// marker, that at least one scenario is present, that every scenario line
/// carries the required numeric fields with positive timings — and that
/// every machine scenario's measured per-tag counters agree with the
/// static `CommPlan` predictions it recorded: message counts exactly,
/// byte counts within `--slack` percent (default 0 — the values-only wire
/// format is deterministic, so the exact predictions must hold to the
/// byte; the flag exists for future payloads with platform-dependent
/// encodings). Measured traffic on a protocol tag no plan predicted is a
/// data-plane escape and always fails. Serial scenarios — every name
/// without a `_p<ranks>` suffix — run no machine at all, so their
/// `comm_messages` must be exactly zero: a nonzero count there means a
/// serial code path acquired a hidden machine dependency. Scaling curves,
/// when present, must each carry their mode, generator, crossover verdict,
/// and at least one fully-populated point.
///
/// v2 reports additionally carry the memory-plane columns (`allocs`,
/// `alloc_bytes`, `alloc_regions`) and are gated on them: every
/// [`STEADY_REGIONS`] entry in a scenario's region breakdown must report
/// exactly zero heap acquisitions — the zero-steady-alloc gate. v1
/// baselines predate the memory plane and verify on the comm contract
/// alone.
pub fn verify(args: &[String]) -> Result<(), String> {
    let mut path: Option<&String> = None;
    let mut slack_pct = 0.0f64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--slack" => {
                slack_pct = it
                    .next()
                    .ok_or_else(|| "--slack needs a percentage".to_string())?
                    .parse()
                    .map_err(|e| format!("bad --slack value: {e}"))?;
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown bench-verify flag {other}"));
            }
            _ if path.is_none() => path = Some(arg),
            other => return Err(format!("unexpected bench-verify argument {other}")),
        }
    }
    let path = path.ok_or_else(|| "usage: bench-verify <file.json> [--slack PCT]".to_string())?;
    let content =
        std::fs::read_to_string(Path::new(path)).map_err(|e| format!("reading {path}: {e}"))?;
    // v2 reports carry the allocation columns and are gated on them; v1
    // baselines from earlier PRs predate the memory plane and still verify
    // on their comm contract alone.
    let v2 = content.contains("\"schema\": \"pilut-bench-v2\"");
    if !v2 && !content.contains("\"schema\": \"pilut-bench-v1\"") {
        return Err(format!("{path}: missing pilut-bench-v1/v2 schema marker"));
    }
    // Brace balance (the writer emits no braces inside strings).
    let opens = content.matches('{').count();
    let closes = content.matches('}').count();
    if opens != closes || opens == 0 {
        return Err(format!(
            "{path}: unbalanced JSON braces ({opens} vs {closes})"
        ));
    }
    let mut scenarios = 0usize;
    let mut curves = 0usize;
    for line in content.lines() {
        let line = line.trim();
        // Scaling curves (optional — only `--scaling` reports carry them):
        // each must name its mode and generator, carry a crossover verdict,
        // and hold at least one fully-populated point.
        if line.starts_with("{\"scenario\":") {
            curves += 1;
            for key in [
                "\"mode\":",
                "\"gen\":",
                "\"crossover_p\":",
                "\"points\": [{\"p\":",
                "\"serial_ns\":",
                "\"par_ns\":",
                "\"speedup\":",
            ] {
                if !line.contains(key) {
                    return Err(format!("{path}: scaling curve {curves} missing {key}"));
                }
            }
            continue;
        }
        if !line.starts_with("{\"name\":") {
            continue;
        }
        scenarios += 1;
        for key in [
            "\"n\":",
            "\"nnz\":",
            "\"reps\":",
            "\"inner\":",
            "\"mnnz_per_s\":",
            "\"comm_messages\":",
            "\"comm_bytes\":",
        ] {
            if !line.contains(key) {
                return Err(format!("{path}: scenario {scenarios} missing {key}"));
            }
        }
        let median = field_u64(line, "\"median_ns\":")
            .ok_or_else(|| format!("{path}: scenario {scenarios} missing median_ns"))?;
        let min = field_u64(line, "\"min_ns\":")
            .ok_or_else(|| format!("{path}: scenario {scenarios} missing min_ns"))?;
        if median == 0 || min == 0 || min > median {
            return Err(format!(
                "{path}: scenario {scenarios} has implausible timings (median {median}, min {min})"
            ));
        }
        let measured = field_str(line, "\"comm_tags\":").unwrap_or_default();
        let planned = field_str(line, "\"comm_planned\":").unwrap_or_default();
        check_planned(&measured, &planned, slack_pct)
            .map_err(|e| format!("{path}: scenario {scenarios}: {e}"))?;
        let name = field_str(line, "\"name\":")
            .ok_or_else(|| format!("{path}: scenario {scenarios} missing name"))?;
        let comm = field_u64(line, "\"comm_messages\":")
            .ok_or_else(|| format!("{path}: scenario {scenarios} missing comm_messages"))?;
        if !is_machine_scenario(&name) && comm != 0 {
            return Err(format!(
                "{path}: serial scenario {name} reports {comm} comm message(s); \
                 a serial path must put nothing on the wire"
            ));
        }
        if v2 {
            // The zero-steady-alloc gate: a v2 scenario must carry the
            // allocation columns, and every steady region in its breakdown
            // must report exactly zero heap acquisitions. Scenarios
            // profiled without `--profile-alloc` carry an empty breakdown
            // and pass vacuously; the CI bench run profiles.
            for key in ["\"allocs\":", "\"alloc_bytes\":", "\"alloc_regions\":"] {
                if !line.contains(key) {
                    return Err(format!("{path}: scenario {name} missing {key}"));
                }
            }
            let regions = field_str(line, "\"alloc_regions\":").unwrap_or_default();
            for (region, allocs, bytes) in
                parse_breakdown(&regions).map_err(|e| format!("{path}: scenario {name}: {e}"))?
            {
                if STEADY_REGIONS.contains(&region.as_str()) && allocs != 0 {
                    return Err(format!(
                        "{path}: scenario {name}: steady region {region} acquired \
                         {allocs} allocation(s) / {} byte(s); steady-state replay \
                         paths must not touch the heap",
                        bytes.unwrap_or(0)
                    ));
                }
            }
        }
    }
    if scenarios == 0 {
        return Err(format!("{path}: no scenarios recorded"));
    }
    println!(
        "bench-verify: {path} ok ({scenarios} scenario(s), {curves} scaling curve(s), \
         slack {slack_pct}%)"
    );
    Ok(())
}

/// Whether a scenario name marks a machine-backed run: the `_p<ranks>`
/// naming convention every parallel scenario follows (`par_ilut_p4`,
/// `dist_solve_robust_p4`, ...). Everything else is serial and must report
/// zero communication.
fn is_machine_scenario(name: &str) -> bool {
    name.match_indices("_p").any(|(i, _)| {
        name.as_bytes()
            .get(i + 2)
            .is_some_and(|c| c.is_ascii_digit())
    })
}

/// Parses a `"name:messages/bytes"` breakdown string into a map; a `~`
/// byte field (inexact prediction) parses as `None`.
fn parse_breakdown(s: &str) -> Result<Vec<(String, u64, Option<u64>)>, String> {
    let mut out = Vec::new();
    for entry in s.split_whitespace() {
        let (name, counts) = entry
            .split_once(':')
            .ok_or_else(|| format!("malformed breakdown entry {entry}"))?;
        let (m, b) = counts
            .split_once('/')
            .ok_or_else(|| format!("malformed breakdown entry {entry}"))?;
        let messages: u64 = m
            .parse()
            .map_err(|e| format!("bad count in {entry}: {e}"))?;
        let bytes = if b == "~" {
            None
        } else {
            Some(
                b.parse()
                    .map_err(|e| format!("bad bytes in {entry}: {e}"))?,
            )
        };
        out.push((name.to_string(), messages, bytes));
    }
    Ok(out)
}

/// The planned-vs-measured gate of `bench-verify`: every prediction the
/// scenario's plans recorded must agree with what the machine measured —
/// message counts exactly, exact byte predictions within `slack_pct`
/// percent — and every measured protocol tag must have a prediction.
/// Collective traffic (`coll`) is gated like every other tag when the
/// report carries a `coll` prediction; only reports written before the
/// collectives planned themselves get the explicit legacy allowance
/// below. Scenarios with no predictions (serial, or reports predating
/// the analysis) pass vacuously.
fn check_planned(measured: &str, planned: &str, slack_pct: f64) -> Result<(), String> {
    let planned = parse_breakdown(planned)?;
    if planned.is_empty() {
        return Ok(());
    }
    let measured = parse_breakdown(measured)?;
    for (name, pm, pb) in &planned {
        let Some((_, mm, mb)) = measured.iter().find(|(n, _, _)| n == name) else {
            return Err(format!(
                "tag {name}: planned {pm} message(s) but none measured"
            ));
        };
        if mm != pm {
            return Err(format!(
                "tag {name}: planned {pm} message(s), measured {mm}"
            ));
        }
        if let (Some(pb), Some(mb)) = (pb, mb) {
            let diverge_pct = if *pb == 0 {
                if *mb == 0 {
                    0.0
                } else {
                    100.0
                }
            } else {
                (*mb as f64 - *pb as f64).abs() * 100.0 / *pb as f64
            };
            if diverge_pct > slack_pct {
                return Err(format!(
                    "tag {name}: predicted {pb} byte(s), measured {mb} \
                     ({diverge_pct:.2}% > {slack_pct}% slack)"
                ));
            }
        }
    }
    for (name, mm, _) in &measured {
        if name == "coll" && !planned.iter().any(|(n, _, _)| n == "coll") {
            // Deliberate legacy allowance, not a silent skip: collectives
            // have planned their own message counts since PR 7, so any
            // report written by the current harness carries a `coll`
            // prediction and is gated by the loop above. A measured-only
            // `coll` entry can therefore only come from a baseline file
            // written by an older harness — let it pass instead of
            // retroactively failing history. Every other unplanned tag is
            // still a data-plane escape.
            continue;
        }
        if !planned.iter().any(|(n, _, _)| n == name) {
            return Err(format!(
                "tag {name}: {mm} measured message(s) bypassed the planned data plane"
            ));
        }
    }
    Ok(())
}

/// Entry point for
/// `xtask bench-compare <new> <baseline> [--tolerance PCT] [--geomean]`:
/// guards against performance regressions by comparing scenario medians
/// between two bench reports. Scenarios are matched by name and are only
/// comparable when `n` and `inner` agree (quick-mode reports shrink the
/// problems, so their numbers never cross-compare against full-mode
/// baselines). A scenario counts as regressed when **both** its median and
/// its min exceed the baseline by more than the tolerance — the min is the
/// stable floor of the measurement, requiring both keeps one noisy median
/// sample from failing CI.
///
/// With `--geomean` the pass/fail verdict is instead the geometric mean of
/// the **min**-time ratios across all compared scenarios (per-scenario
/// lines are still printed and marked). Two noise sources motivate this:
/// sub-millisecond scenarios shift by ±10–15% from harness-binary code
/// layout alone (measured here by benching an identical library source
/// from two differently-sized xtask binaries), and shared virtualized
/// hardware moves *medians* of the very same binary by ±20–30% between
/// quiet and loaded minutes. Layout noise is undirected and cancels in
/// the aggregate; the min is the contention-robust floor of each
/// measurement; a real regression moves both. Pick the tolerance for the
/// environment — on shared hardware this is a gross-regression tripwire,
/// not a precision gate.
pub fn compare(args: &[String]) -> Result<(), String> {
    let mut paths: Vec<&String> = Vec::new();
    let mut tolerance_pct = 5.0f64;
    let mut geomean = false;
    let mut baseline_flag: Option<&String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--tolerance" => {
                tolerance_pct = it
                    .next()
                    .ok_or_else(|| "--tolerance needs a percentage".to_string())?
                    .parse()
                    .map_err(|e| format!("bad --tolerance value: {e}"))?;
            }
            "--geomean" => geomean = true,
            "--baseline" => {
                baseline_flag = Some(
                    it.next()
                        .ok_or_else(|| "--baseline needs a path".to_string())?,
                );
            }
            _ => paths.push(arg),
        }
    }
    // The baseline names itself either positionally (second path) or via
    // the explicit `--baseline <path>` flag; mixing both is ambiguous.
    let (new_path, base_path) = match (&paths[..], baseline_flag) {
        ([new], Some(base)) => (*new, base),
        ([new, base], None) => (*new, *base),
        _ => {
            return Err(
                "usage: bench-compare <new.json> [<baseline.json> | --baseline <path>] \
                 [--tolerance PCT] [--geomean]"
                    .into(),
            );
        }
    };
    let new = read_scenarios(new_path)?;
    let base = read_scenarios(base_path)?;
    let factor = 1.0 + tolerance_pct / 100.0;
    let mut compared = 0usize;
    let mut regressions: Vec<String> = Vec::new();
    let mut log_ratio_sum = 0.0f64;
    for s in &new {
        let Some(b) = base
            .iter()
            .find(|b| b.name == s.name && b.n == s.n && b.inner == s.inner)
        else {
            continue;
        };
        compared += 1;
        let med_ratio = s.median_ns as f64 / b.median_ns as f64;
        let min_ratio = s.min_ns as f64 / b.min_ns as f64;
        let regressed = med_ratio > factor && min_ratio > factor;
        log_ratio_sum += min_ratio.ln();
        println!(
            "bench-compare: {:<24} median {:>10} -> {:>10} ns ({:+.1}%), min {:+.1}%{}",
            s.name,
            b.median_ns,
            s.median_ns,
            (med_ratio - 1.0) * 100.0,
            (min_ratio - 1.0) * 100.0,
            if regressed { "  REGRESSION" } else { "" }
        );
        if regressed {
            regressions.push(s.name.clone());
        }
    }
    if compared == 0 {
        return Err(format!(
            "no comparable scenarios between {new_path} and {base_path} \
             (names must match with equal n and inner)"
        ));
    }
    if geomean {
        let gm = (log_ratio_sum / compared as f64).exp();
        let delta = (gm - 1.0) * 100.0;
        println!(
            "bench-compare: geomean of {compared} min-time ratio(s) {:+.1}% \
             (tolerance {tolerance_pct}%)",
            delta
        );
        if gm > factor {
            return Err(format!(
                "aggregate regression: geomean {delta:+.1}% exceeds {tolerance_pct}%"
            ));
        }
        return Ok(());
    }
    if regressions.is_empty() {
        println!("bench-compare: {compared} scenario(s) within {tolerance_pct}% of baseline");
        Ok(())
    } else {
        Err(format!(
            "{} scenario(s) regressed beyond {tolerance_pct}%: {}",
            regressions.len(),
            regressions.join(", ")
        ))
    }
}

/// One scenario row parsed back out of a bench report.
struct ParsedScenario {
    name: String,
    n: u64,
    inner: u64,
    median_ns: u64,
    min_ns: u64,
}

/// Parses the scenario lines of a bench JSON report (the writer's own
/// line-oriented format; see [`render_json`]).
fn read_scenarios(path: &str) -> Result<Vec<ParsedScenario>, String> {
    let content =
        std::fs::read_to_string(Path::new(path)).map_err(|e| format!("reading {path}: {e}"))?;
    // Both schema generations parse here: the comparison fields are
    // identical, so a v2 report compares against a v1 baseline directly
    // (the alloc columns are a v2-only addition, gated by `verify`).
    if !content.contains("\"schema\": \"pilut-bench-v1\"")
        && !content.contains("\"schema\": \"pilut-bench-v2\"")
    {
        return Err(format!("{path}: missing pilut-bench-v1/v2 schema marker"));
    }
    let mut out = Vec::new();
    for line in content.lines() {
        let line = line.trim();
        if !line.starts_with("{\"name\":") {
            continue;
        }
        let name = field_str(line, "\"name\":")
            .ok_or_else(|| format!("{path}: scenario line missing name: {line}"))?;
        let grab = |key: &str| {
            field_u64(line, key).ok_or_else(|| format!("{path}: scenario {name} missing {key}"))
        };
        out.push(ParsedScenario {
            n: grab("\"n\":")?,
            inner: grab("\"inner\":")?,
            median_ns: grab("\"median_ns\":")?,
            min_ns: grab("\"min_ns\":")?,
            name,
        });
    }
    if out.is_empty() {
        return Err(format!("{path}: no scenarios recorded"));
    }
    Ok(out)
}

/// Extracts the quoted string following `key` on `line`.
fn field_str(line: &str, key: &str) -> Option<String> {
    let at = line.find(key)? + key.len();
    let rest = line[at..].trim_start().strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// Extracts the unsigned integer following `key` on `line`.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let at = line.find(key)? + key.len();
    let rest = line[at..].trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake() -> Vec<Measurement> {
        // A machine-backed name (`_p4` suffix): the fixture carries comm
        // counters, which the serial-zero-comm gate forbids on serial names.
        vec![Measurement {
            name: "spmv_p4",
            n: 100,
            nnz: 460,
            reps: 3,
            inner: 10,
            median_ns: 1000,
            min_ns: 900,
            comm_messages: 12,
            comm_bytes: 4096,
            comm_tags: "spmv:12/4096".to_string(),
            comm_planned: "spmv:12/4096".to_string(),
            alloc: AllocProfile::default(),
        }]
    }

    fn verify_file(name: &str, json: &str) -> Result<(), String> {
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, json).unwrap();
        verify(&[path.to_str().unwrap().to_string()])
    }

    fn fake_curves() -> Vec<ScalingScenario> {
        vec![ScalingScenario {
            scenario: "strong_test",
            mode: "strong",
            gen_name: "laplace_3d",
            points: vec![
                ScalingPoint {
                    p: 1,
                    n: 1000,
                    nnz: 6400,
                    serial_ns: 500,
                    par_ns: 1000,
                },
                ScalingPoint {
                    p: 4,
                    n: 1000,
                    nnz: 6400,
                    serial_ns: 500,
                    par_ns: 400,
                },
            ],
        }]
    }

    #[test]
    fn json_roundtrips_through_verify() {
        let json = render_json("test", "none", true, &fake(), &[]);
        assert!(json.contains("\"baseline\": \"none\""));
        verify_file("pilut_bench_test.json", &json).unwrap();
    }

    #[test]
    fn scaling_curves_roundtrip_and_report_the_crossover() {
        let curves = fake_curves();
        // Speedup 0.5 at p=1, 1.25 at p=4 → crossover at p=4.
        assert_eq!(curves[0].crossover_p(), 4);
        let json = render_json("test", "none", true, &fake(), &curves);
        assert!(json.contains("\"scaling\": ["));
        assert!(json.contains("\"crossover_p\": 4"));
        assert!(json.contains("\"speedup\": 1.250"));
        verify_file("pilut_bench_scaling.json", &json).unwrap();
        // A curve stripped of its points must be rejected.
        let broken = json.replace("\"points\": [{\"p\": 1", "\"points\": [{\"q\": 1");
        let err = verify_file("pilut_bench_scaling_bad.json", &broken).unwrap_err();
        assert!(err.contains("scaling curve 1 missing"), "{err}");
    }

    #[test]
    fn uncrossed_curves_report_crossover_zero() {
        let mut curves = fake_curves();
        for pt in &mut curves[0].points {
            pt.par_ns = pt.serial_ns * 2;
        }
        assert_eq!(curves[0].crossover_p(), 0);
    }

    #[test]
    fn coll_gates_when_planned_and_passes_as_legacy_when_not() {
        // A report from the current harness plans `coll`; a mismatch fails.
        let mut m = fake();
        m[0].comm_tags = "spmv:12/4096 coll:7/320".to_string();
        m[0].comm_planned = "spmv:12/4096 coll:6/~".to_string();
        let err = verify_file(
            "pilut_bench_coll_gate.json",
            &render_json("t", "none", true, &m, &[]),
        )
        .unwrap_err();
        assert!(err.contains("coll"), "{err}");
        // A legacy report (measured coll, no prediction) still passes.
        m[0].comm_planned = "spmv:12/4096".to_string();
        verify_file(
            "pilut_bench_coll_legacy.json",
            &render_json("t", "none", true, &m, &[]),
        )
        .unwrap();
    }

    #[test]
    fn serial_scenarios_must_report_zero_comm() {
        assert!(is_machine_scenario("par_ilut_p4"));
        assert!(is_machine_scenario("dist_solve_robust_p4"));
        assert!(!is_machine_scenario("block_trisolve_rhs8"));
        assert!(!is_machine_scenario("serial_ilut_unbounded"));
        let mut m = fake();
        m[0].name = "block_trisolve";
        m[0].comm_tags = String::new();
        m[0].comm_planned = String::new();
        let err = verify_file(
            "pilut_bench_serial_comm.json",
            &render_json("t", "none", true, &m, &[]),
        )
        .unwrap_err();
        assert!(err.contains("nothing on the wire"), "{err}");
        m[0].comm_messages = 0;
        m[0].comm_bytes = 0;
        verify_file(
            "pilut_bench_serial_comm_ok.json",
            &render_json("t", "none", true, &m, &[]),
        )
        .unwrap();
    }

    #[test]
    fn verify_rejects_garbage() {
        assert!(verify_file("pilut_bench_bad.json", "{\"schema\": \"other\"}").is_err());
    }

    #[test]
    fn verify_gates_planned_against_measured() {
        // Exact byte prediction off by one fails at zero slack, passes
        // under a generous slack; message mismatches never pass; measured
        // protocol traffic with no prediction never passes.
        let mut m = fake();
        m[0].comm_planned = "spmv:12/4000".to_string();
        let json = render_json("test", "none", true, &m, &[]);
        let err = verify_file("pilut_bench_gate.json", &json).unwrap_err();
        assert!(err.contains("slack"), "{err}");
        let path = std::env::temp_dir().join("pilut_bench_gate.json");
        verify(&[
            path.to_str().unwrap().to_string(),
            "--slack".into(),
            "5".into(),
        ])
        .unwrap();
        m[0].comm_planned = "spmv:11/~".to_string();
        let err = verify_file(
            "pilut_bench_gate2.json",
            &render_json("t", "none", true, &m, &[]),
        )
        .unwrap_err();
        assert!(err.contains("planned 11 message(s), measured 12"), "{err}");
        m[0].comm_tags = "spmv:12/4096 fwd:3/24".to_string();
        m[0].comm_planned = "spmv:12/4096".to_string();
        let err = verify_file(
            "pilut_bench_gate3.json",
            &render_json("t", "none", true, &m, &[]),
        )
        .unwrap_err();
        assert!(err.contains("bypassed the planned data plane"), "{err}");
    }

    #[test]
    fn steady_region_allocs_fail_the_zero_gate() {
        // A steady region with traffic fails; a measured-only region
        // (mis_rounds) with the same traffic passes.
        let mut m = fake();
        m[0].alloc = AllocProfile {
            allocs: 3,
            bytes: 1024,
            regions: "trisolve_replay:3/1024".to_string(),
        };
        let err = verify_file(
            "pilut_bench_alloc_gate.json",
            &render_json("t", "none", true, &m, &[]),
        )
        .unwrap_err();
        assert!(err.contains("steady region trisolve_replay"), "{err}");
        assert!(err.contains("3 allocation(s)"), "{err}");
        m[0].alloc = AllocProfile {
            allocs: 0,
            bytes: 0,
            regions: "mis_rounds:3/1024 trisolve_replay:0/0".to_string(),
        };
        verify_file(
            "pilut_bench_alloc_gate_ok.json",
            &render_json("t", "none", true, &m, &[]),
        )
        .unwrap();
    }

    #[test]
    fn v1_baselines_still_verify_and_compare() {
        // A v1 report (no alloc columns) must pass verify's legacy path
        // and parse for comparison against a v2 report.
        let v1 = "{\n  \"schema\": \"pilut-bench-v1\",\n  \"label\": \"pr9\",\n  \
                  \"baseline\": \"none\",\n  \"quick\": true,\n  \"scenarios\": [\n    \
                  {\"name\": \"spmv_p4\", \"n\": 100, \"nnz\": 460, \"reps\": 3, \
                  \"inner\": 10, \"median_ns\": 1100, \"min_ns\": 950, \
                  \"mnnz_per_s\": 418.18, \"comm_messages\": 12, \"comm_bytes\": 4096, \
                  \"comm_tags\": \"spmv:12/4096\", \"comm_planned\": \"spmv:12/4096\"}\n  \
                  ]\n}\n";
        verify_file("pilut_bench_v1_legacy.json", v1).unwrap();
        let base_path = std::env::temp_dir().join("pilut_bench_v1_base.json");
        std::fs::write(&base_path, v1).unwrap();
        let new_path = std::env::temp_dir().join("pilut_bench_v2_new.json");
        std::fs::write(&new_path, render_json("t", "pr9", true, &fake(), &[])).unwrap();
        compare(&[
            new_path.to_str().unwrap().to_string(),
            base_path.to_str().unwrap().to_string(),
            "--tolerance".into(),
            "25".into(),
        ])
        .unwrap();
    }

    #[test]
    fn alloc_profile_folds_steady_regions_only() {
        let stats = vec![
            pilut_allocaudit::RegionStats {
                name: "mis_rounds",
                allocs: 40,
                bytes: 2048,
                deallocs: 40,
                entries: 5,
            },
            pilut_allocaudit::RegionStats {
                name: "trisolve_replay",
                allocs: 2,
                bytes: 128,
                deallocs: 0,
                entries: 50,
            },
        ];
        let p = AllocProfile::from_registry(&stats);
        assert_eq!(p.allocs, 2, "only steady regions count toward the total");
        assert_eq!(p.bytes, 128);
        assert_eq!(p.regions, "mis_rounds:40/2048 trisolve_replay:2/128");
    }

    #[test]
    fn throughput_math() {
        let m = &fake()[0];
        // 460 entries in 1000 ns = 460 Mnnz/s.
        assert!((m.mnnz_per_s() - 460.0).abs() < 1e-9);
    }

    #[test]
    fn field_extraction() {
        assert_eq!(field_u64("{\"median_ns\": 42,", "\"median_ns\":"), Some(42));
        assert_eq!(field_u64("no field", "\"median_ns\":"), None);
    }
}
