//! The three workloads: their inputs (made from the seed) and the
//! benchmark's own output check.

use pilut_core::dist::{DistMatrix, Distribution, LocalView};
use pilut_core::options::IlutOptions;
use pilut_graph::{partition_kway, Graph, PartitionOptions};
use pilut_solver::gmres::GmresOptions;
use pilut_sparse::{gen, CsrMatrix, SplitMix64};
use std::time::Instant;

/// GMRES relative tolerance of every solve.
pub const RTOL: f64 = 1e-8;

/// Slack of the output check: a solution passes when the recomputed
/// `‖b − A x‖₂ / ‖b‖₂` is at most `RTOL · (1 + CHECK_SLACK)`. GMRES stops
/// on the true residual, so the slack only absorbs the different summation
/// order of the benchmark's full-matrix product and norm (distributed
/// GMRES sums its dot products rank by rank).
pub const CHECK_SLACK: f64 = 1e-3;

/// Ranks of the distributed workload: never more than the 2 vCPUs of the
/// host the benchmark was sized on.
pub const RANKS: usize = 2;

/// The partitioner seed is the program's, fixed; the workload seed only
/// drives the generated inputs.
pub const PARTITION_SEED: u64 = 17;

/// Workload seed when none is given: `gen::torso`'s numbering seed.
pub const DEFAULT_SEED: u64 = 0x70_72_73_6f;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// G40 stand-in, ILUT(10, 1e-4) once, then 8 seeded right-hand sides.
    G40ManyRhs,
    /// TORSO stand-in, high-fill ILUT(20, 1e-6), then one right-hand side.
    TorsoFill,
    /// TORSO stand-in over 2 simulated T3D ranks: parallel ILUT(10, 1e-4),
    /// trisolve plan, distributed GMRES.
    TorsoP2,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::G40ManyRhs, Workload::TorsoFill, Workload::TorsoP2];

    pub fn name(self) -> &'static str {
        match self {
            Workload::G40ManyRhs => "g40_many_rhs",
            Workload::TorsoFill => "torso_fill",
            Workload::TorsoP2 => "torso_p2",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn ilut_options(self) -> IlutOptions {
        match self {
            Workload::TorsoFill => IlutOptions::new(20, 1e-6),
            Workload::G40ManyRhs | Workload::TorsoP2 => IlutOptions::new(10, 1e-4),
        }
    }

    fn n_rhs(self) -> usize {
        match self {
            Workload::G40ManyRhs => 8,
            Workload::TorsoFill | Workload::TorsoP2 => 1,
        }
    }
}

pub fn gmres_options() -> GmresOptions {
    GmresOptions {
        restart: 30,
        rtol: RTOL,
        max_matvecs: 1000,
    }
}

/// Inputs of a serial workload.
pub struct SerialProblem {
    pub a: CsrMatrix,
    pub rhs: Vec<Vec<f64>>,
}

/// Inputs of the distributed workload, with everything a rank needs
/// before its first collective.
pub struct DistProblem {
    pub dm: DistMatrix,
    pub locals: Vec<LocalView>,
    /// The global right-hand side, for the output check.
    pub b: Vec<f64>,
    /// `b` restricted to each rank's local view.
    pub b_local: Vec<Vec<f64>>,
    pub edge_cut: i64,
    pub interface_nodes: usize,
}

pub enum Problem {
    Serial(SerialProblem),
    Dist(DistProblem),
}

/// One set-up: the inputs and how long making them took.
pub struct Setup {
    pub problem: Problem,
    /// Wall seconds of the whole set-up.
    pub setup_s: f64,
    /// Of which matrix generation.
    pub gen_s: f64,
    /// Of which the k-way partition (0 for serial workloads).
    pub partition_s: f64,
}

/// Makes the workload's inputs from `seed`: the matrix (the TORSO
/// numbering is seeded), a known solution per right-hand side and
/// `b = A x*`; for `torso_p2` also the partition, `DistMatrix::new` and the
/// local views.
pub fn setup(w: Workload, seed: u64) -> Setup {
    let t0 = Instant::now();
    let a = match w {
        Workload::G40ManyRhs => gen::g40(3),
        Workload::TorsoFill | Workload::TorsoP2 => gen::fem_torso(32, seed),
    };
    let gen_s = t0.elapsed().as_secs_f64();
    let mut rng = SplitMix64::new(seed ^ 0x5eed_0fb5);
    let rhs: Vec<Vec<f64>> = (0..w.n_rhs())
        .map(|_| {
            let x: Vec<f64> = (0..a.n_rows()).map(|_| rng.range_f64(-1.0, 1.0)).collect();
            a.spmv_owned(&x)
        })
        .collect();
    let mut partition_s = 0.0;
    let problem = if w == Workload::TorsoP2 {
        let t1 = Instant::now();
        let g = Graph::from_csr_pattern(&a);
        let part = partition_kway(
            &g,
            &PartitionOptions {
                seed: PARTITION_SEED,
                ..PartitionOptions::new(RANKS)
            },
        );
        partition_s = t1.elapsed().as_secs_f64();
        let edge_cut = part.edge_cut;
        let dm = DistMatrix::new(a, Distribution::from_part(part.part, RANKS));
        let locals: Vec<LocalView> = (0..RANKS).map(|r| dm.local_view(r)).collect();
        let b = rhs.into_iter().next().expect("one right-hand side");
        let b_local = locals
            .iter()
            .map(|l| l.nodes.iter().map(|&g| b[g]).collect())
            .collect();
        let interface_nodes = locals.iter().map(|l| l.interface.len()).sum();
        Problem::Dist(DistProblem {
            dm,
            locals,
            b,
            b_local,
            edge_cut,
            interface_nodes,
        })
    } else {
        Problem::Serial(SerialProblem { a, rhs })
    };
    Setup {
        problem,
        setup_s: t0.elapsed().as_secs_f64(),
        gen_s,
        partition_s,
    }
}

/// `‖b − A x‖₂ / ‖b‖₂` with the full matrix.
pub fn rel_residual(a: &CsrMatrix, b: &[f64], x: &[f64]) -> f64 {
    let ax = a.spmv_owned(x);
    let r2: f64 = b
        .iter()
        .zip(&ax)
        .map(|(bi, yi)| (bi - yi) * (bi - yi))
        .sum();
    let b2: f64 = b.iter().map(|v| v * v).sum();
    (r2 / b2).sqrt()
}

/// Scatters per-rank solution slices (local-view order) into one global
/// vector through `local.nodes`.
pub fn gather(locals: &[LocalView], x_local: &[&[f64]], n: usize) -> Vec<f64> {
    let mut x = vec![0.0; n];
    for (l, xs) in locals.iter().zip(x_local) {
        for (&g, &v) in l.nodes.iter().zip(xs.iter()) {
            x[g] = v;
        }
    }
    x
}
