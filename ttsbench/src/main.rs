//! Time-to-solution benchmark for the pilut workspace.
//!
//! One operation is one complete solve — factor, then GMRES(30) to a
//! relative residual of 1e-8 — on the paper's G40 / TORSO stand-ins,
//! run in a closed loop (one client, one operation in flight) for the
//! given number of seconds. Every answer is checked by the benchmark
//! itself. See `METRICS.md` for the workloads and metrics.
//!
//! ```text
//! pilut-ttsbench --workload <g40_many_rhs|torso_fill|torso_p2>
//!                [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1`
//! (a build with the `audit` feature) the per-layer metrics of spans
//! taken around the calls into each layer. The last line of standard
//! output is one JSON object; the lines before it are a readable report.
//! `run.py` builds both variants and is the intended entry point.

mod op;
mod sys;
mod trace;
mod workload;

use op::{median, Layers, Outcome};
use pilut_core::serial::ilut;
use std::process::ExitCode;
use std::time::Instant;
use workload::{Problem, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Serial reference factorizations per traced `torso_p2` run, for
/// `core.parallel.work_inflation`.
const REFERENCE_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) =
        (None, workload::DEFAULT_SEED, 10.0_f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} value {value:?}: {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("not an integer"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err(bad("must be positive and finite"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pilut-ttsbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The end-to-end numbers come from a build without the counting
    // allocator; allocation counts need a build with it.
    if args.trace != pilut_allocaudit::audit_enabled() {
        eprintln!(
            "pilut-ttsbench: --trace 1 needs the `audit` feature and --trace 0 a build without it"
        );
        return ExitCode::from(2);
    }
    let report = run(&args);
    for (name, value, unit, note) in &report.metrics {
        println!("# {name} = {value} {unit}{note}");
    }
    for f in &report.failures {
        println!("# failed: {f}");
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}

struct Report {
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
    /// `(name, value, unit, note)`.
    metrics: Vec<(String, f64, &'static str, String)>,
}

impl Report {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.put_noted(name, value, unit, String::new());
    }

    fn put_noted(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        assert!(value.is_finite(), "{name} is not finite: {value}");
        self.metrics.push((name.to_string(), value, unit, note));
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u, _)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The counts that repeat exactly from one operation to the next: the VM
/// is deterministic, and so are the serial kernels.
#[derive(PartialEq, Debug)]
struct Exact {
    sim_bits: u64,
    matvecs: usize,
    messages: u64,
    bytes: u64,
}

fn exact(o: &Outcome) -> Exact {
    Exact {
        sim_bits: o.sim_s.to_bits(),
        matvecs: o.matvecs,
        messages: o.messages,
        bytes: o.bytes,
    }
}

fn run(args: &Args) -> Report {
    let w = args.workload;
    let (mut setup_s, mut gen_s, mut partition_s) = (vec![], vec![], vec![]);
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        let s = workload::setup(w, args.seed);
        setup_s.push(s.setup_s);
        gen_s.push(s.gen_s);
        partition_s.push(s.partition_s);
        setup = Some(s);
    }
    let problem = setup.expect("at least one set-up").problem;
    let one = |traced| match &problem {
        Problem::Serial(p) => op::serial(w, p, traced),
        Problem::Dist(p) => op::dist(w, p, traced),
    };

    // One warm-up operation: checked, not timed.
    let mut outcomes = vec![one(args.trace)];
    let start = Instant::now();
    let mut timed = Vec::new();
    while timed.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        timed.push(one(args.trace));
    }
    let reference = exact(&outcomes[0]);
    outcomes.append(&mut timed);

    let mut report = Report {
        attempted: outcomes.len(),
        failed: 0,
        failures: vec![],
        metrics: vec![],
    };
    for (i, o) in outcomes.iter().enumerate() {
        let diverged = exact(o) != reference;
        if o.failure.is_some() || diverged {
            report.failed += 1;
            let why = o.failure.clone().unwrap_or_else(|| {
                format!("exact counts diverged: {:?} vs {reference:?}", exact(o))
            });
            report.failures.push(format!("op {i}: {why}"));
        }
    }
    let measured = &outcomes[1..];
    let mut wall: Vec<f64> = measured.iter().map(|o| o.wall_s).collect();
    let mut cpu: Vec<f64> = measured.iter().map(|o| o.cpu_s).collect();
    let tts_p50 = median(&mut wall);
    report.put("tts_p50_s", tts_p50, "s");

    if args.trace {
        let setup_spans = [median(&mut gen_s), median(&mut partition_s)];
        per_layer(&mut report, w, &problem, measured, setup_spans);
        return report;
    }
    let (q, tail, beyond) = tail_percentile(&mut wall);
    report.put_noted(
        "tts_tail_s",
        tail,
        "s",
        format!(" (p{q:.1} of n={}, {beyond} beyond it)", wall.len()),
    );
    report.put("cpu_p50_s", median(&mut cpu), "s");
    let o = &outcomes[0];
    if matches!(problem, Problem::Dist(_)) {
        report.put("sim_tts_s", o.sim_s, "s");
    }
    report.put(
        "matvecs_per_solve",
        o.matvecs as f64 / o.solves.max(1) as f64,
        "count",
    );
    report.put(
        "fail_ratio",
        report.failed as f64 / report.attempted as f64,
        "ratio",
    );
    report.put("setup_s", median(&mut setup_s), "s");
    report.put("peak_rss_mib", sys::peak_rss_mib(), "MiB");
    report
}

/// The tail: the highest percentile, up to p90, with at least ten samples
/// above it (nearest rank), as `(percentile, value, samples beyond)`.
/// Capping at p90 keeps the percentile the same from run to run and
/// workload to workload once a run has 100 operations, which every
/// workload reaches at the benchmark's run length. Runs of 20 to 99
/// operations report the eleventh-largest sample; below 20 no percentile
/// from the median up has ten samples above it, and the maximum stands in.
fn tail_percentile(v: &mut [f64]) -> (f64, f64, usize) {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    // 1-based nearest rank.
    let rank = if n >= 20 {
        (9 * n).div_ceil(10).min(n - 10)
    } else {
        n
    };
    (100.0 * rank as f64 / n as f64, v[rank - 1], n - rank)
}

/// Per-layer metrics: per-operation means of the spans, plus the set-up
/// spans and the serial reference for work inflation.
fn per_layer(
    report: &mut Report,
    w: Workload,
    problem: &Problem,
    measured: &[Outcome],
    [gen_s, partition_s]: [f64; 2],
) {
    let mut mean = Layers::new();
    for o in measured {
        for (&k, &v) in o.layers.iter().flatten() {
            *mean.entry(k).or_default() += v;
        }
    }
    for v in mean.values_mut() {
        *v /= measured.len() as f64;
    }
    mean.insert("sparse.gen_s", gen_s);
    mean.insert("graph.partition_s", partition_s);
    if let Problem::Dist(p) = problem {
        mean.insert("graph.edge_cut", p.edge_cut as f64);
        mean.insert("graph.interface_nodes", p.interface_nodes as f64);
        // The serial factorization of the same matrix and options, timed
        // in this run, is the base of the work-inflation ratio.
        let a = p.dm.matrix();
        let (mut wall, mut cpu) = (vec![], vec![]);
        for _ in 0..REFERENCE_REPS {
            let mut r = trace::Reading::default();
            let f = trace::span(true, &mut r, || ilut(a, &w.ilut_options()))
                .expect("serial reference ILUT succeeds where the parallel one did");
            wall.push(r.wall);
            cpu.push(r.cpu);
            mean.insert("core.serial.ilut_allocs", r.allocs);
            mean.insert("core.serial.fill_ratio", f.nnz() as f64 / a.nnz() as f64);
        }
        let serial_cpu = median(&mut cpu);
        mean.insert("core.serial.ilut_s", median(&mut wall));
        mean.insert("core.serial.ilut_cpu_s", serial_cpu);
        let par_cpu = mean
            .get("core.parallel.par_ilut_cpu_s")
            .copied()
            .unwrap_or(0.0);
        mean.insert("core.parallel.work_inflation", par_cpu / serial_cpu);
    }
    if let Some(k) = mean
        .keys()
        .find(|k| !PER_LAYER.iter().any(|(n, _)| n == *k))
    {
        panic!("per-layer metric {k} is missing from PER_LAYER");
    }
    for (name, unit) in PER_LAYER {
        report.put(name, mean.get(name).copied().unwrap_or(0.0), unit);
    }
}

/// Every per-layer metric the traced run reports, with its unit. A layer
/// that does not run in a workload reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("sparse.gen_s", "s"),
    ("sparse.spmv_s", "s"),
    ("sparse.spmv_calls", "count"),
    ("sparse.spmv_bytes_computed", "bytes"),
    ("graph.partition_s", "s"),
    ("graph.edge_cut", "count"),
    ("graph.interface_nodes", "count"),
    ("core.serial.ilut_s", "s"),
    ("core.serial.ilut_cpu_s", "s"),
    ("core.serial.fill_ratio", "ratio"),
    ("core.serial.ilut_allocs", "count"),
    ("core.trisolve.apply_s", "s"),
    ("core.trisolve.apply_calls", "count"),
    ("core.trisolve.apply_p50_us", "us"),
    ("core.trisolve.bytes_computed", "bytes"),
    ("core.trisolve.plan_build_s", "s"),
    ("core.trisolve.dist_apply_s", "s"),
    ("core.trisolve.dist_apply_sim_s", "s"),
    ("core.trisolve.dist_apply_wait_s", "s"),
    ("core.parallel.par_ilut_s", "s"),
    ("core.parallel.par_ilut_cpu_s", "s"),
    ("core.parallel.par_ilut_sim_s", "s"),
    ("core.parallel.par_ilut_wait_s", "s"),
    ("core.parallel.work_inflation", "ratio"),
    ("core.parallel.levels", "count"),
    ("core.parallel.reduced_nnz_peak", "count"),
    ("core.parallel.fill_ratio", "ratio"),
    ("core.parallel.allocs", "count"),
    ("core.dist.spmv_build_s", "s"),
    ("core.dist.spmv_s", "s"),
    ("core.dist.spmv_sim_s", "s"),
    ("core.dist.spmv_calls", "count"),
    ("solver.gmres_self_s", "s"),
    ("solver.dist_gmres_self_s", "s"),
    ("solver.dist_gmres_self_sim_s", "s"),
    ("solver.breakdowns", "count"),
    ("par.sim_tts_s", "s"),
    ("par.messages", "count"),
    ("par.bytes", "bytes"),
    ("par.collectives", "count"),
    ("par.flops", "flop"),
    ("par.run_overhead_s", "s"),
    ("par.messages.urows", "count"),
    ("par.messages.mis_keys", "count"),
    ("par.messages.mis_tent", "count"),
    ("par.messages.mis_conf", "count"),
    ("par.messages.fwd", "count"),
    ("par.messages.bwd", "count"),
    ("par.messages.spmv", "count"),
    ("par.messages.coll", "count"),
    ("par.bytes.urows", "bytes"),
    ("par.bytes.mis_keys", "bytes"),
    ("par.bytes.mis_tent", "bytes"),
    ("par.bytes.mis_conf", "bytes"),
    ("par.bytes.fwd", "bytes"),
    ("par.bytes.bwd", "bytes"),
    ("par.bytes.spmv", "bytes"),
    ("par.bytes.coll", "bytes"),
    ("trace.span_coverage", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_p90_once_ten_samples_lie_beyond_it() {
        let mut v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(tail_percentile(&mut v), (90.0, 180.0, 20));
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&mut v), (90.0, 90.0, 10));
    }

    #[test]
    fn short_runs_report_the_eleventh_largest_or_the_maximum() {
        let mut v: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(tail_percentile(&mut v), (80.0, 40.0, 10));
        let mut v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&mut v), (50.0, 10.0, 10));
        let mut v: Vec<f64> = (1..=14).map(f64::from).collect();
        assert_eq!(tail_percentile(&mut v), (100.0, 14.0, 0));
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }
}
