//! Per-layer measurements of the traced run. Every number here is taken
//! from outside the layer: the benchmark calls each module's public
//! functions at the workload's own shapes and reads the public
//! `SolveStats` counters; no layer is instrumented for it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use idc_control::mpc::{MpcConfig, MpcController, MpcProblem};
use idc_control::reference::ReferenceSolver;
use idc_control::riccati::RiccatiSkeleton;
use idc_core::metrics::SolveStats;
use idc_datacenter::idc::IdcConfig;
use idc_linalg::banded::{BlockTridiag, BlockTridiagChol};
use idc_linalg::cholesky::UpdatableCholesky;
use idc_linalg::gemm::gemm_ws;
use idc_linalg::workspace::Workspace;
use idc_market::tariff::DemandCharge;
use idc_obs::{FlightRecorder, Span};
use idc_runtime::lineage::CheckpointLineage;
use idc_runtime::metrics::MetricsRegistry;
use idc_runtime::stepper::{Stepper, StepperConfig};
use idc_runtime::tenant::StatusBoard;
use idc_timeseries::predictor::WorkloadPredictor;

use crate::common::{median, ms, time_reps, Metrics};
use crate::Args;

/// Step contexts captured by the timing wrapper (one entry per step).
#[derive(Debug, Default, Clone)]
pub struct Captured {
    pub prices: Vec<Vec<f64>>,
    pub offered: Vec<Vec<f64>>,
}

/// Wall-clock budget of one kernel measurement.
const KERNEL_BUDGET: Duration = Duration::from_millis(300);

/// Deterministic pseudo-random fill in `[-0.5, 0.5)` (kernel timings do
/// not depend on the values, only on the shapes).
fn fill(buf: &mut [f64], mut state: u64) {
    for v in buf {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *v = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
    }
}

/// Constraint rows of the banded skeleton for `problem`: per control stage
/// one conservation row per portal, one capacity row per IDC and one
/// non-negativity row per allocation entry, plus six storage families
/// (charge ±, discharge ±, SoC ±) of one row per IDC with a battery.
fn constraint_rows(config: &MpcConfig, problem: &MpcProblem) -> usize {
    let (n, c) = (problem.num_idcs(), problem.num_portals());
    let per_stage = c + n + n * c + if problem.storage.is_some() { 6 * n } else { 0 };
    config.control_horizon * per_stage
}

/// Working-set size of a plan: equality rows plus the non-negativity and
/// capacity rows the planned inputs sit on.
fn working_set(problem: &MpcProblem, delta_u: &[f64], beta2: usize) -> usize {
    let (n, c) = (problem.num_idcs(), problem.num_portals());
    let nb = problem.block_size();
    let mut u = problem.prev_input.clone();
    let mut active = beta2 * c;
    for t in 0..beta2 {
        for (idx, ui) in u.iter_mut().enumerate() {
            *ui += delta_u.get(t * nb + idx).copied().unwrap_or(0.0);
        }
        active += u.iter().filter(|&&v| v <= 1e-6).count();
        for j in 0..n {
            let load: f64 = u[j * c..(j + 1) * c].iter().sum();
            if load >= problem.capacities[j] * (1.0 - 1e-9) {
                active += 1;
            }
        }
    }
    active
}

/// `control.plan_ms_p50` and `control.plan_cold_ms`: replays the recorded
/// problems through a fresh controller in order (warm), then re-solves a
/// few of them from scratch. Returns the median working-set size of the
/// replayed plans.
pub fn control(layer: &mut Metrics, config: &MpcConfig, problems: &[MpcProblem]) -> usize {
    let _span = Span::enter_cat("perfbench.control", "perfbench");
    let budget = Duration::from_secs(3);
    let start = Instant::now();
    let mut controller = MpcController::new(*config);
    let mut warm = Vec::new();
    let mut sets = Vec::new();
    for (k, p) in problems.iter().enumerate() {
        if k >= 2 && start.elapsed() > budget {
            break;
        }
        let t0 = Instant::now();
        let plan = controller.plan(p);
        let dt = ms(t0.elapsed());
        if let Ok(plan) = plan {
            if k > 0 {
                warm.push(dt);
            }
            sets.push(working_set(p, plan.delta_u(), config.control_horizon) as f64);
        }
    }
    let stride = (problems.len() / 3).max(1);
    let cold: Vec<f64> = problems
        .iter()
        .step_by(stride)
        .take(3)
        .filter_map(|p| {
            let mut c = MpcController::new(*config);
            let t0 = Instant::now();
            c.plan_cold(p).ok().map(|_| ms(t0.elapsed()))
        })
        .collect();
    layer.put("control.plan_ms_p50", median(&warm), "ms");
    layer.put("control.plan_cold_ms", median(&cold), "ms");
    median(&sets).round().max(2.0) as usize
}

/// Kernel timings at the workload's shapes: the banded Hessian of a
/// recorded problem (block size × control-horizon blocks), its multi-RHS
/// row solve over every constraint row, one block-sized GEMM and the
/// working-set factor's append/remove. Flop and byte counts are computed
/// from the array sizes, not measured.
pub fn linalg(
    layer: &mut Metrics,
    config: &MpcConfig,
    problems: &[MpcProblem],
    working_set: usize,
    detail: &mut Vec<String>,
) {
    let _span = Span::enter_cat("perfbench.linalg", "perfbench");
    let problem = &problems[problems.len() / 2];
    let nb = problem.block_size();
    let t = config.control_horizon;
    let rows = constraint_rows(config, problem);
    let mut hessian: Option<BlockTridiag> = None;
    let mut skeleton = RiccatiSkeleton::build(config, problem).expect("recorded problem builds");
    skeleton
        .qp_mut()
        .update_hessian(|h| hessian = Some(h.clone()));
    let hessian = hessian.expect("closure ran");
    let mut ws = Workspace::new();
    let mut chol = BlockTridiagChol::new();
    let (nbf, tf, mf) = (nb as f64, t as f64, rows as f64);

    let chol_ms = median(&time_reps(KERNEL_BUDGET, 5, || {
        chol.refactor(&hessian, &mut ws).expect("SPD Hessian");
    }));
    let chol_flop = tf * nbf.powi(3) / 3.0 + (tf - 1.0) * 2.0 * nbf.powi(3);
    let chol_bytes = 16.0 * (2.0 * tf - 1.0) * nbf * nbf;

    let dim = nb * t;
    let mut rhs = vec![0.0; rows * dim];
    fill(&mut rhs, 7);
    let pristine = rhs.clone();
    let row_ms = median(&time_reps(KERNEL_BUDGET, 5, || {
        rhs.copy_from_slice(&pristine);
        chol.solve_rows_in_place(&mut rhs, rows, &mut ws);
    }));
    let row_flop = mf * 2.0 * (tf * nbf * nbf + 2.0 * (tf - 1.0) * nbf * nbf);
    let row_bytes = 8.0 * (2.0 * tf - 1.0) * nbf * nbf + 16.0 * mf * tf * nbf;

    let mut a = vec![0.0; nb * nb];
    let mut b = vec![0.0; nb * nb];
    let mut c = vec![0.0; nb * nb];
    fill(&mut a, 11);
    fill(&mut b, 13);
    let gemm_ms = median(&time_reps(KERNEL_BUDGET, 5, || {
        gemm_ws(nb, nb, nb, 1.0, &a, nb, &b, nb, 0.0, &mut c, nb, &mut ws);
    }));
    let gemm_flop = 2.0 * nbf.powi(3);
    let gemm_bytes = 32.0 * nbf * nbf;

    layer.put("linalg.block_chol_ms", chol_ms, "ms");
    layer.put("linalg.block_chol_mflop", chol_flop / 1e6, "Mflop");
    layer.put("linalg.block_chol_mbyte", chol_bytes / 1e6, "MB");
    layer.put("linalg.row_solve_ms", row_ms, "ms");
    layer.put("linalg.row_solve_mflop", row_flop / 1e6, "Mflop");
    layer.put("linalg.row_solve_mbyte", row_bytes / 1e6, "MB");
    layer.put("linalg.gemm_gflops", gemm_flop / (gemm_ms * 1e6), "Gflop/s");
    layer.put("linalg.gemm_mflop", gemm_flop / 1e6, "Mflop");
    layer.put("linalg.gemm_mbyte", gemm_bytes / 1e6, "MB");
    layer.put("linalg.chol_update_us", chol_update_us(working_set), "us");
    detail.push(format!(
        "\"linalg_shapes\": {{\"block_size\": {nb}, \"blocks\": {t}, \"constraint_rows\": {rows}, \
         \"working_set\": {working_set}, \"counts\": \"computed from array sizes\"}}"
    ));
}

/// Mean time of one `UpdatableCholesky::append` or `remove` on a factor
/// of dimension `m` (µs): each round appends one row and removes an
/// interior one, so the dimension stays at `m`.
fn chol_update_us(m: usize) -> f64 {
    // Diagonally dominant, so every principal submatrix stays SPD.
    let offdiag = |i: usize, j: usize| ((i * 31 + j * 17) % 97) as f64 / (97.0 * 4.0 * m as f64);
    let column = |row: usize, len: usize| -> Vec<f64> {
        let mut col: Vec<f64> = (0..len).map(|j| offdiag(row, j)).collect();
        col.push(2.0);
        col
    };
    let mut f = UpdatableCholesky::new();
    for i in 0..m {
        f.append(&column(i, i)).expect("dominant diagonal");
    }
    let col = column(m, m);
    let start = Instant::now();
    let mut rounds = 0u64;
    while rounds < 10 || start.elapsed() < KERNEL_BUDGET {
        f.append(&col).expect("dominant diagonal");
        f.remove(m / 2);
        rounds += 1;
    }
    start.elapsed().as_secs_f64() * 1e6 / (2 * rounds) as f64
}

/// Active-set counters per solve, from the public `SolveStats`.
pub fn opt(layer: &mut Metrics, stats: &SolveStats) {
    let per = |v: u64| v as f64 / stats.solves.max(1) as f64;
    layer.put("opt.qp_iterations_per_step", per(stats.iterations), "count");
    layer.put(
        "opt.constraints_added_per_step",
        per(stats.constraints_added),
        "count",
    );
    layer.put(
        "opt.constraints_dropped_per_step",
        per(stats.constraints_dropped),
        "count",
    );
    layer.put(
        "opt.refinement_passes_per_step",
        per(stats.refinement_passes),
        "count",
    );
    layer.put(
        "opt.refactorizations_per_step",
        per(stats.refactorizations),
        "count",
    );
    layer.put("opt.warm_seed_survival", stats.seed_survival(), "fraction");
}

/// One scenario's captured step contexts for the reference-LP replay.
pub struct ReferenceCase<'a> {
    pub idcs: &'a [IdcConfig],
    pub captured: &'a Captured,
    pub tariff: Option<DemandCharge>,
    /// Running billed peaks before each step (demand-charge LP input).
    pub peaks: &'a [Vec<f64>],
}

/// `control.reference_ms`: the reference LP (or its demand-charge
/// epigraph) re-solved on every captured step context.
pub fn reference(layer: &mut Metrics, cases: &[ReferenceCase<'_>]) {
    let _span = Span::enter_cat("perfbench.reference", "perfbench");
    let mut samples = Vec::new();
    let start = Instant::now();
    let mut passes = 0;
    while passes == 0 || start.elapsed() < KERNEL_BUDGET {
        passes += 1;
        for case in cases {
            let mut solver = ReferenceSolver::new();
            let zeros = vec![0.0; case.idcs.len()];
            for (k, (prices, offered)) in case
                .captured
                .prices
                .iter()
                .zip(&case.captured.offered)
                .enumerate()
            {
                let t0 = Instant::now();
                let ok = match &case.tariff {
                    Some(tariff) => {
                        let peaks = case.peaks.get(k).unwrap_or(&zeros);
                        solver
                            .optimal_with_demand_charge(case.idcs, offered, prices, tariff, peaks)
                            .is_ok()
                    }
                    None => solver.optimal(case.idcs, offered, prices).is_ok(),
                };
                if ok {
                    samples.push(ms(t0.elapsed()));
                }
            }
        }
    }
    layer.put("control.reference_ms", median(&samples), "ms");
}

/// `timeseries.predict_us`: one AR(3)+RLS `observe` plus a horizon
/// `forecast` per portal per step over the offered-load series.
pub fn predictor(layer: &mut Metrics, captured: &[&Captured]) {
    let _span = Span::enter_cat("perfbench.predictor", "perfbench");
    let horizon = idc_control::mpc::MpcConfig::default().prediction_horizon;
    let start = Instant::now();
    let mut calls = 0u64;
    let mut sink = 0.0;
    let mut passes = 0;
    while passes == 0 || start.elapsed() < KERNEL_BUDGET {
        passes += 1;
        for c in captured {
            let portals = c.offered.first().map_or(0, Vec::len);
            for i in 0..portals {
                let mut p = WorkloadPredictor::new(3).expect("order 3");
                for step in &c.offered {
                    p.observe(step[i]);
                    sink += p.forecast(horizon)[0];
                    calls += 1;
                }
            }
        }
    }
    std::hint::black_box(sink);
    layer.put(
        "timeseries.predict_us",
        start.elapsed().as_secs_f64() * 1e6 / calls as f64,
        "us",
    );
}

/// `runtime.step_once_us`, `runtime.snapshot_ms` and
/// `runtime.snapshot_bytes` from solo steppers over `keys`. Returns the
/// metrics registry the steppers filled.
pub fn runtime_solo(
    layer: &mut Metrics,
    args: &Args,
    keys: &[&str],
    backend: Option<&str>,
) -> Result<Arc<MetricsRegistry>, String> {
    let _span = Span::enter_cat("perfbench.runtime", "perfbench");
    let per_key = Duration::from_secs_f64(1.5 / keys.len() as f64);
    let dir = args
        .out_dir
        .join(format!("lineage-solo-{}", std::process::id()));
    let lineage = CheckpointLineage::open(&dir, 2).map_err(|e| e.to_string())?;
    let mut steps = Vec::new();
    let mut snaps = Vec::new();
    let mut bytes = Vec::new();
    let registry = Arc::new(MetricsRegistry::new());
    for (i, key) in keys.iter().enumerate() {
        let mut config = StepperConfig::fault_free(key, args.seed.wrapping_add(i as u64));
        config.backend = backend.map(str::to_string);
        let mut stepper = Stepper::new(config).map_err(|e| e.to_string())?;
        stepper.attach_metrics(Arc::clone(&registry));
        let start = Instant::now();
        let mut k = 0;
        while !stepper.is_finished() && (k < 3 || start.elapsed() < per_key) {
            let t0 = Instant::now();
            stepper.step_once().map_err(|e| e.to_string())?;
            if k > 0 {
                steps.push(t0.elapsed().as_secs_f64() * 1e6);
            }
            k += 1;
        }
        for _ in 0..3 {
            let t0 = Instant::now();
            let snapshot = stepper.snapshot();
            lineage.record(&snapshot).map_err(|e| e.to_string())?;
            snaps.push(ms(t0.elapsed()));
            bytes.push(snapshot.to_json().map_err(|e| e.to_string())?.len() as f64);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    layer.put("runtime.step_once_us", median(&steps), "us");
    layer.put("runtime.snapshot_ms", median(&snaps), "ms");
    layer.put("runtime.snapshot_bytes", median(&bytes), "bytes");
    Ok(registry)
}

/// `runtime.render_ms`: one Prometheus rendering of `registry` plus one
/// `/tenants` JSON rendering of `board`.
pub fn render(layer: &mut Metrics, registry: &MetricsRegistry, board: &StatusBoard) {
    let _span = Span::enter_cat("perfbench.render", "perfbench");
    let samples = time_reps(Duration::from_millis(200), 10, || {
        std::hint::black_box(registry.render_prometheus());
        std::hint::black_box(board.render_json());
    });
    layer.put("runtime.render_ms", median(&samples), "ms");
}

/// Writes the recorded spans as a Chrome trace; returns the detail entry.
pub fn write_trace(args: &Args, recorder: &FlightRecorder) -> Result<String, String> {
    let events = recorder.snapshot();
    let path = args
        .out_dir
        .join(format!("{}-seed{}.trace.json", args.workload, args.seed));
    std::fs::write(&path, idc_obs::chrome_trace(&events)).map_err(|e| e.to_string())?;
    Ok(format!(
        "\"chrome_trace\": {{\"path\": {}, \"events\": {}, \"dropped\": {}}}",
        crate::common::json_str(&path.display().to_string()),
        events.len(),
        recorder.dropped()
    ))
}
