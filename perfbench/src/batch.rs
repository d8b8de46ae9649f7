//! The two batch workloads: a closed loop of the paper's MPC policy on
//! the `banded` backend through the batch [`Simulator`].
//!
//! * `fleet_12x24` — registry key `scaled_12x24` (noisy day, 5-minute
//!   steps, 3 % noise) from a cold start at midnight to 9:00. The first
//!   four hours warm the policy up and are neither timed nor scored: its
//!   AR predictor leaves persistence after `predictor_order + 1`
//!   observations, the policy often falls back on that step, and the
//!   plans stay far cheaper than a running controller's for an hour or
//!   more after. The scored five hours from 4:00 straddle the 7H price
//!   flip.
//! * `storage_8x15` — `scaled_8x15` with a [`paper_test_battery`] at every
//!   IDC and the typical commercial demand charge: two draws of the whole
//!   day, as a running controller sees it, cold start included.
//!
//! A run is one or more independent *draws*, each a scenario with its own
//! noise seed (`seed·draws + i`).
//!
//! Every timed pass is a *validating* simulator run, so the output checks
//! of `idc-testkit` run on each draw's first pass after the clock stops,
//! and every later pass must reproduce its draw's cost bit for bit.
//!
//! The QP work of a step slows down with the host state that the dense
//! [`Calibration`] kernel follows, so one sample of it runs before every
//! timed step, and the gated step and set-up times are the CPU times
//! scaled by the samples' speed factor.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use idc_control::mpc::{MpcConfig, MpcProblem};
use idc_core::metrics::SolveStats;
use idc_core::policy::{Decision, MpcPolicy, MpcPolicyConfig, Policy, StepContext};
use idc_core::scenario::Scenario;
use idc_core::simulation::{SimulationResult, Simulator};
use idc_core::SolverBackend;
use idc_datacenter::idc::LatencyStatus;
use idc_market::tariff::DemandCharge;
use idc_obs::FlightRecorder;
use idc_storage::{paper_test_battery, StorageFleet};
use idc_testkit::invariants::{check_run, Tolerances};

use crate::common::{median, ms, tail, Calibration, Metrics, Stamp};
use crate::layers::{self, Captured};
use crate::{Args, Outcome};

/// Set-up samples per run: every pass gives one, and one-step runs of
/// further draws top them up to this count.
const SETUP_SAMPLES: usize = 11;

/// How a workload's run is cut: `draws` scenarios of `prefix + scored`
/// steps from midnight, of which the first `prefix` warm the policy up.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub draws: u64,
    pub prefix: usize,
    pub scored: usize,
    key: &'static str,
}

impl Shape {
    pub fn of(workload: &str, tiny: bool) -> Shape {
        // The tiny variants keep every code path (warm-up prefix, window,
        // storage, tariff) at a size the self-test runs in seconds.
        let (draws, prefix, scored, key) = match (workload, tiny) {
            // The flip at 7H lands on the 37th scored step.
            ("fleet_12x24", false) => (1, 48, 60, "scaled_12x24"),
            ("fleet_12x24", true) => (1, 48, 12, "scaled_3x4"),
            (_, false) => (2, 0, 288, "scaled_8x15"),
            (_, true) => (1, 0, 288, "scaled_2x3"),
        };
        Shape {
            draws,
            prefix,
            scored,
            key,
        }
    }

    pub fn steps(&self) -> usize {
        self.prefix + self.scored
    }

    /// First step whose time counts: the scored range, without the cold
    /// first step of a pass.
    pub fn timed_from(&self) -> usize {
        self.prefix.max(1)
    }
}

/// Draw `draw` of the workload, with noise seed `seed`.
pub fn scenario(workload: &str, seed: u64, tiny: bool) -> Scenario {
    let shape = Shape::of(workload, tiny);
    let day = idc_runtime::registry::scenario_by_key(shape.key, seed, Some(shape.steps()))
        .expect("scaled keys resolve");
    if workload == "fleet_12x24" {
        return day;
    }
    let n = day.fleet().num_idcs();
    day.with_storage(StorageFleet::uniform(n, paper_test_battery()).expect("n ≥ 1"))
        .expect("one battery per IDC")
        .with_demand_charge(DemandCharge::typical_commercial())
}

/// The paper-tuned policy for `scenario`, pinned to the banded backend.
pub fn policy(scenario: &Scenario, record_problems: bool) -> idc_core::Result<MpcPolicy> {
    MpcPolicy::new(MpcPolicyConfig {
        mpc: mpc_config(),
        budgets: scenario.budgets().cloned(),
        storage: scenario.storage().cloned(),
        demand_charge: scenario.demand_charge().copied(),
        record_problems,
        ..MpcPolicyConfig::default()
    })
}

fn mpc_config() -> MpcConfig {
    MpcConfig {
        backend: SolverBackend::BandedRiccati,
        ..MpcConfig::default()
    }
}

/// A timing wrapper around [`Policy::decide`]: the entry of every decide
/// call is a step boundary, so a step runs from one decide's start to the
/// next decide's entry (decision plus the simulator's plant accounting).
/// With a [`Calibration`], one sample of it runs at every boundary after
/// the first step, outside both steps.
struct Timed {
    inner: MpcPolicy,
    starts: Vec<Stamp>,
    /// When each step ended: the entry of the next decide call.
    ends: Vec<Stamp>,
    decide_ms: Vec<f64>,
    calibration: Option<Calibration>,
    /// One calibration sample per step after the first, taken just
    /// before it.
    calib_ms: Vec<f64>,
    captured: Option<Captured>,
    /// When set, bound as the thread's recorder for the odd steps only.
    alternate: Option<Arc<FlightRecorder>>,
}

impl Policy for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn initialize(&mut self, ctx: &StepContext<'_>) -> idc_core::Result<()> {
        self.inner.initialize(ctx)
    }

    fn decide(&mut self, ctx: &StepContext<'_>) -> idc_core::Result<Decision> {
        if let Some(rec) = &self.alternate {
            let odd = self.starts.len() % 2 == 1;
            idc_obs::bind_thread_recorder(odd.then(|| Arc::clone(rec)));
        }
        if !self.starts.is_empty() {
            self.ends.push(Stamp::now());
            if let Some(c) = self.calibration.as_mut() {
                self.calib_ms.push(c.sample());
            }
        }
        let t0 = Stamp::now();
        self.starts.push(t0);
        if let Some(c) = self.captured.as_mut() {
            c.prices.push(ctx.prices.clone());
            c.offered.push(ctx.offered.clone());
        }
        let decision = {
            let _span = idc_obs::Span::enter_cat("perfbench.decide", "perfbench");
            self.inner.decide(ctx)
        };
        self.decide_ms.push(ms(t0.wall.elapsed()));
        decision
    }
}

/// One closed-loop pass. The policy itself is dropped when the pass ends,
/// so the process holds one controller's caches at a time.
pub struct Pass {
    pub result: idc_core::Result<SimulationResult>,
    /// Wall time of every timed step (ms).
    pub step_ms: Vec<f64>,
    /// CPU time of the same steps (ms).
    pub step_cpu_ms: Vec<f64>,
    /// Decide time of the same steps (ms).
    pub decide_ms: Vec<f64>,
    /// When the first, cold step ended.
    pub first_step_done: Stamp,
    /// Calibration samples taken before the timed steps (empty when the
    /// pass ran without calibration).
    pub calib_ms: Vec<f64>,
    /// Steps the policy served from its fallback.
    pub fallback_steps: Vec<usize>,
    /// The policy's active-set counters over the pass.
    pub stats: SolveStats,
    /// The per-step QP problems, when the policy recorded them.
    pub problems: Vec<MpcProblem>,
    pub captured: Option<Captured>,
}

/// Runs one validating pass of `scenario` under `policy`, timing the steps
/// from `timed_from` on (at least 1: the cold first step is set-up), with
/// a calibration sample before every step when `calibrate` is set. With
/// `alternate`, the odd steps run with that recorder bound and the even
/// ones without; the thread is left without a recorder.
pub fn run_pass(
    scenario: &Scenario,
    policy: MpcPolicy,
    capture: bool,
    calibrate: bool,
    timed_from: usize,
    alternate: Option<&Arc<FlightRecorder>>,
) -> Pass {
    let mut timed = Timed {
        inner: policy,
        starts: Vec::new(),
        ends: Vec::new(),
        decide_ms: Vec::new(),
        calibration: calibrate.then(Calibration::dense),
        calib_ms: Vec::new(),
        captured: capture.then(Captured::default),
        alternate: alternate.cloned(),
    };
    let result = {
        let _span = idc_obs::Span::enter_cat("perfbench.pass", "perfbench");
        Simulator::with_validation().run(scenario, &mut timed)
    };
    let end = Stamp::now();
    if alternate.is_some() {
        idc_obs::bind_thread_recorder(None);
    }
    timed.ends.push(end);
    let from = timed_from.max(1);
    let (step_ms, step_cpu_ms) = timed
        .starts
        .iter()
        .zip(&timed.ends)
        .skip(from)
        .map(|(s, e)| s.ms_to(e))
        .unzip();
    let decide_ms = timed.decide_ms.iter().skip(from).copied().collect();
    Pass {
        result,
        step_ms,
        step_cpu_ms,
        decide_ms,
        first_step_done: timed.ends[0],
        calib_ms: timed.calib_ms.iter().skip(from - 1).copied().collect(),
        fallback_steps: timed.inner.fallback_steps().to_vec(),
        stats: timed.inner.solve_stats(),
        problems: timed.inner.recorded_problems().to_vec(),
        captured: timed.captured,
    }
}

/// Σ|ΔP| and the number of transitions over every IDC's series (MW), the
/// paper's smoothing measure, skipping the transitions into and out of
/// `skip`ped steps (policy fallbacks, which `ok_frac` counts instead).
pub fn power_swing(series: &[&[f64]], skip: &BTreeSet<usize>) -> (f64, usize) {
    let mut sum = 0.0;
    let mut count = 0;
    for s in series {
        for k in 1..s.len() {
            if !skip.contains(&k) && !skip.contains(&(k - 1)) {
                sum += (s[k] - s[k - 1]).abs();
                count += 1;
            }
        }
    }
    (sum, count)
}

/// Σ over IDCs of each IDC's maximum grid draw (MW), the billed peak,
/// over every step but the `skip`ped ones.
pub fn peak_sum(series: &[&[f64]], skip: &BTreeSet<usize>) -> f64 {
    series
        .iter()
        .map(|s| {
            s.iter()
                .enumerate()
                .filter(|(k, _)| !skip.contains(k))
                .fold(0.0, |m, (_, &p)| f64::max(m, p))
        })
        .sum()
}

/// Closed-loop figures of one draw over its scored steps.
#[derive(Debug, Default)]
struct Score {
    cost: f64,
    swing_sum: f64,
    swing_count: usize,
    peak: f64,
    latency_ok: usize,
    idc_steps: usize,
}

/// Scores the steps from `from` on; `skip` holds the policy fallbacks,
/// relative to `from`, that swing and peak leave out.
fn score(sc: &Scenario, r: &SimulationResult, from: usize, skip: &BTreeSet<usize>) -> Score {
    let before = |series: &[f64]| from.checked_sub(1).map_or(0.0, |k| series[k]);
    let last = |series: &[f64]| series.last().copied().unwrap_or(0.0);
    let energy = r.cost_cumulative();
    let mut cost = last(energy) - before(energy);
    if let Some(dc) = r.demand_charge_cumulative() {
        cost += last(dc) - before(dc);
    }
    let series: Vec<&[f64]> = (0..r.num_idcs()).map(|j| &r.power_mw(j)[from..]).collect();
    let (swing_sum, swing_count) = power_swing(&series, skip);
    let mut latency_ok = 0;
    let mut idc_steps = 0;
    for (j, idc) in sc.fleet().idcs().iter().enumerate() {
        for k in from..r.times_min().len() {
            idc_steps += 1;
            if idc.latency_status(r.servers(j)[k], r.workload(j)[k]) == LatencyStatus::WithinBound {
                latency_ok += 1;
            }
        }
    }
    Score {
        cost,
        swing_sum,
        swing_count,
        peak: peak_sum(&series, skip),
        latency_ok,
        idc_steps,
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let err = |e: idc_core::Error| e.to_string();
    let shape = Shape::of(&args.workload, args.tiny);
    let draw_seeds: Vec<u64> = (0..shape.draws)
        .map(|i| args.seed.wrapping_mul(shape.draws).wrapping_add(i))
        .collect();
    let scenarios: Vec<Scenario> = draw_seeds
        .iter()
        .map(|&s| scenario(&args.workload, s, args.tiny))
        .collect();

    // Timed passes: every draw once, then further passes in draw order
    // while another one fits the budget. The traced run only makes each
    // draw's first pass, the first of them with a flight recorder bound on
    // every other step, so that traced and untraced steps interleave and
    // drift of the host cancels out of the tracing overhead; then it
    // measures the layers.
    let recorder = args.trace.then(|| Arc::new(FlightRecorder::new(1 << 20)));
    let budget = Duration::from_secs_f64(args.seconds);
    let t_start = Instant::now();
    let mut firsts: Vec<Pass> = Vec::new();
    // Set-up samples: scenario and policy construction through the end of
    // the first, cold step of every pass.
    let (mut setup, mut setup_wall) = (Vec::new(), Vec::new());
    let mut step_ms = Vec::new();
    let mut step_cpu_ms = Vec::new();
    let mut decide_ms = Vec::new();
    let mut calib_ms = Vec::new();
    let mut passes = 0usize;
    let mut mismatched_passes = 0usize;
    for (i, &seed) in draw_seeds.iter().enumerate().cycle() {
        let first = firsts.len() == i;
        let elapsed = t_start.elapsed().as_secs_f64();
        let per_pass = elapsed / passes.max(1) as f64;
        if !first && (args.trace || elapsed + per_pass > budget.as_secs_f64()) {
            break;
        }
        let capture = args.trace && first;
        let t0 = Stamp::now();
        let sc = scenario(&args.workload, seed, args.tiny);
        let pass = run_pass(
            &sc,
            policy(&sc, capture).map_err(err)?,
            capture,
            true,
            shape.timed_from(),
            recorder.as_ref().filter(|_| first && i == 0),
        );
        let (wall, cpu) = t0.ms_to(&pass.first_step_done);
        setup.push(cpu / 1e3);
        setup_wall.push(wall / 1e3);
        passes += 1;
        step_ms.extend(&pass.step_ms);
        step_cpu_ms.extend(&pass.step_cpu_ms);
        decide_ms.extend(&pass.decide_ms);
        calib_ms.extend(&pass.calib_ms);
        if first {
            firsts.push(pass);
        } else if cost_bits(&pass) != cost_bits(&firsts[i]) {
            mismatched_passes += 1;
        }
    }
    let timed_wall = t_start.elapsed().as_secs_f64();
    // Top up the set-up samples with one-step runs of further draws: the
    // cold first step's cost depends on the draw's noise, so the median
    // spans many draws. Their seeds sit 2^32 above the timed draws' so
    // that they never repeat one of a nearby run seed.
    for j in 0..SETUP_SAMPLES.saturating_sub(setup.len()) as u64 {
        let seed = args
            .seed
            .wrapping_mul(SETUP_SAMPLES as u64)
            .wrapping_add(j)
            .wrapping_add(1 << 32);
        let t0 = Stamp::now();
        let sc = scenario(&args.workload, seed, args.tiny).with_num_steps(1);
        let pass = run_pass(&sc, policy(&sc, false).map_err(err)?, false, false, 1, None);
        let (wall, cpu) = t0.ms_to(&pass.first_step_done);
        setup.push(cpu / 1e3);
        setup_wall.push(wall / 1e3);
    }

    // ---- Output checks on each draw's first pass, after the clock. ----
    let mut notes = Vec::new();
    let mut hard_failures = 0usize;
    let mut attempted_steps = 0usize;
    let mut failed_steps = 0usize;
    let mut total = Score::default();
    let mut fallbacks_by_draw = Vec::new();
    for (sc, first) in scenarios.iter().zip(&firsts) {
        attempted_steps += shape.scored;
        fallbacks_by_draw.push(format!("{:?}", first.fallback_steps));
        // Fallbacks and invariant violations of the scored steps, counted
        // from the first scored step.
        let scored = |k: &usize| k.checked_sub(shape.prefix);
        let fallbacks: BTreeSet<usize> = first.fallback_steps.iter().filter_map(scored).collect();
        let mut failed = fallbacks.clone();
        match &first.result {
            Ok(r) => {
                let report = check_run(sc, r, &Tolerances::default());
                failed.extend(
                    report
                        .violations
                        .iter()
                        .map(|v| v.step)
                        .filter_map(|k| scored(&k)),
                );
                if let Some(v) = report.violations.first() {
                    notes.push(format!(
                        "{}: {} invariant violations, first: {v:?}",
                        sc.name(),
                        report.violations.len()
                    ));
                }
                let s = score(sc, r, shape.prefix, &fallbacks);
                total.cost += s.cost;
                total.swing_sum += s.swing_sum;
                total.swing_count += s.swing_count;
                total.peak += s.peak;
                total.latency_ok += s.latency_ok;
                total.idc_steps += s.idc_steps;
            }
            Err(e) => {
                // The pass stopped at the failing step; every scored step
                // counts as failed.
                hard_failures += 1;
                failed.extend(0..shape.scored);
                total.cost = f64::NAN;
                notes.push(format!("{}: closed loop failed: {e}", sc.name()));
            }
        }
        failed_steps += failed.len();
    }
    if mismatched_passes > 0 {
        // A pass that does not reproduce its draw's first pass invalidates
        // every step the run timed.
        failed_steps = attempted_steps;
        notes.push(format!(
            "{mismatched_passes} passes diverged from their draw's first pass"
        ));
    }
    let failed_frac = failed_steps as f64 / attempted_steps as f64;

    let mut e2e = Metrics::default();
    let st = tail(&step_ms);
    let sct = tail(&step_cpu_ms);
    e2e.put("step_ms_p50", median(&step_ms), "ms");
    e2e.put("step_ms_tail", st.value, "ms");
    e2e.put("step_cpu_ms_p50", median(&step_cpu_ms), "ms");
    e2e.put("step_cpu_ms_tail", sct.value, "ms");
    let per_s = |ms: &[f64]| ms.len() as f64 / (ms.iter().sum::<f64>() / 1e3);
    e2e.put("steps_per_s", per_s(&step_ms), "1/s");
    e2e.put("steps_per_cpu_s", per_s(&step_cpu_ms), "1/s");
    let dense = Calibration::dense();
    let speed = dense.speed_factor(&calib_ms);
    e2e.put("step_ref_ms_p50", median(&step_cpu_ms) * speed, "ms");
    e2e.put("step_ref_ms_tail", sct.value * speed, "ms");
    e2e.put("steps_per_ref_s", per_s(&step_cpu_ms) / speed, "1/s");
    e2e.put("setup_s", median(&setup) * speed, "s");
    e2e.put("setup_cpu_s", median(&setup), "s");
    e2e.put("setup_wall_s", median(&setup_wall), "s");
    e2e.put("cost_usd", total.cost, "usd");
    e2e.put(
        "power_swing_mw",
        total.swing_sum / total.swing_count as f64,
        "MW",
    );
    e2e.put("peak_mw", total.peak, "MW");
    e2e.put(
        "latency_ok_frac",
        total.latency_ok as f64 / total.idc_steps as f64,
        "fraction",
    );
    e2e.put("failed_frac", failed_frac, "fraction");
    e2e.put("ok_frac", 1.0 - failed_frac, "fraction");

    let mut detail = vec![
        format!("\"draw_seeds\": {draw_seeds:?}"),
        format!(
            "\"steps_per_pass\": {{\"warm_up\": {}, \"scored\": {}}}",
            shape.prefix, shape.scored
        ),
        format!("\"passes\": {passes}"),
        format!("\"fallback_steps\": [{}]", fallbacks_by_draw.join(", ")),
        st.detail("step_ms_tail"),
        sct.detail("step_cpu_ms_tail"),
        format!("\"setup_cpu_samples_s\": {setup:?}"),
        dense.detail("calibration", &calib_ms),
    ];

    let mut layer = Metrics::default();
    if let Some(rec) = recorder {
        let from = shape.timed_from();
        let mut by_parity = [Vec::new(), Vec::new()];
        for (i, &t) in firsts[0].step_cpu_ms.iter().enumerate() {
            by_parity[(from + i) % 2].push(t);
        }
        let (untraced, traced) = (median(&by_parity[0]), median(&by_parity[1]));
        idc_obs::bind_thread_recorder(Some(Arc::clone(&rec)));
        layer.put("trace.overhead_ms", traced - untraced, "ms");
        layer.put(
            "trace.overhead_frac",
            (traced - untraced) / untraced,
            "fraction",
        );

        let first = &firsts[0];
        let problems = &first.problems;
        let captured = first.captured.as_ref().expect("first passes capture");
        let peaks = first.result.as_ref().map(running_peaks).unwrap_or_default();
        let working_set = layers::control(&mut layer, &mpc_config(), problems);
        layers::linalg(
            &mut layer,
            &mpc_config(),
            problems,
            working_set,
            &mut detail,
        );
        let mut stats = SolveStats::default();
        for p in &firsts {
            stats.merge(&p.stats);
        }
        layers::opt(&mut layer, &stats);
        layers::reference(
            &mut layer,
            &[layers::ReferenceCase {
                idcs: scenarios[0].fleet().idcs(),
                captured,
                tariff: scenarios[0].demand_charge().copied(),
                peaks: &peaks,
            }],
        );
        layers::predictor(&mut layer, &[captured]);
        layer.put("core.decide_ms", median(&decide_ms), "ms");
        let plant: Vec<f64> = step_ms.iter().zip(&decide_ms).map(|(s, d)| s - d).collect();
        layer.put("core.plant_ms", median(&plant), "ms");
        let registry =
            layers::runtime_solo(&mut layer, args, &[runtime_key(args)], Some("banded"))?;
        layer.put(
            "runtime.worker_busy_frac",
            step_ms.iter().sum::<f64>() / 1e3 / timed_wall,
            "fraction",
        );
        layers::render(
            &mut layer,
            &registry,
            &idc_runtime::tenant::StatusBoard::default(),
        );
        idc_obs::bind_thread_recorder(None);
        detail.push(layers::write_trace(args, &rec)?);
    }

    Ok(Outcome {
        correct: hard_failures == 0 && e2e.all_finite() && layer.all_finite(),
        attempted: passes * shape.scored,
        failed: hard_failures,
        e2e,
        layer,
        detail,
        notes,
    })
}

/// The registry key whose solo stepper measures the runtime layer at this
/// workload's fleet size (the runtime hosts no storage, so the storage
/// workload's key is its plain fleet).
fn runtime_key(args: &Args) -> &'static str {
    Shape::of(&args.workload, args.tiny).key
}

fn cost_bits(pass: &Pass) -> Option<u64> {
    pass.result
        .as_ref()
        .ok()
        .map(|r| r.total_cost_with_demand_charges().to_bits())
}

/// Per-step running billed peaks before each step (MW), the demand-charge
/// LP's `peak_so_far` input.
pub fn running_peaks(r: &SimulationResult) -> Vec<Vec<f64>> {
    let n = r.num_idcs();
    let steps = r.times_min().len();
    let mut peak = vec![0.0f64; n];
    let mut out = Vec::with_capacity(steps);
    for k in 0..steps {
        out.push(peak.clone());
        for (j, p) in peak.iter_mut().enumerate() {
            *p = p.max(r.power_mw(j)[k]);
        }
    }
    out
}
