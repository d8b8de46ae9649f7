//! The `tenants_paper` workload: a [`TenantManager`] with two workers
//! hosting fault-free paper-scale tenants that cycle through every
//! registry scenario (storage keys included), each with its own seed, at
//! maximum speed and with periodic checkpoints to a scratch lineage root.
//! One HTTP client scrapes `/metrics` and `/tenants` on a fixed schedule.
//!
//! The population is run to completion in rounds until the time budget is
//! spent; every round must reproduce the first one exactly. The per-step
//! timings come from replaying the hosted tenants' per-step work on a
//! solo [`Stepper`], one tenant after each round. After the clock stops,
//! every tenant's online cost is compared with the batch
//! [`Simulator`](idc_core::simulation::Simulator) on the same key and seed.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use idc_core::metrics::SolveStats;
use idc_core::policy::{MpcPolicy, MpcPolicyConfig};
use idc_core::scenario::Scenario;
use idc_runtime::http::{MetricsServer, StatusRenderer};
use idc_runtime::lineage::CheckpointLineage;
use idc_runtime::metrics::MetricsRegistry;
use idc_runtime::registry::{scenario_by_key, SCENARIO_KEYS};
use idc_runtime::snapshot::RuntimeSnapshot;
use idc_runtime::stepper::{Stepper, StepperConfig};
use idc_runtime::tenant::{ManagerConfig, StatusBoard, TenantManager, TenantSpec};

use crate::batch::{peak_sum, power_swing, run_pass, Pass};
use crate::common::{median, tail, Calibration, Metrics, Stamp};
use crate::layers::{self, ReferenceCase};
use crate::scrape::Scraper;
use crate::{Args, Outcome};

/// Worker threads of the manager.
const WORKERS: usize = 2;
/// Steps between periodic checkpoints of every tenant.
const CHECKPOINT_EVERY: u64 = 16;
/// Scrape period of `/metrics` and `/tenants` (alternating).
const SCRAPE_PERIOD: Duration = Duration::from_millis(50);
/// Samples of the memory calibration kernel taken after every round.
const CALIB_SAMPLES: usize = 8;
/// Admissions timed for `setup_s` (the median is reported).
const SETUP_REPS: usize = 9;
/// Seeds stay below 2^53 so they survive the JSON number space of
/// checkpoints unchanged.
const SEED_MASK: u64 = (1 << 53) - 1;

/// The tenant population for `seed`: two passes over every registry key
/// (one in the tiny self-test variant, with shortened runs).
pub fn population(seed: u64, tiny: bool) -> Vec<TenantSpec> {
    let count = if tiny {
        SCENARIO_KEYS.len()
    } else {
        2 * SCENARIO_KEYS.len()
    };
    (0..count)
        .map(|i| {
            let key = SCENARIO_KEYS[i % SCENARIO_KEYS.len()];
            let tenant_seed =
                seed.wrapping_mul(1_000_003).wrapping_add(7919 * i as u64) & SEED_MASK;
            let mut config = StepperConfig::fault_free(key, tenant_seed);
            if tiny {
                config.num_steps = Some(12);
            }
            TenantSpec {
                id: format!("t{i:02}-{key}"),
                config,
                speedup: 0.0,
                checkpoint_every: CHECKPOINT_EVERY,
            }
        })
        .collect()
}

fn manager(dir: &Path, slice_steps: u64, stop_after: Option<u64>) -> TenantManager {
    TenantManager::new(ManagerConfig {
        workers: WORKERS,
        slice_steps,
        checkpoint_root: Some(dir.to_path_buf()),
        keep_last: 2,
        stop_after_total_steps: stop_after,
        ..ManagerConfig::default()
    })
}

/// Wall and CPU milliseconds of one tenant's steps (all but the cold
/// first one).
#[derive(Debug, Default)]
struct StepTimes {
    wall_ms: Vec<f64>,
    cpu_ms: Vec<f64>,
}

impl StepTimes {
    fn extend(&mut self, other: StepTimes) {
        self.wall_ms.extend(other.wall_ms);
        self.cpu_ms.extend(other.cpu_ms);
    }
}

/// Replays one hosted tenant's per-step work as a manager worker does it,
/// on a solo [`Stepper`]: `step_once`, plus `snapshot` →
/// [`CheckpointLineage::record`] on checkpoint steps and at the end, into
/// a scratch lineage under `dir`. The CPU time is the calling thread's, so
/// the scraper and the HTTP server do not count.
fn solo_replay(spec: &TenantSpec, dir: &Path) -> Result<StepTimes, String> {
    let e = |e: idc_runtime::Error| e.to_string();
    let lineage = CheckpointLineage::open(dir, 2).map_err(e)?;
    let mut stepper = Stepper::new(spec.config.clone()).map_err(e)?;
    let mut times = StepTimes::default();
    while !stepper.is_finished() {
        let t0 = Stamp::now_thread();
        stepper.step_once().map_err(e)?;
        let step = stepper.step();
        if spec.checkpoint_every > 0 && step.is_multiple_of(spec.checkpoint_every) {
            lineage.record(&stepper.snapshot()).map_err(e)?;
        }
        if stepper.is_finished() {
            lineage.record(&stepper.snapshot()).map_err(e)?;
        }
        let (wall, cpu) = t0.ms_to(&Stamp::now_thread());
        if step > 1 {
            times.wall_ms.push(wall);
            times.cpu_ms.push(cpu);
        }
    }
    let _ = std::fs::remove_dir_all(dir);
    Ok(times)
}

/// The batch scenario a tenant's online run must match.
fn batch_scenario(spec: &TenantSpec) -> Scenario {
    scenario_by_key(
        &spec.config.scenario_key,
        spec.config.seed,
        spec.config.num_steps,
    )
    .expect("registry key")
}

/// The paper-tuned policy (default backend), as the batch reference.
fn batch_policy(scenario: &Scenario, record: bool) -> idc_core::Result<MpcPolicy> {
    MpcPolicy::new(MpcPolicyConfig {
        budgets: scenario.budgets().cloned(),
        storage: scenario.storage().cloned(),
        demand_charge: scenario.demand_charge().copied(),
        record_problems: record,
        ..MpcPolicyConfig::default()
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let specs = population(args.seed, args.tiny);
    let pid = std::process::id();
    let scratch = |tag: String| args.out_dir.join(format!("lineage-{pid}-{tag}"));

    // ---- Set-up: admission of the whole population through every
    // tenant's first, cold step (one-step slices, stopped after one step
    // per tenant). ----
    let (mut setup, mut setup_wall) = (Vec::new(), Vec::new());
    for rep in 0..SETUP_REPS {
        let dir = scratch(format!("setup{rep}"));
        let t0 = Stamp::now();
        let mut m = manager(&dir, 1, Some(specs.len() as u64));
        for spec in &specs {
            m.add_tenant(spec.clone()).map_err(|e| e.to_string())?;
        }
        m.run().map_err(|e| e.to_string())?;
        let (wall, cpu) = t0.ms_to(&Stamp::now());
        setup.push(cpu / 1e3);
        setup_wall.push(wall / 1e3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- Timed rounds with the scraper running. ----
    let registry = Arc::new(MetricsRegistry::new());
    let board = Arc::new(Mutex::new(StatusBoard::default()));
    let renderer: Arc<StatusRenderer> = {
        let board = Arc::clone(&board);
        Arc::new(move |id: &str| {
            let b = board.lock().expect("board slot").clone();
            if id.is_empty() {
                Some(b.render_json())
            } else {
                b.render_tenant_json(id)
            }
        })
    };
    let server = MetricsServer::start_with_status("127.0.0.1:0", Arc::clone(&registry), renderer)
        .map_err(|e| format!("metrics endpoint: {e}"))?;
    let scraper = Scraper::start(server.addr(), &["/metrics", "/tenants"], SCRAPE_PERIOD);
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut rounds = 0usize;
    let mut total_steps = 0u64;
    let (mut run_wall, mut run_cpu) = (0.0, 0.0);
    let mut reference: Vec<RuntimeSnapshot> = Vec::new();
    let mut diverged_rounds = 0usize;
    // One tenant's solo replay follows each round, cycling through the
    // population, so the per-step timings sample the whole run rather
    // than one moment of a shared host; tenants the rounds did not reach
    // are replayed once the clock stops.
    let mut solo = StepTimes::default();
    let mut replayed = 0usize;
    let mut calibration = Calibration::memory();
    let mut calib_ms = Vec::new();
    while rounds == 0 || start.elapsed() < budget {
        let dir = scratch(format!("r{rounds}"));
        let mut m = manager(&dir, 0, None);
        m.attach_metrics(Arc::clone(&registry));
        *board.lock().expect("board slot") = m.status_board();
        for spec in &specs {
            m.add_tenant(spec.clone()).map_err(|e| e.to_string())?;
        }
        let t0 = Stamp::now();
        let report = m.run().map_err(|e| e.to_string())?;
        let (wall, cpu) = t0.ms_to(&Stamp::now());
        run_wall += wall / 1e3;
        run_cpu += cpu / 1e3;
        total_steps += report.total_steps;
        let snaps: Vec<RuntimeSnapshot> = specs
            .iter()
            .map(|s| m.snapshot(&s.id).expect("hosted tenant"))
            .collect();
        if rounds == 0 {
            reference = snaps;
        } else if snaps != reference {
            diverged_rounds += 1;
        }
        let _ = std::fs::remove_dir_all(&dir);
        rounds += 1;
        calib_ms.extend((0..CALIB_SAMPLES).map(|_| calibration.sample()));
        let spec = &specs[replayed % specs.len()];
        solo.extend(solo_replay(spec, &scratch(format!("solo{replayed}")))?);
        replayed += 1;
    }
    let scrape = scraper.finish();
    server.shutdown();
    for (i, spec) in specs.iter().enumerate().skip(replayed) {
        solo.extend(solo_replay(spec, &scratch(format!("solo{i}")))?);
    }
    let (hosted_steps, step_seconds) = registry
        .histogram_stats("idc_tenant_step_duration_seconds")
        .unwrap_or((0, 0.0));
    // The batch reference of every tenant, for the online ≡ batch check.
    let batch: Vec<Pass> = specs
        .iter()
        .map(|spec| {
            let scenario = batch_scenario(spec);
            let policy = batch_policy(&scenario, args.trace).map_err(|e| e.to_string())?;
            Ok(run_pass(&scenario, policy, args.trace, false, 1, None))
        })
        .collect::<Result<_, String>>()?;

    // ---- Output checks: online ≡ batch per tenant. ----
    let mut notes = Vec::new();
    let mut hard_failures = 0usize;
    let mut attempted_steps = 0u64;
    let mut failed_steps = 0u64;
    let mut mismatches = Vec::new();
    for ((spec, online), pass) in specs.iter().zip(&reference).zip(&batch) {
        attempted_steps += online.step;
        let agrees = match &pass.result {
            Ok(r) => {
                let b = r.total_cost_with_demand_charges();
                (online.accumulated_cost - b).abs() <= 1e-9 * b.abs().max(1.0)
            }
            Err(e) => {
                hard_failures += 1;
                notes.push(format!("{}: batch run failed: {e}", spec.id));
                false
            }
        };
        if agrees {
            failed_steps += online.degraded_steps;
        } else {
            failed_steps += online.step;
            mismatches.push(format!(
                "{{\"tenant\": \"{}\", \"online_usd\": {}, \"batch_usd\": {}}}",
                spec.id,
                online.accumulated_cost,
                pass.result
                    .as_ref()
                    .map_or(f64::NAN, |r| r.total_cost_with_demand_charges())
            ));
        }
    }
    if diverged_rounds > 0 {
        failed_steps = attempted_steps;
        notes.push(format!("{diverged_rounds} rounds diverged from the first"));
    }

    let (step_ms, step_cpu_ms) = (&solo.wall_ms, &solo.cpu_ms);
    let decide_ms: Vec<f64> = batch
        .iter()
        .flat_map(|p| p.decide_ms.iter().copied())
        .collect();
    let series: Vec<&[f64]> = reference
        .iter()
        .flat_map(|s| s.power_mw.iter().map(Vec::as_slice))
        .collect();
    let (swing, count) = power_swing(&series, &BTreeSet::new());
    let idc_steps: u64 = reference
        .iter()
        .map(|s| s.step * s.power_mw.len() as u64)
        .sum();
    let latency_ok: u64 = reference.iter().map(|s| s.latency_ok).sum();

    let mut e2e = Metrics::default();
    let st = tail(step_ms);
    let sct = tail(step_cpu_ms);
    let sc = tail(&scrape.latencies_ms);
    e2e.put("step_ms_p50", median(step_ms), "ms");
    e2e.put("step_cpu_ms_p50", median(step_cpu_ms), "ms");
    e2e.put("step_ms_tail", st.value, "ms");
    e2e.put("step_cpu_ms_tail", sct.value, "ms");
    e2e.put("steps_per_s", total_steps as f64 / run_wall, "1/s");
    e2e.put("steps_per_cpu_s", total_steps as f64 / run_cpu, "1/s");
    // The runtime's work does not follow the dense kernel (replayed back
    // to back, a tenant's step median holds within about 10 % while the
    // dense kernel's time swings by a quarter), but from run to run its
    // step times move with the memory kernel's.
    let speed = calibration.speed_factor(&calib_ms);
    e2e.put("step_ref_ms_p50", median(step_cpu_ms) * speed, "ms");
    e2e.put("step_ref_ms_tail", sct.value * speed, "ms");
    e2e.put(
        "steps_per_ref_s",
        total_steps as f64 / run_cpu / speed,
        "1/s",
    );
    e2e.put("setup_s", median(&setup) * speed, "s");
    e2e.put("setup_cpu_s", median(&setup), "s");
    e2e.put("setup_wall_s", median(&setup_wall), "s");
    e2e.put(
        "cost_usd",
        reference.iter().map(|s| s.accumulated_cost).sum(),
        "usd",
    );
    e2e.put("power_swing_mw", swing / count.max(1) as f64, "MW");
    e2e.put("peak_mw", peak_sum(&series, &BTreeSet::new()), "MW");
    e2e.put(
        "latency_ok_frac",
        latency_ok as f64 / idc_steps.max(1) as f64,
        "fraction",
    );
    let failed_frac = failed_steps as f64 / attempted_steps.max(1) as f64;
    e2e.put("failed_frac", failed_frac, "fraction");
    e2e.put("ok_frac", 1.0 - failed_frac, "fraction");
    e2e.put("scrape_ms_p50", median(&scrape.latencies_ms), "ms");
    e2e.put("scrape_ms_tail", sc.value, "ms");

    let mut detail = vec![
        format!("\"tenants\": {}", specs.len()),
        format!("\"rounds\": {rounds}"),
        format!("\"online_batch_mismatches\": [{}]", mismatches.join(", ")),
        "\"step_ms_source\": \"solo Stepper::step_once plus periodic checkpoints of every hosted tenant\"".into(),
        format!(
            "\"hosted_step_ms_mean\": {}",
            crate::common::json_num(step_seconds * 1e3 / hosted_steps.max(1) as f64)
        ),
        st.detail("step_ms_tail"),
        sct.detail("step_cpu_ms_tail"),
        sc.detail("scrape_ms_tail"),
        scrape.detail(),
        format!("\"setup_cpu_samples_s\": {setup:?}"),
        calibration.detail("calibration", &calib_ms),
    ];

    let mut layer = Metrics::default();
    if args.trace {
        // Tracing overhead on the same per-step measurement: each
        // tenant's solo replay runs untraced and then, right after, with a
        // flight recorder bound (the stepper's own spans then record too),
        // so that drift of the host between the two halves cancels out.
        let rec = Arc::new(idc_obs::FlightRecorder::new(1 << 20));
        let (mut untraced, mut traced) = (Vec::new(), Vec::new());
        for (i, spec) in specs.iter().enumerate() {
            idc_obs::bind_thread_recorder(None);
            untraced.extend(solo_replay(spec, &scratch(format!("untraced{i}")))?.cpu_ms);
            idc_obs::bind_thread_recorder(Some(Arc::clone(&rec)));
            traced.extend(solo_replay(spec, &scratch(format!("traced{i}")))?.cpu_ms);
        }
        let (u, t) = (median(&untraced), median(&traced));
        layer.put("trace.overhead_ms", t - u, "ms");
        layer.put("trace.overhead_frac", (t - u) / u, "fraction");

        let config = idc_control::mpc::MpcConfig::default();
        let largest = batch
            .iter()
            .max_by_key(|p| p.problems.first().map_or(0, |q| q.block_size()))
            .expect("non-empty population");
        let problems = &largest.problems;
        let working_set = layers::control(&mut layer, &config, problems);
        layers::linalg(&mut layer, &config, problems, working_set, &mut detail);
        let mut stats = SolveStats::default();
        for p in &batch {
            stats.merge(&p.stats);
        }
        layers::opt(&mut layer, &stats);
        let scenarios: Vec<Scenario> = specs.iter().map(batch_scenario).collect();
        let peaks: Vec<Vec<Vec<f64>>> = batch
            .iter()
            .map(|p| {
                p.result
                    .as_ref()
                    .map(crate::batch::running_peaks)
                    .unwrap_or_default()
            })
            .collect();
        let cases: Vec<ReferenceCase<'_>> = scenarios
            .iter()
            .zip(&batch)
            .zip(&peaks)
            .map(|((s, p), peaks)| ReferenceCase {
                idcs: s.fleet().idcs(),
                captured: p.captured.as_ref().expect("captured in traced runs"),
                tariff: s.demand_charge().copied(),
                peaks,
            })
            .collect();
        layers::reference(&mut layer, &cases);
        let captured: Vec<_> = batch.iter().filter_map(|p| p.captured.as_ref()).collect();
        layers::predictor(&mut layer, &captured);
        layer.put("core.decide_ms", median(&decide_ms), "ms");
        let batch_step_ms: Vec<f64> = batch
            .iter()
            .flat_map(|p| p.step_ms.iter().copied())
            .collect();
        let plant: Vec<f64> = batch_step_ms
            .iter()
            .zip(&decide_ms)
            .map(|(s, d)| s - d)
            .collect();
        layer.put("core.plant_ms", median(&plant), "ms");
        let keys: Vec<&str> = SCENARIO_KEYS.to_vec();
        layers::runtime_solo(&mut layer, args, &keys, None)?;
        layer.put(
            "runtime.worker_busy_frac",
            step_seconds / (WORKERS as f64 * run_wall),
            "fraction",
        );
        let last_board = board.lock().expect("board slot").clone();
        layers::render(&mut layer, &registry, &last_board);
        idc_obs::bind_thread_recorder(None);
        detail.push(layers::write_trace(args, &rec)?);
    }

    Ok(Outcome {
        correct: hard_failures == 0 && e2e.all_finite() && (!args.trace || layer.all_finite()),
        attempted: total_steps as usize,
        failed: hard_failures,
        e2e,
        layer,
        detail,
        notes,
    })
}
