//! The `fleet` workload: `run_fleet` on `tire` across every registry
//! scenario, one worker, shipped defaults (compiled backend, default
//! optimisation level, shared cores).
//!
//! The timed loop calls `run_fleet` on [`SWEEPS`] consecutive device
//! ranges, over and over, and reports each sweep's time at
//! [`REPEAT_QUANTILE`] of its repeats. The
//! traced run replays the same sweeps through [`replica`], which makes
//! the calls `run_fleet` makes, one layer at a time, inside spans.

use crate::report::{self, splitmix, Report, REPEAT_QUANTILE};
use crate::trace::Tracer;
use crate::{Args, Traced};
use ocelot_analysis::taint::TaintAnalysis;
use ocelot_bench::fleet::{add_stats, run_fleet, FleetAggregate, FleetOpts, FleetSpec};
use ocelot_bench::harness::{build_for, calibrated_costs, run_cell, MAX_STEPS};
use ocelot_runtime::machine::{DeviceState, Machine, MachineCore};
use ocelot_runtime::model::ExecModel;
use ocelot_runtime::stats::Stats;
use ocelot_runtime::{ExecBackend, OptLevel};
use ocelot_scenario::Scenario;
use std::sync::Arc;
use std::time::{Duration, Instant};

const APP: &str = "tire";
/// Program runs per device (the `ocelotc fleet` default).
const RUNS: u64 = 5;
/// Devices per timed sweep: a multiple of the nine scenarios.
const DEVICES: u64 = 900;
/// Distinct sweeps (consecutive device ranges) a timed phase repeats.
const SWEEPS: u64 = 4;
/// Devices checked against the per-cell interpreter oracle.
const CHECK_DEVICES: u64 = 36;
/// Set-ups timed for `setup_s`.
const SETUPS: usize = 15;

fn spec(seed0: u64, devices: u64) -> FleetSpec {
    FleetSpec {
        bench: APP.into(),
        model: ExecModel::Ocelot,
        scenarios: ocelot_scenario::all()
            .iter()
            .map(|s| s.name.to_string())
            .collect(),
        devices,
        seed0,
        runs: RUNS,
        backend: ExecBackend::Compiled,
        opt: OptLevel::default(),
    }
}

/// What `run_fleet` does before its first device: front end, one core
/// per scenario, and the first compiled run on each core, which
/// compiles the backend program.
fn setup_once(seed0: u64) -> f64 {
    let t0 = report::cpu_s();
    let b = ocelot_apps::by_name(APP).expect("tire is a shipped app");
    let built = build_for(&b, ExecModel::Ocelot);
    for sc in ocelot_scenario::all() {
        let sc = sc.reseeded(seed0);
        let core = Arc::new(MachineCore::build(
            &built.program,
            &built.regions,
            built.policies.clone(),
            &sc.environment(),
            calibrated_costs(&b),
        ));
        let mut m = Machine::from_core(core, DeviceState::default(), sc.environment(), sc.supply())
            .with_backend(ExecBackend::Compiled);
        m.run_once(MAX_STEPS);
    }
    report::cpu_s() - t0
}

/// `run_fleet` with one worker, one layer call at a time inside spans.
/// Returns the aggregates and the instructions simulated by the runs
/// timed as `runtime.run_harvested`.
fn replica(spec: &FleetSpec, tr: &mut Tracer) -> (Vec<FleetAggregate>, u64) {
    let root = tr.open("fleet.sweep", None);
    let b = ocelot_apps::by_name(&spec.bench).expect("known app");
    let p = tr.time("ir.compile", || {
        ocelot_ir::compile(b.annotated_src).expect("shipped app compiles")
    });
    let taint = tr.time("analysis.taint", || TaintAnalysis::run(&p));
    let c = tr.time("core.transform", || {
        ocelot_core::ocelot_transform_with(p, &taint).expect("shipped app transforms")
    });
    let scenarios: Vec<Scenario> = spec
        .scenarios
        .iter()
        .map(|s| ocelot_scenario::parse(s).expect("registry scenario"))
        .collect();
    let cores: Vec<Arc<MachineCore<'_>>> = scenarios
        .iter()
        .map(|sc| {
            tr.time("runtime.core_build", || {
                Arc::new(MachineCore::build(
                    &c.program,
                    &c.regions,
                    c.policies.clone(),
                    &sc.reseeded(spec.seed0).environment(),
                    calibrated_costs(&b),
                ))
            })
        })
        .collect();
    let n = scenarios.len() as u64;
    let mut aggs: Vec<FleetAggregate> = spec
        .scenarios
        .iter()
        .map(|s| FleetAggregate::new(s))
        .collect();
    let mut fresh_core = vec![true; scenarios.len()];
    let mut harvested_instr = 0u64;
    let mut dev = DeviceState::default();
    for i in 0..spec.devices {
        let s = (i % n) as usize;
        let (env, supply) = tr.time("scenario.device_setup", || {
            let sc = scenarios[s].reseeded(spec.seed0 + i);
            (sc.environment(), sc.supply())
        });
        let mut m = tr.time("runtime.attach", || {
            Machine::from_core(Arc::clone(&cores[s]), std::mem::take(&mut dev), env, supply)
                .with_backend(spec.backend)
        });
        for r in 0..spec.runs {
            if r == 0 && fresh_core[s] {
                tr.time("runtime.first_run", || m.run_once(MAX_STEPS));
                fresh_core[s] = false;
            } else {
                let before = m.stats().instructions;
                tr.time("runtime.run_harvested", || m.run_once(MAX_STEPS));
                harvested_instr += m.stats().instructions - before;
            }
        }
        tr.time("fleet.fold", || aggs[s].record(m.stats()));
        dev = tr.time("runtime.detach", || m.into_device());
    }
    tr.close(root);
    (aggs, harvested_instr)
}

fn total(aggs: &[FleetAggregate]) -> Stats {
    let mut t = Stats::default();
    for a in aggs {
        add_stats(&mut t, &a.stats);
    }
    t
}

/// Samples of a timed phase, which cycles through the same [`SWEEPS`]
/// sweeps until its budget is spent.
#[derive(Default)]
struct Phase {
    /// Every timed repeat of each sweep, seconds.
    secs: Vec<Vec<f64>>,
    /// Each sweep's simulated instructions.
    instructions: Vec<u64>,
    device_runs: u64,
    violations: u64,
    /// Instructions of the runs timed as `runtime.run_harvested`.
    harvested_instr: u64,
    /// First devices of the sweeps whose fold differed from the
    /// warm-up fold of the same sweep.
    drifted: Vec<u64>,
}

impl Phase {
    /// Each sweep's time at [`REPEAT_QUANTILE`] of its repeats, seconds.
    fn unit_s(&self) -> Vec<f64> {
        self.secs
            .iter()
            .map(|s| report::quantile(s, REPEAT_QUANTILE))
            .collect()
    }

    /// Device-runs per second over the sweeps' [`Phase::unit_s`] times.
    fn rate(&self) -> f64 {
        (self.secs.len() as u64 * DEVICES * RUNS) as f64 / self.unit_s().iter().sum::<f64>()
    }
}

/// Repeats `specs` in order until `budget` has elapsed (at least once),
/// through `run_fleet` or, when `tr` is given, through the traced
/// replica, and checks every fold against `reference`.
fn sweeps(
    budget: Duration,
    specs: &[FleetSpec],
    reference: &[Vec<FleetAggregate>],
    mut tr: Option<&mut Tracer>,
) -> Phase {
    let mut ph = Phase {
        secs: vec![Vec::new(); specs.len()],
        instructions: vec![0; specs.len()],
        ..Phase::default()
    };
    let start = Instant::now();
    while ph.secs[0].is_empty() || start.elapsed() < budget {
        for (k, s) in specs.iter().enumerate() {
            let t0 = report::cpu_s();
            let aggs = match tr.as_deref_mut() {
                None => run_fleet(s, FleetOpts::default()),
                Some(tr) => {
                    let (aggs, instr) = replica(s, tr);
                    ph.harvested_instr += instr;
                    aggs
                }
            };
            ph.secs[k].push(report::cpu_s() - t0);
            let t = total(&aggs);
            ph.instructions[k] = t.instructions;
            ph.device_runs += DEVICES * RUNS;
            ph.violations += t.violations;
            if aggs != reference[k] && ph.drifted.len() < 5 {
                ph.drifted.push(s.seed0);
            }
        }
    }
    ph
}

/// Runs the workload.
pub fn run(args: &Args) -> (Report, Option<Traced>) {
    let mut rep = Report::default();
    let mut rng = args.seed;
    let seed0 = splitmix(&mut rng) >> 24;
    let check_seed0 = splitmix(&mut rng) >> 24;
    let setups: Vec<f64> = (0..SETUPS).map(|_| setup_once(seed0)).collect();
    rep.set("setup_s", report::median(&setups));

    // Warm-up: one untimed pass over the sweeps, whose folds every timed
    // repeat must reproduce.
    let specs: Vec<FleetSpec> = (0..SWEEPS)
        .map(|k| spec(seed0 + k * DEVICES, DEVICES))
        .collect();
    let reference: Vec<Vec<FleetAggregate>> = specs
        .iter()
        .map(|s| run_fleet(s, FleetOpts::default()))
        .collect();

    let mut traced = None;
    let phase = if args.trace {
        let untraced = sweeps(args.seconds / 2, &specs, &reference, None);
        let mut tr = Tracer::new(true, Instant::now());
        let t0 = Instant::now();
        let phase = sweeps(args.seconds / 2, &specs, &reference, Some(&mut tr));
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let harvested_ns: f64 = tr
            .spans()
            .iter()
            .filter(|s| s.name == "runtime.run_harvested")
            .map(|s| s.ns() as f64)
            .sum();
        rep.set(
            "runtime.ns_per_instr_harvested",
            harvested_ns / phase.harvested_instr.max(1) as f64,
        );
        rep.set(
            "trace.overhead_pct",
            100.0 * (untraced.rate() / phase.rate() - 1.0),
        );
        traced = Some(Traced {
            groups: vec![tr.into_spans()],
            wall_ns,
        });
        rep.attempted += untraced.device_runs;
        rep.check(untraced.violations == 0, || {
            format!("{} violations under Ocelot", untraced.violations)
        });
        rep.check(untraced.drifted.is_empty(), || {
            format!(
                "sweeps at seed0 {:?} folded differently from their warm-up",
                untraced.drifted
            )
        });
        phase
    } else {
        sweeps(args.seconds, &specs, &reference, None)
    };
    rep.set("peak_rss_mb", report::peak_rss_mb());
    rep.attempted += phase.device_runs;
    rep.check(phase.violations == 0, || {
        format!(
            "{} violations under Ocelot (Theorem 1 says none)",
            phase.violations
        )
    });
    rep.check(phase.drifted.is_empty(), || {
        format!(
            "{} sweeps at seed0 {:?} folded differently from their warm-up",
            if args.trace { "traced" } else { "timed" },
            phase.drifted
        )
    });
    let unit_s = phase.unit_s();
    let unit_ms: Vec<f64> = unit_s.iter().map(|s| s * 1e3).collect();
    let ms: Vec<f64> = phase.secs.concat().iter().map(|s| s * 1e3).collect();
    let instructions: u64 = phase.instructions.iter().sum();
    rep.set("throughput_per_s", phase.rate());
    rep.set(
        "sim_minstr_per_s",
        instructions as f64 / unit_s.iter().sum::<f64>() / 1e6,
    );
    rep.set("latency_p50_ms", report::median(&unit_ms));
    rep.set("latency_tail_ms", report::tail(&ms).0);
    rep.note(format!(
        "fleet: {} sweeps ({SWEEPS} sweeps of {DEVICES} devices x {RUNS} runs on {APP}, repeated), {:.0} device-runs/s at each sweep's p{:.0} time, setup {:.4} s (median of {SETUPS})",
        ms.len(),
        phase.rate(),
        REPEAT_QUANTILE * 100.0,
        report::median(&setups)
    ));
    rep.note(format!(
        "sweep times at p{:.0} of their repeats: {}",
        REPEAT_QUANTILE * 100.0,
        unit_ms
            .iter()
            .map(|m| format!("{m:.3} ms"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    rep.note(report::latency_note("sweep latency", &ms));

    // Output checks, outside the timed sections.
    let cs = spec(check_seed0, CHECK_DEVICES);
    let aggs = run_fleet(&cs, FleetOpts::default());
    let mut oracle: Vec<FleetAggregate> = cs
        .scenarios
        .iter()
        .map(|s| FleetAggregate::new(s))
        .collect();
    for i in 0..cs.devices {
        let cell = cs.device_spec(i).with_backend(ExecBackend::Interp);
        oracle[(i % cs.scenarios.len() as u64) as usize].record(&run_cell(&cell));
    }
    rep.check(aggs == oracle, || {
        "fleet aggregates differ from the fold of interpreter oracle cells".to_string()
    });
    let (replayed, _) = replica(&cs, &mut Tracer::new(false, Instant::now()));
    rep.check(replayed == aggs, || {
        "replica's fold differs from run_fleet on the check sweep".to_string()
    });
    let t = total(&aggs);
    rep.check(t.violations == 0, || {
        format!(
            "{} violations under Ocelot on the check sweep",
            t.violations
        )
    });
    rep.sim_counts("fleet", args.seed, &t);
    (rep, traced)
}
