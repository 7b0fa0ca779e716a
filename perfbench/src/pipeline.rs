//! The `pipeline` workload: every shipped app under every model (JIT,
//! Atomics-only, Ocelot), each built, given a core, run once compiled
//! and then run a fixed number of times on continuous power — the batch
//! `ocelotc run` path. Passes over the 27 programs repeat until the
//! measured time is up; each program reports its times at
//! [`REPEAT_QUANTILE`] of its repeats.

use crate::report::{self, splitmix, Report, REPEAT_QUANTILE};
use crate::trace::Tracer;
use crate::{Args, Traced};
use ocelot_analysis::taint::TaintAnalysis;
use ocelot_apps::Benchmark;
use ocelot_bench::fleet::add_stats;
use ocelot_bench::harness::{calibrated_costs, MAX_STEPS};
use ocelot_hw::power::ContinuousPower;
use ocelot_runtime::machine::{DeviceState, Machine, MachineCore, RunOutcome};
use ocelot_runtime::model::{self, Built, ExecModel};
use ocelot_runtime::stats::Stats;
use ocelot_runtime::ExecBackend;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Continuous-power runs per program after the first compiled run.
const RUNS: u64 = 40;
/// Warm-up passes timed for `setup_s`.
const SETUPS: usize = 9;

/// One program of a pass: an app, a model, and its environment seed.
struct Input {
    app: Benchmark,
    model: ExecModel,
    env_seed: u64,
}

fn inputs(seed: u64) -> Vec<Input> {
    let mut rng = seed;
    let mut out = Vec::new();
    for app in ocelot_apps::all_with_extensions() {
        for model in ExecModel::all() {
            out.push(Input {
                app: app.clone(),
                model,
                env_seed: splitmix(&mut rng) >> 16,
            });
        }
    }
    out
}

/// One program's measurements.
struct ProgramRun {
    /// Build → core → first run, seconds.
    compile_s: f64,
    /// The continuous runs after the first, seconds.
    run_s: f64,
    /// Instructions simulated by those runs.
    run_instr: u64,
    /// Check probes executed by those runs.
    probed: u64,
    /// Runs (of 1 + [`RUNS`]) that did not complete.
    incomplete: u64,
    /// Stats after every run.
    stats: Stats,
}

fn build(inp: &Input, tr: &mut Tracer) -> Built {
    match inp.model {
        ExecModel::Ocelot => {
            let p = tr.time("ir.compile", || {
                ocelot_ir::compile(inp.app.annotated_src).expect("shipped app compiles")
            });
            let taint = tr.time("analysis.taint", || TaintAnalysis::run(&p));
            let c = tr.time("core.transform", || {
                ocelot_core::ocelot_transform_with(p, &taint).expect("shipped app transforms")
            });
            Built {
                model: ExecModel::Ocelot,
                program: c.program,
                policies: c.policies,
                regions: c.regions,
            }
        }
        m => {
            let src = if m == ExecModel::AtomicsOnly {
                inp.app.atomics_src
            } else {
                inp.app.annotated_src
            };
            let p = tr.time("ir.compile", || {
                ocelot_ir::compile(src).expect("shipped app compiles")
            });
            tr.time("core.model_build", || {
                model::build(p, m).expect("shipped app builds")
            })
        }
    }
}

fn run_program(inp: &Input, tr: &mut Tracer) -> ProgramRun {
    let root = tr.open("pipeline.program", None);
    let t0 = report::cpu_s();
    let built = build(inp, tr);
    let env = inp.app.environment(inp.env_seed);
    let core = tr.time("runtime.core_build", || {
        Arc::new(MachineCore::build(
            &built.program,
            &built.regions,
            built.policies.clone(),
            &env,
            calibrated_costs(&inp.app),
        ))
    });
    let mut m = Machine::from_core(core, DeviceState::default(), env, Box::new(ContinuousPower))
        .with_backend(ExecBackend::Compiled);
    let first = tr.time("runtime.first_run", || m.run_once(MAX_STEPS));
    let compile_s = report::cpu_s() - t0;
    let mut incomplete = u64::from(!matches!(first, RunOutcome::Completed { .. }));
    let (instr0, probed0) = (m.stats().instructions, m.checks_probed());
    let t1 = report::cpu_s();
    for _ in 0..RUNS {
        let out = tr.time("runtime.run_continuous", || m.run_once(MAX_STEPS));
        incomplete += u64::from(!matches!(out, RunOutcome::Completed { .. }));
    }
    let run_s = report::cpu_s() - t1;
    tr.close(root);
    ProgramRun {
        compile_s,
        run_s,
        run_instr: m.stats().instructions - instr0,
        probed: m.checks_probed() - probed0,
        incomplete,
        stats: m.stats().clone(),
    }
}

/// The interpreter oracle for `inp`: the standard build, the same
/// environment and supply, 1 + [`RUNS`] runs.
fn interp_stats(inp: &Input) -> Stats {
    let built = ocelot_bench::harness::build_for(&inp.app, inp.model);
    let mut m = Machine::new(
        &built.program,
        &built.regions,
        built.policies.clone(),
        inp.app.environment(inp.env_seed),
        calibrated_costs(&inp.app),
        Box::new(ContinuousPower),
    )
    .with_backend(ExecBackend::Interp);
    for _ in 0..=RUNS {
        m.run_once(MAX_STEPS);
    }
    m.stats().clone()
}

/// Samples of a timed phase, which repeats passes over the same
/// programs until its budget is spent.
#[derive(Default)]
struct Phase {
    /// Each program's compiles (build -> core -> first run), s.
    compile_s: Vec<Vec<f64>>,
    /// Each program's continuous runs, s per pass.
    run_s: Vec<Vec<f64>>,
    /// Each program's continuous-run instructions in one pass.
    run_instr: Vec<u64>,
    /// Continuous-run instructions over all passes.
    total_run_instr: u64,
    passes: usize,
    attempted: u64,
    failed: u64,
    /// Programs whose stats differ from the first pass.
    drifted: Vec<String>,
}

/// Each unit's time at [`REPEAT_QUANTILE`] of its repeats.
fn unit_s(repeats: &[Vec<f64>]) -> Vec<f64> {
    repeats
        .iter()
        .map(|s| report::quantile(s, REPEAT_QUANTILE))
        .collect()
}

impl Phase {
    /// Programs compiled per second over their [`unit_s`] compiles.
    fn programs_per_s(&self) -> f64 {
        self.compile_s.len() as f64 / unit_s(&self.compile_s).iter().sum::<f64>()
    }

    /// Simulated Minstr per second over the [`unit_s`] continuous runs.
    fn minstr_per_s(&self) -> f64 {
        self.run_instr.iter().sum::<u64>() as f64 / unit_s(&self.run_s).iter().sum::<f64>() / 1e6
    }

    /// A pass at every program's [`unit_s`] compile and runs, s.
    fn unit_pass_s(&self) -> f64 {
        unit_s(&self.compile_s).iter().sum::<f64>() + unit_s(&self.run_s).iter().sum::<f64>()
    }
}

fn passes(budget: Duration, inputs: &[Input], tr: &mut Tracer, reference: &[ProgramRun]) -> Phase {
    let mut ph = Phase {
        compile_s: vec![Vec::new(); inputs.len()],
        run_s: vec![Vec::new(); inputs.len()],
        run_instr: vec![0; inputs.len()],
        ..Phase::default()
    };
    let start = Instant::now();
    while ph.passes == 0 || start.elapsed() < budget {
        for (k, (inp, want)) in inputs.iter().zip(reference).enumerate() {
            let r = run_program(inp, tr);
            ph.compile_s[k].push(r.compile_s);
            ph.run_s[k].push(r.run_s);
            ph.run_instr[k] = r.run_instr;
            ph.total_run_instr += r.run_instr;
            ph.attempted += 1 + RUNS;
            ph.failed += r.incomplete;
            if r.stats != want.stats && ph.drifted.len() < 5 {
                ph.drifted
                    .push(format!("{} ({})", inp.app.name, inp.model.name()));
            }
        }
        ph.passes += 1;
    }
    ph
}

/// Runs the workload.
pub fn run(args: &Args) -> (Report, Option<Traced>) {
    let mut rep = Report::default();
    let inputs = inputs(args.seed);
    let mut off = Tracer::new(false, Instant::now());

    // Set-up: warm-up passes, until lazy set-up and caches settle.
    let mut setups = Vec::new();
    let mut reference = Vec::new();
    for _ in 0..SETUPS {
        let t0 = report::cpu_s();
        reference = inputs
            .iter()
            .map(|inp| run_program(inp, &mut off))
            .collect();
        setups.push(report::cpu_s() - t0);
    }
    rep.set("setup_s", report::median(&setups));

    let mut traced = None;
    let mut drifted = Vec::new();
    let ph = if args.trace {
        let untraced = passes(args.seconds / 2, &inputs, &mut off, &reference);
        let mut tr = Tracer::new(true, Instant::now());
        let t0 = Instant::now();
        let ph = passes(args.seconds / 2, &inputs, &mut tr, &reference);
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let run_ns: f64 = tr
            .spans()
            .iter()
            .filter(|s| s.name == "runtime.run_continuous")
            .map(|s| s.ns() as f64)
            .sum();
        rep.set(
            "runtime.ns_per_instr_continuous",
            run_ns / ph.total_run_instr.max(1) as f64,
        );
        rep.set(
            "trace.overhead_pct",
            100.0 * (ph.unit_pass_s() / untraced.unit_pass_s() - 1.0),
        );
        rep.attempted += untraced.attempted;
        rep.failed += untraced.failed;
        drifted = untraced.drifted;
        traced = Some(Traced {
            groups: vec![tr.into_spans()],
            wall_ns,
        });
        ph
    } else {
        passes(args.seconds, &inputs, &mut off, &reference)
    };
    rep.set("peak_rss_mb", report::peak_rss_mb());
    rep.attempted += ph.attempted;
    rep.failed += ph.failed;
    drifted.extend(ph.drifted.iter().cloned());
    let unit_ms: Vec<f64> = unit_s(&ph.compile_s).iter().map(|s| s * 1e3).collect();
    let slowest_ms = unit_ms.iter().copied().fold(0.0, f64::max);
    rep.set("throughput_per_s", ph.programs_per_s());
    rep.set("sim_minstr_per_s", ph.minstr_per_s());
    rep.set("latency_p50_ms", report::median(&unit_ms));
    rep.set("latency_tail_ms", slowest_ms);
    rep.note(format!(
        "pipeline: {} passes over {} programs, {:.1} programs compiled/s, {:.2} Minstr/s continuous (each program at p{:.0} of its repeats), setup {:.4} s (median of {SETUPS} warm-up passes)",
        ph.passes,
        inputs.len(),
        ph.programs_per_s(),
        ph.minstr_per_s(),
        REPEAT_QUANTILE * 100.0,
        report::median(&setups)
    ));
    rep.note(format!(
        "compile latency per program at p{:.0} of its repeats: p50 {:.3} ms, slowest program {:.3} ms, {} programs",
        REPEAT_QUANTILE * 100.0,
        report::median(&unit_ms),
        slowest_ms,
        unit_ms.len()
    ));
    let all_ms: Vec<f64> = ph.compile_s.concat().iter().map(|s| s * 1e3).collect();
    rep.note(report::latency_note(
        "compile latency (build -> core -> first run), every repeat",
        &all_ms,
    ));

    // Output checks, outside the timed sections.
    rep.check(drifted.is_empty(), || {
        format!("stats changed between passes: {}", drifted.join(", "))
    });
    let mut total = Stats::default();
    let (mut probed, mut runs) = (0u64, 0u64);
    for (inp, r) in inputs.iter().zip(&reference) {
        let what = format!("{} ({})", inp.app.name, inp.model.name());
        rep.check(interp_stats(inp) == r.stats, || {
            format!("{what}: compiled and interpreter stats differ")
        });
        if inp.model == ExecModel::Ocelot {
            rep.check(r.stats.violations == 0, || {
                format!("{what}: {} violations under Ocelot", r.stats.violations)
            });
        }
        add_stats(&mut total, &r.stats);
        probed += r.probed;
        runs += RUNS;
    }
    rep.set("runtime.checks_probed_per_run", probed as f64 / runs as f64);
    rep.sim_counts("pipeline", args.seed, &total);
    (rep, traced)
}
