//! Layered end-to-end benchmark of the Ocelot workspace.
//!
//! ```text
//! ocelot-perfbench --workload <fleet|pipeline|serve> --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload generates its inputs from `--seed`, measures for
//! `--seconds`, checks its outputs outside the timed sections, and prints
//! human-readable lines followed by one JSON result line. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` reports the per-layer
//! metrics from spans the benchmark records around calls into each
//! layer. The metric tables are in [`report`] and must match
//! `BENCHMARK.json` in the working directory. See `README.md`.

mod fleet;
mod pipeline;
mod report;
mod serve;
mod trace;

use ocelot_bench::json::{self, Json};
use report::{Report, END_TO_END, SPANS};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;
use trace::Span;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured time per run.
    pub seconds: Duration,
    /// Whether this is the traced run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            k @ ("--workload" | "--seed" | "--seconds" | "--trace") => k,
            other => return Err(format!("unknown argument `{other}`")),
        };
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        flags.insert(key, value);
    }
    let get = |k: &str| flags.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let workload = get("--workload")?.to_string();
    if !["fleet", "pipeline", "serve"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (known: fleet, pipeline, serve)"
        ));
    }
    let seed = get("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("--seconds")?
        .parse::<f64>()
        .ok()
        .filter(|s| *s > 0.0 && s.is_finite())
        .ok_or("--seconds must be a positive number")?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not `{t}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
    })
}

/// Checks that `BENCHMARK.json` lists exactly the metrics this binary
/// reports, with the same units.
fn check_benchmark_json() -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
    let doc = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let listed = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |t: Vec<(String, &str)>| -> Vec<(String, String)> {
        t.into_iter().map(|(n, u)| (n, u.to_string())).collect()
    };
    let e2e = own(END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect());
    if listed("end_to_end") != e2e {
        return Err("BENCHMARK.json end_to_end differs from the benchmark's table".into());
    }
    if listed("per_layer") != own(report::per_layer_table()) {
        return Err("BENCHMARK.json per_layer differs from the benchmark's table".into());
    }
    Ok(())
}

/// The `sim.*` counts recorded in `expected_sim.json` for `workload`
/// under `seed`, if any.
pub fn expected_sim(workload: &str, seed: u64) -> Option<BTreeMap<String, u64>> {
    let doc = json::parse(include_str!("../expected_sim.json")).expect("expected_sim.json parses");
    let counts = doc.get(workload)?.get(&seed.to_string())?.as_obj()?;
    Some(
        counts
            .iter()
            .map(|(k, v)| (k.clone(), v.as_u64().expect("sim counts are integers")))
            .collect(),
    )
}

/// What a traced phase leaves behind: one span list per tracer, and the
/// wall time (summed over the threads that traced) the spans cover.
pub struct Traced {
    /// Span lists, one per tracer.
    pub groups: Vec<Vec<Span>>,
    /// Traced wall time, ns.
    pub wall_ns: u64,
}

/// Spans whose self time is the benchmark's own glue, not a layer.
const CONTAINERS: &[&str] = &["fleet.sweep", "pipeline.program", "serve.replay"];

/// Per-layer metrics read straight off span durations: metric, span,
/// ns per unit.
const SPAN_METRICS: &[(&str, &str, f64)] = &[
    ("ir.compile_us", "ir.compile", 1e3),
    ("analysis.taint_us", "analysis.taint", 1e3),
    ("core.transform_us", "core.transform", 1e3),
    ("core.model_build_us", "core.model_build", 1e3),
    (
        "analysis.incremental_verify_ms",
        "analysis.incremental_verify",
        1e6,
    ),
    ("lint.lint_ms", "lint.lint", 1e6),
    ("runtime.core_build_us", "runtime.core_build", 1e3),
    ("runtime.first_run_us", "runtime.first_run", 1e3),
    ("scenario.device_setup_ns", "scenario.device_setup", 1.0),
    ("runtime.attach_ns", "runtime.attach", 1.0),
    ("runtime.run_harvested_us", "runtime.run_harvested", 1e3),
    ("fleet.fold_ns", "fleet.fold", 1.0),
    ("runtime.detach_ns", "runtime.detach", 1.0),
    ("runtime.run_continuous_us", "runtime.run_continuous", 1e3),
    ("serve.handle_verify_ms", "serve.handle_verify", 1e6),
    ("serve.handle_lint_ms", "serve.handle_lint", 1e6),
    ("serve.handle_submit_ms", "serve.handle_submit", 1e6),
    ("serve.handle_run_ms", "serve.handle_run", 1e6),
    ("serve.handle_sweep_ms", "serve.handle_sweep", 1e6),
    ("serve.handle_ping_us", "serve.handle_ping", 1e3),
];

/// Turns the spans into per-layer metrics (median durations, self-time
/// shares, coverage) and writes them out next to the executable.
fn summarise_trace(args: &Args, traced: &Traced, rep: &mut Report) {
    let mut all = BTreeMap::new();
    for g in &traced.groups {
        trace::merge(&mut all, trace::layers(g));
    }
    let wall = traced.wall_ns.max(1) as f64;
    for &(metric, span, unit_ns) in SPAN_METRICS {
        if let Some(l) = all.get(span) {
            rep.set(metric, report::median(&l.durations) / unit_ns);
        }
    }
    let mut covered = 0u64;
    rep.note(format!(
        "self time per layer over {:.3} s traced wall time:",
        wall / 1e9
    ));
    for name in SPANS {
        let Some(l) = all.get(name) else { continue };
        if !CONTAINERS.contains(name) {
            covered += l.self_ns;
        }
        rep.set(&format!("self.{name}_pct"), 100.0 * l.self_ns as f64 / wall);
        rep.note(format!(
            "  {name:<30} {:>9} spans  self {:>10.3} ms  {:>6.2}%",
            l.durations.len(),
            l.self_ns as f64 / 1e6,
            100.0 * l.self_ns as f64 / wall
        ));
    }
    let spans: usize = traced.groups.iter().map(Vec::len).sum();
    rep.set("trace.spans", spans as f64);
    rep.set("trace.self_coverage", covered as f64 / wall);
    let dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("perfbench-trace")))
        .unwrap_or_else(|| "perfbench-trace".into());
    let path = dir.join(format!("{}-seed{}.tsv", args.workload, args.seed));
    let groups: Vec<&[Span]> = traced.groups.iter().map(Vec::as_slice).collect();
    match trace::write_tsv(&path, &groups) {
        Ok(()) => rep.note(format!("{spans} spans written to {}", path.display())),
        Err(e) => rep
            .mismatches
            .push(format!("writing {}: {e}", path.display())),
    }
}

fn result_line(rep: &Report, table: &[(String, &str)]) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = rep.metrics.get(name).copied().unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.mismatches.is_empty(),
        rep.attempted,
        rep.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = check_benchmark_json() {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    let (mut rep, traced) = match args.workload.as_str() {
        "fleet" => fleet::run(&args),
        "pipeline" => pipeline::run(&args),
        _ => serve::run(&args),
    };
    let table: Vec<(String, &str)> = if args.trace {
        if let Some(t) = &traced {
            summarise_trace(&args, t, &mut rep);
        }
        report::per_layer_table()
    } else {
        for &(name, _) in END_TO_END {
            let v = rep.metrics.get(name).copied().unwrap_or(0.0);
            rep.check(v.is_finite() && v > 0.0, || {
                format!("end-to-end metric {name} was not measured ({v})")
            });
        }
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    for (name, _) in &table {
        let v = rep.metrics.get(name).copied().unwrap_or(0.0);
        rep.check(v.is_finite(), || format!("metric {name} is not finite"));
        if !v.is_finite() {
            rep.metrics.insert(name.clone(), 0.0);
        }
    }
    for line in &rep.notes {
        println!("{line}");
    }
    for m in &rep.mismatches {
        println!("CHECK FAILED: {m}");
    }
    println!("{}", result_line(&rep, &table));
    if rep.mismatches.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
