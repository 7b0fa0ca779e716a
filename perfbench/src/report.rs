//! What one benchmark run reports, the metric tables it reports against,
//! and the small statistics every workload shares.

use std::collections::BTreeMap;

/// End-to-end metrics: every workload reports every one, untraced.
/// The meaning of the generic names per workload is in `README.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("sim_minstr_per_s", "Minstr/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
];

/// Span names the benchmark records, in report order. Each one gets a
/// `self.<name>_pct` per-layer metric: its self time as a share of the
/// traced wall time.
pub const SPANS: &[&str] = &[
    "fleet.sweep",
    "pipeline.program",
    "ir.compile",
    "analysis.taint",
    "core.transform",
    "core.model_build",
    "runtime.core_build",
    "runtime.first_run",
    "runtime.run_continuous",
    "scenario.device_setup",
    "runtime.attach",
    "runtime.run_harvested",
    "fleet.fold",
    "runtime.detach",
    "client.verify",
    "client.ping",
    "client.lint",
    "client.submit",
    "client.run",
    "client.sweep",
    "serve.replay",
    "serve.handle_verify",
    "serve.handle_lint",
    "serve.handle_submit",
    "serve.handle_run",
    "serve.handle_sweep",
    "serve.handle_ping",
    "analysis.incremental_verify",
    "lint.lint",
    "runtime.run_interp",
];

/// Per-layer metrics with units, besides the `self.*_pct` shares. A
/// layer a workload does not exercise reports 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ir.compile_us", "us"),
    ("analysis.taint_us", "us"),
    ("core.transform_us", "us"),
    ("core.model_build_us", "us"),
    ("analysis.incremental_verify_ms", "ms"),
    ("analysis.funcs_reanalyzed", "count"),
    ("analysis.flow_reuse_ratio", "ratio"),
    ("lint.lint_ms", "ms"),
    ("runtime.core_build_us", "us"),
    ("runtime.first_run_us", "us"),
    ("scenario.device_setup_ns", "ns"),
    ("runtime.attach_ns", "ns"),
    ("runtime.run_harvested_us", "us"),
    ("runtime.ns_per_instr_harvested", "ns"),
    ("fleet.fold_ns", "ns"),
    ("runtime.detach_ns", "ns"),
    ("runtime.run_continuous_us", "us"),
    ("runtime.ns_per_instr_continuous", "ns"),
    ("runtime.checks_probed_per_run", "count"),
    ("runtime.ns_per_instr_interp", "ns"),
    ("serve.handle_verify_ms", "ms"),
    ("serve.handle_lint_ms", "ms"),
    ("serve.handle_submit_ms", "ms"),
    ("serve.handle_run_ms", "ms"),
    ("serve.handle_sweep_ms", "ms"),
    ("serve.handle_ping_us", "us"),
    ("serve.wait_ping_ms", "ms"),
    ("serve.wait_verify_ms", "ms"),
    ("serve.ping_p50_ms", "ms"),
    ("serve.ping_tail_ms", "ms"),
    ("serve.programs_hit_ratio", "ratio"),
    ("serve.cores_hit_ratio", "ratio"),
    ("serve.lints_hit_ratio", "ratio"),
    ("sim.instructions", "count"),
    ("sim.reboots", "count"),
    ("sim.region_reexecs", "count"),
    ("sim.ckpt_words", "count"),
    ("sim.log_words", "count"),
    ("sim.violations", "count"),
    ("trace.spans", "count"),
    ("trace.self_coverage", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Every per-layer metric name and unit, `self.*_pct` shares included.
pub fn per_layer_table() -> Vec<(String, &'static str)> {
    let mut t: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    t.extend(SPANS.iter().map(|s| (format!("self.{s}_pct"), "%")));
    t
}

/// One run's outcome: op counts, failed output checks, metric values
/// and the human-readable lines printed ahead of the result.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Output checks that failed, one line each.
    pub mismatches: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Lines printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// Sets metric `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Sets `sim.*` from `s` and checks them against the counts recorded
    /// for this workload and seed, when there are any.
    pub fn sim_counts(&mut self, workload: &str, seed: u64, s: &ocelot_runtime::stats::Stats) {
        let counts = [
            ("sim.instructions", s.instructions),
            ("sim.reboots", s.reboots),
            ("sim.region_reexecs", s.region_reexecs),
            ("sim.ckpt_words", s.ckpt_words),
            ("sim.log_words", s.log_words),
            ("sim.violations", s.violations),
        ];
        let expected = crate::expected_sim(workload, seed);
        for (name, v) in counts {
            self.set(name, v as f64);
            if let Some(want) = expected.as_ref().and_then(|e| e.get(name)) {
                self.check(*want == v, || {
                    format!("{name} = {v}, recorded for seed {seed}: {want}")
                });
            }
        }
        self.note(format!(
            "sim counts (seed {seed}{}): {}",
            if expected.is_some() {
                ", checked against perfbench/expected_sim.json"
            } else {
                ", none recorded"
            },
            counts
                .iter()
                .map(|(n, v)| format!("{n}={v}"))
                .collect::<Vec<_>>()
                .join(" ")
        ));
    }
}

/// The median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The quantile of a unit's repeated times that `fleet` and `pipeline`
/// report for it. On a shared host other tenants slow the same work by
/// up to 40% for stretches of seconds to minutes. Every run spends part
/// of its time in that contended state and only some runs see a quiet
/// host, so the slow side of the repeats is the steady one: over 20 and
/// 30 s windows of recorded runs, the 90th percentile spread 0.03–0.07
/// (interquartile range over median) where the median spread 0.13–0.22
/// and the fastest repeat up to 0.23.
pub const REPEAT_QUANTILE: f64 = 0.9;

/// The `q`-quantile of `xs` by nearest rank (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest percentile of `xs` with at least ten samples beyond it:
/// `(value, percentile, samples)`. With fewer than eleven samples it is
/// the maximum, reported as percentile 100.
pub fn tail(xs: &[f64]) -> (f64, f64, usize) {
    let n = xs.len();
    if n == 0 {
        return (0.0, 0.0, 0);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if n < 11 {
        return (v[n - 1], 100.0, n);
    }
    let rank = n - 10; // 1-based rank with exactly ten samples above it
    (v[rank - 1], 100.0 * rank as f64 / n as f64, n)
}

/// A note line for a latency sample: median and tail with percentile
/// and sample count.
pub fn latency_note(what: &str, ms: &[f64]) -> String {
    let (t, pct, n) = tail(ms);
    format!(
        "{what}: p50 {:.3} ms, tail p{pct:.1} {t:.3} ms, {n} samples",
        median(ms)
    )
}

/// Peak resident set size of this process so far in MB (`VmHWM`), or 0
/// where `/proc` is unavailable. Workloads read it when the measured
/// phase ends, before the output checks allocate.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// On-CPU time of the calling thread, in seconds.
///
/// The single-threaded workloads time themselves with this clock rather
/// than the wall clock: it stops while the thread waits for a CPU and
/// while a hypervisor steals the CPU, and on a shared virtual machine
/// steal alone moved wall-clock fleet throughput by a third between
/// runs of the same input.
pub fn cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on) for the
    // duration of the call, and the clock id is a constant the kernel
    // defines.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is always available on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// SplitMix64: derives the benchmark's inputs from `--seed`.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}
