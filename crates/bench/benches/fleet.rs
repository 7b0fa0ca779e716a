//! Criterion benchmarks for the fleet engine: device-runs/sec through
//! the shared-core sweep loop, at several worker counts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ocelot_bench::fleet::{run_fleet, FleetOpts, FleetSpec};
use ocelot_runtime::model::ExecModel;
use ocelot_runtime::ExecBackend;

/// The benched fleet: the Table-1 `tire` app across the whole scenario
/// registry, sized so one criterion sample is a real multi-chunk sweep
/// without making `cargo bench` take minutes.
fn bench_fleet_spec(devices: u64, backend: ExecBackend) -> FleetSpec {
    FleetSpec {
        bench: "tire".into(),
        model: ExecModel::Ocelot,
        scenarios: ocelot_scenario::all()
            .iter()
            .map(|s| s.name.to_string())
            .collect(),
        devices,
        seed0: 1,
        runs: 1,
        backend,
        opt: ocelot_runtime::OptLevel::default(),
    }
}

/// Whole-sweep throughput (the `ocelotc fleet` shape): devices/sec at
/// 1, 2, and 4 workers on the compiled engine, and the interpreter at
/// one worker as the oracle baseline.
fn bench_sweep(c: &mut Criterion) {
    let devices = 180u64;
    let mut g = c.benchmark_group("fleet");
    for jobs in [1usize, 2, 4] {
        let spec = bench_fleet_spec(devices, ExecBackend::Compiled);
        g.bench_function(BenchmarkId::new("compiled", jobs), |bencher| {
            bencher.iter(|| run_fleet(&spec, FleetOpts { jobs }));
        });
    }
    let spec = bench_fleet_spec(devices, ExecBackend::Interp);
    g.bench_function(BenchmarkId::new("interp", 1usize), |bencher| {
        bencher.iter(|| run_fleet(&spec, FleetOpts { jobs: 1 }));
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_sweep
}
criterion_main!(benches);
