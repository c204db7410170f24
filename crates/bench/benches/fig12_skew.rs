//! Figure 12 bench: parallel select over skewed data — static equi-range
//! partitioning vs work-stealing-style over-partitioning vs the adaptively
//! found dynamic partitioning.
//!
//! Running the bench also prints the reproduced Figure 12 series.

use apq_baselines::heuristic_parallelize;
use apq_bench::{common, run_experiment, ExperimentConfig};
use apq_workloads::micro::skewed;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    let cfg = ExperimentConfig::smoke();
    for table in run_experiment("fig12", &cfg).expect("fig12 exists") {
        println!("{}", table.render());
    }

    let engine = common::engine(&cfg);
    let catalog = skewed::catalog(cfg.micro_rows, cfg.seed);
    let serial = skewed::plan(&catalog, 3).unwrap();
    let static_plan = heuristic_parallelize(&serial, &catalog, engine.n_workers()).unwrap();
    // Work-stealing style (paper §4.1.1): far more static partitions than workers.
    let stealing_plan = heuristic_parallelize(&serial, &catalog, engine.n_workers() * 16).unwrap();
    let adaptive = common::adaptive(&cfg, &engine, &catalog, &serial);

    let mut group = c.benchmark_group("fig12_skewed_select");
    group.sample_size(15);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.bench_function("static_equal_partitions", |b| {
        b.iter(|| black_box(engine.execute(&static_plan, &catalog).unwrap().output.rows()))
    });
    group.bench_function("work_stealing_overpartitioned", |b| {
        b.iter(|| black_box(engine.execute(&stealing_plan, &catalog).unwrap().output.rows()))
    });
    group.bench_function("adaptive_dynamic_partitions", |b| {
        b.iter(|| black_box(engine.execute(&adaptive.best_plan, &catalog).unwrap().output.rows()))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
