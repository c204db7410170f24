//! Quickstart: build a small columnar database, write a query plan, and let
//! adaptive parallelization find a faster parallel plan from execution
//! feedback.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use adaptive_parallelization::adaptive::{AdaptiveConfig, AdaptiveOptimizer};
use adaptive_parallelization::columnar::{datagen, Catalog, TableBuilder};
use adaptive_parallelization::engine::{Engine, DEFAULT_MORSEL_ROWS};
use adaptive_parallelization::operators::{AggFunc, BinaryOp, CmpOp, Predicate};
use adaptive_parallelization::workloads::PlanBuilder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build a small database: one "sales" table with a million rows.
    let rows = 1_000_000;
    let mut catalog = Catalog::new();
    catalog.register(
        TableBuilder::new("sales")
            .i64_column("amount", datagen::prices_decimal2(rows, 1.0, 500.0, 1))
            .i64_column("discount", datagen::uniform_i64(rows, 0, 11, 2))
            .i64_column("region", datagen::uniform_i64(rows, 0, 25, 3))
            .build()?,
    );
    let catalog = Arc::new(catalog);

    // 2. Write the serial plan for
    //    SELECT sum(amount * (100 - discount) / 100) FROM sales WHERE region < 5;
    let mut builder = PlanBuilder::new(&catalog);
    let region = builder.scan("sales", "region")?;
    let selected = builder.select(region, Predicate::cmp(CmpOp::Lt, 5i64));
    let amount = builder.scan("sales", "amount")?;
    let discount = builder.scan("sales", "discount")?;
    let amount_f = builder.fetch(selected, amount);
    let discount_f = builder.fetch(selected, discount);
    let one_minus = builder.scalar_calc(BinaryOp::Sub, 100i64, discount_f);
    let revenue = builder.calc(BinaryOp::Mul, amount_f, one_minus);
    let revenue = builder.calc_scalar(BinaryOp::Div, revenue, 100i64);
    let total = builder.scalar_agg(AggFunc::Sum, revenue);
    let serial_plan = builder.finish(total)?;

    // 3. Execute it serially once. The engine's task scheduler is a
    //    work-stealing pool: per-worker deques, local-first pop, stealing.
    let engine = Engine::with_workers(8);
    let serial = engine.execute(&serial_plan, &catalog)?;
    println!("serial result : {}", serial.output.summary());
    println!("serial time   : {:.3} ms", serial.profile.wall_us() as f64 / 1000.0);

    // 4. Let adaptive parallelization morph the plan run by run.
    let config = AdaptiveConfig::for_cores(engine.n_workers()).with_verification();
    let optimizer = AdaptiveOptimizer::new(config);
    let report = optimizer.optimize(&engine, &catalog, &serial_plan)?;

    println!();
    println!("adaptive parallelization:");
    for record in &report.records {
        println!(
            "  run {:>2}: {:>8.3} ms   {:<8} balance {:>6.2}",
            record.run,
            record.exec_us as f64 / 1000.0,
            record.mutation.map(|m| m.to_string()).unwrap_or_else(|| "serial".into()),
            record.balance,
        );
    }
    // A mutant keeps its serial plan's nodes; its parallelism is in the
    // parts its nodes' cuts make.
    let parts: usize = report.best_plan.count_by_name().values().sum();
    println!("  best plan: {} operators in {parts} parts", report.best_plan.node_count());
    println!();
    print!("{}", report.summary());
    println!("result unchanged: {}", report.final_output == serial.output);

    // 5. The scheduler's dispatch counters: how much work stayed local vs.
    //    was stolen or injected, and how long tasks sat queued.
    let stats = engine.scheduler_stats();
    println!();
    println!(
        "scheduler: {} tasks, {:.0}% local, {} steals, {:.3} ms total queue wait",
        stats.total_executed(),
        stats.locality() * 100.0,
        stats.total_steals(),
        stats.total_queue_wait_us() as f64 / 1000.0,
    );

    // 6. The same query cut into morsels: compatible operator chains fuse
    //    into pipelines, the input is cut into fixed-size morsels, and each
    //    morsel flows through all fused stages as one scheduler task.
    //    Results are byte-identical; the dispatch granularity (and the
    //    work-stealing locality) changes.
    let morsel_plan = serial_plan.cut_into_morsels(DEFAULT_MORSEL_ROWS);
    let morsel = Engine::with_workers(8).execute(&morsel_plan, &catalog)?;
    println!();
    println!("morsels        : {}", morsel.output.summary());
    println!("identical      : {}", morsel.output == serial.output);
    // Every stage of a pipeline names it by its terminal stage, and the
    // terminal records one task per morsel with the worker that ran it.
    let ops = &morsel.profile.operators;
    for terminal in ops.iter().filter(|o| o.step == Some(o.node)) {
        let stages = ops.iter().filter(|o| o.step == Some(terminal.node)).map(|o| o.node);
        let stages: Vec<_> = stages.collect();
        let workers: Vec<_> = terminal.tasks.iter().map(|t| t.worker).collect();
        let n_morsels = terminal.tasks.len();
        println!("  pipeline over nodes {stages:?}: {n_morsels} morsels, on workers {workers:?}");
    }
    println!("  morsels per worker: {:?}", morsel.profile.morsels_by_worker());

    // Where to next: under concurrency, `Engine::reserve_admitted` gives
    // each client the equal share of the pool and re-grants the survivors
    // when a client leaves. See the `elastic_concurrency` example for the
    // churn shape next to a one-shot admission grant:
    //
    //     cargo run --release --example elastic_concurrency
    Ok(())
}
