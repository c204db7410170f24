//! The production front door: client churn rewritten against the
//! [`QueryService`] session API.
//!
//! Where `elastic_concurrency.rs` wires reservation and execution together
//! by hand (`reserve_admitted` → `execute_with_handle`), this example opens
//! a session and submits — the service folds admission into the engine's
//! census, so a submission counts against it for as
//! long as it runs and the survivors are re-granted as others return.
//! A shared result cache turns repeat submissions into cache hits across
//! sessions.
//!
//! ```text
//! cargo run --release --example query_service
//! ```

use std::sync::Arc;

use adaptive_parallelization::columnar::{datagen, Catalog, TableBuilder};
use adaptive_parallelization::engine::{
    DopPhase, EngineConfig, Plan, QueryService, ServiceConfig, DEFAULT_MORSEL_ROWS,
};
use adaptive_parallelization::operators::{AggFunc, BinaryOp, CmpOp, Predicate};
use adaptive_parallelization::workloads::PlanBuilder;

/// sum(amount * (100 - discount) / 100) over rows with region < cut.
fn revenue_plan(catalog: &Catalog, cut: i64) -> Plan {
    let mut b = PlanBuilder::new(catalog);
    let region = b.scan("sales", "region").expect("column exists");
    let selected = b.select(region, Predicate::cmp(CmpOp::Lt, cut));
    let amount = b.scan("sales", "amount").expect("column exists");
    let discount = b.scan("sales", "discount").expect("column exists");
    let amount_f = b.fetch(selected, amount);
    let discount_f = b.fetch(selected, discount);
    let one_minus = b.scalar_calc(BinaryOp::Sub, 100i64, discount_f);
    let revenue = b.calc(BinaryOp::Mul, amount_f, one_minus);
    let revenue = b.calc_scalar(BinaryOp::Div, revenue, 100i64);
    let total = b.scalar_agg(AggFunc::Sum, revenue);
    b.finish(total).expect("plan builds")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workers = 4;
    let rows = 2_000_000;
    let mut catalog = Catalog::new();
    catalog.register(
        TableBuilder::new("sales")
            .i64_column("amount", datagen::prices_decimal2(rows, 1.0, 500.0, 1))
            .i64_column("discount", datagen::uniform_i64(rows, 0, 11, 2))
            .i64_column("region", datagen::uniform_i64(rows, 0, 25, 3))
            .build()?,
    );

    // One long-lived service instance is the whole setup: engine, admission
    // and the result cache behind a cloneable handle.
    let service = QueryService::new(
        ServiceConfig::with_engine(EngineConfig::with_workers(workers)),
        Arc::new(catalog),
    );

    // Plans cut into morsels: each fused chain fans out one task per morsel.
    let morsels = |cut| revenue_plan(&service.catalog(), cut).cut_into_morsels(DEFAULT_MORSEL_ROWS);
    let short_plan = Arc::new(morsels(2));
    let long_plan = Arc::new(morsels(23));

    println!("client churn on {workers} workers (2 short clients, 2 long survivors):");
    let mut clients = Vec::new();
    for (name, plan) in [
        ("long-0", &long_plan),
        ("long-1", &long_plan),
        ("short-0", &short_plan),
        ("short-1", &short_plan),
    ] {
        let service = service.clone();
        let plan = Arc::clone(plan);
        clients.push(std::thread::spawn(move || {
            let session = service.connect();
            let response = session.submit(&plan).expect("query executes");
            // The census slot was released when `submit` returned; sessions
            // close on drop, this one a line early.
            session.close();
            (name, response)
        }));
    }

    let mut results = Vec::new();
    for client in clients {
        results.push(client.join().expect("client thread"));
    }
    results.sort_by_key(|(name, _)| *name);
    for (name, response) in &results {
        println!();
        println!("  {name}: result {}", response.output.summary());
        if let Some(profile) = &response.profile {
            let timeline: Vec<String> = profile
                .dop_timeline
                .iter()
                .map(|e| format!("{:?}:{}@{}us", e.phase, e.dop, e.at_us))
                .collect();
            println!(
                "  {:<12} dop timeline [{}]{}",
                "",
                timeline.join(" -> "),
                if profile.dop_was_regranted() { "  << re-granted mid-flight" } else { "" },
            );
            // Every submission lived as a census-visible reservation before
            // it executed: the unified-admission invariant.
            assert_eq!(profile.dop_timeline[0].phase, DopPhase::Reserve);
        } else {
            println!("  {:<12} answered from the shared result cache", "");
        }
    }

    // Repeat submissions hit the shared result cache (any session).
    let session = service.connect();
    let warm = session.submit(&long_plan)?;
    let stats = service.stats();
    println!();
    println!(
        "warm repeat: cache_hit={}, service totals: {} queries, {} result-cache hits \
         across {} sessions",
        warm.result_cache_hit, stats.queries, stats.result_cache_hits, stats.sessions_opened,
    );
    Ok(())
}
