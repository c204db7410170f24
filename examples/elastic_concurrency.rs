//! Admission under client churn: a one-shot grant next to a share that
//! follows the census.
//!
//! The churn shape of the paper's §4.2.4: a short query is in flight, a long
//! one is admitted behind it, the short one leaves. Run twice on the same
//! engine:
//!
//! * **static** — `AdmissionController::execute_admitted`, the Vectorwise
//!   model: each client's DOP is fixed when it is admitted. The long query
//!   arrives second, is granted half the pool and keeps that cap after its
//!   peer has gone — the degradation the paper hypothesises.
//! * **census** — `Engine::reserve_admitted`: the grant is the equal share
//!   of the pool among the live reservations, recomputed where that
//!   population changes. The long query is admitted at the same half, and
//!   re-granted the whole pool the moment the short client's reservation
//!   drops.
//!
//! For each regime the survivor's latency and `QueryProfile::dop_timeline`
//! are printed side by side.
//!
//! ```text
//! cargo run --release --example elastic_concurrency
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use adaptive_parallelization::baselines::AdmissionController;
use adaptive_parallelization::columnar::{datagen, Catalog, TableBuilder};
use adaptive_parallelization::engine::{
    Engine, Plan, QueryExecution, QueryProfile, DEFAULT_MORSEL_ROWS,
};
use adaptive_parallelization::operators::{AggFunc, BinaryOp, CmpOp, Predicate};
use adaptive_parallelization::workloads::PlanBuilder;

const WORKERS: usize = 2;
const ROUNDS: usize = 7;

/// sum(amount * (100 - discount) / 100) over `table`'s rows with region < cut.
fn revenue_plan(catalog: &Catalog, table: &str, cut: i64) -> Plan {
    let mut b = PlanBuilder::new(catalog);
    let region = b.scan(table, "region").expect("column exists");
    let selected = b.select(region, Predicate::cmp(CmpOp::Lt, cut));
    let amount = b.scan(table, "amount").expect("column exists");
    let discount = b.scan(table, "discount").expect("column exists");
    let amount_f = b.fetch(selected, amount);
    let discount_f = b.fetch(selected, discount);
    let one_minus = b.scalar_calc(BinaryOp::Sub, 100i64, discount_f);
    let revenue = b.calc(BinaryOp::Mul, amount_f, one_minus);
    let revenue = b.calc_scalar(BinaryOp::Div, revenue, 100i64);
    let total = b.scalar_agg(AggFunc::Sum, revenue);
    b.finish(total).expect("plan builds")
}

/// One churn round: `submit` the short query, `submit` the long one as soon
/// as the short is in flight, return the long one's latency and execution.
fn churn(
    engine: &Engine,
    short: &Arc<Plan>,
    long: &Arc<Plan>,
    submit: &(dyn Fn(&Arc<Plan>) -> QueryExecution + Sync),
) -> (Duration, QueryExecution) {
    std::thread::scope(|scope| {
        let peer = scope.spawn(|| submit(short));
        while engine.in_flight_queries() == 0 && !peer.is_finished() {
            std::thread::yield_now();
        }
        let started = Instant::now();
        let survivor = submit(long);
        let latency = started.elapsed();
        peer.join().expect("short client");
        (latency, survivor)
    })
}

fn timeline(profile: &QueryProfile) -> String {
    let events: Vec<String> = profile
        .dop_timeline
        .iter()
        .map(|e| format!("{:?} {} @{}us", e.phase, e.dop, e.at_us))
        .collect();
    events.join(" -> ")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The short client reads a table an eighth the size of the survivor's.
    let mut catalog = Catalog::new();
    for (table, rows) in [("recent", 500_000), ("sales", 4_000_000)] {
        catalog.register(
            TableBuilder::new(table)
                .i64_column("amount", datagen::prices_decimal2(rows, 1.0, 500.0, 1))
                .i64_column("discount", datagen::uniform_i64(rows, 0, 11, 2))
                .i64_column("region", datagen::uniform_i64(rows, 0, 25, 3))
                .build()?,
        );
    }
    let catalog = Arc::new(catalog);
    // Plans cut into morsels: morsel fan-out supplies the parallelism and
    // the scheduler enforces whatever cap admission hands out.
    let morsels = |table| revenue_plan(&catalog, table, 23).cut_into_morsels(DEFAULT_MORSEL_ROWS);
    let short = Arc::new(morsels("recent"));
    let long = Arc::new(morsels("sales"));
    let engine = Engine::with_workers(WORKERS);
    let expected = engine.execute_shared(&long, &catalog)?.output;

    let admission = AdmissionController::new(WORKERS);
    let one_shot = |plan: &Arc<Plan>| {
        admission.execute_admitted(&engine, plan, &catalog).expect("query executes").0
    };
    let census = |plan: &Arc<Plan>| {
        let reservation = engine.reserve_admitted();
        engine.execute_with_handle(plan, &catalog, reservation.handle()).expect("query executes")
        // The reservation drops here: the release that re-grants the peer.
    };

    println!(
        "churn on {WORKERS} workers: a short query in flight, a long one admitted behind it, \
         the short one leaves ({ROUNDS} rounds each, alternated)"
    );
    let mut runs: [Vec<(Duration, QueryExecution)>; 2] = [Vec::new(), Vec::new()];
    for _ in 0..ROUNDS {
        runs[0].push(churn(&engine, &short, &long, &one_shot));
        runs[1].push(churn(&engine, &short, &long, &census));
    }

    let mut medians = Vec::new();
    for (label, mut regime) in ["static", "census"].into_iter().zip(runs) {
        regime.sort_by_key(|(latency, _)| *latency);
        let (fastest, slowest) = (regime[0].0, regime[ROUNDS - 1].0);
        let (median, exec) = &regime[ROUNDS / 2];
        assert_eq!(exec.output, expected, "admission changed a result");
        println!();
        println!(
            "  {label}: survivor latency {:.1} ms (median; {:.1}-{:.1})",
            median.as_secs_f64() * 1e3,
            fastest.as_secs_f64() * 1e3,
            slowest.as_secs_f64() * 1e3,
        );
        println!("  {:<6}  dop timeline [{}]", "", timeline(&exec.profile));
        println!(
            "  {:<6}  re-granted mid-flight: {}",
            "",
            if exec.profile.dop_was_regranted() { "yes" } else { "no" }
        );
        medians.push(*median);
    }
    println!();
    println!(
        "static / census survivor latency: {:.2}x",
        medians[0].as_secs_f64() / medians[1].as_secs_f64()
    );
    Ok(())
}
