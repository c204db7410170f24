//! Service churn stress: concurrent sessions submitting through the
//! shared plan/result caches must return byte-identical results to a
//! direct `Engine` execution of the same plans — across plans as built
//! and cut into morsels × cache hit/miss.
//!
//! Each configuration runs several client threads with their own
//! sessions; half the clients close mid-run (staggered departures), so
//! the census shrinks while survivors keep submitting and every release
//! re-grants DOP concurrently with cache churn.

use std::sync::Arc;

use adaptive_parallelization::engine::{
    Engine, EngineConfig, EngineError, QueryOutput, QueryService, ServiceConfig,
};
use adaptive_parallelization::workloads::tpch::{self, TpchQuery, TpchScale};

const WORKERS: usize = 4;
const MORSEL_ROWS: usize = 1_000;
const CLIENTS: usize = 6;
const ROUNDS: usize = 3;

/// The query mix every client cycles through.
const QUERIES: [TpchQuery; 3] = [TpchQuery::Q4, TpchQuery::Q6, TpchQuery::Q14];

/// Every configuration submits its plans as built (`None`) and cut into
/// morsels of [`MORSEL_ROWS`] rows.
const MORSELS: [Option<usize>; 2] = [None, Some(MORSEL_ROWS)];

#[test]
fn churning_sessions_return_byte_identical_results_across_the_matrix() {
    let catalog = tpch::generate(TpchScale::new(0.002), 1234);
    let reference = Engine::with_workers(WORKERS);
    let expected: Vec<QueryOutput> = QUERIES
        .iter()
        .map(|q| {
            let plan = q.build(&catalog).expect("plan builds");
            reference.execute(&plan, &catalog).expect("reference executes").output
        })
        .collect();

    for morsels in MORSELS {
        let label = format!("morsels {morsels:?}");
        let service = QueryService::new(
            ServiceConfig::with_engine(EngineConfig::with_workers(WORKERS)),
            Arc::clone(&catalog),
        );

        let threads: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let service = service.clone();
                let catalog = Arc::clone(&catalog);
                let expected = expected.clone();
                let label = label.clone();
                std::thread::spawn(move || {
                    let session = service.connect();
                    for round in 0..ROUNDS {
                        // Staggered departures: odd clients leave
                        // after the first round and must be refused
                        // from then on, shrinking the census the
                        // survivors are re-granted from.
                        if client % 2 == 1 && round == 1 {
                            session.close();
                        }
                        for (q, want) in QUERIES.iter().zip(&expected) {
                            let plan = q.build(&catalog).expect("plan builds");
                            let plan = match morsels {
                                Some(rows) => plan.cut_into_morsels(rows),
                                None => plan,
                            };
                            match session.submit(&plan) {
                                Ok(response) => {
                                    assert!(!session.is_closed());
                                    assert_eq!(
                                        &response.output, want,
                                        "{label} client {client} round {round} {q}: \
                                         result diverged from direct engine"
                                    );
                                    // A hit skips execution, a miss
                                    // profiles one — never both.
                                    assert_eq!(
                                        response.profile.is_none(),
                                        response.result_cache_hit,
                                        "{label}: hit/profile disagree"
                                    );
                                }
                                Err(err) => {
                                    assert!(session.is_closed());
                                    assert_eq!(err, EngineError::SessionClosed);
                                }
                            }
                        }
                    }
                    session.close();
                })
            })
            .collect();
        for t in threads {
            t.join().expect("client thread panicked");
        }

        // Both cache outcomes were exercised: first submissions
        // missed, repeats (cross-session, shared cache) hit.
        let stats = service.stats();
        assert!(stats.result_cache_hits > 0, "{label}: no cache hits exercised");
        assert!(stats.result_cache_misses >= QUERIES.len() as u64, "{label}: no misses");
        assert_eq!(
            stats.result_cache_hits + stats.result_cache_misses,
            stats.queries,
            "{label}: per-query cache accounting drifted"
        );
        assert_eq!(stats.sessions_opened, CLIENTS as u64, "{label}");
        assert_eq!(stats.sessions_closed, CLIENTS as u64, "{label}");
        // The census drains completely once every client is gone.
        assert!(
            service.engine().reservations().is_empty(),
            "{label}: reservations leaked past their sessions"
        );
    }
}
