//! Basic and advanced mutation: a new cut in the expensive operator's
//! dearest part.
//!
//! Paper §2.1: "Basic mutation involves parallelization of an expensive
//! operator by introducing two new operators of the same type ... The cloned
//! operators work on the expensive operator's partitioned data ... An
//! exchange union operator (either a newly introduced or an existing one)
//! combines the result of the cloned operators."
//!
//! Here the operator's parts are its clones: a cut that halves its dearest
//! part introduces the two, and the driver's part list is the union that
//! combines them. The *advanced* mutation is the same cut in a non-filtering
//! operator (grouped or scalar aggregation), whose parts' partial
//! aggregates merge as they are published. The halves may differ in size
//! from the node's other parts, so the plan keeps the paper's dynamically
//! sized partitions (Fig. 8).

use apq_engine::plan::{Cuts, OperatorSpec, Plan};
use apq_engine::OperatorProfile;

use crate::config::AdaptiveConfig;
use crate::error::{CoreError, Result};
use crate::mutation::{MutationKind, MutationOutcome};

/// Applies the basic / advanced mutation to the node `op` profiles: the
/// dearest of its profiled parts ([`OperatorProfile::tasks`], the earliest
/// among equals) is halved by a new cut, the left half taking the odd row.
/// A node that adopted its stream's parts, or was cut into morsels, keeps
/// its parts as explicit cuts.
///
/// Returns `Ok(None)` when the mutation does not apply: the operator cannot
/// run in parts, `op` records no parts, or the dearest part holds fewer
/// than two partitions of [`AdaptiveConfig::min_partition_rows`]. `Err`
/// means the node is not in the plan.
pub fn cut_dearest_part(
    plan: &mut Plan,
    op: &OperatorProfile,
    config: &AdaptiveConfig,
) -> Result<Option<MutationOutcome>> {
    let node = plan.node_mut(op.node).map_err(CoreError::from)?;
    let dearest = op.tasks.iter().max_by_key(|t| (t.us, std::cmp::Reverse(t.range.start)));
    let Some(dearest) = dearest.filter(|_| node.spec.is_parallelizable()).map(|t| t.range) else {
        return Ok(None);
    };
    if dearest.len() < 2 * config.min_partition_rows.max(1) {
        return Ok(None);
    }
    let mut at = match &node.cuts {
        Cuts::At(at) => at.clone(),
        Cuts::Adopt | Cuts::Every(_) => {
            op.tasks.iter().map(|t| t.range.start).filter(|&s| s > 0).collect()
        }
    };
    at.push(dearest.split_even(2)[1].start);
    at.sort_unstable();
    at.dedup();
    node.cuts = Cuts::At(at);
    let kind = match node.spec {
        OperatorSpec::ScalarAgg { .. } | OperatorSpec::GroupAgg { .. } => MutationKind::Advanced,
        _ => MutationKind::Basic,
    };
    Ok(Some(MutationOutcome { kind, target: op.node }))
}
