//! Medium mutation: a node that packs its stream's parts adopts them.
//!
//! Paper §2.1: "Medium mutation handles plan parallelization when the
//! exchange union operator (U) itself turns out to be expensive, as a result
//! of intermediate data copying due to low selectivity input. ... The
//! mutation process involves propagating the inputs to the exchange union
//! operator, to its data flow dependent operators. The data flow dependent
//! operators are cloned to match the exchange union operator's input."
//!
//! Here the union is the pack a node makes when it reads a multi-part stream
//! whole, in its own time. Adopting the stream's parts is the propagation:
//! the node runs once per part, nothing is copied, and no node is added —
//! so the paper's guard against plan explosion (§2.3) has nothing to guard.

use apq_engine::plan::{Cuts, NodeId, Plan};

use crate::error::{CoreError, Result};
use crate::mutation::{MutationKind, MutationOutcome};

/// Applies the medium mutation to `target`: when it can run in parts, has
/// no cuts of its own and streams a producer whose output comes in several
/// parts ([`Plan::in_parts`]), it adopts that producer's parts.
///
/// Returns `Ok(None)` when the mutation does not apply; `Err` means `target`
/// is not in the plan.
pub fn adopt_stream(plan: &mut Plan, target: NodeId) -> Result<Option<MutationOutcome>> {
    let node = plan.node(target).map_err(CoreError::from)?;
    let parted = node.stream().is_some_and(|stream| plan.in_parts(stream));
    if !(parted && node.cuts.is_whole() && node.spec.is_parallelizable()) {
        return Ok(None);
    }
    plan.node_mut(target).map_err(CoreError::from)?.cuts = Cuts::Adopt;
    Ok(Some(MutationOutcome { kind: MutationKind::Medium, target }))
}
