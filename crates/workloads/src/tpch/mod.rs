//! TPC-H-like workload: schema, scaled data generator and the evaluated
//! query subset (paper Table 4: simple = Q6, Q14; complex = Q4, Q8, Q9, Q19,
//! Q22).
//!
//! The official dbgen tool is not available offline, so [`datagen`] produces
//! a synthetic database with the same schema shape (fact table `lineitem`
//! plus `orders`, `part`, `customer`, `supplier`, `nation`), uniform value
//! distributions (TPC-H "has uniformly distributed data", §4.2.1), realistic
//! foreign keys (every key column `Int32`, as TPC-H's identifier type allows)
//! and the string domains the evaluated predicates rely on
//! (`p_type` prefixes for Q14, ship modes for Q19, ...). Row counts scale
//! linearly with the scale factor exactly as in TPC-H (`lineitem ≈ 6 M × SF`).

pub mod datagen;
pub mod queries;

pub use datagen::{generate, TpchScale};
pub use queries::TpchQuery;
