//! A catalog of named tables shared by the execution engine and workloads.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::error::{ColumnarError, Result};
use crate::table::Table;

/// A named collection of tables (one database instance).
///
/// The catalog is immutable once handed to the engine; workloads register all
/// generated tables up front. `BTreeMap` keeps iteration order deterministic
/// for reproducible experiments.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    tables: BTreeMap<String, Arc<Table>>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Registers (or replaces) a table under its own name.
    pub fn register(&mut self, table: Arc<Table>) {
        self.tables.insert(table.name().to_string(), table);
    }

    /// Looks up a table.
    pub fn table(&self, name: &str) -> Result<&Arc<Table>> {
        self.tables.get(name).ok_or_else(|| ColumnarError::UnknownTable(name.to_string()))
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when no tables are registered.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Total approximate size of the catalog in bytes.
    pub fn byte_size(&self) -> usize {
        self.tables.values().map(|t| t.byte_size()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;

    fn table(name: &str, rows: usize) -> Arc<Table> {
        TableBuilder::new(name).i64_column("id", (0..rows as i64).collect()).build().unwrap()
    }

    #[test]
    fn register_and_lookup() {
        let mut c = Catalog::new();
        assert!(c.is_empty());
        c.register(table("part", 10));
        c.register(table("lineitem", 100));
        assert_eq!(c.len(), 2);
        assert_eq!(c.table("lineitem").unwrap().row_count(), 100);
        assert!(matches!(c.table("orders").unwrap_err(), ColumnarError::UnknownTable(_)));
        assert!(c.byte_size() > 0);
    }

    #[test]
    fn replace_table() {
        let mut c = Catalog::new();
        c.register(table("t", 1));
        c.register(table("t", 9));
        assert_eq!(c.len(), 1);
        assert_eq!(c.table("t").unwrap().row_count(), 9);
    }
}
