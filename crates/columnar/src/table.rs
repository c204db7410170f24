//! Tables: named collections of equally long columns.

use std::collections::HashMap;
use std::sync::Arc;

use crate::column::Column;
use crate::error::{ColumnarError, Result};
use crate::value::DataType;

/// An immutable table: ordered, named columns of identical length.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    columns: Vec<(String, Column)>,
    index: HashMap<String, usize>,
    row_count: usize,
}

impl Table {
    /// Name of the table.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.row_count
    }

    /// Number of columns.
    pub fn column_count(&self) -> usize {
        self.columns.len()
    }

    /// Looks up a column by name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        self.index
            .get(name)
            .map(|&i| &self.columns[i].1)
            .ok_or_else(|| ColumnarError::UnknownColumn(format!("{}.{}", self.name, name)))
    }

    /// Logical type of a column.
    pub fn column_type(&self, name: &str) -> Result<DataType> {
        Ok(self.column(name)?.data_type())
    }

    /// Approximate in-memory size of the table in bytes.
    pub fn byte_size(&self) -> usize {
        self.columns.iter().map(|(_, c)| c.byte_size()).sum()
    }

    /// All columns as `(name, column)` pairs.
    pub fn columns(&self) -> &[(String, Column)] {
        &self.columns
    }
}

/// Builder used by the data generators to assemble a [`Table`].
#[derive(Debug, Default)]
pub struct TableBuilder {
    name: String,
    columns: Vec<(String, Column)>,
}

impl TableBuilder {
    /// Starts a builder for a table with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        TableBuilder { name: name.into(), columns: Vec::new() }
    }

    /// Adds a column. Columns must all have the same length; this is checked
    /// when [`TableBuilder::build`] is called.
    pub fn column(mut self, name: impl Into<String>, column: Column) -> Self {
        self.columns.push((name.into(), column));
        self
    }

    /// Convenience: add an `Int64` column from values.
    pub fn i64_column(self, name: impl Into<String>, values: Vec<i64>) -> Self {
        self.column(name, Column::from_i64(values))
    }

    /// Convenience: add an `Int32` column from values.
    pub fn i32_column(self, name: impl Into<String>, values: Vec<i32>) -> Self {
        self.column(name, Column::from_i32(values))
    }

    /// Convenience: add a `Float64` column from values.
    pub fn f64_column(self, name: impl Into<String>, values: Vec<f64>) -> Self {
        self.column(name, Column::from_f64(values))
    }

    /// Convenience: add a string column from values.
    pub fn str_column<S: AsRef<str>>(self, name: impl Into<String>, values: Vec<S>) -> Self {
        self.column(name, Column::from_strings(values))
    }

    /// Finalizes the table, validating that all columns are equally long
    /// and that no two share a name.
    pub fn build(self) -> Result<Arc<Table>> {
        let row_count = self.columns.first().map(|(_, c)| c.len()).unwrap_or(0);
        for (name, col) in &self.columns {
            if col.len() != row_count {
                return Err(ColumnarError::RaggedTable {
                    column: name.clone(),
                    len: col.len(),
                    expected: row_count,
                });
            }
        }
        let mut index = HashMap::with_capacity(self.columns.len());
        for (i, (name, _)) in self.columns.iter().enumerate() {
            if index.insert(name.clone(), i).is_some() {
                return Err(ColumnarError::DuplicateColumn(format!("{}.{}", self.name, name)));
            }
        }
        Ok(Arc::new(Table { name: self.name, columns: self.columns, index, row_count }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Arc<Table> {
        TableBuilder::new("lineitem")
            .i64_column("l_quantity", vec![1, 2, 3])
            .f64_column("l_discount", vec![0.1, 0.2, 0.3])
            .str_column("l_shipmode", vec!["AIR", "RAIL", "AIR"])
            .build()
            .unwrap()
    }

    #[test]
    fn builds_and_reads_columns() {
        let t = sample();
        assert_eq!(t.name(), "lineitem");
        assert_eq!(t.row_count(), 3);
        assert_eq!(t.column_count(), 3);
        assert_eq!(t.column("l_quantity").unwrap().i64_values().unwrap(), &[1, 2, 3]);
        assert_eq!(t.column_type("l_discount").unwrap(), DataType::Float64);
        assert!(t.byte_size() > 0);
    }

    #[test]
    fn unknown_column_is_an_error() {
        let t = sample();
        let err = t.column("nope").unwrap_err();
        assert!(matches!(err, ColumnarError::UnknownColumn(_)));
        assert!(err.to_string().contains("lineitem.nope"));
    }

    #[test]
    fn ragged_tables_rejected() {
        let err = TableBuilder::new("bad")
            .i64_column("a", vec![1, 2, 3])
            .i64_column("b", vec![1])
            .build()
            .unwrap_err();
        assert!(matches!(err, ColumnarError::RaggedTable { .. }));
    }

    #[test]
    fn duplicate_column_names_rejected() {
        let err = TableBuilder::new("t")
            .i64_column("a", vec![1, 2])
            .i64_column("b", vec![3, 4])
            .i64_column("a", vec![5, 6])
            .build()
            .unwrap_err();
        assert_eq!(err, ColumnarError::DuplicateColumn("t.a".into()));
        assert!(err.to_string().contains("'t.a'"), "{err}");
    }

    #[test]
    fn empty_table_is_fine() {
        let t = TableBuilder::new("empty").build().unwrap();
        assert_eq!(t.row_count(), 0);
        assert_eq!(t.column_count(), 0);
    }
}
