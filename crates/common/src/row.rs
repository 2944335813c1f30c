//! Rows and schemas.

use std::fmt;
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::value::{DataType, Value};

/// A column definition: name, type and nullability.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (lower-cased by the binder).
    pub name: String,
    /// Declared type.
    pub ty: DataType,
    /// Whether NULLs are accepted.
    pub nullable: bool,
}

impl Column {
    /// A nullable column of the given name and type.
    pub fn new(name: impl Into<String>, ty: DataType) -> Self {
        Column {
            name: name.into().to_ascii_lowercase(),
            ty,
            nullable: true,
        }
    }

    /// A NOT NULL column of the given name and type.
    pub fn not_null(name: impl Into<String>, ty: DataType) -> Self {
        Column {
            nullable: false,
            ..Column::new(name, ty)
        }
    }
}

/// An ordered list of columns describing a row shape.
///
/// Schemas are cheaply cloneable (`Arc` inside) because every operator in a
/// plan carries one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Arc<Vec<Column>>,
}

impl Schema {
    /// Build a schema from columns.
    pub fn new(columns: Vec<Column>) -> Self {
        Schema {
            columns: Arc::new(columns),
        }
    }

    /// The empty schema (used by DDL results).
    pub fn empty() -> Self {
        Schema::new(Vec::new())
    }

    /// All columns in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True when the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Position of a column by (case-insensitive) name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Positions of the named columns, in order; `Err` naming the first
    /// unknown one.
    pub fn indexes_of<S: AsRef<str>>(&self, names: &[S]) -> Result<Vec<usize>> {
        names
            .iter()
            .map(|c| {
                let c = c.as_ref();
                self.index_of(c)
                    .ok_or_else(|| Error::binder(format!("unknown column '{c}'")))
            })
            .collect()
    }

    /// The column at `idx`.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// A schema concatenating `self`'s columns with `other`'s (join output).
    pub fn join(&self, other: &Schema) -> Schema {
        let mut cols = Vec::with_capacity(self.len() + other.len());
        cols.extend_from_slice(self.columns());
        cols.extend_from_slice(other.columns());
        Schema::new(cols)
    }

    /// Validate that `row` matches this schema in arity, type and
    /// nullability; coerces values where [`Value::coerce_to`] allows it.
    pub fn check_row(&self, row: &Row) -> Result<Row> {
        if row.len() != self.len() {
            return Err(Error::type_error(format!(
                "row has {} values, schema has {} columns",
                row.len(),
                self.len()
            )));
        }
        let mut out = Vec::with_capacity(row.len());
        for (v, c) in row.values().iter().zip(self.columns().iter()) {
            if v.is_null() {
                if !c.nullable {
                    return Err(Error::constraint(format!(
                        "column '{}' is NOT NULL",
                        c.name
                    )));
                }
                out.push(Value::Null);
            } else {
                out.push(v.coerce_to(c.ty)?);
            }
        }
        Ok(Row::new(out))
    }
}

/// The columns of a row layout that somebody reads — the set a base-table
/// access node hands to the row decoder so that unread `text` values are
/// skipped rather than copied.
///
/// A 64-bit mask: layouts wider than that keep working because a position
/// past the mask always counts as a member (never pruned).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnSet(u64);

impl ColumnSet {
    const BITS: usize = u64::BITS as usize;

    /// Every column.
    pub const fn all() -> Self {
        ColumnSet(u64::MAX)
    }

    /// No column (of the first 64).
    pub const fn none() -> Self {
        ColumnSet(0)
    }

    /// Add position `col`.
    pub fn insert(&mut self, col: usize) {
        if col < Self::BITS {
            self.0 |= 1 << col;
        }
    }

    /// Is position `col` a member?
    #[inline]
    pub fn contains(self, col: usize) -> bool {
        col >= Self::BITS || (self.0 >> col) & 1 == 1
    }

    /// Members among the first `width` positions.
    pub fn count(self, width: usize) -> usize {
        (0..width).filter(|&c| self.contains(c)).count()
    }

    /// Split a set over a concatenated layout (`left ‖ right`, the left
    /// side `at` columns wide) into one set per side. Ones are shifted into
    /// the right side's top, so a right-hand column whose concatenated
    /// position lay past the mask stays a member.
    pub fn split_at(self, at: usize) -> (ColumnSet, ColumnSet) {
        if at >= Self::BITS {
            return (self, ColumnSet::all());
        }
        (
            ColumnSet(self.0 & ((1 << at) - 1)),
            ColumnSet(!(!self.0 >> at)),
        )
    }
}

/// A tuple of values. The engine passes rows by value between operators; the
/// inner `Vec` is reused where possible to limit allocation in hot paths.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Row {
    values: Vec<Value>,
}

impl Row {
    /// Build a row from values.
    pub fn new(values: Vec<Value>) -> Self {
        Row { values }
    }

    /// All values in order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True for the zero-column row.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The value at `idx`.
    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// Consume the row, yielding its values.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    /// Mutable access (used by UPDATE).
    pub fn set(&mut self, idx: usize, v: Value) {
        self.values[idx] = v;
    }

    /// The value vector itself, for a decoder that refills one row in place.
    pub fn values_mut(&mut self) -> &mut Vec<Value> {
        &mut self.values
    }

    /// Concatenate two rows (join output).
    pub fn concat(&self, other: &Row) -> Row {
        let mut v = Vec::with_capacity(self.len() + other.len());
        v.extend_from_slice(self.values());
        v.extend_from_slice(other.values());
        Row::new(v)
    }

    /// Project the row onto the given positions.
    pub fn project(&self, positions: &[usize]) -> Row {
        Row::new(positions.iter().map(|&i| self.values[i].clone()).collect())
    }

    /// Approximate byte size (storage + growth accounting).
    pub fn byte_size(&self) -> usize {
        2 + self.values.iter().map(Value::byte_size).sum::<usize>()
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row::new(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::not_null("id", DataType::Int),
            Column::new("name", DataType::Str),
        ])
    }

    #[test]
    fn index_of_is_case_insensitive() {
        let s = schema();
        assert_eq!(s.index_of("ID"), Some(0));
        assert_eq!(s.index_of("Name"), Some(1));
        assert_eq!(s.index_of("missing"), None);
    }

    #[test]
    fn check_row_coerces_and_rejects() {
        let s = schema();
        let ok = s
            .check_row(&Row::new(vec![Value::Str("3".into()), Value::Null]))
            .unwrap();
        assert_eq!(ok.get(0), &Value::Int(3));
        assert!(s
            .check_row(&Row::new(vec![Value::Null, Value::Null]))
            .is_err());
        assert!(s.check_row(&Row::new(vec![Value::Int(1)])).is_err());
    }

    #[test]
    fn column_set_membership_and_split() {
        let mut set = ColumnSet::none();
        for c in [1, 4, 5, 70] {
            set.insert(c);
        }
        assert!(set.contains(1) && set.contains(5) && !set.contains(0) && !set.contains(63));
        assert!(set.contains(64), "positions past the mask are never pruned");
        assert_eq!(set.count(6), 3);
        assert_eq!(ColumnSet::all().count(9), 9);
        // Layout: 3 columns on the left, the rest on the right.
        let (l, r) = set.split_at(3);
        assert_eq!((l.count(3), l.contains(1), l.contains(4)), (1, true, false));
        assert!(r.contains(1) && r.contains(2) && !r.contains(0) && !r.contains(3));
        // Right-hand column 61 sat at concatenated position 64: kept.
        assert!(!r.contains(60) && r.contains(61) && r.contains(63));
        assert_eq!(set.split_at(64), (set, ColumnSet::all()));
    }

    #[test]
    fn join_concat_project() {
        let s = schema().join(&schema());
        assert_eq!(s.len(), 4);
        let r = Row::new(vec![Value::Int(1), Value::Int(2)]);
        let j = r.concat(&Row::new(vec![Value::Int(3)]));
        assert_eq!(j.len(), 3);
        assert_eq!(j.project(&[2, 0]).values(), &[Value::Int(3), Value::Int(1)]);
    }
}
