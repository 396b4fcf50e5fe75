//! Schemas: ordered, named, typed fields.

use crate::error::StorageError;
use crate::value::DataType;

/// One named, typed column declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name (unique within a schema).
    pub name: String,
    /// Column data type.
    pub data_type: DataType,
    /// Whether NULLs are permitted.
    pub nullable: bool,
}

impl Field {
    /// A non-nullable field.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Self {
            name: name.into(),
            data_type,
            nullable: false,
        }
    }

    /// A nullable field.
    pub fn nullable(name: impl Into<String>, data_type: DataType) -> Self {
        Self {
            name: name.into(),
            data_type,
            nullable: true,
        }
    }
}

/// An ordered collection of fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Creates a schema from fields.
    ///
    /// # Panics
    /// Panics if two fields share a name — schemas are construction-time
    /// artifacts, so a duplicate is a programming error, not runtime input.
    pub fn new(fields: Vec<Field>) -> Self {
        for (i, f) in fields.iter().enumerate() {
            assert!(
                !fields[..i].iter().any(|g| g.name == f.name),
                "duplicate column name in schema: {}",
                f.name
            );
        }
        Self { fields }
    }

    /// The fields, in declaration order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the schema has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Index of the named field.
    pub fn index_of(&self, name: &str) -> Result<usize, StorageError> {
        self.fields
            .iter()
            .position(|f| f.name == name)
            .ok_or_else(|| StorageError::ColumnNotFound {
                name: name.to_string(),
            })
    }

    /// The named field.
    pub fn field(&self, name: &str) -> Result<&Field, StorageError> {
        self.index_of(name).map(|i| &self.fields[i])
    }

    /// Field at a positional index.
    pub fn field_at(&self, index: usize) -> &Field {
        &self.fields[index]
    }

    /// Column names in order.
    pub fn names(&self) -> Vec<&str> {
        self.fields.iter().map(|f| f.name.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::nullable("price", DataType::Float64),
            Field::new("tag", DataType::Str),
        ])
    }

    #[test]
    fn lookup_by_name_and_index() {
        let s = schema();
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.index_of("price").unwrap(), 1);
        assert_eq!(s.field("tag").unwrap().data_type, DataType::Str);
        assert_eq!(s.field_at(0).name, "id");
        assert_eq!(s.names(), vec!["id", "price", "tag"]);
    }

    #[test]
    fn missing_column_errors() {
        let s = schema();
        assert!(matches!(
            s.index_of("nope"),
            Err(StorageError::ColumnNotFound { .. })
        ));
    }

    #[test]
    fn nullable_flag() {
        let s = schema();
        assert!(!s.field("id").unwrap().nullable);
        assert!(s.field("price").unwrap().nullable);
    }

    #[test]
    #[should_panic(expected = "duplicate column name")]
    fn rejects_duplicates() {
        Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("a", DataType::Float64),
        ]);
    }
}
