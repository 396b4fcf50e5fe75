//! Binary wire codec for tables — the storage layer's half of the
//! two-step aggregation contract.
//!
//! A [`Table`] is itself a partial: sharded execution partitions a table's
//! blocks, per-shard operators may materialize small result tables, and a
//! coordinator concatenates them. The codec here serializes schema, blocks,
//! and columns (including validity masks) into the workspace wire format so
//! a table partial can be cached or shipped like any sketch. Strings go on
//! the wire as values, one per slot (`""` under NULL), whatever their
//! dictionary; a decoded table shares one dictionary per STR column, as a
//! built one does.
//!
//! [`encode_value`]/[`decode_value`] are exported for downstream codecs
//! (sampling designs carry stratum-key [`Value`]s in their headers).

use std::sync::Arc;

use aqp_mergeable::{tag, wire, CodecError, MergeError, Partial};
use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::block::Block;
use crate::column::Column;
use crate::dict::StrDict;
use crate::schema::{Field, Schema};
use crate::table::Table;
use crate::value::{DataType, Value};

/// Decoder allocation caps: headers declaring more than this are corrupt.
const MAX_FIELDS: usize = 1 << 12;
const MAX_BLOCKS: usize = 1 << 24;
const MAX_ROWS_PER_BLOCK: usize = 1 << 24;

fn dtype_byte(dt: DataType) -> u8 {
    match dt {
        DataType::Int64 => 0,
        DataType::Float64 => 1,
        DataType::Str => 2,
        DataType::Bool => 3,
    }
}

fn dtype_from_byte(b: u8) -> Result<DataType, CodecError> {
    match b {
        0 => Ok(DataType::Int64),
        1 => Ok(DataType::Float64),
        2 => Ok(DataType::Str),
        3 => Ok(DataType::Bool),
        _ => Err(CodecError::BadDimensions),
    }
}

/// Serializes one scalar [`Value`] (type byte + payload).
pub fn encode_value(buf: &mut BytesMut, v: &Value) {
    match v {
        Value::Null => buf.put_u8(0xFF),
        Value::Int64(x) => {
            buf.put_u8(0);
            wire::write_i64(buf, *x);
        }
        Value::Float64(x) => {
            buf.put_u8(1);
            wire::write_f64(buf, *x);
        }
        Value::Str(s) => {
            buf.put_u8(2);
            wire::write_str(buf, s);
        }
        Value::Bool(b) => {
            buf.put_u8(3);
            buf.put_u8(*b as u8);
        }
    }
}

/// Deserializes one scalar [`Value`].
pub fn decode_value(buf: &mut &[u8]) -> Result<Value, CodecError> {
    match wire::read_u8(buf)? {
        0xFF => Ok(Value::Null),
        0 => Ok(Value::Int64(wire::read_i64(buf)?)),
        1 => Ok(Value::Float64(wire::read_f64(buf)?)),
        2 => Ok(Value::Str(Arc::from(wire::read_str(buf)?.as_str()))),
        3 => Ok(Value::Bool(wire::read_u8(buf)? != 0)),
        _ => Err(CodecError::BadDimensions),
    }
}

fn encode_schema(buf: &mut BytesMut, schema: &Schema) {
    buf.put_u32(schema.len() as u32);
    for f in schema.fields() {
        wire::write_str(buf, &f.name);
        buf.put_u8(dtype_byte(f.data_type));
        buf.put_u8(f.nullable as u8);
    }
}

fn decode_schema(buf: &mut &[u8]) -> Result<Schema, CodecError> {
    let n = wire::read_u32(buf)? as usize;
    if n > MAX_FIELDS {
        return Err(CodecError::BadDimensions);
    }
    let mut fields = Vec::with_capacity(n);
    for _ in 0..n {
        let name = wire::read_str(buf)?;
        let data_type = dtype_from_byte(wire::read_u8(buf)?)?;
        let nullable = wire::read_u8(buf)? != 0;
        if fields.iter().any(|f: &Field| f.name == name) {
            return Err(CodecError::BadDimensions);
        }
        fields.push(Field {
            name,
            data_type,
            nullable,
        });
    }
    Ok(Schema::new(fields))
}

fn encode_column(buf: &mut BytesMut, col: &Column) {
    let encode_validity = |buf: &mut BytesMut, validity: &Option<Vec<bool>>| match validity {
        None => buf.put_u8(0),
        Some(mask) => {
            buf.put_u8(1);
            for &v in mask {
                buf.put_u8(v as u8);
            }
        }
    };
    match col {
        Column::Int64 { data, validity } => {
            encode_validity(buf, validity);
            for &v in data {
                wire::write_i64(buf, v);
            }
        }
        Column::Float64 { data, validity } => {
            encode_validity(buf, validity);
            for &v in data {
                wire::write_f64(buf, v);
            }
        }
        Column::Str {
            codes,
            dict,
            validity,
        } => {
            encode_validity(buf, validity);
            for (i, &code) in codes.iter().enumerate() {
                wire::write_str(buf, if col.is_null(i) { "" } else { dict.value(code) });
            }
        }
        Column::Bool { data, validity } => {
            encode_validity(buf, validity);
            for &v in data {
                buf.put_u8(v as u8);
            }
        }
    }
}

/// Decodes one column of `rows` slots. A STR column's values are interned
/// into `dict`, the table's running dictionary for the column; the column
/// itself is left to [`Block::share_dicts`].
fn decode_column(
    buf: &mut &[u8],
    dt: DataType,
    rows: usize,
    dict: &mut StrDict,
) -> Result<Column, CodecError> {
    let validity = if wire::read_u8(buf)? != 0 {
        wire::need(buf, rows)?;
        let mut mask = Vec::with_capacity(rows);
        for _ in 0..rows {
            mask.push(buf.get_u8() != 0);
        }
        Some(mask)
    } else {
        None
    };
    Ok(match dt {
        DataType::Int64 => {
            wire::need(buf, rows * 8)?;
            let mut data = Vec::with_capacity(rows);
            for _ in 0..rows {
                data.push(buf.get_u64() as i64);
            }
            Column::Int64 { data, validity }
        }
        DataType::Float64 => {
            wire::need(buf, rows * 8)?;
            let mut data = Vec::with_capacity(rows);
            for _ in 0..rows {
                data.push(f64::from_bits(buf.get_u64()));
            }
            Column::Float64 { data, validity }
        }
        DataType::Str => {
            let mut codes = Vec::with_capacity(rows.min(1024));
            for i in 0..rows {
                let s = wire::read_str(buf)?;
                let valid = validity.as_ref().is_none_or(|mask| mask[i]);
                codes.push(if valid { dict.intern(&s) } else { 0 });
            }
            Column::Str {
                codes,
                dict: Arc::default(),
                validity,
            }
        }
        DataType::Bool => {
            wire::need(buf, rows)?;
            let mut data = Vec::with_capacity(rows);
            for _ in 0..rows {
                data.push(buf.get_u8() != 0);
            }
            Column::Bool { data, validity }
        }
    })
}

/// Serializes a table: name, block capacity, schema, then each block's
/// columns in schema order.
pub fn encode_table(t: &Table) -> Bytes {
    let mut buf = BytesMut::with_capacity(64 + t.approx_bytes());
    wire::write_header(&mut buf, tag::TABLE);
    wire::write_str(&mut buf, t.name());
    buf.put_u64(t.block_capacity() as u64);
    encode_schema(&mut buf, t.schema());
    buf.put_u32(t.block_count() as u32);
    for (_, block) in t.iter_blocks() {
        buf.put_u64(block.len() as u64);
        for col in block.columns() {
            encode_column(&mut buf, col);
        }
    }
    buf.freeze()
}

/// Deserializes a table produced by [`encode_table`].
pub fn decode_table(mut buf: &[u8]) -> Result<Table, CodecError> {
    let buf = &mut buf;
    wire::read_header(buf, tag::TABLE)?;
    let name = wire::read_str(buf)?;
    let block_capacity = wire::read_u64(buf)? as usize;
    if block_capacity == 0 {
        return Err(CodecError::BadDimensions);
    }
    let schema = Arc::new(decode_schema(buf)?);
    let num_blocks = wire::read_u32(buf)? as usize;
    if num_blocks > MAX_BLOCKS {
        return Err(CodecError::BadDimensions);
    }
    let mut blocks = Vec::with_capacity(num_blocks.min(1024));
    let mut dicts: Vec<StrDict> = vec![StrDict::default(); schema.len()];
    for _ in 0..num_blocks {
        let rows = wire::read_u64(buf)? as usize;
        if rows > MAX_ROWS_PER_BLOCK {
            return Err(CodecError::BadDimensions);
        }
        let mut columns = Vec::with_capacity(schema.len());
        for (field, dict) in schema.fields().iter().zip(&mut dicts) {
            columns.push(decode_column(buf, field.data_type, rows, dict)?);
        }
        blocks.push(Block::from_columns(Arc::clone(&schema), columns));
    }
    let dicts: Vec<Option<Arc<StrDict>>> = (schema.fields().iter().zip(dicts))
        .map(|(field, mut dict)| {
            dict.freeze();
            (field.data_type == DataType::Str).then(|| Arc::new(dict))
        })
        .collect();
    let blocks = (blocks.into_iter())
        .map(|mut block| {
            block.share_dicts(&dicts);
            Arc::new(block)
        })
        .collect();
    Ok(Table::from_blocks(name, schema, blocks, block_capacity))
}

fn schema_summary(schema: &Schema) -> String {
    let cols: Vec<String> = schema
        .fields()
        .iter()
        .map(|f| format!("{}:{}", f.name, f.data_type))
        .collect();
    format!("[{}]", cols.join(", "))
}

/// Tables merge by block concatenation (zero-copy: the merged table shares
/// the input blocks' `Arc`s). Schemas must be identical; the receiving
/// table's name and block capacity win. Merge-equals-union is exact: the
/// merged table holds precisely the rows of both inputs, in order.
impl Partial for Table {
    fn merge(&mut self, other: &Self) -> Result<(), MergeError> {
        if self.schema().as_ref() != other.schema().as_ref() {
            return Err(MergeError::Incompatible {
                kind: "table",
                expected: schema_summary(self.schema()),
                found: schema_summary(other.schema()),
            });
        }
        let blocks: Vec<Arc<Block>> = self
            .blocks()
            .iter()
            .chain(other.blocks())
            .map(Arc::clone)
            .collect();
        *self = Table::from_blocks(
            self.name().to_string(),
            Arc::clone(self.schema()),
            blocks,
            self.block_capacity(),
        );
        Ok(())
    }

    fn to_bytes(&self) -> Bytes {
        encode_table(self)
    }

    fn from_bytes(buf: &[u8]) -> Result<Self, CodecError> {
        decode_table(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;

    fn sample_table(n: usize) -> Table {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::nullable("price", DataType::Float64),
            Field::new("tag", DataType::Str),
            Field::new("flag", DataType::Bool),
        ]);
        let mut b = TableBuilder::with_block_capacity("t", schema, 7);
        for i in 0..n {
            let price = if i % 5 == 0 {
                Value::Null
            } else {
                Value::Float64(i as f64 * 1.5)
            };
            b.push_row(&[
                Value::Int64(i as i64),
                price,
                Value::str(format!("tag{}", i % 3)),
                Value::Bool(i % 2 == 0),
            ])
            .unwrap();
        }
        b.finish()
    }

    fn tables_equal(a: &Table, b: &Table) -> bool {
        a.name() == b.name()
            && a.schema() == b.schema()
            && a.row_count() == b.row_count()
            && (0..a.row_count()).all(|i| a.row(i) == b.row(i))
    }

    #[test]
    fn table_roundtrip_with_nulls_and_strings() {
        let t = sample_table(23);
        let back = decode_table(&encode_table(&t)).unwrap();
        assert!(tables_equal(&t, &back));
        assert_eq!(back.block_capacity(), t.block_capacity());
        assert_eq!(back.block_count(), t.block_count());
    }

    #[test]
    fn empty_table_roundtrip() {
        let t = sample_table(0);
        let back = decode_table(&encode_table(&t)).unwrap();
        assert_eq!(back.row_count(), 0);
        assert_eq!(back.schema(), t.schema());
    }

    #[test]
    fn truncation_and_corrupt_header_error() {
        let bytes = encode_table(&sample_table(10));
        assert!(decode_table(&[]).is_err());
        for cut in [0, 1, 5, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_table(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut wrong = bytes.to_vec();
        wrong[0] = 0x01;
        assert_eq!(decode_table(&wrong).err(), Some(CodecError::BadMagic(0x01)));
        let mut future = bytes.to_vec();
        future[1] = 99;
        assert_eq!(
            decode_table(&future).err(),
            Some(CodecError::BadVersion(99))
        );
    }

    #[test]
    fn merge_concatenates_rows_in_order() {
        let a = sample_table(10);
        let b = sample_table(25);
        let mut merged = a.clone();
        Partial::merge(&mut merged, &b).unwrap();
        assert_eq!(merged.row_count(), 35);
        for i in 0..10 {
            assert_eq!(merged.row(i), a.row(i));
        }
        for i in 0..25 {
            assert_eq!(merged.row(10 + i), b.row(i));
        }
        // Zero-copy: blocks are shared, not duplicated.
        assert!(Arc::ptr_eq(merged.block(0), a.block(0)));
    }

    #[test]
    fn merge_rejects_schema_mismatch() {
        let mut a = sample_table(3);
        let snapshot_rows = a.row_count();
        let other = {
            let schema = Schema::new(vec![Field::new("x", DataType::Int64)]);
            TableBuilder::new("o", schema).finish()
        };
        let err = Partial::merge(&mut a, &other).unwrap_err();
        assert!(
            matches!(err, MergeError::Incompatible { kind: "table", .. }),
            "{err}"
        );
        assert_eq!(a.row_count(), snapshot_rows);
    }

    #[test]
    fn value_codec_roundtrip() {
        let values = [
            Value::Null,
            Value::Int64(-42),
            Value::Float64(2.5),
            Value::str("héllo"),
            Value::Bool(true),
        ];
        let mut buf = BytesMut::new();
        for v in &values {
            encode_value(&mut buf, v);
        }
        let frozen = buf.freeze();
        let mut slice: &[u8] = &frozen;
        for v in &values {
            assert_eq!(&decode_value(&mut slice).unwrap(), v);
        }
        let mut empty: &[u8] = &[];
        assert!(decode_value(&mut empty).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::table::TableBuilder;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn arbitrary_tables_roundtrip(
            rows in proptest::collection::vec((any::<i64>(), -1e12f64..1e12, any::<bool>()), 0..60),
            cap in 1usize..16,
        ) {
            let schema = Schema::new(vec![
                Field::new("a", DataType::Int64),
                Field::new("b", DataType::Float64),
                Field::new("c", DataType::Bool),
            ]);
            let mut b = TableBuilder::with_block_capacity("p", schema, cap);
            for &(x, y, z) in &rows {
                b.push_row(&[Value::Int64(x), Value::Float64(y), Value::Bool(z)]).unwrap();
            }
            let t = b.finish();
            let back = Table::from_bytes(&Partial::to_bytes(&t)).unwrap();
            prop_assert_eq!(back.row_count(), t.row_count());
            for i in 0..t.row_count() {
                prop_assert_eq!(back.row(i), t.row(i));
            }
        }

        #[test]
        fn truncated_tables_never_panic(
            n in 0usize..40,
            frac in 0.0f64..1.0,
        ) {
            let schema = Schema::new(vec![Field::new("a", DataType::Int64)]);
            let mut b = TableBuilder::with_block_capacity("p", schema, 8);
            for i in 0..n {
                b.push_row(&[Value::Int64(i as i64)]).unwrap();
            }
            let bytes = Partial::to_bytes(&b.finish());
            let cut = ((bytes.len() - 1) as f64 * frac) as usize;
            prop_assert!(Table::from_bytes(&bytes[..cut]).is_err());
        }
    }
}
