//! Dictionary semantics of STR columns: a string column is `u32` codes
//! into a shared `StrDict`, and no caller may be able to tell.
//!
//! Generated columns — NULLs, `""`, duplicates, non-ASCII — are built four
//! ways (one builder; two builders merged through `Partial::merge`, so two
//! dictionaries; `tail` / `shard` derivatives; a codec round trip), and
//! every read and gather (`get`, `row`, `PartialEq`, `take`, `filter`,
//! `push_slot`, `gather_row`, `append`) must agree with a plain
//! `Vec<Option<String>>`. A builder gives every block of a column one
//! dictionary, and interning into it never copies it, so a column of
//! unique values still builds with one dictionary of exactly its distinct
//! values.

use std::collections::HashSet;
use std::sync::Arc;

use proptest::prelude::*;

use aqp_mergeable::Partial;
use aqp_storage::{Block, Column, DataType, Field, Schema, StrDict, Table, TableBuilder, Value};

type Reference = Vec<Option<String>>;

const POOL: [&str; 6] = ["", "a", "ä", "日本語", "a ", "🦀"];

/// `(tag, n)` → a slot: NULL, a pool value, or one of fifty `v{n}`.
fn slot((tag, n): (u8, u16)) -> Option<String> {
    match tag {
        0 => None,
        t if (t as usize) <= POOL.len() => Some(POOL[t as usize - 1].to_string()),
        _ => Some(format!("v{n}")),
    }
}

fn value(s: &Option<String>) -> Value {
    s.as_deref().map_or(Value::Null, Value::str)
}

/// `t(s, i)`: the strings and their row number.
fn build(rows: &[Option<String>], cap: usize) -> Table {
    let schema = Schema::new(vec![
        Field::nullable("s", DataType::Str),
        Field::new("i", DataType::Int64),
    ]);
    let mut b = TableBuilder::with_block_capacity("t", schema, cap);
    for (i, s) in rows.iter().enumerate() {
        b.push_row(&[value(s), Value::Int64(i as i64)]).unwrap();
    }
    b.finish()
}

fn dict(column: &Column) -> &Arc<StrDict> {
    column.str_codes().expect("STR column").1
}

/// The distinct dictionaries of column `s` across the table's blocks.
fn dicts(t: &Table) -> usize {
    let ptrs: HashSet<*const StrDict> = (t.blocks().iter())
        .map(|b| Arc::as_ptr(dict(b.column(0))))
        .collect();
    ptrs.len()
}

/// The same values in a column whose codes run in reverse first-seen
/// order: equal to any column of `rows` by value, never by code.
fn reference_column(rows: &[Option<String>]) -> Column {
    let mut reversed = Column::new(DataType::Str);
    for s in rows.iter().rev() {
        reversed.push(&value(s)).unwrap();
    }
    let back: Vec<usize> = (0..rows.len()).rev().collect();
    reversed.take(&back)
}

fn check_column(c: &Column, want: &[Option<String>], tag: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(c.len(), want.len(), "{}: length", tag);
    for (i, s) in want.iter().enumerate() {
        prop_assert_eq!(c.get(i), value(s), "{}: slot {}", tag, i);
        prop_assert_eq!(c.is_null(i), s.is_none(), "{}: validity {}", tag, i);
    }
    prop_assert_eq!(c, &reference_column(want), "{}: value equality", tag);
    Ok(())
}

/// Every read and gather of `t` against `want`.
fn check_table(t: &Table, want: &[Option<String>], tag: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(t.row_count(), want.len(), "{}: rows", tag);
    for (i, s) in want.iter().enumerate() {
        prop_assert_eq!(&t.row(i)[0], &value(s), "{}: row {}", tag, i);
    }
    // append and push_slot, across every block (and dictionary).
    let mut appended = Column::new(DataType::Str);
    let mut slotted = Column::new(DataType::Str);
    let mut gathered = TableBuilder::with_block_capacity("g", (**t.schema()).clone(), 7);
    for block in t.blocks() {
        appended.append(block.column(0));
        for i in 0..block.len() {
            slotted.push_slot(block.column(0), i);
            gathered.gather_row(block, i);
        }
    }
    check_column(&appended, want, &format!("{tag} append"))?;
    check_column(&slotted, want, &format!("{tag} push_slot"))?;
    let gathered = gathered.finish();
    prop_assert!(
        dicts(&gathered) <= dicts(t).max(1),
        "{}: gather_row split",
        tag
    );
    let column = |t: &Table| {
        let mut all = Column::new(DataType::Str);
        t.blocks().iter().for_each(|b| all.append(b.column(0)));
        all
    };
    check_column(&column(&gathered), want, &format!("{tag} gather_row"))?;
    // take and filter, within each block.
    let mut offset = 0;
    for (bi, block) in t.blocks().iter().enumerate() {
        let rows = &want[offset..offset + block.len()];
        check_column(block.column(0), rows, &format!("{tag} block {bi}"))?;
        let picks: Vec<usize> = (0..block.len()).rev().chain(0..block.len() / 2).collect();
        let picked: Reference = picks.iter().map(|&i| rows[i].clone()).collect();
        check_column(
            &block.column(0).take(&picks),
            &picked,
            &format!("{tag} take"),
        )?;
        let mask: Vec<bool> = (0..block.len()).map(|i| i % 3 != 1).collect();
        let kept: Reference = (rows.iter().zip(&mask))
            .filter(|(_, &keep)| keep)
            .map(|(s, _)| s.clone())
            .collect();
        let filtered: Block = block.filter(&mask);
        check_column(filtered.column(0), &kept, &format!("{tag} filter"))?;
        prop_assert!(
            Arc::ptr_eq(dict(filtered.column(0)), dict(block.column(0))),
            "{}: filter keeps the dictionary",
            tag
        );
        offset += block.len();
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_way_of_building_agrees_with_the_reference(
        slots in prop::collection::vec((0u8..9, 0u16..50), 0..300),
        cap in 1usize..40,
        cut in 0.0f64..1.0,
    ) {
        let want: Reference = slots.into_iter().map(slot).collect();
        let mid = (want.len() as f64 * cut) as usize;

        // One builder: one dictionary shared by every block.
        let one = build(&want, cap);
        prop_assert!(dicts(&one) <= 1, "one builder, {} dictionaries", dicts(&one));
        check_table(&one, &want, "one builder")?;

        // Two builders, merged: two dictionaries, codes disagreeing.
        let mut merged = build(&want[..mid], cap);
        Partial::merge(&mut merged, &build(&want[mid..], cap)).unwrap();
        prop_assert!(dicts(&merged) <= 2);
        check_table(&merged, &want, "merged")?;

        // Derivatives share the parent's dictionary.
        let tail = one.tail(mid);
        check_table(&tail, &want[mid..], "tail")?;
        let shards = one.shard(3);
        let mut offset = 0;
        for (j, shard) in shards.iter().enumerate() {
            let rows = &want[offset..offset + shard.row_count()];
            check_table(shard, rows, &format!("shard {j}"))?;
            offset += shard.row_count();
        }

        for derived in shards.iter().chain([&tail]) {
            for block in derived.blocks() {
                let parent = dict(one.block(0).column(0));
                prop_assert!(Arc::ptr_eq(dict(block.column(0)), parent), "derived dictionary");
            }
        }

        // A codec round trip decodes to one dictionary again.
        let back = Table::from_bytes(&Partial::to_bytes(&merged)).unwrap();
        prop_assert!(dicts(&back) <= 1);
        check_table(&back, &want, "codec")?;
        prop_assert_eq!(Partial::to_bytes(&back), Partial::to_bytes(&merged), "wire bytes");
    }
}

#[test]
fn a_unique_column_builds_one_dictionary_of_its_distinct_values() {
    let rows: Reference = (0..100_000).map(|i| Some(format!("u{i}"))).collect();
    let t = build(&rows, 1024);
    assert_eq!(t.block_count(), 98);
    assert_eq!(dicts(&t), 1);
    assert_eq!(dict(t.block(0).column(0)).len(), 100_000);
    assert_eq!(t.row(99_999)[0], Value::str("u99999"));
    // Duplicates and NULLs add no entry.
    let rows: Reference = (0..10_000)
        .map(|i| (i % 7 != 0).then(|| format!("d{}", i % 100)))
        .collect();
    let t = build(&rows, 64);
    assert_eq!(dicts(&t), 1);
    let distinct: HashSet<&Option<String>> = rows.iter().filter(|s| s.is_some()).collect();
    assert_eq!(dict(t.block(0).column(0)).len(), distinct.len());
}
