//! Typed column tables: the one storage shape of a [`DataSet`](crate::DataSet).
//!
//! Each entity table holds one column per field, column-major: an
//! attribute ([`Field::is_attribute`]) as `u32`, a metric as `f64`, the
//! columns of each type back to back in one block. The per-kind
//! **layouts** below are the single source of truth for which
//! fields a kind carries and how each is backed:
//!
//! * *stored* fields are persisted, one `columns.jsonl` line each, in
//!   layout order ([`schema_of`]);
//! * *sums* (the router roll-ups `total_*`) are computed once when the
//!   table is built, as `first + second` over two stored metrics;
//! * *aliases* (`traffic`, `sat_time` on routers and `traffic` on
//!   terminals) read another field's column.
//!
//! So [`DataSet::column`](crate::DataSet::column),
//! [`DataSet::has_field`](crate::DataSet::has_field) and the run store's file
//! schema can never disagree about which fields a kind carries, and a
//! derived field is never persisted.

use crate::entity::{EntityKind, Field};

/// How one field of an entity table is held.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Backing {
    /// A persisted column.
    Stored,
    /// Computed when the table is built: `first + second`.
    Sum(Field, Field),
    /// The column of another field.
    Alias(Field),
}

use Backing::{Alias, Stored, Sum};

const ROUTER_LAYOUT: &[(Field, Backing)] = &[
    (Field::GroupId, Stored),
    (Field::RouterId, Stored),
    (Field::RouterRank, Stored),
    (Field::Workload, Stored),
    (Field::GlobalTraffic, Stored),
    (Field::GlobalSatTime, Stored),
    (Field::LocalTraffic, Stored),
    (Field::LocalSatTime, Stored),
    (Field::TotalTraffic, Sum(Field::GlobalTraffic, Field::LocalTraffic)),
    (Field::TotalSatTime, Sum(Field::GlobalSatTime, Field::LocalSatTime)),
    (Field::Traffic, Alias(Field::TotalTraffic)),
    (Field::SatTime, Alias(Field::TotalSatTime)),
];

/// Shared by local and global links.
const LINK_LAYOUT: &[(Field, Backing)] = &[
    (Field::GroupId, Stored),
    (Field::RouterId, Stored),
    (Field::RouterRank, Stored),
    (Field::RouterPort, Stored),
    (Field::Workload, Stored),
    (Field::DstGroupId, Stored),
    (Field::DstRouterId, Stored),
    (Field::DstRouterRank, Stored),
    (Field::DstRouterPort, Stored),
    (Field::DstWorkload, Stored),
    (Field::Traffic, Stored),
    (Field::SatTime, Stored),
];

const TERMINAL_LAYOUT: &[(Field, Backing)] = &[
    (Field::GroupId, Stored),
    (Field::RouterId, Stored),
    (Field::RouterRank, Stored),
    (Field::RouterPort, Stored),
    (Field::TerminalId, Stored),
    (Field::Workload, Stored),
    (Field::DataSize, Stored),
    (Field::Traffic, Alias(Field::DataSize)),
    (Field::SatTime, Stored),
    (Field::RecvBytes, Stored),
    (Field::BusyTime, Stored),
    (Field::PacketsFinished, Stored),
    (Field::PacketsSent, Stored),
    (Field::AvgLatency, Stored),
    (Field::AvgHops, Stored),
];

fn layout(kind: EntityKind) -> &'static [(Field, Backing)] {
    match kind {
        EntityKind::Router => ROUTER_LAYOUT,
        EntityKind::LocalLink | EntityKind::GlobalLink => LINK_LAYOUT,
        EntityKind::Terminal => TERMINAL_LAYOUT,
    }
}

/// Every field `kind` carries, in layout order.
pub(crate) fn fields_of(kind: EntityKind) -> impl Iterator<Item = Field> {
    layout(kind).iter().map(|&(f, _)| f)
}

/// The stored (persisted) fields of an entity kind, in schema order.
pub fn schema_of(kind: EntityKind) -> Vec<Field> {
    layout(kind).iter().filter(|(_, b)| *b == Stored).map(|&(f, _)| f).collect()
}

/// Where `field`'s column sits in a `kind` table: its index among the
/// held columns of its type (the attributes, or the stored-then-summed
/// metrics), in layout order. An alias resolves to its target.
fn slot(kind: EntityKind, field: Field) -> Option<usize> {
    let mut held = 0;
    for &(f, backing) in layout(kind) {
        match backing {
            Alias(target) if f == field => return slot(kind, target),
            Alias(_) => {}
            _ if f == field => return Some(held),
            _ if f.is_attribute() == field.is_attribute() => held += 1,
            _ => {}
        }
    }
    None
}

/// One table's stored columns as they are read or built, before the
/// table checks them: each column's field and length in the order they
/// came, and the values back to back by type.
#[derive(Clone, Debug, Default)]
pub struct StoredColumns {
    /// Each column's field and length, in the order appended.
    pub fields: Vec<(Field, usize)>,
    /// The attribute values, column after column.
    pub attrs: Vec<u32>,
    /// The metric values, column after column.
    pub metrics: Vec<f64>,
}

impl StoredColumns {
    /// Record that the `len` values of `field`'s column were appended to
    /// its block. A `kind` table's first column fixes its row count, so
    /// both blocks are sized then for every stored and summed column of
    /// the kind, and the later columns append without reallocating.
    pub fn column_done(&mut self, kind: EntityKind, field: Field, len: usize) {
        if self.fields.is_empty() {
            let held = |attr: bool| {
                len * layout(kind)
                    .iter()
                    .filter(|&&(f, b)| !matches!(b, Alias(_)) && f.is_attribute() == attr)
                    .count()
            };
            self.attrs.reserve_exact(held(true).saturating_sub(self.attrs.len()));
            self.metrics.reserve_exact(held(false).saturating_sub(self.metrics.len()));
        }
        self.fields.push((field, len));
    }
}

/// One borrowed column of an entity table.
#[derive(Clone, Copy, Debug)]
pub enum Column<'a> {
    /// An attribute column.
    U32(&'a [u32]),
    /// A metric column.
    F64(&'a [f64]),
}

impl Column<'_> {
    /// The value at `row`, as `f64`.
    pub fn get(&self, row: usize) -> f64 {
        match self {
            Column::U32(v) => f64::from(v[row]),
            Column::F64(v) => v[row],
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::U32(v) => v.len(),
            Column::F64(v) => v.len(),
        }
    }

    /// `true` when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One entity table, column-major and typed (see the module docs). The
/// columns of each type sit back to back in one allocation, so a loaded
/// run holds eight blocks, not one allocation per column.
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnTable {
    kind: EntityKind,
    len: usize,
    /// The attribute columns, in layout order.
    attrs: Vec<u32>,
    /// The stored metric columns, then the summed ones, in layout order.
    metrics: Vec<f64>,
}

impl ColumnTable {
    /// Validated constructor (the load path): `stored` must hold exactly
    /// the stored schema of `kind` (same fields, same order), all of one
    /// length, each in the block of its type. The summed roll-ups are
    /// computed here. No columns at all is an empty table (a run with no
    /// rows of that kind).
    pub(crate) fn new(kind: EntityKind, stored: StoredColumns) -> Result<ColumnTable, String> {
        let schema = schema_of(kind);
        if !stored.fields.is_empty() && !stored.fields.iter().map(|(f, _)| f).eq(schema.iter()) {
            let want: Vec<&str> = schema.iter().map(|f| f.name()).collect();
            let got: Vec<&str> = stored.fields.iter().map(|(f, _)| f.name()).collect();
            return Err(format!(
                "{kind} column schema mismatch: expected [{}], got [{}]",
                want.join(", "),
                got.join(", ")
            ));
        }
        let len = stored.fields.first().map_or(0, |&(_, n)| n);
        if let Some((f, n)) = stored.fields.iter().find(|&&(_, n)| n != len) {
            return Err(format!("{kind} column {f} has {n} values, expected {len}"));
        }
        let attrs = stored.fields.iter().filter(|(f, _)| f.is_attribute()).count();
        if stored.attrs.len() != len * attrs
            || stored.metrics.len() != len * (stored.fields.len() - attrs)
        {
            return Err(format!("{kind} columns do not fill their blocks"));
        }
        Ok(ColumnTable::from_stored(kind, stored))
    }

    /// Build from stored columns already checked (or produced in schema
    /// order) by the caller, computing the summed roll-ups (which follow
    /// every stored field in each layout, so they append).
    pub(crate) fn from_stored(kind: EntityKind, stored: StoredColumns) -> ColumnTable {
        let len = stored.fields.first().map_or(0, |&(_, n)| n);
        let StoredColumns { attrs, metrics, .. } = stored;
        let mut table = ColumnTable { kind, len, attrs, metrics };
        for &(_, backing) in layout(kind) {
            if let Sum(a, b) = backing {
                let sum: Vec<f64> =
                    table.f64s(a).iter().zip(table.f64s(b)).map(|(x, y)| x + y).collect();
                table.metrics.extend(sum);
            }
        }
        table
    }

    /// Row count.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The column of `field` (stored or derived), `None` when the kind
    /// does not carry it.
    pub fn column(&self, field: Field) -> Option<Column<'_>> {
        let start = slot(self.kind, field)? * self.len;
        let cells = start..start + self.len;
        Some(if field.is_attribute() {
            Column::U32(&self.attrs[cells])
        } else {
            Column::F64(&self.metrics[cells])
        })
    }

    /// The `u32` column of attribute `field`; panics when the kind does
    /// not carry it.
    pub(crate) fn u32s(&self, field: Field) -> &[u32] {
        match self.column(field) {
            Some(Column::U32(v)) => v,
            _ => panic!("{} rows have no attribute {field}", self.kind),
        }
    }

    /// The `f64` column of metric `field`; panics when the kind does not
    /// carry it.
    pub(crate) fn f64s(&self, field: Field) -> &[f64] {
        match self.column(field) {
            Some(Column::F64(v)) => v,
            _ => panic!("{} rows have no metric {field}", self.kind),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DataSet;

    #[test]
    fn schema_excludes_derived_fields() {
        let router_schema = schema_of(EntityKind::Router);
        assert!(!router_schema.contains(&Field::TotalTraffic));
        assert!(!router_schema.contains(&Field::Traffic));
        assert!(router_schema.contains(&Field::GlobalTraffic));
        let term_schema = schema_of(EntityKind::Terminal);
        assert!(!term_schema.contains(&Field::Traffic));
        assert!(term_schema.contains(&Field::DataSize));
    }

    #[test]
    fn layouts_type_attributes_as_u32_and_resolve_every_field() {
        let none = DataSet::from_tables(vec![], vec![], vec![], vec![], vec![]);
        for kind in EntityKind::ALL {
            let t = none.table(kind);
            for field in fields_of(kind) {
                let col = t.column(field).expect("every layout field has a column");
                assert_eq!(matches!(col, Column::U32(_)), field.is_attribute(), "{kind}/{field}");
            }
        }
        assert!(none.table(EntityKind::Terminal).column(Field::TotalTraffic).is_none());
    }

    fn router_columns(global: &[f64]) -> StoredColumns {
        let mut stored = StoredColumns::default();
        for f in schema_of(EntityKind::Router) {
            match f {
                Field::GlobalTraffic => stored.metrics.extend_from_slice(global),
                f if f.is_attribute() => stored.attrs.extend(0..global.len() as u32),
                _ => stored.metrics.extend(global.iter().map(|_| 0.5)),
            }
            stored.column_done(EntityKind::Router, f, global.len());
        }
        stored
    }

    #[test]
    fn sums_and_aliases_are_built_columns() {
        let t = ColumnTable::new(EntityKind::Router, router_columns(&[1.0, 2.25])).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.f64s(Field::TotalTraffic), &[1.5, 2.75]);
        assert_eq!(t.f64s(Field::Traffic), t.f64s(Field::TotalTraffic));
        assert_eq!(t.f64s(Field::SatTime), &[1.0, 1.0]);
        assert_eq!(t.u32s(Field::Workload), &[0, 1]);
        // The first column sized both blocks for the whole table.
        let stored = router_columns(&[1.0, 2.25]);
        assert_eq!((stored.attrs.capacity(), stored.metrics.capacity()), (8, 12));
    }

    #[test]
    fn validated_constructor_rejects_bad_schemas() {
        // Wrong field set for the kind.
        let err = ColumnTable::new(EntityKind::Terminal, router_columns(&[1.0])).unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");
        // Ragged columns.
        let mut ragged = router_columns(&[1.0, 2.0]);
        ragged.fields[5].1 = 1;
        let err = ColumnTable::new(EntityKind::Router, ragged).unwrap_err();
        assert!(err.contains("expected 2"), "{err}");
        // An attribute column appended to the metric block.
        let mut misfiled = router_columns(&[1.0]);
        let cell = misfiled.attrs.pop().unwrap();
        misfiled.metrics.push(f64::from(cell));
        let err = ColumnTable::new(EntityKind::Router, misfiled).unwrap_err();
        assert!(err.contains("do not fill"), "{err}");
        // No columns at all is an empty table.
        let empty = ColumnTable::new(EntityKind::Terminal, StoredColumns::default()).unwrap();
        assert_eq!(empty.len(), 0);
        assert_eq!(empty.column(Field::AvgHops).map(|c| c.len()), Some(0));
    }
}
