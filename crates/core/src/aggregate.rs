//! Hierarchical and binned data aggregation (paper §IV-A).
//!
//! Entities are grouped by one or more attribute fields ("aggregate the
//! data by the rank of the routers", Fig. 2b); when a level still has more
//! items than `maxBins`, an extra *binned aggregation* merges items into a
//! histogram over one of their aggregated metrics ("divide the global
//! links into a histogram of six bins based on accumulated traffic").
//! Sums are used for volume/time metrics and means for the latency/hop
//! metrics, per [`Field::rule`](crate::entity::Field::rule).

use crate::columnar::Column;
use crate::dataset::DataSet;
use crate::entity::{AggRule, EntityKind, Field};
use crate::live::LiveAggregate;
use hrviz_stream::Slice;
use std::collections::HashMap;
use std::sync::atomic::{self, AtomicU64};
use std::sync::{Arc, Mutex};

/// One aggregate item: a group key plus the member row indices.
#[derive(Clone, Debug, PartialEq)]
pub struct AggregateItem {
    /// Values of the group-by fields (empty for a whole-table aggregate).
    pub key: Vec<f64>,
    /// Member rows (indices into the dataset's table for the entity kind).
    pub rows: Vec<usize>,
}

impl AggregateItem {
    /// Aggregated value of `field` over the members.
    pub fn metric(&self, ds: &DataSet, kind: EntityKind, field: Field) -> f64 {
        self.metric_of(field, ds.column(kind, field))
    }

    /// Aggregated value of `field`, whose column `col` the caller resolved
    /// once, so a level's items share it.
    pub(crate) fn metric_of(&self, field: Field, col: Column<'_>) -> f64 {
        match col {
            Column::F64(v) => self.reduce(field.rule(), |i| v[i]),
            Column::U32(v) => self.reduce(field.rule(), |i| f64::from(v[i])),
        }
    }

    fn reduce(&self, rule: AggRule, get: impl Fn(usize) -> f64) -> f64 {
        let Some(&first) = self.rows.first() else { return 0.0 };
        match rule {
            AggRule::Mean => {
                self.rows.iter().map(|&i| get(i)).sum::<f64>() / self.rows.len() as f64
            }
            AggRule::Sum => self.rows.iter().map(|&i| get(i)).sum(),
            // Attributes: representative value (identical across members by
            // construction when the field is part of the key).
            AggRule::Key => get(first),
        }
    }
}

/// Group rows of `kind` by `fields` (all attributes); returns items sorted
/// by key. Empty `fields` yields one item per row (individual entities).
pub(crate) fn group_rows(ds: &DataSet, kind: EntityKind, fields: &[Field]) -> Vec<AggregateItem> {
    for f in fields {
        assert!(f.is_attribute(), "cannot group by metric field {f}");
        assert!(DataSet::has_field(kind, *f), "{kind} rows have no field {f}");
    }
    let n = ds.len(kind);
    if fields.is_empty() {
        return (0..n).map(|i| AggregateItem { key: vec![i as f64], rows: vec![i] }).collect();
    }
    let keys: Vec<&[u32]> = fields.iter().map(|&f| ds.table(kind).u32s(f)).collect();
    group_keys(&keys, n)
}

/// Group rows `0..n` by their values in the `u32` key columns `keys`:
/// order the rows with [`radix_order`], then merge runs of equal keys.
fn group_keys(keys: &[&[u32]], n: usize) -> Vec<AggregateItem> {
    let mut items: Vec<AggregateItem> = Vec::new();
    for row in radix_order(keys, n) {
        match items.last_mut() {
            Some(last) if keys.iter().all(|col| col[row] == col[last.rows[0]]) => {
                last.rows.push(row)
            }
            _ => items.push(AggregateItem {
                key: keys.iter().map(|col| f64::from(col[row])).collect(),
                rows: vec![row],
            }),
        }
    }
    items
}

/// The rows `0..n` sorted lexicographically over the `u32` key columns
/// `keys`, ties in ascending row order. A stable LSD radix sort: one
/// counting pass per 8-bit digit, low digit first, last column first.
/// Two kinds of pass would move nothing and are skipped: a pass over a
/// digit equal in every row (so a small key such as `group_id` costs one
/// pass), and every pass when the rows are already in key order, as a
/// stored table is for its leading fields (terminals by router, links by
/// source). The counts are 256 per pass whatever the key values,
/// `u32::MAX` included.
pub(crate) fn radix_order(keys: &[&[u32]], n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let in_order = (1..n).all(|r| {
        keys.iter().map(|col| col[r - 1].cmp(&col[r])).find(|o| o.is_ne()).is_none_or(|o| o.is_lt())
    });
    if in_order {
        return order;
    }
    let mut next = vec![0; n];
    for col in keys.iter().rev() {
        let col = &col[..n];
        let varying = col.iter().fold(0, |bits, &v| bits | (v ^ col[0]));
        for shift in [0, 8, 16, 24].into_iter().filter(|s| (varying >> s) & 0xff != 0) {
            let mut counts = [0usize; 256];
            for &v in col {
                counts[(v >> shift) as usize & 0xff] += 1;
            }
            let mut start = 0;
            for slot in counts.iter_mut() {
                (*slot, start) = (start, start + *slot);
            }
            for &row in &order {
                let slot = &mut counts[(col[row] >> shift) as usize & 0xff];
                next[*slot] = row;
                *slot += 1;
            }
            std::mem::swap(&mut order, &mut next);
        }
    }
    order
}

/// Binned aggregation: merge `items` into at most `max_bins` equal-width
/// histogram bins over their aggregated `by` metric. Item keys become the
/// bin index. No-op when already within the limit.
pub(crate) fn bin_items(
    ds: &DataSet,
    kind: EntityKind,
    items: Vec<AggregateItem>,
    by: Field,
    max_bins: usize,
) -> Vec<AggregateItem> {
    assert!(max_bins >= 1);
    if items.len() <= max_bins {
        return items;
    }
    let col = ds.column(kind, by);
    let values: Vec<f64> = items.iter().map(|it| it.metric_of(by, col)).collect();
    histogram(&items, &values, max_bins).0
}

/// The equal-width histogram behind [`bin_items`]: the non-empty bins in
/// bin order, and for each item the index (into those bins) of the bin
/// its rows joined. An item with no rows may name a dropped bin.
pub(crate) fn histogram(
    items: &[AggregateItem],
    values: &[f64],
    max_bins: usize,
) -> (Vec<AggregateItem>, Vec<usize>) {
    let (min, max) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let width = (max - min) / max_bins as f64;
    let slots: Vec<usize> = values
        .iter()
        .map(|&v| if width > 0.0 { (((v - min) / width) as usize).min(max_bins - 1) } else { 0 })
        .collect();
    let mut bins: Vec<AggregateItem> =
        (0..max_bins).map(|b| AggregateItem { key: vec![b as f64], rows: Vec::new() }).collect();
    for (item, &b) in items.iter().zip(&slots) {
        bins[b].rows.extend_from_slice(&item.rows);
    }
    let mut renumber = vec![0; max_bins];
    let mut kept = Vec::with_capacity(max_bins);
    for (b, bin) in bins.into_iter().enumerate() {
        if !bin.rows.is_empty() {
            renumber[b] = kept.len();
            kept.push(bin);
        }
    }
    let of_item = slots.iter().map(|&b| renumber[b]).collect();
    (kept, of_item)
}

/// One level of an aggregate tree: which entity, grouped how.
#[derive(Clone, Debug)]
pub struct TreeLevel {
    /// Entity kind projected at this level.
    pub entity: EntityKind,
    /// Group-by fields.
    pub fields: Vec<Field>,
    /// Optional binned-aggregation cap.
    pub max_bins: Option<(Field, usize)>,
}

/// A multi-level aggregate tree (paper Fig. 2b): each level is an
/// independent aggregation of one entity kind, stacked for display.
#[derive(Clone, Debug)]
pub struct AggregateTree {
    /// Per-level aggregate items.
    pub levels: Vec<Vec<AggregateItem>>,
}

impl AggregateTree {
    /// Build the tree over a dataset.
    pub fn build(ds: &DataSet, levels: &[TreeLevel]) -> AggregateTree {
        let _span = hrviz_obs::get().span("core/aggregate");
        let levels = levels
            .iter()
            .map(|lv| {
                let items = group_rows(ds, lv.entity, &lv.fields);
                match lv.max_bins {
                    Some((by, cap)) => bin_items(ds, lv.entity, items, by, cap),
                    None => items,
                }
            })
            .collect();
        AggregateTree { levels }
    }

    /// Build the tree through an [`AggregateCache`]: a repeat build over the
    /// same stored run (same [`DataKey`]) returns the memoized tree without
    /// rescanning a row.
    pub fn build_cached(
        ds: &DataSet,
        levels: &[TreeLevel],
        cache: &AggregateCache,
        key: DataKey,
    ) -> Arc<AggregateTree> {
        cache.tree(key, ds, levels)
    }
}

/// Identity of a stored dataset for cache-keying purposes: the run's
/// content hash plus the store *generation* it was read under. Bumping the
/// generation (any write to the store) makes every old key unreachable, so
/// stale aggregates can never be served; [`AggregateCache::retain_generation`]
/// reclaims their memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DataKey {
    /// Content hash of the run (the sweep engine's config hash).
    pub run: u64,
    /// Store generation the dataset was loaded under.
    pub generation: u64,
}

/// Memoizes `group_rows`/`bin_items` outputs and whole
/// [`AggregateTree`]s per `(DataKey, operation)` key, so projection,
/// timeline and compare views over a sweep reuse aggregates instead of
/// re-scanning rows. Hit/miss totals are reported through `hrviz-obs`
/// (`core/agg_cache_hit` / `core/agg_cache_miss`) and kept locally for
/// tests. The cache is `Sync`; `compare_views_cached` shares one across
/// worker threads.
#[derive(Default)]
pub struct AggregateCache {
    groups: CacheMap<Vec<AggregateItem>>,
    trees: CacheMap<AggregateTree>,
    /// Live per-run aggregates, keyed by run hash; each entry carries its
    /// own watermark, so a lookup for `(run, watermark)` is a hit exactly
    /// when the stored aggregate has folded that many slices.
    live: Mutex<HashMap<u64, Arc<LiveAggregate>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// A memo table keyed by `(data, operation-fingerprint)`.
type CacheMap<V> = Mutex<HashMap<(DataKey, u64), Arc<V>>>;

fn op_fingerprint(parts: &mut Vec<String>, entity: EntityKind, fields: &[Field]) {
    parts.push(entity.to_string());
    for f in fields {
        parts.push(f.name().to_string());
    }
}

impl AggregateCache {
    /// An empty cache.
    pub fn new() -> AggregateCache {
        AggregateCache::default()
    }

    fn record(&self, hit: bool) {
        if hit {
            self.hits.fetch_add(1, atomic::Ordering::Relaxed);
            hrviz_obs::get().counter_add("core/agg_cache_hit", 1);
        } else {
            self.misses.fetch_add(1, atomic::Ordering::Relaxed);
            hrviz_obs::get().counter_add("core/agg_cache_miss", 1);
        }
    }

    /// Memoized `group_rows`. The caller must pass the dataset `key`
    /// identifies — the cache trusts the key, that is the whole point.
    pub fn group_rows(
        &self,
        key: DataKey,
        ds: &DataSet,
        kind: EntityKind,
        fields: &[Field],
    ) -> Arc<Vec<AggregateItem>> {
        let mut parts = vec!["group".to_string()];
        op_fingerprint(&mut parts, kind, fields);
        self.memo_items(key, parts, || group_rows(ds, kind, fields))
    }

    /// Memoized group-then-bin for one [`TreeLevel`].
    pub fn level_items(
        &self,
        key: DataKey,
        ds: &DataSet,
        lv: &TreeLevel,
    ) -> Arc<Vec<AggregateItem>> {
        let mut parts = vec!["level".to_string()];
        op_fingerprint(&mut parts, lv.entity, &lv.fields);
        if let Some((by, cap)) = lv.max_bins {
            parts.push(format!("bin:{}:{cap}", by.name()));
        }
        self.memo_items(key, parts, || {
            let items = group_rows(ds, lv.entity, &lv.fields);
            match lv.max_bins {
                Some((by, cap)) => bin_items(ds, lv.entity, items, by, cap),
                None => items,
            }
        })
    }

    fn memo_items(
        &self,
        key: DataKey,
        parts: Vec<String>,
        compute: impl FnOnce() -> Vec<AggregateItem>,
    ) -> Arc<Vec<AggregateItem>> {
        let _span = hrviz_obs::get().span_on_lane("core/agg_cache", "core/agg_cache");
        let op = hrviz_obs::fingerprint64(&parts.join("\u{1f}"));
        if let Some(hit) = self.groups.lock().expect("cache poisoned").get(&(key, op)) {
            self.record(true);
            return hit.clone();
        }
        // Compute outside the lock: a racing duplicate costs one redundant
        // aggregation, never a stale answer.
        let made = Arc::new(compute());
        self.record(false);
        self.groups.lock().expect("cache poisoned").insert((key, op), made.clone());
        made
    }

    /// Memoized [`AggregateTree::build`].
    pub fn tree(&self, key: DataKey, ds: &DataSet, levels: &[TreeLevel]) -> Arc<AggregateTree> {
        let _span = hrviz_obs::get().span_on_lane("core/agg_cache", "core/agg_cache");
        let mut parts = vec!["tree".to_string()];
        for lv in levels {
            op_fingerprint(&mut parts, lv.entity, &lv.fields);
            if let Some((by, cap)) = lv.max_bins {
                parts.push(format!("bin:{}:{cap}", by.name()));
            }
            parts.push(";".to_string());
        }
        let op = hrviz_obs::fingerprint64(&parts.join("\u{1f}"));
        if let Some(hit) = self.trees.lock().expect("cache poisoned").get(&(key, op)) {
            self.record(true);
            return hit.clone();
        }
        let made = Arc::new(AggregateTree::build(ds, levels));
        self.record(false);
        self.trees.lock().expect("cache poisoned").insert((key, op), made.clone());
        made
    }

    /// Fold one newly sealed slice into `run`'s live aggregate *in place*
    /// — the incremental alternative to invalidate-and-rebuild while a
    /// run is still streaming. Returns the updated aggregate when `slice`
    /// is the next expected sequence number for the cached entry (a hit),
    /// or `None` on a gap/replay (a miss — the caller should rebuild from
    /// the full sealed prefix via [`AggregateCache::live_rebuild`]).
    pub fn merge_slice(&self, run: u64, slice: &Slice) -> Option<Arc<LiveAggregate>> {
        let _span = hrviz_obs::get().span_on_lane("core/agg_cache", "core/agg_cache");
        let mut live = self.live.lock().expect("cache poisoned");
        let mut agg: LiveAggregate = live.get(&run).map(|a| (**a).clone()).unwrap_or_default();
        if !agg.merge_slice(slice) {
            self.record(false);
            return None;
        }
        self.record(true);
        let agg = Arc::new(agg);
        live.insert(run, agg.clone());
        Some(agg)
    }

    /// Cold-rebuild `run`'s live aggregate from a contiguous slice prefix
    /// and cache the result. Returns `None` (leaving any cached entry in
    /// place) when the slices are not contiguous from sequence 0.
    pub fn live_rebuild(&self, run: u64, slices: &[Slice]) -> Option<Arc<LiveAggregate>> {
        let agg = Arc::new(LiveAggregate::rebuild(slices)?);
        self.record(false);
        self.live.lock().expect("cache poisoned").insert(run, agg.clone());
        Some(agg)
    }

    /// The cached live aggregate for `run`, if any.
    pub fn live_aggregate(&self, run: u64) -> Option<Arc<LiveAggregate>> {
        self.live.lock().expect("cache poisoned").get(&run).cloned()
    }

    /// Drop `run`'s live aggregate — called when the run reaches a
    /// terminal state and the batch dataset takes over.
    pub fn drop_live(&self, run: u64) {
        self.live.lock().expect("cache poisoned").remove(&run);
    }

    /// Drop every entry from a generation other than `generation` —
    /// invalidation after the backing store changed. Live aggregates are
    /// watermark-keyed, not generation-keyed, and survive.
    pub fn retain_generation(&self, generation: u64) {
        self.groups.lock().expect("cache poisoned").retain(|(k, _), _| k.generation == generation);
        self.trees.lock().expect("cache poisoned").retain(|(k, _), _| k.generation == generation);
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(atomic::Ordering::Relaxed)
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(atomic::Ordering::Relaxed)
    }

    /// Entries currently held (group results + trees).
    pub fn len(&self) -> usize {
        self.groups.lock().expect("cache poisoned").len()
            + self.trees.lock().expect("cache poisoned").len()
    }

    /// `true` when the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::dataset::TerminalRow;

    /// Hand-built dataset: 8 terminals on 4 routers in 2 groups.
    fn ds() -> DataSet {
        let terminals = (0..8u32)
            .map(|i| TerminalRow {
                terminal: i,
                router: i / 2,
                group: i / 4,
                rank: (i / 2) % 2,
                port: i % 2,
                job: 0,
                data_size: (i + 1) as f64 * 100.0,
                recv_bytes: 0.0,
                busy: 10.0,
                sat: i as f64,
                packets_finished: 2.0,
                packets_sent: 2.0,
                avg_latency: (i + 1) as f64 * 1000.0,
                avg_hops: 3.0,
            })
            .collect();
        DataSet::from_tables(vec!["a".into()], vec![], vec![], vec![], terminals)
    }

    #[test]
    fn grouping_by_router_creates_pairs() {
        let d = ds();
        let items = group_rows(&d, EntityKind::Terminal, &[Field::RouterId]);
        assert_eq!(items.len(), 4);
        for (r, it) in items.iter().enumerate() {
            assert_eq!(it.key, vec![r as f64]);
            assert_eq!(it.rows.len(), 2);
        }
    }

    #[test]
    fn multi_field_grouping_is_lexicographic() {
        let d = ds();
        let items = group_rows(&d, EntityKind::Terminal, &[Field::GroupId, Field::RouterRank]);
        assert_eq!(items.len(), 4);
        assert_eq!(items[0].key, vec![0.0, 0.0]);
        assert_eq!(items[1].key, vec![0.0, 1.0]);
        assert_eq!(items[2].key, vec![1.0, 0.0]);
        assert_eq!(items[3].key, vec![1.0, 1.0]);
    }

    #[test]
    fn empty_fields_yield_individual_entities() {
        let d = ds();
        let items = group_rows(&d, EntityKind::Terminal, &[]);
        assert_eq!(items.len(), 8);
        assert!(items.iter().all(|it| it.rows.len() == 1));
    }

    #[test]
    fn sum_and_mean_rules() {
        let d = ds();
        let items = group_rows(&d, EntityKind::Terminal, &[Field::RouterId]);
        // Router 0 hosts terminals 0 and 1: data 100 + 200.
        assert_eq!(items[0].metric(&d, EntityKind::Terminal, Field::DataSize), 300.0);
        // Latency is averaged: (1000 + 2000) / 2.
        assert_eq!(items[0].metric(&d, EntityKind::Terminal, Field::AvgLatency), 1500.0);
        // Key fields return the representative value.
        assert_eq!(items[0].metric(&d, EntityKind::Terminal, Field::RouterId), 0.0);
    }

    #[test]
    #[should_panic(expected = "cannot group by metric")]
    fn grouping_by_metric_rejected() {
        let d = ds();
        group_rows(&d, EntityKind::Terminal, &[Field::DataSize]);
    }

    #[test]
    fn binning_merges_to_cap() {
        let d = ds();
        let items = group_rows(&d, EntityKind::Terminal, &[Field::TerminalId]);
        assert_eq!(items.len(), 8);
        let binned = bin_items(&d, EntityKind::Terminal, items, Field::DataSize, 3);
        assert!(binned.len() <= 3);
        let total_rows: usize = binned.iter().map(|b| b.rows.len()).sum();
        assert_eq!(total_rows, 8, "binning must not drop rows");
        // Bin keys are indices in metric order: bin 0 holds the smallest.
        let data = d.terminal_rows();
        assert!(binned[0].rows.iter().all(|&r| data[r].data_size <= 300.0));
    }

    #[test]
    fn binning_noop_when_within_cap() {
        let d = ds();
        let items = group_rows(&d, EntityKind::Terminal, &[Field::RouterId]);
        let binned = bin_items(&d, EntityKind::Terminal, items.clone(), Field::DataSize, 10);
        assert_eq!(binned, items);
    }

    #[test]
    fn binning_constant_metric_collapses_to_one() {
        let d = ds();
        let items = group_rows(&d, EntityKind::Terminal, &[Field::TerminalId]);
        let binned = bin_items(&d, EntityKind::Terminal, items, Field::AvgHops, 4);
        assert_eq!(binned.len(), 1);
    }

    #[test]
    fn cache_memoizes_per_key_and_operation() {
        let d = ds();
        let cache = AggregateCache::new();
        let key = DataKey { run: 7, generation: 1 };
        let a = cache.group_rows(key, &d, EntityKind::Terminal, &[Field::RouterId]);
        let b = cache.group_rows(key, &d, EntityKind::Terminal, &[Field::RouterId]);
        assert!(Arc::ptr_eq(&a, &b), "second identical call is a hit");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // A different operation or a different run misses.
        cache.group_rows(key, &d, EntityKind::Terminal, &[Field::GroupId]);
        cache.group_rows(
            DataKey { run: 8, generation: 1 },
            &d,
            EntityKind::Terminal,
            &[Field::RouterId],
        );
        assert_eq!((cache.hits(), cache.misses()), (1, 3));
        assert_eq!(*a, group_rows(&d, EntityKind::Terminal, &[Field::RouterId]));
    }

    #[test]
    fn cache_level_items_cover_binning() {
        let d = ds();
        let cache = AggregateCache::new();
        let key = DataKey { run: 1, generation: 1 };
        let lv = TreeLevel {
            entity: EntityKind::Terminal,
            fields: vec![Field::TerminalId],
            max_bins: Some((Field::DataSize, 3)),
        };
        let a = cache.level_items(key, &d, &lv);
        assert!(a.len() <= 3);
        let b = cache.level_items(key, &d, &lv);
        assert!(Arc::ptr_eq(&a, &b));
        // Same grouping without the bin cap is a distinct operation.
        let unbinned = cache.level_items(
            key,
            &d,
            &TreeLevel {
                entity: EntityKind::Terminal,
                fields: vec![Field::TerminalId],
                max_bins: None,
            },
        );
        assert_eq!(unbinned.len(), 8);
    }

    #[test]
    fn cache_trees_and_generation_invalidation() {
        let d = ds();
        let cache = AggregateCache::new();
        let levels = [TreeLevel {
            entity: EntityKind::Terminal,
            fields: vec![Field::RouterRank],
            max_bins: None,
        }];
        let g1 = DataKey { run: 1, generation: 1 };
        let t1 = AggregateTree::build_cached(&d, &levels, &cache, g1);
        let t2 = AggregateTree::build_cached(&d, &levels, &cache, g1);
        assert!(Arc::ptr_eq(&t1, &t2));
        assert_eq!(t1.levels[0].len(), 2);
        // A store write bumps the generation: old keys are unreachable and
        // retain_generation reclaims them.
        let g2 = DataKey { run: 1, generation: 2 };
        let t3 = AggregateTree::build_cached(&d, &levels, &cache, g2);
        assert!(!Arc::ptr_eq(&t1, &t3), "new generation must rebuild");
        assert_eq!(cache.len(), 2);
        cache.retain_generation(2);
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn cache_merge_slice_is_incremental_and_watermark_keyed() {
        let cache = AggregateCache::new();
        let mk = |seq: u64| Slice {
            seq,
            t_start_ns: seq * 100,
            t_end_ns: (seq + 1) * 100,
            delivered_packets: 2,
            delivered_bytes: 1024,
            ..Slice::default()
        };
        let run = 0xfeed;
        let a = cache.merge_slice(run, &mk(0)).expect("seq 0 folds into fresh entry");
        assert_eq!((a.watermark, a.delivered_bytes), (1, 1024));
        assert!(cache.merge_slice(run, &mk(0)).is_none(), "replay is a miss");
        assert!(cache.merge_slice(run, &mk(2)).is_none(), "gap is a miss");
        let b = cache.merge_slice(run, &mk(1)).expect("next slice folds");
        assert_eq!((b.watermark, b.delivered_bytes), (2, 2048));
        // Misses left the cached entry untouched.
        assert_eq!(cache.live_aggregate(run).expect("cached").watermark, 2);
        // Cold rebuild over the same prefix is identical.
        let cold = cache.live_rebuild(run, &[mk(0), mk(1)]).expect("contiguous");
        assert_eq!(*cold, *b);
        assert_eq!(cold.to_json().render(), b.to_json().render());
        // Generation invalidation leaves live entries alone; drop_live removes.
        cache.retain_generation(99);
        assert!(cache.live_aggregate(run).is_some());
        cache.drop_live(run);
        assert!(cache.live_aggregate(run).is_none());
    }

    /// The grouping this module used before key columns: one `Vec<f64>`
    /// key per row, sorted with the row index as tiebreak. Kept as the
    /// oracle for [`group_rows`] / [`group_keys`].
    fn group_keyed_rows(mut keyed: Vec<(Vec<f64>, usize)>) -> Vec<AggregateItem> {
        use std::cmp::Ordering;
        fn key_cmp(a: &[f64], b: &[f64]) -> Ordering {
            for (x, y) in a.iter().zip(b) {
                match x.partial_cmp(y) {
                    Some(Ordering::Equal) | None => continue,
                    Some(o) => return o,
                }
            }
            a.len().cmp(&b.len())
        }
        keyed.sort_by(|a, b| key_cmp(&a.0, &b.0).then(a.1.cmp(&b.1)));
        let mut items: Vec<AggregateItem> = Vec::new();
        for (key, row) in keyed {
            match items.last_mut() {
                Some(last) if last.key == key => last.rows.push(row),
                _ => items.push(AggregateItem { key, rows: vec![row] }),
            }
        }
        items
    }

    fn oracle_group_rows(ds: &DataSet, kind: EntityKind, fields: &[Field]) -> Vec<AggregateItem> {
        if fields.is_empty() {
            let n = ds.len(kind);
            return (0..n).map(|i| AggregateItem { key: vec![i as f64], rows: vec![i] }).collect();
        }
        let keyed = (0..ds.len(kind))
            .map(|i| (fields.iter().map(|&f| ds.value(kind, i, f)).collect(), i))
            .collect();
        group_keyed_rows(keyed)
    }

    /// SplitMix64, for generated tables (projection's tests use it too).
    pub(crate) struct Gen(pub(crate) u64);

    impl Gen {
        pub(crate) fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }
    }

    /// Items compared bit for bit.
    fn bits(items: &[AggregateItem]) -> Vec<(Vec<u64>, Vec<usize>)> {
        items
            .iter()
            .map(|it| (it.key.iter().map(|k| k.to_bits()).collect(), it.rows.clone()))
            .collect()
    }

    /// One generated key column of `n` rows. Its shape is drawn too:
    /// constant, a small spread, values that straddle the digit
    /// boundaries up to `u32::MAX`, or the whole `u32` range.
    fn key_column(g: &mut Gen, n: usize) -> Vec<u32> {
        const EDGES: [u32; 10] =
            [0, 1, 255, 256, 65_535, 65_536, 1 << 24, (1 << 24) + 1, u32::MAX - 1, u32::MAX];
        let constant = g.below(1 << 32) as u32;
        let spread = 1 + g.below(6);
        let shape = g.below(4);
        (0..n)
            .map(|_| match shape {
                0 => constant,
                1 => g.below(spread) as u32,
                2 => EDGES[g.below(EDGES.len() as u64) as usize],
                _ => g.below(1 << 32) as u32,
            })
            .collect()
    }

    /// Case `case` of the generated-table check: a terminal table of 0, 1,
    /// up to 200 or (one case in eight) up to 5,000 rows, grouped by 1–3
    /// random key fields and by none, against the per-row oracle.
    fn check_generated_grouping(g: &mut Gen, case: usize) {
        let n = match case {
            0 => 0,
            1 => 1,
            _ if case % 8 == 7 => g.below(5_001) as usize,
            _ => g.below(200) as usize,
        };
        let cols: Vec<Vec<u32>> = (0..6).map(|_| key_column(g, n)).collect();
        let terminals = (0..n)
            .map(|i| TerminalRow {
                terminal: cols[0][i],
                router: cols[1][i],
                group: cols[2][i],
                rank: cols[3][i],
                port: cols[4][i],
                job: cols[5][i],
                ..TerminalRow::default()
            })
            .collect();
        let d = DataSet::from_tables(vec![], vec![], vec![], vec![], terminals);
        const KEYS: [Field; 6] = [
            Field::TerminalId,
            Field::RouterId,
            Field::GroupId,
            Field::RouterRank,
            Field::RouterPort,
            Field::Workload,
        ];
        let width = 1 + g.below(3) as usize;
        let fields: Vec<Field> = (0..width).map(|_| KEYS[g.below(6) as usize]).collect();
        for fields in [&fields[..], &[]] {
            let new = group_rows(&d, EntityKind::Terminal, fields);
            let old = oracle_group_rows(&d, EntityKind::Terminal, fields);
            assert_eq!(bits(&new), bits(&old), "case {case}, n {n}, fields {fields:?}");
        }
    }

    #[test]
    fn column_grouping_matches_the_per_row_oracle_on_generated_tables() {
        let mut g = Gen(17);
        for case in 0..64 {
            check_generated_grouping(&mut g, case);
        }
    }

    /// `cargo test --release -p hrviz-core --lib -- --ignored`
    #[test]
    #[ignore = "soak: 20,000 generated tables"]
    fn column_grouping_soak() {
        let mut g = Gen(0x5eed);
        for case in 0..20_000 {
            check_generated_grouping(&mut g, case);
        }
    }

    #[test]
    fn u32_key_grouping_matches_the_oracle_at_the_extremes() {
        let values = [0, 1, 2, 9, 1 << 24, (1 << 24) + 1, u32::MAX - 1, u32::MAX];
        let mut g = Gen(5);
        for case in 0..300 {
            let n = g.below(60) as usize;
            let width = 1 + g.below(3) as usize;
            let cols: Vec<Vec<u32>> = (0..width)
                .map(|_| (0..n).map(|_| values[g.below(values.len() as u64) as usize]).collect())
                .collect();
            let keys: Vec<&[u32]> = cols.iter().map(Vec::as_slice).collect();
            let keyed =
                (0..n).map(|i| (cols.iter().map(|c| f64::from(c[i])).collect(), i)).collect();
            assert_eq!(
                bits(&group_keys(&keys, n)),
                bits(&group_keyed_rows(keyed)),
                "case {case}: {cols:?}"
            );
        }
    }

    #[test]
    fn tree_builds_fig2_shape() {
        // Fig. 2b: aggregate by router rank, then by (rank, port), then a
        // histogram capped at 6 bins.
        let d = ds();
        let tree = AggregateTree::build(
            &d,
            &[
                TreeLevel {
                    entity: EntityKind::Terminal,
                    fields: vec![Field::RouterRank],
                    max_bins: None,
                },
                TreeLevel {
                    entity: EntityKind::Terminal,
                    fields: vec![Field::RouterRank, Field::RouterPort],
                    max_bins: None,
                },
                TreeLevel {
                    entity: EntityKind::Terminal,
                    fields: vec![Field::TerminalId],
                    max_bins: Some((Field::DataSize, 6)),
                },
            ],
        );
        assert_eq!(tree.levels[0].len(), 2);
        assert_eq!(tree.levels[1].len(), 4);
        assert!(tree.levels[2].len() <= 6);
    }
}
