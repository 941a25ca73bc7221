//! Cross-run comparison (paper §III, §V-B): build the *same* projection
//! spec over several datasets with unified encoding scales, so that color
//! and size are directly comparable between network configurations.

use crate::aggregate::{AggregateCache, DataKey};
use crate::dataset::DataSet;
use crate::projection::{build_views_shared, ProjectionView};
use crate::spec::{ProjectionSpec, SpecError};

/// Build one view per dataset under shared min/max scales.
pub fn compare_views(
    datasets: &[&DataSet],
    spec: &ProjectionSpec,
) -> Result<Vec<ProjectionView>, SpecError> {
    let _span = hrviz_obs::get().span("core/compare");
    let jobs: Vec<_> = datasets.iter().map(|&ds| (ds, None)).collect();
    build_views_shared(&jobs, spec)
}

/// [`compare_views`] over *stored* runs: each dataset is paired with its
/// [`DataKey`] and aggregation is memoized through the shared `cache`, so
/// re-comparing a sweep (or comparing overlapping subsets of it) reuses
/// grouped items across calls and across the comparison's worker threads.
/// Each dataset is prepared once, for both the shared scales and its view.
pub fn compare_views_cached(
    datasets: &[(&DataSet, DataKey)],
    spec: &ProjectionSpec,
    cache: &AggregateCache,
) -> Result<Vec<ProjectionView>, SpecError> {
    let _span = hrviz_obs::get().span("core/compare");
    let jobs: Vec<_> = datasets.iter().map(|&(ds, key)| (ds, Some((cache, key)))).collect();
    build_views_shared(&jobs, spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::TerminalRow;
    use crate::entity::{EntityKind, Field};
    use crate::spec::LevelSpec;

    fn ds(scale: f64) -> DataSet {
        let terminals = (0..4u32)
            .map(|i| TerminalRow {
                terminal: i,
                router: i,
                group: 0,
                rank: i,
                port: 0,
                job: 0,
                data_size: scale * (i + 1) as f64,
                recv_bytes: 0.0,
                busy: 0.0,
                sat: scale * i as f64,
                packets_finished: 1.0,
                packets_sent: 1.0,
                avg_latency: 0.0,
                avg_hops: 0.0,
            })
            .collect();
        DataSet::from_tables(vec!["a".into()], vec![], vec![], vec![], terminals)
    }

    fn spec() -> ProjectionSpec {
        ProjectionSpec::new(vec![LevelSpec::new(EntityKind::Terminal)
            .aggregate(&[Field::RouterId])
            .color(Field::SatTime)])
    }

    #[test]
    fn comparison_uses_global_extents() {
        let a = ds(1.0);
        let b = ds(10.0);
        let views = compare_views(&[&a, &b], &spec()).unwrap();
        // Max saturation in run a is 3, in run b is 30: under the shared
        // scale, a's hottest item sits at 0.1.
        let ca = views[0].rings[0].items[3].color.unwrap();
        let cb = views[1].rings[0].items[3].color.unwrap();
        assert_eq!(cb, 1.0);
        assert!((ca - 0.1).abs() < 1e-9);
    }

    #[test]
    fn comparison_equals_views_under_merged_individual_scales() {
        use crate::projection::{build_view_scaled, compute_scales};
        let a = ds(1.0);
        let b = ds(10.0);
        let mut merged = compute_scales(&a, &spec()).unwrap();
        merged.merge(&compute_scales(&b, &spec()).unwrap());
        let views = compare_views(&[&a, &b], &spec()).unwrap();
        for (d, v) in [&a, &b].into_iter().zip(&views) {
            let oracle = build_view_scaled(d, &spec(), &merged).unwrap();
            let encoded = |v: &ProjectionView| -> Vec<_> {
                v.rings[0].items.iter().map(|i| (i.color, i.size, i.span)).collect()
            };
            assert_eq!(encoded(v), encoded(&oracle));
        }
    }

    #[test]
    fn cached_comparison_matches_and_reuses_aggregates() {
        let a = ds(1.0);
        let b = ds(10.0);
        let cache = AggregateCache::new();
        let keyed =
            [(&a, DataKey { run: 1, generation: 1 }), (&b, DataKey { run: 2, generation: 1 })];
        let plain = compare_views(&[&a, &b], &spec()).unwrap();
        let cached = compare_views_cached(&keyed, &spec(), &cache).unwrap();
        for (p, c) in plain.iter().zip(&cached) {
            let cp: Vec<_> = p.rings[0].items.iter().map(|i| i.color).collect();
            let cc: Vec<_> = c.rings[0].items.iter().map(|i| i.color).collect();
            assert_eq!(cp, cc);
        }
        let (h0, m0) = (cache.hits(), cache.misses());
        compare_views_cached(&keyed, &spec(), &cache).unwrap();
        assert!(cache.hits() > h0, "re-comparison must hit");
        assert_eq!(cache.misses(), m0, "re-comparison must add no misses");
    }

    #[test]
    fn single_dataset_comparison_matches_plain_build() {
        use crate::projection::build_view;
        let a = ds(2.0);
        let cmp = compare_views(&[&a], &spec()).unwrap();
        let plain = build_view(&a, &spec()).unwrap();
        let c1: Vec<_> = cmp[0].rings[0].items.iter().map(|i| i.color).collect();
        let c2: Vec<_> = plain.rings[0].items.iter().map(|i| i.color).collect();
        assert_eq!(c1, c2);
    }
}
