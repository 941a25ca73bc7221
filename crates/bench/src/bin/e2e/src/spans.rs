//! The benchmark's own span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's files, around calls into each
//! crate's public API; nothing inside the program is instrumented. They are
//! kept in memory and written out once, at exit. The traced pass replays each
//! workload's pipeline serially on the calling thread, so one recorder with a
//! parent stack is enough; with the recorder off a span is one branch.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use hrviz_obs::Json;

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRec {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

struct Live {
    epoch: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
}

/// Records spans when on; runs the closure and nothing else when off.
pub struct Tracer(Option<RefCell<Live>>);

impl Tracer {
    pub fn off() -> Tracer {
        Tracer(None)
    }

    pub fn on() -> Tracer {
        Tracer(Some(RefCell::new(Live {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        })))
    }

    /// Run `f` inside a span named `layer.operation`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let Some(live) = &self.0 else {
            return f();
        };
        let idx = {
            let mut l = live.borrow_mut();
            let start = l.epoch.elapsed().as_nanos() as u64;
            let parent = l.stack.last().copied();
            l.spans.push(SpanRec { name, start, end: start, parent });
            let idx = l.spans.len() - 1;
            l.stack.push(idx);
            idx
        };
        let out = f();
        let mut l = live.borrow_mut();
        l.spans[idx].end = l.epoch.elapsed().as_nanos() as u64;
        l.stack.pop();
        out
    }

    pub fn records(&self) -> Vec<SpanRec> {
        self.0.as_ref().map(|l| l.borrow().spans.clone()).unwrap_or_default()
    }
}

/// Self time of every span: its duration minus the part of its interval that
/// its children cover. Children are clipped to the parent and their union is
/// taken, so overlapping children are not subtracted twice.
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (s.start.max(spans[p].start), s.end.min(spans[p].end));
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// One row of the per-layer table.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub name: String,
    pub count: u64,
    pub self_ns: u64,
}

/// Self time summed by span name, largest first.
pub fn table_by_name(spans: &[SpanRec]) -> Vec<Row> {
    let mut acc: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = acc.entry(s.name).or_default();
        e.0 += 1;
        e.1 += own;
    }
    let mut rows: Vec<Row> = acc
        .into_iter()
        .map(|(name, (count, self_ns))| Row { name: name.to_string(), count, self_ns })
        .collect();
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(&b.name)));
    rows
}

/// The layer of a span name: the part before the first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time summed by layer.
pub fn table_by_layer(rows: &[Row]) -> BTreeMap<String, u64> {
    let mut acc = BTreeMap::new();
    for r in rows {
        *acc.entry(layer_of(&r.name).to_string()).or_insert(0) += r.self_ns;
    }
    acc
}

/// Write `{name, start, end, parent, workload}` lines.
pub fn write_jsonl(path: &Path, workload: &str, spans: &[SpanRec]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let line = Json::obj([
            ("name", Json::Str(s.name.to_string())),
            ("start", Json::U64(s.start)),
            ("end", Json::U64(s.end)),
            ("parent", s.parent.map_or(Json::Null, |p| Json::U64(p as u64))),
            ("workload", Json::Str(workload.to_string())),
        ]);
        writeln!(out, "{}", line.render())?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> SpanRec {
        SpanRec { name, start, end, parent }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            rec("bench.root", 0, 100, None),
            rec("a.x", 10, 40, Some(0)),
            rec("a.y", 30, 60, Some(0)),  // overlaps a.x by 10
            rec("b.z", 90, 120, Some(0)), // runs past the parent: clipped to 10
            rec("a.leaf", 12, 20, Some(1)),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 100 - (50 + 10), "union [10,60) plus clipped [90,100)");
        assert_eq!(own[1], 30 - 8);
        assert_eq!(own[2], 30);
        assert_eq!(own[3], 30);
        assert_eq!(own[4], 8);
    }

    #[test]
    fn nested_spans_sum_to_the_root_wall() {
        let t = Tracer::on();
        t.span("bench.root", || {
            t.span("pdes.run", || {
                t.span("network.route", || std::hint::black_box(1 + 1));
            });
            t.span("sweep.save", || ());
        });
        let spans = t.records();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, spans[0].end - spans[0].start);
        let rows = table_by_name(&spans);
        let layers = table_by_layer(&rows);
        assert_eq!(
            layers.keys().map(String::as_str).collect::<Vec<_>>(),
            ["bench", "network", "pdes", "sweep"]
        );
        assert_eq!(layers.values().sum::<u64>(), total);
    }

    #[test]
    fn off_recorder_runs_the_closure_and_records_nothing() {
        let t = Tracer::off();
        assert_eq!(t.span("x.y", || 7), 7);
        assert!(t.records().is_empty());
    }
}
