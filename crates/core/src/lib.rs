//! # hrviz-core — visual analytics for large-scale high-radix networks
//!
//! The paper's primary contribution (§IV): scalable visual analytics over
//! Dragonfly network performance data. This crate implements
//!
//! * the **entity tree** — flattened entity tables ([`DataSet`]) with a
//!   field vocabulary matching the paper's Fig. 2(a),
//! * **hierarchical + binned aggregation** ([`aggregate`]) with the
//!   paper's sum/mean rules and `maxBins` re-binning,
//! * **projection-view specifications** ([`spec`]) with plot-type
//!   inference from encoding counts, and the Fig. 5 **script language**
//!   ([`script`]),
//! * **view building** ([`projection`]): rings, partition arcs, and
//!   bundled link ribbons (size = traffic, color = max saturation),
//! * the **detail view** ([`detail`]): link scatters + terminal parallel
//!   coordinates with highlighting and axis brushing,
//! * the **timeline view** ([`timeline`]) with time-range selection, and
//! * **cross-run comparison** ([`compare`]) under shared scales.
//!
//! ## Example
//!
//! ```
//! use hrviz_core::{DataSet, script, projection};
//! use hrviz_network::{DragonflyConfig, NetworkSpec, Simulation, MsgInjection, TerminalId};
//! use hrviz_pdes::SimTime;
//!
//! // Simulate...
//! let mut sim = Simulation::new(NetworkSpec::new(DragonflyConfig::canonical(2)));
//! sim.inject(MsgInjection { time: SimTime::ZERO, src: TerminalId(0),
//!                           dst: TerminalId(50), bytes: 65536, job: 0 });
//! let run = sim.try_run().expect("run completes");
//!
//! // ...analyze with a projection script.
//! let ds = DataSet::builder(&run).build();
//! let spec = script::parse_script(r#"
//!     { project: "router", aggregate: "router_rank",
//!       vmap: { color: "total_sat_time", size: "total_traffic" } }
//! "#).unwrap();
//! let view = projection::build_view(&ds, &spec).unwrap();
//! assert_eq!(view.rings.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod color;
pub mod columnar;
pub mod compare;
pub mod dataset;
pub mod detail;
pub mod entity;
pub mod graph;
pub mod live;
pub mod projection;
pub mod request;
pub mod script;
pub mod spec;
pub mod timeline;

pub use aggregate::{AggregateCache, AggregateItem, AggregateTree, DataKey, TreeLevel};
pub use color::{Color, ColorScale};
pub use columnar::{schema_of, Column, ColumnTable, StoredColumns};
pub use compare::{compare_views, compare_views_cached};
pub use dataset::{DataSet, DataSetBuilder, LinkRow, RouterRow, TerminalRow};
pub use detail::{brush_axis, DetailView, LinkScatter, ParallelCoords, PCP_AXES};
pub use entity::{AggRule, EntityKind, Field};
pub use graph::{
    hex16, Cursor, CursorError, GraphNode, ProjectionGraph, RenderPolicy, SCHEMA_VERSION,
    SECTION_NAMES,
};
pub use live::LiveAggregate;
pub use projection::{
    build_view, build_view_cached, build_view_scaled, compute_scales, ArcSegment, ProjectionView,
    Ribbon, Ring, ScaleSet, VisualItem,
};
pub use request::{RequestError, ViewRequest, MAX_PAGE_SIZE};
pub use script::{parse_script, to_script, FIG5A_SCRIPT, FIG5B_SCRIPT};
pub use spec::{FilterClause, LevelSpec, PlotKind, ProjectionSpec, RibbonSpec, SpecError, VMap};
pub use timeline::{TimelineSeries, TimelineView};
