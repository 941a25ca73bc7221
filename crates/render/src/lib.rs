//! # hrviz-render — SVG rendering of hrviz view models
//!
//! The paper's system is an interactive web UI; this crate renders the
//! same views as deterministic SVG (see DESIGN.md substitution 3):
//!
//! * [`radial`] — hierarchical radial projection views with ring plots,
//!   partition arcs, and bundled link ribbons (Fig. 4c, 5, 7–11, 13),
//! * [`charts`] — link scatters and terminal parallel coordinates
//!   (Fig. 6b), timelines (Fig. 6c, 12), and grouped bars (Fig. 13d),
//! * [`matrix`] — the baseline router-to-router matrix heatmaps that
//!   §IV-B1 compares the ribbon encoding against,
//! * [`svg`] — the underlying document builder and polar-geometry
//!   helpers.
//!
//! Interaction (brushing, selection, time ranges) happens in
//! `hrviz-core`; re-rendering the updated view models yields the paper's
//! interactive loop frame by frame.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
// Test code is exempt: clippy.toml's allow-*-in-tests covers the other three.
#![cfg_attr(test, allow(clippy::unreachable, clippy::todo, clippy::unimplemented))]

pub mod charts;
pub mod matrix;
pub mod radial;
pub mod svg;

pub use charts::{
    render_grouped_bars, render_link_scatter, render_parallel_coords, render_timeline, BarGroup,
};
pub use matrix::{render_matrix, MatrixView};
pub use radial::{render_radial, render_radial_row, RadialLayout};
pub use svg::{annular_sector, format_si, polar, ribbon_path, SvgDoc};
