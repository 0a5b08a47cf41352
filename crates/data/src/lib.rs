//! # csj-data — datasets for the CSJ reproduction
//!
//! The paper evaluates on a proprietary corpus (7.8M VK users' real likes
//! over 540 brand pages) and an unpublished synthetic generator. This
//! crate is the substitution substrate (see DESIGN.md §3):
//!
//! * [`spec`] — the paper's published numbers, embedded as constants: the
//!   27 categories with their Table 1 `total_likes`, the 20 community
//!   couples of Table 2 with their sizes, and the per-method
//!   similarity/runtime cells of Tables 3–10 plus the Table 11
//!   scalability grid, so the bench harness can print
//!   *paper-vs-measured* for every cell.
//! * [`vklike`] — a seeded generator producing VK-shaped data: sparse,
//!   heavily skewed per-category counters whose dataset-wide totals
//!   follow the real Table 1 popularity weights, with jointly generated
//!   community pairs hitting a target similarity.
//! * [`uniform`] — the "Synthetic" counterpart: per-dimension uniform
//!   counters with an analytically calibrated value range.
//! * [`calibrate`] — the closed-form calibration of the uniform
//!   generator's value range from a target similarity.
//! * [`pairs`] — turns a [`spec::CoupleSpec`] plus a scale factor into a
//!   concrete `(B, A)` community pair on either dataset.
//! * [`corpus`] — one coherent population with popularity-ranked pages,
//!   where community similarity emerges from *real* subscriber overlap
//!   (no planting).
//! * [`io`] — CSV and compact binary (de)serialisation of communities.
//! * [`stats`] — distribution statistics (per-category totals ranking —
//!   the Table 1 reproduction — and per-dimension summaries).

pub mod calibrate;
pub mod categories;
pub mod corpus;
pub mod io;
pub mod pairs;
pub mod spec;
pub mod stats;
pub mod uniform;
pub mod vklike;

pub use categories::Category;
pub use pairs::{build_couple, Dataset};
pub use spec::{CoupleSpec, COUPLES};
