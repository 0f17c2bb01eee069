//! Statistics collection and report emission for the GhostMinion reproduction.
//!
//! This crate provides the small pieces of numeric plumbing the evaluation
//! harness needs: a JSON value ([`Json`]), summary math ([`geomean`],
//! [`normalize`]), and table formatting that prints rows in the same style
//! as the paper's figures ([`Table`]). Event counters are plain struct
//! fields where they are counted (`MemStats`, `CoreStats`).

mod json;
mod summary;
mod table;

pub use json::Json;
pub use summary::{geomean, mean, normalize, Ratio};
pub use table::{Align, Table};
