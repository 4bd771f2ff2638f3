//! Open-loop end-to-end benchmark of the commalloc daemon and sweep
//! engine, with per-layer attribution. See `e2ebench/README.md`.

pub mod daemon;
pub mod drive;
pub mod plan;
pub mod report;
pub mod spec;
pub mod stats;
pub mod sweep;
pub mod timed;
pub mod traced;
pub mod tracker;
