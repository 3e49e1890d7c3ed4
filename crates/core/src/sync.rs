//! Synchronization facade: `std` in normal builds, `loom` under
//! `--cfg loom`.
//!
//! The collection pipeline ([`sharded`](crate::sharded)) — and sibling
//! crates building their own pipelines on the same contract, like
//! `orp-whomp`'s grammar workers — import channels and threads from here instead of `std`
//! directly, so the model-checking build (`RUSTFLAGS="--cfg loom"
//! cargo test --release --test <loom test>`) can substitute loom's
//! instrumented primitives and exhaustively explore thread
//! interleavings. See DESIGN.md §10 and §13.
//!
//! Only the surface the pipelines use is re-exported; new
//! synchronization in this workspace must route through this module or
//! the loom build stops covering it.

#[cfg(loom)]
pub use loom::{sync::mpsc, thread};

#[cfg(not(loom))]
pub use std::{sync::mpsc, thread};
