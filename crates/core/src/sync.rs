//! Synchronization facade: `std` in normal builds, `loom` under
//! `--cfg loom`.
//!
//! [`lane`](crate::lane) — the one thread hand-off every pipeline uses,
//! in this crate and in `orp-whomp` and `orpd` — imports its channels
//! and threads from here instead of `std`, so the model-checking build
//! (`RUSTFLAGS="--cfg loom" cargo test --release --test <loom test>`)
//! can substitute loom's instrumented primitives and exhaustively
//! explore thread interleavings. See DESIGN.md §8 "Bounded lanes" and
//! §10.
//!
//! Only the surface the lanes use is re-exported; new synchronization
//! in this workspace must route through this module or the loom build
//! stops covering it.

#[cfg(loom)]
pub use loom::{sync::mpsc, thread};

#[cfg(not(loom))]
pub use std::{sync::mpsc, thread};
