//! Self-contained test support for the workspace: a deterministic RNG and
//! a miniature property-testing harness with a `proptest`-compatible macro
//! surface.
//!
//! The workspace builds with **no network access**, so crates-io
//! dev-dependencies (`rand`, `proptest`) cannot be resolved. This crate
//! replaces the small slices of their APIs the workspace actually uses,
//! keeping `cargo build && cargo test` fully offline. Unlike `proptest`
//! proper there is no shrinking and no failure persistence — cases are
//! generated from a seed derived from the test name, so failures
//! reproduce deterministically across runs.
//!
//! There is no timer here: performance is measured end to end by the
//! repository's benchmark, `perfbench/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod proptest;
pub mod rng;

pub use rng::Rng;
