//! Marker-trait stand-in for `serde`.
//!
//! The product crates only *derive* `Serialize`/`Deserialize`; nothing in
//! the tree serializes through them. The traits exist so the names
//! resolve, and the derives (feature `derive`) expand to nothing.

/// Marker for `serde::Serialize`.
pub trait Serialize {}

/// Marker for `serde::Deserialize`.
pub trait Deserialize<'de> {}

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
