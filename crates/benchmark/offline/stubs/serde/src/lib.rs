//! Stand-in for `serde`: marker traits and no-op derives. The SSTD
//! crates derive `Serialize`/`Deserialize` on their types; nothing the
//! benchmark runs serializes through serde.

/// Marker for types that derive `Serialize`.
pub trait Serialize {}
/// Marker for types that derive `Deserialize`.
pub trait Deserialize<'de> {}

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
