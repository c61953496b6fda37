//! Small self-contained utilities used across the crate.

pub mod float;
pub mod fnv;
pub mod fxhash;

pub use float::{approx_eq, approx_eq_tol, approx_ge, luce_ratio, total_cmp};
pub use fnv::Fnv1a;
pub use fxhash::{FxHashMap, FxHashSet, FxHasher};
