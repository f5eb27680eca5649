//! Empty stand-in for the `bytes` crate. `crates/core` declares the
//! dependency and imports nothing from it; the benchmark build has no
//! registry, so this satisfies the resolver.
