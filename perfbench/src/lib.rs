//! Library half of the benchmark: seeded input generators, the HTTP/1.1
//! load-generator client, span self-time arithmetic, statistics and the
//! machine-speed sentinel. The binary (`src/main.rs`) drives the `dpipe`
//! executable with these pieces.

pub mod client;
pub mod gen;
pub mod sentinel;
pub mod spans;
pub mod stats;
