//! Deterministic discrete-event simulation substrate for the Elan
//! reproduction.
//!
//! Every performance experiment in this repository runs on virtual time so
//! that results are exactly reproducible across machines and runs. The crate
//! provides:
//!
//! - [`SimTime`] / [`SimDuration`]: integer-nanosecond virtual clock types,
//! - [`SeedStream`]: deterministic derivation of per-component RNG seeds,
//! - [`metrics`]: time series, summary statistics, and histograms used to
//!   produce the paper's figures,
//! - [`units`]: byte/bandwidth quantities with human-readable formatting.
//!
//! # Examples
//!
//! ```
//! use elan_sim::{SimDuration, SimTime};
//!
//! let start = SimTime::ZERO + SimDuration::from_millis(1);
//! let end = start + SimDuration::from_millis(4);
//! assert!(start < end);
//! assert_eq!(end, SimTime::ZERO + SimDuration::from_millis(5));
//! assert_eq!(end - start, SimDuration::from_millis(4));
//! ```

pub mod metrics;
pub mod rng;
pub mod time;
pub mod units;

pub use metrics::{Histogram, Series, Summary};
pub use rng::SeedStream;
pub use time::{SimDuration, SimTime};
pub use units::{Bandwidth, Bytes};
