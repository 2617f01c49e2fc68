//! Deterministic discrete-event simulation substrate for the Elan
//! reproduction.
//!
//! Every performance experiment in this repository runs on virtual time so
//! that results are exactly reproducible across machines and runs. The crate
//! provides:
//!
//! - [`SimTime`] / [`SimDuration`]: integer-nanosecond virtual clock types,
//! - [`Scheduler`]: a time-ordered event queue with stable FIFO tie-breaking,
//! - [`SeedStream`]: deterministic derivation of per-component RNG seeds,
//! - [`metrics`]: time series, summary statistics, and histograms used to
//!   produce the paper's figures,
//! - [`units`]: byte/bandwidth quantities with human-readable formatting.
//!
//! # Examples
//!
//! ```
//! use elan_sim::{Scheduler, SimDuration, SimTime};
//!
//! let mut sched: Scheduler<&'static str> = Scheduler::new();
//! sched.schedule_after(SimDuration::from_millis(5), "world");
//! sched.schedule_after(SimDuration::from_millis(1), "hello");
//! let (t1, first) = sched.pop().unwrap();
//! let (t2, second) = sched.pop().unwrap();
//! assert_eq!((first, second), ("hello", "world"));
//! assert!(t1 < t2);
//! assert_eq!(t2, SimTime::ZERO + SimDuration::from_millis(5));
//! ```

pub mod event;
pub mod metrics;
pub mod rng;
pub mod time;
pub mod units;

pub use event::Scheduler;
pub use metrics::{Histogram, Series, Summary};
pub use rng::SeedStream;
pub use time::{SimDuration, SimTime};
pub use units::{Bandwidth, Bytes};
