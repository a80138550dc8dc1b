//! Zero-dependency substrate for the WOLT workspace.
//!
//! A reproduction of WOLT (ICDCS 2020) is only credible if its association
//! results are bit-for-bit reproducible from a seed, which requires owning
//! the random-number and serialization stack instead of importing it. This
//! crate provides the three pieces every other workspace crate builds on,
//! with no external dependencies and therefore no network access at build
//! time:
//!
//! * [`rng`] — a seedable, deterministic ChaCha8 PRNG with documented
//!   stream semantics and the `gen_range`/`gen_bool`/`shuffle` surface the
//!   simulators need.
//! * [`json`] — a minimal JSON value type, parser, and writer, plus
//!   [`json::ToJson`]/[`json::FromJson`] traits for the report and spec
//!   shapes exchanged by `wolt-cli` and the bench binaries.
//! * [`check`] — a mini property-testing harness with bounded shrinking
//!   and a regression-seed corpus file format.
//! * [`pool`] — a scoped thread pool with an order-preserving `par_map`,
//!   so parallel experiment sweeps stay byte-identical to sequential runs.
//! * [`obs`] — a process-wide metrics registry (counters, gauges,
//!   fixed-bucket histograms) whose totals are deterministic
//!   at any thread count and whose presence never perturbs results.
//! * [`crc`] — CRC-32 (IEEE) for torn-write detection in durable state.
//! * [`crash`] — seeded, named crash-point injection ([`crash_point!`])
//!   for chaos-testing crash safety with real process aborts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod crash;
pub mod crc;
pub mod json;
pub mod obs;
pub mod pool;
pub mod rng;
