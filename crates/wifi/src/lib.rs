//! 802.11 substrate for the WOLT PLC-WiFi association framework.
//!
//! WOLT's network model needs three things from the WiFi side:
//!
//! 1. **A distance → PHY-rate map** (§V-A of the paper: "a simple model to
//!    simulate the WiFi channel qualities where the channel quality is a
//!    function of the distance between the extender and the user"). This is
//!    [`pathloss`] (log-distance path loss with optional log-normal
//!    shadowing) composed with [`mcs`] (RSSI → MCS → rate tables in the
//!    spirit of 802.11n single-stream, plus a MAC-efficiency factor that
//!    converts PHY rate to achievable saturation throughput — the `r_ij` of
//!    the paper).
//! 2. **The throughput-fair sharing law** (Eq. 1 of the paper, the 802.11
//!    "performance anomaly" of Heusse et al.): all saturated users of one
//!    cell obtain the same long-term throughput `1/Σ(1/r_i)`. This is
//!    [`cell`], including an incremental accumulator used by the greedy
//!    baseline.
//! 3. **Evidence that (2) is what 802.11 actually does**: [`dcf`] is a
//!    slotted CSMA/CA (DCF) micro-simulator with binary exponential backoff
//!    and collisions; its measured per-station throughputs reproduce the
//!    performance anomaly from first principles (Fig. 2a of the paper) and
//!    validate the analytic model.
//!
//! # Example
//!
//! ```
//! use wolt_units::{Meters, Mbps};
//! use wolt_wifi::WifiRadio;
//!
//! let radio = WifiRadio::office_default();
//! // A user 5 m from the extender gets a high rate...
//! let near = radio.rate_at_distance(Meters::new(5.0)).unwrap();
//! // ...a user 45 m away gets a lower one.
//! let far = radio.rate_at_distance(Meters::new(45.0)).unwrap();
//! assert!(near > far);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cell;
pub mod dcf;
pub mod mcs;
pub mod pathloss;

mod error;
mod radio;

pub use error::WifiError;
pub use mcs::RateTable;
pub use pathloss::LogDistanceModel;
pub use radio::WifiRadio;
