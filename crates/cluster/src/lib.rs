//! Cluster mode for Sledge: a serverless-first routing tier that spreads
//! invocations over a set of `sledged` nodes with a seeded consistent-hash
//! ring, fails over to the next ring replica when a node dies, and
//! distributes modules as `.wasm`: each node decodes, validates and
//! translates what it is pushed under its own budgets.
//!
//! Two pieces:
//!
//! - [`ring`]: the consistent-hash placement (virtual nodes, seeded, with
//!   distinct-node replica ordering for failover).
//! - [`router`]: the HTTP front end — forwarding, retry-with-failover,
//!   module distribution, and ring-level metrics. It routes on ring order,
//!   each node's `GET /healthz` verdict and a per-node
//!   [`sledge_core::Breaker`] fed by live traffic and the prober alike.

#![warn(unreachable_pub)]

pub mod ring;
pub mod router;

pub use ring::{HashRing, DEFAULT_VNODES};
pub use router::{PushResult, RingStatsSnapshot, Router, RouterConfig};
pub use sledge_core::BreakerConfig;
