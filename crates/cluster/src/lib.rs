//! Cluster mode for Sledge: a serverless-first routing tier that spreads
//! invocations over a set of `sledged` nodes with a seeded consistent-hash
//! ring, fails over to the next ring replica when a node dies, and
//! distributes compiled modules *with their translation certificates* so
//! nodes validate instead of re-translating on ingest.
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

/// Compile `wasm` into a distributable artifact: the translated module's
/// tables and bodies serialized via [`awsm::encode_artifact`] (each node
/// derives the certificates itself). Feed the result to
/// [`Router::distribute`] or a node's `POST /admin/modules`.
///
/// # Errors
///
/// Returns the decode/translate error text on a malformed module.
pub fn artifact_from_wasm(wasm: &[u8]) -> Result<Vec<u8>, String> {
    let module = sledge_wasm::decode::decode_module(wasm).map_err(|e| format!("decode: {e}"))?;
    let compiled =
        awsm::translate(&module, awsm::Tier::Optimized).map_err(|e| format!("translate: {e}"))?;
    Ok(awsm::encode_artifact(&compiled))
}
