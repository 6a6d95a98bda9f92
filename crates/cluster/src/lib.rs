//! Cluster mode for Sledge: a serverless-first routing tier that spreads
//! invocations over a set of `sledged` nodes with a seeded consistent-hash
//! ring, fails over to the next ring replica when a node dies, and
//! distributes compiled modules *with their translation certificates* so
//! nodes validate instead of re-translating on ingest.
//!
//! Three pieces:
//!
//! - [`ring`]: the consistent-hash placement (virtual nodes, seeded, with
//!   distinct-node replica ordering for failover).
//! - [`health`]: per-node failure counters and circuit breakers fed by both
//!   live traffic and a background prober, plus the warm-pool observation
//!   that drives locality steering.
//! - [`router`]: the HTTP front end tying them together — forwarding,
//!   retry-with-failover, module distribution, and ring-level metrics.

pub mod health;
pub mod ring;
pub mod router;

pub use health::{BreakerConfig, NodeHealth};
pub use ring::{HashRing, DEFAULT_VNODES};
pub use router::{ingest_frame, PushResult, RingStatsSnapshot, Router, RouterConfig};

/// Compile `wasm` into a distributable certificate-carrying artifact: the
/// translated module (with its analysis, cost and effect certificates)
/// serialized via [`awsm::encode_artifact`]. Feed the result to
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
