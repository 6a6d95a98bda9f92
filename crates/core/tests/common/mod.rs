//! Shared by the suites whose invariants must hold under concurrency.

use sledge_core::RuntimeConfig;

/// `base` as given, then `base` with every feature that shares state
/// between threads armed: a warm pool with its pre-warmer and recycling,
/// one DWRR lane per function, and an in-flight cap above the suites'
/// largest burst (600), so the cap is checked but never sheds. Each pair
/// carries a label to name the configuration a failure came from.
pub fn plain_and_armed(base: RuntimeConfig) -> [(&'static str, RuntimeConfig); 2] {
    let armed = RuntimeConfig {
        pool_size: 4,
        prewarm: 2,
        recycle: true,
        fairness: true,
        max_inflight: 1024,
        ..base.clone()
    };
    [("plain", base), ("armed", armed)]
}
