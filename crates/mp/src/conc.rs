//! The message-passing simulator's declared concurrency model.
//!
//! Deliberately boring: `crates/mp` is a *single-threaded* simulation —
//! the scheduler interleaves deliveries and timeouts inside one driver
//! thread, with no cross-thread channels. Declaring that emptiness is the
//! point: the `conc-coverage` pass confronts the debug-build thread
//! registry with this model, so the moment anyone threads the simulator
//! the declaration (and the lint gate) must move with it.

use ssmfp_core::conc::{ConcModel, ThreadDecl, EXTERN_ROLE};

/// Component name under which mp threads register.
pub const COMPONENT: &str = "mp";

/// The driver role every suite entry point registers itself as.
pub const DRIVER_ROLE: &str = "mp.driver";

/// The declared model: one driver thread, nothing else.
pub fn model() -> ConcModel {
    ConcModel {
        component: COMPONENT,
        threads: vec![ThreadDecl {
            role: DRIVER_ROLE,
            spawned_by: EXTERN_ROLE,
            doc: "the single thread driving the simulated network (tests, suite callers)",
        }],
        channels: vec![],
        edges: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_declares_exactly_the_driver() {
        let m = model();
        assert_eq!(m.component, COMPONENT);
        assert!(m.thread(DRIVER_ROLE).is_some());
        assert!(m.channels.is_empty() && m.edges.is_empty());
    }
}
