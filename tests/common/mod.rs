//! Helpers shared by the integration-test suites.

// Every suite compiles the whole module but uses only its part of it.
#[allow(dead_code)]
pub mod alloc;
#[allow(dead_code)]
pub mod harness;
#[allow(dead_code)]
pub mod pins;
