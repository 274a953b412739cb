//! Helpers shared by the integration-test suites.

// Every suite compiles the whole module but uses only its part of it.
#[allow(dead_code)]
pub mod alloc;
#[allow(dead_code)]
pub mod harness;
#[allow(dead_code)]
pub mod pins;

/// Parallel worker count for the thread-invariance checks: every
/// serial-vs-parallel comparison runs its wide side at this width.
/// Reads `HRP_TEST_THREADS` (CI runs the suites under 1; `cargo test`
/// alone uses the default); defaults to 4.
pub fn test_threads() -> usize {
    std::env::var("HRP_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}
