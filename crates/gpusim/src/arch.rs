//! GPU architecture description.
//!
//! Geometry follows the NVIDIA Ampere A100 used in the paper (Table II):
//! 8 GPCs, 108 SMs, 40 GB HBM2 across 8 memory slices, ~1555 GB/s peak
//! DRAM bandwidth. All partitioning math in this workspace operates on
//! *fractions* of these totals, so other GPUs can be modelled by changing
//! the constants.

/// Static description of a GPU die.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuArch {
    /// Marketing name, e.g. `"NVIDIA A100 40GB PCIe"`.
    pub name: String,
    /// Graphics Processing Clusters on the die.
    pub gpcs: u32,
    /// Streaming Multiprocessors (total across all GPCs).
    pub sms: u32,
    /// Memory slices (HBM stack + LLC partitions); MIG memory ownership is
    /// expressed in these units.
    pub mem_slices: u32,
    /// Device memory capacity in GiB.
    pub hbm_gib: f64,
    /// Peak DRAM bandwidth in GB/s.
    pub peak_bw_gbs: f64,
    /// Peak FP64 throughput in TFLOP/s (A100: 9.7).
    pub peak_fp64_tflops: f64,
    /// SM clock in MHz.
    pub clock_mhz: f64,
    /// GPCs usable when MIG is enabled. On the A100, enabling MIG disables
    /// one of the eight GPCs (paper §III-A restriction (1)).
    pub mig_usable_gpcs: u32,
    /// Board power limit in W (Table II: 250 W PCIe).
    pub tdp_w: f64,
}

impl GpuArch {
    /// The NVIDIA A100 40GB PCIe configuration used in the paper.
    #[must_use]
    pub fn a100() -> Self {
        Self {
            name: "NVIDIA A100 40GB PCIe".to_owned(),
            gpcs: 8,
            sms: 108,
            mem_slices: 8,
            hbm_gib: 40.0,
            peak_bw_gbs: 1555.0,
            peak_fp64_tflops: 9.7,
            clock_mhz: 1410.0,
            mig_usable_gpcs: 7,
            tdp_w: 250.0,
        }
    }

    /// Fraction of total compute represented by one GPC slice.
    #[must_use]
    pub fn gpc_fraction(&self) -> f64 {
        1.0 / f64::from(self.gpcs)
    }

    /// Fraction of total bandwidth represented by one memory slice.
    #[must_use]
    pub fn mem_slice_fraction(&self) -> f64 {
        1.0 / f64::from(self.mem_slices)
    }
}

impl Default for GpuArch {
    fn default() -> Self {
        Self::a100()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_geometry_matches_paper() {
        let a = GpuArch::a100();
        assert_eq!(a.gpcs, 8);
        assert_eq!(a.mig_usable_gpcs, 7);
        assert_eq!(a.mem_slices, 8);
        assert!((a.hbm_gib - 40.0).abs() < f64::EPSILON);
        assert!((a.tdp_w - 250.0).abs() < f64::EPSILON);
    }

    #[test]
    fn fractions_are_consistent() {
        let a = GpuArch::a100();
        assert!((a.gpc_fraction() - 0.125).abs() < 1e-12);
        assert!((a.mem_slice_fraction() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn default_is_a100() {
        assert_eq!(GpuArch::default(), GpuArch::a100());
    }

    #[test]
    fn serde_round_trip() {
        // Nothing serialises a `GpuArch`; this only checks that a clone
        // compares equal to the original.
        let a = GpuArch::a100();
        let cloned = a.clone();
        assert_eq!(a, cloned);
    }
}
