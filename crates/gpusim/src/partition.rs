//! The hierarchical partition tree and its compiled (flat) form.
//!
//! A partition describes how one GPU is carved up for a co-scheduling
//! group, mirroring the paper's Fig. 2:
//!
//! * **MPS only** — the whole GPU is one memory domain; clients get
//!   compute-fraction caps (`[(0.3)+(0.7),1m]`).
//! * **MIG** — the GPU is split into GPU Instances, each owning private
//!   memory slices; each GI hosts Compute Instances, and each CI may run
//!   several MPS clients (the *hierarchical* option,
//!   `[(0.5)+(0.5){0.5},0.5m]+[{0.375},0.5m]`).
//!
//! [`PartitionScheme`] is the declarative description;
//! [`PartitionScheme::compile`] validates it against the MIG placement
//! rules and flattens it into [`CompiledPartition`] — a list of
//! [`Slot`]s (one per co-located program) referencing [`MemDomain`]s —
//! which is what the performance model consumes.

use crate::arch::GpuArch;
use crate::error::PartitionError;
use crate::mig::{GiProfile, MigConfig};
use crate::mps::validate_shares;
use std::fmt;

/// A compute instance inside a GPU instance.
#[derive(Debug, Clone, PartialEq)]
pub struct CiSetup {
    /// GPC slices owned by this CI (must be a valid CI profile size and
    /// fit inside the parent GI).
    pub slices: u32,
    /// MPS shares of the clients running inside this CI, relative to the
    /// CI's own compute. Empty means a single exclusive client.
    pub mps_shares: Vec<f64>,
}

impl CiSetup {
    /// An exclusive CI (one client, no MPS subdivision).
    #[must_use]
    pub fn exclusive(slices: u32) -> Self {
        Self {
            slices,
            mps_shares: Vec::new(),
        }
    }

    /// A CI subdivided by MPS with the given relative shares.
    #[must_use]
    pub fn with_mps(slices: u32, mps_shares: Vec<f64>) -> Self {
        Self { slices, mps_shares }
    }

    /// Number of schedulable lanes this CI contributes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.mps_shares.len().max(1)
    }
}

/// A GPU instance: a MIG profile plus the compute instances on it.
#[derive(Debug, Clone, PartialEq)]
pub struct GiSetup {
    /// The MIG profile of this GI.
    pub profile: GiProfile,
    /// Compute instances within the GI.
    pub cis: Vec<CiSetup>,
}

impl GiSetup {
    /// A GI fully occupied by one exclusive CI.
    #[must_use]
    pub fn exclusive(profile: GiProfile) -> Self {
        Self {
            profile,
            cis: vec![CiSetup::exclusive(profile.compute_slices())],
        }
    }

    /// A GI fully occupied by one CI running MPS clients.
    #[must_use]
    pub fn with_mps(profile: GiProfile, shares: Vec<f64>) -> Self {
        Self {
            profile,
            cis: vec![CiSetup::with_mps(profile.compute_slices(), shares)],
        }
    }
}

/// Declarative description of a hierarchical partitioning of one GPU.
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionScheme {
    /// MIG disabled: whole GPU (all 8 GPCs), one shared memory domain,
    /// MPS shares as fractions of the full GPU.
    MpsOnly {
        /// Per-client compute fractions (sum ≤ 1).
        shares: Vec<f64>,
    },
    /// MIG enabled: 7 of 8 GPCs usable; each GI owns private memory.
    Mig {
        /// The GPU instances.
        gis: Vec<GiSetup>,
    },
}

impl PartitionScheme {
    /// Whole-GPU MPS partitioning.
    #[must_use]
    pub fn mps_only(shares: Vec<f64>) -> Self {
        Self::MpsOnly { shares }
    }

    /// Exclusive use of the whole GPU by a single job (the degenerate
    /// `C = 1` scheme used for time sharing).
    #[must_use]
    pub fn exclusive() -> Self {
        Self::MpsOnly { shares: vec![1.0] }
    }

    /// The paper's *MIG only, shared memory* option (Fig. 2, option 2):
    /// one 7g GI whose memory is shared by a 3g CI and a 4g CI:
    /// `[{0.375}+{0.5},1m]`.
    #[must_use]
    pub fn mig_shared_3_4() -> Self {
        Self::Mig {
            gis: vec![GiSetup {
                profile: GiProfile::G7,
                cis: vec![CiSetup::exclusive(3), CiSetup::exclusive(4)],
            }],
        }
    }

    /// The paper's *MIG only, private memory* option (Fig. 2, option 3):
    /// two GIs with isolated memory: `[{0.375},0.5m]+[{0.5},0.5m]`.
    #[must_use]
    pub fn mig_private_3_4() -> Self {
        Self::Mig {
            gis: vec![
                GiSetup::exclusive(GiProfile::G3),
                GiSetup::exclusive(GiProfile::G4),
            ],
        }
    }

    /// Hierarchical MIG+MPS over private 3g/4g GIs (Fig. 2, option 4).
    /// Empty share lists mean the GI hosts a single exclusive job.
    #[must_use]
    pub fn hierarchical_3_4(shares_3g: Vec<f64>, shares_4g: Vec<f64>) -> Self {
        let gi3 = if shares_3g.is_empty() {
            GiSetup::exclusive(GiProfile::G3)
        } else {
            GiSetup::with_mps(GiProfile::G3, shares_3g)
        };
        let gi4 = if shares_4g.is_empty() {
            GiSetup::exclusive(GiProfile::G4)
        } else {
            GiSetup::with_mps(GiProfile::G4, shares_4g)
        };
        Self::Mig {
            gis: vec![gi3, gi4],
        }
    }

    /// Hierarchical MIG+MPS inside a *shared-memory* 7g GI: a 3g CI and a
    /// 4g CI, each optionally MPS-subdivided (the paper's
    /// `[{0.375}+(0.1),(0.9){0.5},1m]` family).
    #[must_use]
    pub fn hierarchical_shared_3_4(shares_3g: Vec<f64>, shares_4g: Vec<f64>) -> Self {
        let ci3 = if shares_3g.is_empty() {
            CiSetup::exclusive(3)
        } else {
            CiSetup::with_mps(3, shares_3g)
        };
        let ci4 = if shares_4g.is_empty() {
            CiSetup::exclusive(4)
        } else {
            CiSetup::with_mps(4, shares_4g)
        };
        Self::Mig {
            gis: vec![GiSetup {
                profile: GiProfile::G7,
                cis: vec![ci3, ci4],
            }],
        }
    }

    /// Does this scheme enable MIG (and thus lose one GPC)?
    #[must_use]
    pub fn uses_mig(&self) -> bool {
        matches!(self, Self::Mig { .. })
    }

    /// Number of co-schedulable lanes (MPS clients / exclusive CIs).
    #[must_use]
    pub fn lanes(&self) -> usize {
        match self {
            Self::MpsOnly { shares } => shares.len(),
            Self::Mig { gis } => gis
                .iter()
                .flat_map(|g| g.cis.iter())
                .map(CiSetup::lanes)
                .sum(),
        }
    }

    /// Validate the scheme and flatten it into slots and memory domains.
    pub fn compile(&self, arch: &GpuArch) -> Result<CompiledPartition, PartitionError> {
        match self {
            Self::MpsOnly { shares } => {
                validate_shares(shares)?;
                let domains = vec![MemDomain {
                    bandwidth_frac: 1.0,
                }];
                let slots = shares
                    .iter()
                    .map(|&s| Slot {
                        compute_frac: s,
                        domain: 0,
                        gi: 0,
                        ci: 0,
                    })
                    .collect();
                Ok(CompiledPartition {
                    slots,
                    domains,
                    mig_enabled: false,
                    mps_active: shares.len() > 1,
                })
            }
            Self::Mig { gis } => {
                if gis.is_empty() {
                    return Err(PartitionError::NoSlots);
                }
                // Placement feasibility of the GI multiset.
                let profiles: Vec<GiProfile> = gis.iter().map(|g| g.profile).collect();
                MigConfig::from_profiles(&profiles)?;

                let mut domains = Vec::with_capacity(gis.len());
                let mut slots = Vec::new();
                for (gi_idx, gi) in gis.iter().enumerate() {
                    if gi.cis.is_empty() {
                        return Err(PartitionError::EmptyGi);
                    }
                    let used: u32 = gi.cis.iter().map(|c| c.slices).sum();
                    let avail = gi.profile.compute_slices();
                    if used > avail {
                        return Err(PartitionError::CiOverflow {
                            requested: used,
                            available: avail,
                        });
                    }
                    for ci in &gi.cis {
                        if GiProfile::from_slices(ci.slices).is_none() {
                            return Err(PartitionError::InvalidCiSlices(ci.slices));
                        }
                    }
                    let domain = domains.len();
                    domains.push(MemDomain {
                        bandwidth_frac: gi.profile.mem_fraction(arch),
                    });
                    for (ci_idx, ci) in gi.cis.iter().enumerate() {
                        let ci_frac = f64::from(ci.slices) / f64::from(arch.gpcs);
                        if ci.mps_shares.is_empty() {
                            slots.push(Slot {
                                compute_frac: ci_frac,
                                domain,
                                gi: gi_idx,
                                ci: ci_idx,
                            });
                        } else {
                            validate_shares(&ci.mps_shares)?;
                            for &sh in &ci.mps_shares {
                                slots.push(Slot {
                                    compute_frac: ci_frac * sh,
                                    domain,
                                    gi: gi_idx,
                                    ci: ci_idx,
                                });
                            }
                        }
                    }
                }
                if slots.is_empty() {
                    return Err(PartitionError::NoSlots);
                }
                let mps_active = gis
                    .iter()
                    .flat_map(|g| g.cis.iter())
                    .any(|c| c.mps_shares.len() > 1);
                Ok(CompiledPartition {
                    slots,
                    domains,
                    mig_enabled: true,
                    mps_active,
                })
            }
        }
    }
}

impl fmt::Display for PartitionScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::notation::format_scheme(self))
    }
}

/// One schedulable lane of a compiled partition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slot {
    /// Compute capacity as a fraction of the *whole GPU's* SMs.
    pub compute_frac: f64,
    /// Index into [`CompiledPartition::domains`].
    pub domain: usize,
    /// Index of the owning GPU instance (0 for MPS-only).
    pub gi: usize,
    /// Index of the owning compute instance within the GI.
    pub ci: usize,
}

/// A memory domain: the bandwidth pool shared by the slots inside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemDomain {
    /// DRAM bandwidth as a fraction of the whole GPU's peak.
    pub bandwidth_frac: f64,
}

/// Flattened, validated partition: what the performance model consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledPartition {
    /// Schedulable lanes, in declaration order.
    pub slots: Vec<Slot>,
    /// Memory domains referenced by the slots.
    pub domains: Vec<MemDomain>,
    /// Whether MIG is enabled (one GPC disabled).
    pub mig_enabled: bool,
    /// Whether any compute instance (or the whole GPU) is subdivided by
    /// MPS — i.e. the MPS control daemon must run.
    pub mps_active: bool,
}

impl CompiledPartition {
    /// Total compute fraction allocated across all slots.
    #[must_use]
    pub fn total_compute(&self) -> f64 {
        self.slots.iter().map(|s| s.compute_frac).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a100() -> GpuArch {
        GpuArch::a100()
    }

    #[test]
    fn mps_only_compiles_to_single_domain() {
        let p = PartitionScheme::mps_only(vec![0.3, 0.7])
            .compile(&a100())
            .unwrap();
        assert_eq!(p.domains.len(), 1);
        assert_eq!(p.slots.len(), 2);
        assert!(!p.mig_enabled);
        assert!((p.domains[0].bandwidth_frac - 1.0).abs() < 1e-12);
        assert!((p.total_compute() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn exclusive_is_one_full_slot() {
        let p = PartitionScheme::exclusive().compile(&a100()).unwrap();
        assert_eq!(p.slots.len(), 1);
        assert!((p.slots[0].compute_frac - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mig_shared_3_4_shares_one_domain() {
        let p = PartitionScheme::mig_shared_3_4().compile(&a100()).unwrap();
        assert_eq!(p.domains.len(), 1);
        assert_eq!(p.slots.len(), 2);
        assert!(p.mig_enabled);
        // 7g GI owns all memory.
        assert!((p.domains[0].bandwidth_frac - 1.0).abs() < 1e-12);
        // 3/8 and 4/8 compute; one GPC lost to MIG.
        assert!((p.slots[0].compute_frac - 0.375).abs() < 1e-12);
        assert!((p.slots[1].compute_frac - 0.5).abs() < 1e-12);
        assert!((p.total_compute() - 0.875).abs() < 1e-12);
    }

    #[test]
    fn mig_private_3_4_isolates_domains() {
        let p = PartitionScheme::mig_private_3_4().compile(&a100()).unwrap();
        assert_eq!(p.domains.len(), 2);
        assert_eq!(p.slots.len(), 2);
        assert!((p.domains[0].bandwidth_frac - 0.5).abs() < 1e-12);
        assert!((p.domains[1].bandwidth_frac - 0.5).abs() < 1e-12);
        assert_ne!(p.slots[0].domain, p.slots[1].domain);
    }

    #[test]
    fn hierarchical_3_4_yields_four_lanes() {
        let s = PartitionScheme::hierarchical_3_4(vec![0.5, 0.5], vec![0.3, 0.7]);
        assert_eq!(s.lanes(), 4);
        let p = s.compile(&a100()).unwrap();
        assert_eq!(p.slots.len(), 4);
        assert_eq!(p.domains.len(), 2);
        // 3g lanes: 0.375 * 0.5 each.
        assert!((p.slots[0].compute_frac - 0.1875).abs() < 1e-12);
        // 4g lanes: 0.5 * 0.3 and 0.5 * 0.7.
        assert!((p.slots[2].compute_frac - 0.15).abs() < 1e-12);
        assert!((p.slots[3].compute_frac - 0.35).abs() < 1e-12);
        // Lanes share a memory domain only within each GI.
        let domains: Vec<usize> = p.slots.iter().map(|s| s.domain).collect();
        assert_eq!(domains[0], domains[1]);
        assert_eq!(domains[2], domains[3]);
        assert_ne!(domains[0], domains[2]);
    }

    #[test]
    fn hierarchical_shared_keeps_one_domain() {
        let s = PartitionScheme::hierarchical_shared_3_4(vec![], vec![0.5, 0.5]);
        let p = s.compile(&a100()).unwrap();
        assert_eq!(p.domains.len(), 1);
        assert_eq!(p.slots.len(), 3);
        assert!(p.slots.iter().all(|s| s.domain == p.slots[0].domain));
    }

    #[test]
    fn ci_overflow_rejected() {
        let s = PartitionScheme::Mig {
            gis: vec![GiSetup {
                profile: GiProfile::G3,
                cis: vec![CiSetup::exclusive(4)],
            }],
        };
        assert!(matches!(
            s.compile(&a100()),
            Err(PartitionError::CiOverflow { .. })
        ));
    }

    #[test]
    fn invalid_ci_size_rejected() {
        let s = PartitionScheme::Mig {
            gis: vec![GiSetup {
                profile: GiProfile::G7,
                cis: vec![CiSetup::exclusive(5)],
            }],
        };
        assert!(matches!(
            s.compile(&a100()),
            Err(PartitionError::InvalidCiSlices(5))
        ));
    }

    #[test]
    fn unplaceable_gi_multiset_rejected() {
        let s = PartitionScheme::Mig {
            gis: vec![
                GiSetup::exclusive(GiProfile::G4),
                GiSetup::exclusive(GiProfile::G4),
            ],
        };
        assert!(matches!(
            s.compile(&a100()),
            Err(PartitionError::Unplaceable(_))
        ));
    }

    #[test]
    fn bad_mps_shares_rejected() {
        let s = PartitionScheme::mps_only(vec![0.8, 0.8]);
        assert!(s.compile(&a100()).is_err());
        let s = PartitionScheme::hierarchical_3_4(vec![1.5], vec![]);
        assert!(s.compile(&a100()).is_err());
    }

    #[test]
    fn lanes_counts_match_compiled_slots() {
        let schemes = [
            PartitionScheme::exclusive(),
            PartitionScheme::mps_only(vec![0.25; 4]),
            PartitionScheme::mig_shared_3_4(),
            PartitionScheme::mig_private_3_4(),
            PartitionScheme::hierarchical_3_4(vec![0.5, 0.5], vec![0.5, 0.5]),
            PartitionScheme::hierarchical_shared_3_4(vec![0.2, 0.8], vec![]),
        ];
        for s in schemes {
            let compiled = s.compile(&a100()).unwrap();
            assert_eq!(s.lanes(), compiled.slots.len(), "scheme {s:?}");
        }
    }
}
