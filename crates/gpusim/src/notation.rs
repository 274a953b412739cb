//! Parser and printer for the paper's partition notation (§V-A5).
//!
//! > "First, a GI or the entire GPU is enclosed in square brackets. It is
//! > denoted as `[compute resource setup, assigned memory resource]`. For
//! > the memory resource part, when α×100% of the entire GPU memory
//! > bandwidth is assigned, it is denoted as `α m`. As for the compute
//! > resource setup, a CI or an MPS process is enclosed in curly brackets
//! > or parentheses, respectively."
//!
//! Examples from the paper, all accepted by [`parse_scheme`]:
//!
//! * `[(0.1)+(0.9),1m]` — MPS-only 10/90 split
//! * `[{0.375}+{0.5},1m]` — MIG 3g+4g CIs sharing memory (one 7g GI)
//! * `[{0.375},0.5m]+[{0.5},0.5m]` — private-memory MIG split
//! * `[{0.375},0.5m]+[(0.1)+(0.9),{0.5},0.5m]` — hierarchical MIG+MPS
//! * `[{0.375}+(0.1),(0.9){0.5},1m]` — hierarchical, shared memory
//!
//! The paper separates MPS clients inconsistently (`+` or `,`); the parser
//! accepts both. [`format_scheme`] always emits the canonical form
//! `(a)+(b){ci}`.

use crate::error::ParseError;
use crate::mig::GiProfile;
use crate::partition::{CiSetup, GiSetup, PartitionScheme};

/// Render a scheme in the paper's notation.
#[must_use]
pub fn format_scheme(scheme: &PartitionScheme) -> String {
    match scheme {
        PartitionScheme::MpsOnly { shares } => {
            let body = shares
                .iter()
                .map(|s| format!("({})", trim(*s)))
                .collect::<Vec<_>>()
                .join("+");
            format!("[{body},1m]")
        }
        PartitionScheme::Mig { gis } => gis
            .iter()
            .map(|gi| {
                let mem = f64::from(gi.profile.mem_slices()) / 8.0;
                let body = gi
                    .cis
                    .iter()
                    .map(|ci| {
                        let frac = f64::from(ci.slices) / 8.0;
                        if ci.mps_shares.is_empty() {
                            format!("{{{}}}", trim(frac))
                        } else {
                            let clients = ci
                                .mps_shares
                                .iter()
                                .map(|s| format!("({})", trim(*s)))
                                .collect::<Vec<_>>()
                                .join("+");
                            format!("{clients}{{{}}}", trim(frac))
                        }
                    })
                    .collect::<Vec<_>>()
                    .join("+");
                format!("[{body},{}m]", trim(mem))
            })
            .collect::<Vec<_>>()
            .join("+"),
    }
}

fn trim(x: f64) -> String {
    // Prints 1.0 as "1", 0.5 as "0.5", 0.34 as "0.34".
    let s = format!("{x}");
    s
}

/// Parse the paper's notation into a [`PartitionScheme`].
pub fn parse_scheme(input: &str) -> Result<PartitionScheme, ParseError> {
    let mut p = Parser::new(input);
    let mut gis: Vec<RawGi> = Vec::new();
    loop {
        gis.push(p.gi()?);
        p.skip_ws();
        if p.eat('+') {
            continue;
        }
        break;
    }
    p.skip_ws();
    if !p.at_end() {
        return Err(ParseError::Unexpected {
            at: p.pos,
            found: p.peek(),
            expected: "end of input or '+'",
        });
    }
    assemble(gis)
}

/// A GI as parsed, before profile inference.
struct RawGi {
    cis: Vec<CiSetup>,
    /// MPS clients not attached to any CI brace (whole-GPU MPS).
    loose_clients: Vec<f64>,
    mem: f64,
}

fn assemble(gis: Vec<RawGi>) -> Result<PartitionScheme, ParseError> {
    // MPS-only form: one bracket, no CI braces, full memory.
    if gis.len() == 1 && gis[0].cis.is_empty() && !gis[0].loose_clients.is_empty() {
        if (gis[0].mem - 1.0).abs() > 1e-9 {
            return Err(ParseError::Invalid(
                crate::error::PartitionError::Unplaceable(
                    "MPS-only partition must own all memory (…,1m])".to_owned(),
                ),
            ));
        }
        return Ok(PartitionScheme::MpsOnly {
            shares: gis[0].loose_clients.clone(),
        });
    }
    let mut out = Vec::with_capacity(gis.len());
    for gi in gis {
        if !gi.loose_clients.is_empty() {
            return Err(ParseError::TruncatedInput);
        }
        if gi.cis.is_empty() {
            return Err(ParseError::Invalid(crate::error::PartitionError::EmptyGi));
        }
        // Each CI holds at most 8 slices, but a GI may list any number
        // of CIs: the sum saturates rather than wraps.
        let total = gi.cis.iter().fold(0u32, |t, c| t.saturating_add(c.slices));
        let profile = infer_profile(gi.mem, total)?;
        out.push(GiSetup {
            profile,
            cis: gi.cis,
        });
    }
    Ok(PartitionScheme::Mig { gis: out })
}

/// Choose the smallest GI profile owning memory fraction `mem` that can
/// host `total` CI slices.
fn infer_profile(mem: f64, total: u32) -> Result<GiProfile, ParseError> {
    let candidates: &[GiProfile] = if (mem - 1.0).abs() < 1e-9 {
        &[GiProfile::G7]
    } else if (mem - 0.5).abs() < 1e-9 {
        &[GiProfile::G3, GiProfile::G4]
    } else if (mem - 0.25).abs() < 1e-9 {
        &[GiProfile::G2]
    } else if (mem - 0.125).abs() < 1e-9 {
        &[GiProfile::G1]
    } else {
        return Err(ParseError::NonSliceFraction(mem));
    };
    candidates
        .iter()
        .copied()
        .find(|p| p.compute_slices() >= total)
        .ok_or(ParseError::Invalid(
            crate::error::PartitionError::CiOverflow {
                requested: total,
                available: candidates.last().map_or(0, |p| p.compute_slices()),
            },
        ))
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Self {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<char> {
        self.bytes.get(self.pos).map(|&b| b as char)
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn eat(&mut self, c: char) -> bool {
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: char, what: &'static str) -> Result<(), ParseError> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(ParseError::Unexpected {
                at: self.pos,
                found: self.peek(),
                expected: what,
            })
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t')) {
            self.pos += 1;
        }
    }

    fn number(&mut self) -> Result<f64, ParseError> {
        self.skip_ws();
        let start = self.pos;
        while matches!(self.peek(), Some('0'..='9' | '.')) {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(ParseError::Unexpected {
                at: self.pos,
                found: self.peek(),
                expected: "number",
            });
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii slice");
        s.parse::<f64>()
            .map_err(|_| ParseError::BadNumber(s.to_owned()))
    }

    /// Parse one `[ body , mem m ]` group.
    fn gi(&mut self) -> Result<RawGi, ParseError> {
        self.skip_ws();
        self.expect('[', "'['")?;
        let mut cis: Vec<CiSetup> = Vec::new();
        let mut pending: Vec<f64> = Vec::new();
        let mem;
        loop {
            self.skip_ws();
            match self.peek() {
                Some('(') => {
                    self.pos += 1;
                    let v = self.number()?;
                    self.expect(')', "')'")?;
                    pending.push(v);
                }
                Some('{') => {
                    self.pos += 1;
                    let frac = self.number()?;
                    self.expect('}', "'}'")?;
                    let slices = frac_to_slices(frac)?;
                    if pending.is_empty() {
                        cis.push(CiSetup::exclusive(slices));
                    } else {
                        cis.push(CiSetup::with_mps(slices, std::mem::take(&mut pending)));
                    }
                }
                other => {
                    return Err(ParseError::Unexpected {
                        at: self.pos,
                        found: other,
                        expected: "'(' or '{'",
                    })
                }
            }
            self.skip_ws();
            // Separator handling: '+' continues the body; ',' either
            // continues the body (paper's loose client separator) or
            // introduces the memory part — disambiguate by lookahead.
            // A brace directly after a client list (`(0.9){0.5}`) also
            // continues the body with no separator at all.
            if matches!(self.peek(), Some('{' | '(')) {
                continue;
            }
            if self.eat('+') {
                continue;
            }
            if self.eat(',') {
                self.skip_ws();
                if matches!(self.peek(), Some('(' | '{')) {
                    continue;
                }
                mem = self.number()?;
                self.expect('m', "'m'")?;
                self.expect(']', "']'")?;
                break;
            }
            return Err(ParseError::Unexpected {
                at: self.pos,
                found: self.peek(),
                expected: "'+', ',' or memory spec",
            });
        }
        Ok(RawGi {
            cis,
            loose_clients: pending,
            mem,
        })
    }
}

/// A CI fraction `k / 8` as `k` slices, `1 ≤ k ≤ 8`. A fraction above
/// 1 is refused before the cast, which would saturate it.
fn frac_to_slices(frac: f64) -> Result<u32, ParseError> {
    if frac > 1.0 {
        return Err(ParseError::FractionAboveWhole(frac));
    }
    let slices = frac * 8.0;
    if (slices - slices.round()).abs() > 1e-6 || slices < 0.5 {
        return Err(ParseError::NonSliceFraction(frac));
    }
    Ok(slices.round() as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::GpuArch;

    fn roundtrip(s: &PartitionScheme) {
        let text = format_scheme(s);
        let back = parse_scheme(&text).unwrap_or_else(|e| panic!("parse '{text}': {e}"));
        assert_eq!(&back, s, "roundtrip through '{text}'");
    }

    #[test]
    fn formats_match_paper_examples() {
        assert_eq!(
            format_scheme(&PartitionScheme::mps_only(vec![0.1, 0.9])),
            "[(0.1)+(0.9),1m]"
        );
        assert_eq!(
            format_scheme(&PartitionScheme::mig_shared_3_4()),
            "[{0.375}+{0.5},1m]"
        );
        assert_eq!(
            format_scheme(&PartitionScheme::mig_private_3_4()),
            "[{0.375},0.5m]+[{0.5},0.5m]"
        );
        assert_eq!(
            format_scheme(&PartitionScheme::hierarchical_3_4(vec![], vec![0.1, 0.9])),
            "[{0.375},0.5m]+[(0.1)+(0.9){0.5},0.5m]"
        );
    }

    #[test]
    fn parses_paper_literals() {
        for text in [
            "[(0.1)+(0.9),1m]",
            "[(0.2)+(0.8),1m]",
            "[(0.34)+(0.33)+(0.33),1m]",
            "[(0.25)+(0.25)+(0.25)+(0.25),1m]",
            "[{0.375}+{0.5},1m]",
            "[{0.375},0.5m]+[{0.5},0.5m]",
            "[{0.375},0.5m]+[(0.1)+(0.9),{0.5},0.5m]",
            "[{0.375}+(0.1),(0.9){0.5},1m]",
            "[(0.1)+(0.9),{0.375},0.5m]+[(0.1)+(0.9),{0.5},0.5m]",
            "[(0.1)+(0.9){0.375}+(0.1)+(0.9){0.5},1m]",
        ] {
            let scheme = parse_scheme(text).unwrap_or_else(|e| panic!("'{text}': {e}"));
            scheme
                .compile(&GpuArch::a100())
                .unwrap_or_else(|e| panic!("'{text}' compiled: {e}"));
        }
    }

    #[test]
    fn mps_comma_and_plus_are_equivalent() {
        let a = parse_scheme("[{0.375},0.5m]+[(0.1)+(0.9),{0.5},0.5m]").unwrap();
        let b = parse_scheme("[{0.375},0.5m]+[(0.1)+(0.9){0.5},0.5m]").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn hierarchical_shared_parses_to_one_gi() {
        let s = parse_scheme("[{0.375}+(0.1),(0.9){0.5},1m]").unwrap();
        match &s {
            PartitionScheme::Mig { gis } => {
                assert_eq!(gis.len(), 1);
                assert_eq!(gis[0].profile, GiProfile::G7);
                assert_eq!(gis[0].cis.len(), 2);
                assert!(gis[0].cis[0].mps_shares.is_empty());
                assert_eq!(gis[0].cis[1].mps_shares, vec![0.1, 0.9]);
            }
            PartitionScheme::MpsOnly { .. } => panic!("expected MIG"),
        }
    }

    #[test]
    fn roundtrips() {
        roundtrip(&PartitionScheme::mps_only(vec![0.1, 0.9]));
        roundtrip(&PartitionScheme::mps_only(vec![0.25, 0.25, 0.25, 0.25]));
        roundtrip(&PartitionScheme::exclusive());
        roundtrip(&PartitionScheme::mig_shared_3_4());
        roundtrip(&PartitionScheme::mig_private_3_4());
        roundtrip(&PartitionScheme::hierarchical_3_4(
            vec![0.5, 0.5],
            vec![0.3, 0.7],
        ));
        roundtrip(&PartitionScheme::hierarchical_shared_3_4(
            vec![0.2, 0.8],
            vec![],
        ));
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_scheme("").is_err());
        assert!(parse_scheme("[(0.5)+(0.5)]").is_err(), "missing memory");
        assert!(parse_scheme("[(0.5)+(0.5),2m]").is_err(), "mem > 1");
        assert!(parse_scheme("[{0.4},0.5m]").is_err(), "0.4 not k/8");
        assert!(
            parse_scheme("[(0.5)+(0.5),0.5m]").is_err(),
            "loose MPS w/ partial mem"
        );
        assert!(parse_scheme("[(0.5)+(0.5),1m] trailing").is_err());
        assert!(
            parse_scheme("[{0.875}+{0.125},0.5m]").is_err(),
            "CI overflow"
        );
    }

    #[test]
    fn a_ci_fraction_above_one_is_refused() {
        // Cast to slices, each fraction would saturate at `u32::MAX`,
        // and the two would overflow the GI's slice sum.
        assert_eq!(
            parse_scheme("[{99999999999}+{99999999999},1m]"),
            Err(ParseError::FractionAboveWhole(99_999_999_999.0))
        );
        // Nine slices: a whole number, but more than the GPU has.
        assert_eq!(
            parse_scheme("[{1.125},1m]"),
            Err(ParseError::FractionAboveWhole(1.125))
        );
        assert_eq!(
            ParseError::FractionAboveWhole(1.125).to_string(),
            "fraction 1.125 is more than the whole GPU"
        );
    }

    #[test]
    fn profile_inference_prefers_smallest() {
        // A 3-slice exclusive CI with half memory → G3, not G4.
        let s = parse_scheme("[{0.375},0.5m]").unwrap();
        match s {
            PartitionScheme::Mig { gis } => assert_eq!(gis[0].profile, GiProfile::G3),
            PartitionScheme::MpsOnly { .. } => panic!(),
        }
        // A 4-slice CI with half memory → G4.
        let s = parse_scheme("[{0.5},0.5m]").unwrap();
        match s {
            PartitionScheme::Mig { gis } => assert_eq!(gis[0].profile, GiProfile::G4),
            PartitionScheme::MpsOnly { .. } => panic!(),
        }
    }
}
