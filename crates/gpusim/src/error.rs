//! Error types for the simulator.

use std::fmt;

/// Errors arising from building or validating a hierarchical partition.
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionError {
    /// An MPS share list was empty.
    NoClients,
    /// An MPS share was outside `(0, 1]`.
    ShareOutOfRange(f64),
    /// The MPS shares of one compute instance sum to more than 1.
    SharesExceedUnity(f64),
    /// A GPU instance has no compute instance.
    EmptyGi,
    /// Compute-instance slices exceed the owning GPU instance's slices.
    CiOverflow {
        /// Slices requested by the compute instances.
        requested: u32,
        /// Compute slices owned by the GPU instance.
        available: u32,
    },
    /// A compute-instance slice count is not a valid CI profile size.
    InvalidCiSlices(u32),
    /// The set of GPU instances cannot be placed on the die
    /// (per the MIG placement rules).
    Unplaceable(String),
    /// The partition has zero slots.
    NoSlots,
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoClients => write!(f, "partition has an empty MPS client list"),
            Self::ShareOutOfRange(s) => write!(f, "MPS share {s} outside (0, 1]"),
            Self::SharesExceedUnity(s) => {
                write!(f, "MPS shares sum to {s}, which exceeds 1.0")
            }
            Self::EmptyGi => write!(f, "GPU instance has no compute instance"),
            Self::CiOverflow {
                requested,
                available,
            } => write!(
                f,
                "compute instances request {requested} slices but the GPU \
                 instance owns only {available}"
            ),
            Self::InvalidCiSlices(s) => {
                write!(f, "{s} slices is not a valid compute-instance profile")
            }
            Self::Unplaceable(why) => write!(f, "MIG configuration unplaceable: {why}"),
            Self::NoSlots => write!(f, "partition has no schedulable slots"),
        }
    }
}

impl std::error::Error for PartitionError {}

/// Errors from parsing the paper's partition notation.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// Unexpected character at byte offset.
    Unexpected {
        /// Byte offset into the input.
        at: usize,
        /// What was found (or `None` at end of input).
        found: Option<char>,
        /// What the parser expected.
        expected: &'static str,
    },
    /// A numeric literal failed to parse.
    BadNumber(String),
    /// A compute fraction does not correspond to a whole number of GPC
    /// slices (MIG fractions must be k/8).
    NonSliceFraction(f64),
    /// A compute fraction above 1: more than the whole GPU.
    FractionAboveWhole(f64),
    /// Input ended before the expression was complete.
    TruncatedInput,
    /// The parsed structure failed semantic validation.
    Invalid(PartitionError),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Unexpected {
                at,
                found,
                expected,
            } => match found {
                Some(c) => write!(f, "unexpected '{c}' at offset {at}, expected {expected}"),
                None => write!(f, "unexpected end of input at {at}, expected {expected}"),
            },
            Self::BadNumber(s) => write!(f, "cannot parse number from '{s}'"),
            Self::NonSliceFraction(x) => {
                write!(f, "fraction {x} is not a whole number of GPC slices (k/8)")
            }
            Self::FractionAboveWhole(x) => write!(f, "fraction {x} is more than the whole GPU"),
            Self::TruncatedInput => write!(f, "input ended mid-expression"),
            Self::Invalid(e) => write!(f, "parsed partition invalid: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<PartitionError> for ParseError {
    fn from(e: PartitionError) -> Self {
        Self::Invalid(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let e = PartitionError::CiOverflow {
            requested: 5,
            available: 4,
        };
        assert!(e.to_string().contains('5'));
        assert!(e.to_string().contains('4'));

        let p = ParseError::Unexpected {
            at: 3,
            found: Some('x'),
            expected: "digit",
        };
        assert!(p.to_string().contains("'x'"));
        assert!(p.to_string().contains("digit"));
    }

    #[test]
    fn conversions_wrap() {
        let xe: ParseError = PartitionError::NoSlots.into();
        assert!(matches!(xe, ParseError::Invalid(_)));
    }
}
