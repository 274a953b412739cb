//! The checkpoint codec: the one module that knows the container every
//! blob format of the workspace is built from.
//!
//! The paper trains offline once per system and deploys the frozen
//! agent online; checkpoints are that hand-off artifact. Four formats
//! nest inside each other — `HRPQ` network weights (this module), the
//! `HRPE` node agent (`hrp-core::experiment`), the `HRPP` placement
//! agent (`hrp-cluster::place`) and the `HRPS` live service snapshot
//! (`hrp-serve::checkpoint`) — and all of them are
//!
//! ```text
//! magic (4 ASCII bytes) | version u32 | payload
//! ```
//!
//! with every integer little-endian, every float stored as its bit
//! pattern, and the payload assembled from the primitives of
//! [`Writer`] / [`Reader`]: fixed-width scalars, `u32`-length-prefixed
//! strings and nested blobs, `u32`-count-prefixed sequences, and — for
//! the three agent/service formats — a length-prefixed textual
//! `key=value` [`Spec`] in front of the binary body.
//!
//! The format modules keep only *state description*: which fields, in
//! which order, under which range checks. Everything a hostile blob can
//! attack lives here, under three rules:
//!
//! * **Typed errors, never panics.** Every read is bounds-checked and
//!   surfaces as a [`CheckpointError`] naming the format it expected.
//! * **Allocations are backed by bytes.** A length or count field never
//!   sizes an allocation on its own: [`Reader::seq`] checks the claimed
//!   count against the bytes actually remaining before reserving, and
//!   [`load_agent`] checks the weight section against the geometry the
//!   spec implies before any network is built.
//! * **Every spec key exactly once.** None missing, none duplicated,
//!   none unknown, none defaulted ([`Spec::finish`]).

use crate::dqn::{DqnAgent, DqnConfig};
use crate::net::QNet;
use std::collections::BTreeMap;
use std::fmt::{Debug, Display, Write as _};
use std::ops::Bound::{self, Excluded};
use std::ops::RangeBounds;
use std::str::FromStr;

/// Magic of the bare weight blob.
const MAGIC: &str = "HRPQ";
/// Weight-blob format version.
const VERSION: u32 = 1;

/// Checkpoint decode / encode / IO errors, shared by all four formats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Too short for a header, or it starts with a different magic.
    NotACheckpoint {
        /// The magic that was expected.
        expected: &'static str,
    },
    /// The expected format, at a version this build does not read.
    BadVersion {
        /// The format whose header was found.
        format: &'static str,
        /// The version it carries.
        found: u32,
    },
    /// Truncated, malformed or out-of-range content (or, on the encode
    /// side, state that has no checkpointable form).
    Invalid {
        /// The format being decoded or encoded.
        format: &'static str,
        /// What is wrong with it.
        what: String,
    },
    /// Filesystem failure.
    Io(String),
}

impl CheckpointError {
    /// An [`CheckpointError::Invalid`] for `format`.
    pub fn invalid(format: &'static str, what: impl Into<String>) -> Self {
        Self::Invalid {
            format,
            what: what.into(),
        }
    }
}

impl Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NotACheckpoint { expected } => write!(f, "not an {expected} checkpoint"),
            Self::BadVersion { format, found } => {
                write!(f, "unsupported {format} checkpoint version {found}")
            }
            Self::Invalid { format, what } => write!(f, "invalid {format} checkpoint: {what}"),
            Self::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Turn a failed range or consistency check into a typed error at the
/// decode boundary, before any constructor that asserts on it runs.
pub fn ensure(
    format: &'static str,
    ok: bool,
    what: impl FnOnce() -> String,
) -> Result<(), CheckpointError> {
    if ok {
        Ok(())
    } else {
        Err(CheckpointError::invalid(format, what()))
    }
}

/// Range of a spec float that must be positive and finite (for
/// [`Spec::get_in`]).
pub const POSITIVE_FINITE: (Bound<f64>, Bound<f64>) = (Excluded(0.0), Excluded(f64::INFINITY));

// ---- writing ------------------------------------------------------

/// Builds the `key=value` spec section, one line per key in call order.
#[derive(Debug, Default)]
pub struct SpecWriter(String);

impl SpecWriter {
    /// An empty spec.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The lines written so far.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Append an integer, boolean or name.
    pub fn kv(&mut self, key: &str, value: impl Display) {
        writeln!(self.0, "{key}={value}").expect("writing to a String");
    }

    /// Append a comma-separated list (read back by [`Spec::get_list`]).
    pub fn list(&mut self, key: &str, items: &[impl Display]) {
        let items: Vec<String> = items.iter().map(ToString::to_string).collect();
        self.kv(key, items.join(","));
    }

    /// Append a float in its shortest round-trip form, so decoding is
    /// bit-exact.
    pub fn float<F: Debug + Into<f64>>(&mut self, key: &str, value: F) {
        writeln!(self.0, "{key}={value:?}").expect("writing to a String");
    }
}

/// Appends a container header and payload primitives to one buffer.
#[derive(Debug)]
pub struct Writer(Vec<u8>);

impl Writer {
    /// Start a blob: `magic | version`.
    #[must_use]
    pub fn new(magic: &'static str, version: u32) -> Self {
        assert_eq!(magic.len(), 4, "a magic is four bytes");
        let mut w = Self(Vec::with_capacity(4096));
        w.raw(magic.as_bytes());
        w.u32(version);
        w
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.raw(&v.to_le_bytes());
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }

    /// A `usize` widened to `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// An `f32` as its bit pattern.
    pub fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    /// An `f64` as its bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// A length, count or small quantity as `u32`.
    ///
    /// # Panics
    /// Panics if `n` does not fit — no section of any format comes near.
    pub fn size(&mut self, n: usize) {
        self.u32(u32::try_from(n).expect("section fits u32"));
    }

    /// Bytes appended as they are (a trailing nested blob).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }

    /// A length-prefixed nested blob.
    pub fn blob(&mut self, bytes: &[u8]) {
        self.size(bytes.len());
        self.raw(bytes);
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.blob(s.as_bytes());
    }

    /// The length-prefixed spec section.
    pub fn spec(&mut self, spec: &SpecWriter) {
        self.str(spec.as_str());
    }

    /// A count-prefixed sequence, each item written by `item`.
    pub fn seq<T>(
        &mut self,
        items: impl ExactSizeIterator<Item = T>,
        mut item: impl FnMut(&mut Self, T),
    ) {
        self.size(items.len());
        for it in items {
            item(self, it);
        }
    }

    /// The finished blob.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        self.0
    }
}

// ---- reading ------------------------------------------------------

/// Bounds-checked cursor over a blob's payload. Borrows the blob:
/// strings and nested blobs come back as sub-slices, and the only
/// allocation it ever makes is [`Reader::seq`]'s checked reservation.
#[derive(Debug)]
pub struct Reader<'a> {
    format: &'static str,
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Check the `magic | version` header and position at the payload.
    ///
    /// # Errors
    /// [`CheckpointError::NotACheckpoint`] unless the blob starts with
    /// `magic` and a version word; [`CheckpointError::BadVersion`]
    /// unless that version is exactly `version`.
    pub fn open(
        blob: &'a [u8],
        magic: &'static str,
        version: u32,
    ) -> Result<Self, CheckpointError> {
        let mut r = Self {
            format: magic,
            rest: blob,
        };
        let not_ours = CheckpointError::NotACheckpoint { expected: magic };
        if r.take(4).ok() != Some(magic.as_bytes()) {
            return Err(not_ours);
        }
        let found = r.u32().map_err(|_| not_ours)?;
        if found != version {
            return Err(CheckpointError::BadVersion {
                format: magic,
                found,
            });
        }
        Ok(r)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if n > self.rest.len() {
            return Err(CheckpointError::invalid(
                self.format,
                format!("truncated: {n} bytes wanted, {} left", self.rest.len()),
            ));
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CheckpointError> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.array::<1>()?[0])
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A `u64` that must fit this host's `usize`.
    pub fn usize(&mut self) -> Result<usize, CheckpointError> {
        let v = self.u64()?;
        usize::try_from(v)
            .map_err(|_| CheckpointError::invalid(self.format, format!("{v} does not fit usize")))
    }

    /// An `f32` from its bit pattern.
    pub fn f32(&mut self) -> Result<f32, CheckpointError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// An `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A `u32` length, count or small quantity.
    pub fn size(&mut self) -> Result<usize, CheckpointError> {
        Ok(self.u32()? as usize)
    }

    /// A length-prefixed nested blob, borrowed from the input.
    pub fn blob(&mut self) -> Result<&'a [u8], CheckpointError> {
        let n = self.size()?;
        self.take(n)
    }

    /// A length-prefixed UTF-8 string, borrowed from the input.
    pub fn str(&mut self) -> Result<&'a str, CheckpointError> {
        std::str::from_utf8(self.blob()?)
            .map_err(|_| CheckpointError::invalid(self.format, "string is not UTF-8"))
    }

    /// Everything that is left (a trailing nested blob).
    pub fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.rest)
    }

    /// The length-prefixed `key=value` spec section.
    pub fn spec(&mut self) -> Result<Spec<'a>, CheckpointError> {
        Spec::parse(self.format, self.str()?)
    }

    /// The count that prefixes a sequence. `min_item_bytes` is the size
    /// of the smallest encoding one item can have: a count the remaining
    /// bytes cannot back is rejected here, so whatever the caller
    /// reserves for it is bounded by the blob, never by the count field.
    pub fn count(&mut self, min_item_bytes: usize) -> Result<usize, CheckpointError> {
        let n = self.size()?;
        if n > self.rest.len() / min_item_bytes.max(1) {
            return Err(CheckpointError::invalid(
                self.format,
                format!(
                    "truncated: {n} items claimed, {} bytes left",
                    self.rest.len()
                ),
            ));
        }
        Ok(n)
    }

    /// A count-prefixed sequence ([`Reader::count`], then `item` that
    /// many times) collected into a `Vec`.
    pub fn seq<T>(
        &mut self,
        min_item_bytes: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, CheckpointError>,
    ) -> Result<Vec<T>, CheckpointError> {
        let n = self.count(min_item_bytes)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let before = self.rest.len();
            out.push(item(self)?);
            debug_assert!(before - self.rest.len() >= min_item_bytes);
        }
        Ok(out)
    }

    /// The payload must have been consumed exactly.
    pub fn finish(self) -> Result<(), CheckpointError> {
        ensure(self.format, self.rest.is_empty(), || {
            format!("{} trailing bytes", self.rest.len())
        })
    }
}

/// The decoded `key=value` spec section. Every key must be read exactly
/// once before [`Spec::finish`]: a missing key fails its `get`, a
/// duplicate fails the parse, and a key nobody read — unknown, or not
/// meaningful for the configuration the other keys describe — fails
/// `finish`. There are no defaults.
#[derive(Debug)]
pub struct Spec<'a> {
    format: &'static str,
    /// key → (raw value, whether a getter consumed it).
    entries: BTreeMap<&'a str, (&'a str, bool)>,
}

impl<'a> Spec<'a> {
    /// Parse spec text belonging to a `format` blob.
    ///
    /// # Errors
    /// [`CheckpointError::Invalid`] on a line that is not `key=value`
    /// or a key that appears twice.
    pub fn parse(format: &'static str, text: &'a str) -> Result<Self, CheckpointError> {
        let mut entries = BTreeMap::new();
        for line in text.lines().filter(|l| !l.is_empty()) {
            let (key, value) = line.split_once('=').ok_or_else(|| {
                CheckpointError::invalid(format, format!("not a key=value line: '{line}'"))
            })?;
            if entries.insert(key, (value, false)).is_some() {
                return Err(CheckpointError::invalid(
                    format,
                    format!("duplicate key '{key}'"),
                ));
            }
        }
        Ok(Self { format, entries })
    }

    /// The raw value of `key`.
    pub fn get_str(&mut self, key: &str) -> Result<&'a str, CheckpointError> {
        let entry = self
            .entries
            .get_mut(key)
            .ok_or_else(|| CheckpointError::invalid(self.format, format!("missing key '{key}'")))?;
        entry.1 = true;
        Ok(entry.0)
    }

    /// The value of `key` through `parse` (the `T::parse(&str)`
    /// constructors of the workspace's named enums fit as they are).
    pub fn get_with<T, E>(
        &mut self,
        key: &str,
        parse: impl FnOnce(&'a str) -> Result<T, E>,
    ) -> Result<T, CheckpointError> {
        let raw = self.get_str(key)?;
        parse(raw).map_err(|_| {
            CheckpointError::invalid(self.format, format!("bad value for '{key}': '{raw}'"))
        })
    }

    /// The value of `key`, parsed.
    pub fn get<T: FromStr>(&mut self, key: &str) -> Result<T, CheckpointError> {
        self.get_with(key, str::parse)
    }

    /// The value of `key`, parsed and required to lie in `range` (a NaN
    /// lies in no range).
    pub fn get_in<T: FromStr + PartialOrd>(
        &mut self,
        key: &str,
        range: impl RangeBounds<T>,
    ) -> Result<T, CheckpointError> {
        self.get_with(key, |raw| {
            raw.parse().ok().filter(|v| range.contains(v)).ok_or(())
        })
    }

    /// The comma-separated list under `key` (empty value, empty list).
    pub fn get_list<T: FromStr>(&mut self, key: &str) -> Result<Vec<T>, CheckpointError> {
        self.get_with(key, |raw| match raw {
            "" => Ok(Vec::new()),
            _ => raw.split(',').map(str::parse).collect(),
        })
    }

    /// Every key must have been read.
    pub fn finish(self) -> Result<(), CheckpointError> {
        match self.entries.iter().find(|(_, (_, read))| !read) {
            None => Ok(()),
            Some((key, _)) => Err(CheckpointError::invalid(
                self.format,
                format!("unknown key '{key}'"),
            )),
        }
    }
}

// ---- HRPQ: network weights ----------------------------------------

/// Serialise a network's weights: `HRPQ | 1 | seq<f32>`.
#[must_use]
pub fn save_weights(net: &QNet) -> Vec<u8> {
    let mut params = Vec::new();
    net.write_params(&mut params);
    let mut w = Writer::new(MAGIC, VERSION);
    w.seq(params.iter(), |w, p| w.f32(*p));
    w.finish()
}

/// Decode a weight blob into its flat parameter vector; nothing may
/// follow the parameters.
fn read_params(blob: &[u8]) -> Result<Vec<f32>, CheckpointError> {
    let mut r = Reader::open(blob, MAGIC, VERSION)?;
    let params = r.seq(4, Reader::f32)?;
    r.finish()?;
    Ok(params)
}

/// Load weights into an identically-shaped network.
///
/// # Errors
/// Header errors as in [`Reader::open`]; [`CheckpointError::Invalid`]
/// on a truncated blob, trailing bytes or a parameter-count mismatch.
pub fn load_weights(net: &mut QNet, blob: &[u8]) -> Result<(), CheckpointError> {
    let params = read_params(blob)?;
    ensure(MAGIC, params.len() == net.num_params(), || {
        format!(
            "blob has {} params, network expects {}",
            params.len(),
            net.num_params()
        )
    })?;
    net.read_params(&params);
    Ok(())
}

/// Build the agent an `HRPE` / `HRPP` checkpoint describes from the
/// [`DqnConfig`] its spec decoded to and its trailing weight blob.
/// Everything a constructor asserts on or sizes an allocation from is
/// checked first, and the weight section must hold exactly the
/// parameter count the geometry implies — so nothing is built unless
/// the bytes present back it.
///
/// # Errors
/// [`CheckpointError::Invalid`] (in `format`) on an out-of-range
/// config or a weight count the geometry does not imply; weight-blob
/// errors as in [`load_weights`].
pub fn load_agent(
    format: &'static str,
    cfg: DqnConfig,
    weights: &[u8],
) -> Result<DqnAgent, CheckpointError> {
    ensure(format, cfg.buffer_capacity >= 1, || {
        "buffer_capacity must be at least 1".into()
    })?;
    ensure(format, cfg.shards == 1, || {
        format!("shards {} (an agent has one replay ring)", cfg.shards)
    })?;
    ensure(format, cfg.batch_size >= 1, || {
        "batch_size must be at least 1".into()
    })?;
    ensure(format, cfg.target_sync_every >= 1, || {
        "target_sync_every must be at least 1".into()
    })?;
    let expected = QNet::param_count(cfg.state_dim, &cfg.hidden, cfg.n_actions, cfg.head)
        .ok_or_else(|| {
            CheckpointError::invalid(format, format!("impossible hidden widths {:?}", cfg.hidden))
        })?;
    let params = read_params(weights)?;
    ensure(format, params.len() == expected, || {
        format!(
            "weight section holds {} params, the spec's geometry implies {expected}",
            params.len()
        )
    })?;
    let mut agent = DqnAgent::new(cfg);
    agent.load_weights(&params);
    Ok(agent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::Head;

    #[test]
    fn round_trip_preserves_outputs() {
        let q = |net: &QNet, x: &[f32]| {
            let mut out = Vec::new();
            net.predict_batch_into(x, 1, &mut crate::net::PredictScratch::default(), &mut out);
            out
        };
        let a = QNet::new(6, &[8], 3, Head::Dueling, 5);
        let blob = save_weights(&a);
        let mut b = QNet::new(6, &[8], 3, Head::Dueling, 99);
        let x = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6];
        assert_ne!(q(&a, &x), q(&b, &x));
        load_weights(&mut b, &blob).unwrap();
        assert_eq!(q(&a, &x), q(&b, &x));
    }

    #[test]
    fn rejects_garbage() {
        let mut net = QNet::new(6, &[8], 3, Head::Plain, 5);
        for garbage in [
            &b"nope"[..],
            b"HRPQ",
            b"HRPQ\x01\0\0",
            b"HRPE\x01\0\0\0\0\0\0\0",
        ] {
            assert_eq!(
                load_weights(&mut net, garbage),
                Err(CheckpointError::NotACheckpoint { expected: "HRPQ" })
            );
        }
    }

    #[test]
    fn rejects_wrong_shape() {
        let small = QNet::new(4, &[4], 2, Head::Plain, 1);
        let blob = save_weights(&small);
        let mut big = QNet::new(6, &[8], 3, Head::Plain, 1);
        assert!(matches!(
            load_weights(&mut big, &blob),
            Err(CheckpointError::Invalid { format: "HRPQ", .. })
        ));
    }

    #[test]
    fn rejects_future_version() {
        let net = QNet::new(4, &[4], 2, Head::Plain, 1);
        let mut raw = save_weights(&net);
        raw[4] = 9; // bump version byte
        let mut target = QNet::new(4, &[4], 2, Head::Plain, 2);
        assert_eq!(
            load_weights(&mut target, &raw),
            Err(CheckpointError::BadVersion {
                format: "HRPQ",
                found: 9
            })
        );
    }

    /// The one spec rule, for all three spec-carrying formats: every
    /// key exactly once — none missing, none duplicated, none unknown,
    /// none defaulted — and values parse and range-check or fail typed.
    #[test]
    fn spec_requires_every_key_exactly_once() {
        let mut spec = SpecWriter::new();
        spec.kv("nodes", 4);
        spec.float("lr", 1e-3f32);
        spec.list("hidden", &[32, 16]);
        spec.list("none", &[0usize; 0]);
        let text = spec.as_str();
        let parse = |text| Spec::parse("TEST", text);

        let mut good = parse(text).unwrap();
        assert_eq!(good.get_in("nodes", 1..=64), Ok(4usize));
        assert_eq!(good.get("lr"), Ok(1e-3f32));
        assert_eq!(good.get_list("hidden"), Ok(vec![32usize, 16]));
        assert_eq!(good.get_list::<usize>("none"), Ok(vec![]));
        assert_eq!(good.finish(), Ok(()));

        let says = |r: Result<(), CheckpointError>, needle: &str| match r {
            Err(CheckpointError::Invalid {
                format: "TEST",
                what,
            }) => assert!(what.contains(needle), "'{what}' lacks '{needle}'"),
            other => panic!("expected an Invalid naming '{needle}', got {other:?}"),
        };
        // A live key is required: nothing is defaulted.
        let mut s = parse(text).unwrap();
        says(
            s.get::<u64>("sync_rounds").map(drop),
            "missing key 'sync_rounds'",
        );
        // A key nobody reads is unknown, whether retired or misspelt.
        let mut s = parse(text).unwrap();
        for key in ["nodes", "lr", "hidden"] {
            s.get_str(key).unwrap();
        }
        says(s.finish(), "unknown key 'none'");
        // Values must parse, and lie in their range.
        let mut s = parse(text).unwrap();
        says(s.get::<usize>("lr").map(drop), "bad value for 'lr'");
        says(
            s.get_in("nodes", 1..=3usize).map(drop),
            "bad value for 'nodes'",
        );
        says(s.get_list::<usize>("lr").map(drop), "bad value for 'lr'");
        // Duplicates and non-lines fail the parse itself.
        says(parse("a=1\na=2\n").map(drop), "duplicate key 'a'");
        says(parse("a=1\nbogus\n").map(drop), "not a key=value line");

        // Inside a blob the section must also be UTF-8.
        let mut w = Writer::new("TEST", 1);
        w.blob(&[b'a', b'=', 0xff]);
        let blob = w.finish();
        let in_blob = Reader::open(&blob, "TEST", 1).unwrap().spec();
        says(in_blob.map(drop), "not UTF-8");
    }

    #[test]
    fn reader_bounds_every_read_and_reservation() {
        let mut w = Writer::new("TEST", 1);
        w.seq([1u64, 2, 3].into_iter(), Writer::u64);
        w.str("tail");
        let blob = w.finish();
        let mut r = Reader::open(&blob, "TEST", 1).unwrap();
        assert_eq!(r.seq(8, Reader::u64), Ok(vec![1, 2, 3]));
        assert_eq!(r.str(), Ok("tail"));
        assert_eq!(r.finish(), Ok(()));

        // A count the bytes cannot back is refused before reserving.
        let mut forged = blob.to_vec();
        forged[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut r = Reader::open(&forged, "TEST", 1).unwrap();
        assert!(matches!(
            r.seq(8, Reader::u64),
            Err(CheckpointError::Invalid { format: "TEST", what }) if what.contains("truncated")
        ));
        // Every truncation of the payload is a typed error somewhere.
        for cut in 8..blob.len() {
            let mut r = Reader::open(&blob[..cut], "TEST", 1).unwrap();
            let whole = r.seq(8, Reader::u64).and_then(|_| r.str().map(drop));
            assert!(whole.is_err(), "cut at {cut}");
        }
        let mut r = Reader::open(&blob, "TEST", 1).unwrap();
        let _ = r.seq(8, Reader::u64);
        assert!(r.finish().is_err(), "unread tail is trailing bytes");
    }

    /// Forged agent geometry comes back typed before anything is built
    /// (the parent commit aborted on a 160 GB allocation in `QNet::new`
    /// for the first case; a shard count other than 1, a zero batch and
    /// a zero sync period are what `DqnAgent::new` refuses).
    #[test]
    fn load_agent_checks_geometry_before_building() {
        let cfg = DqnConfig {
            hidden: vec![8],
            ..DqnConfig::paper(6, 3)
        };
        let weights = save_weights(DqnAgent::new(cfg.clone()).online_net());
        assert!(load_agent("TEST", cfg.clone(), &weights).is_ok());
        let forgeries: [fn(&mut DqnConfig); 10] = [
            |c| c.hidden = vec![4_000_000_000, 4_000_000_000],
            |c| c.buffer_capacity = 0,
            |c| c.batch_size = 0,
            |c| c.target_sync_every = 0,
            |c| c.shards = 0,
            |c| c.shards = 2,
            |c| c.hidden = vec![],
            |c| c.hidden = vec![8, 0],
            |c| c.hidden = vec![usize::MAX, 2],
            |c| c.hidden = vec![9],
        ];
        for forge in forgeries {
            let mut cfg = cfg.clone();
            forge(&mut cfg);
            let shown = format!("{cfg:?}");
            assert!(
                matches!(
                    load_agent("TEST", cfg, &weights),
                    Err(CheckpointError::Invalid { .. })
                ),
                "{shown}"
            );
        }
    }
}
