//! Versioned, CRC-protected checkpoint files for deterministic
//! snapshot/resume.
//!
//! A checkpoint captures the *complete* dynamic state of a simulation at an
//! iteration boundary of the open-loop driver: every router buffer, VC
//! allocation and credit counter, the event wheel, in-flight packet table,
//! RNG streams (traffic and fault), fault/recovery state, statistics,
//! epoch-metrics accumulators and the trace-sink byte cursor. A run resumed
//! from a checkpoint is **byte-identical** to the uninterrupted run: same
//! golden fingerprint, same stats JSON, same JSONL trace suffix.
//!
//! # File format
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"HNCKPT01"
//! 8       4     schema version (little-endian u32)
//! 12      8     config hash  (FNV-1a-64 of the NetworkConfig Debug form)
//! 20      8     params hash  (FNV-1a-64 of the SimParams canonical form)
//! 28      8     cycle the checkpoint was taken at
//! 36      8     body length in bytes
//! 44      4     CRC-32 (IEEE) of the body
//! 48      n     body (see `network::snapshot` and `sim` for the layout)
//! ```
//!
//! All integers are little-endian. The header carries the hashes so a
//! checkpoint can be rejected *before* decoding when it belongs to a
//! different configuration or parameter set; the body itself is opaque
//! length-prefixed sections written by [`Enc`] and read back by [`Dec`].
//! Every value in it goes through its type's one [`Codec`] impl, which
//! fixes that type's wire layout for both directions.
//!
//! # Atomicity
//!
//! [`Checkpoint::save`] writes to `<path>.tmp` and renames over `<path>`,
//! so a crash mid-write never corrupts an existing checkpoint: readers see
//! either the old complete file or the new complete file. The CRC guards
//! against torn writes of the temp file itself surviving a rename done by
//! an interrupted earlier process.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;
use std::fs;
use std::hash::Hash;
use std::io::Write as _;
use std::path::Path;

use rand::rngs::StdRng;

use crate::config::NetworkConfig;
use crate::types::{Bits, Cycle, LinkId, NodeId, PacketId, PortId, RouterId, VcId};

/// File magic: identifies a HeteroNoC checkpoint, format generation 01.
pub const MAGIC: [u8; 8] = *b"HNCKPT01";

/// Bump when the body layout changes; old files then fail with
/// [`CheckpointError::BadVersion`] instead of decoding garbage. v2 stores
/// each latency histogram as its bucket prefix plus its sum; v3 stores the
/// statistics as counters kept from cycle 0 plus the measured window's
/// baseline, and the epoch series in the run state instead of the network.
pub const SCHEMA_VERSION: u32 = 3;

/// Fixed header size in bytes (see the module-level format table).
pub const HEADER_LEN: usize = 48;

/// Why a checkpoint could not be written or restored.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`] — not a checkpoint at all.
    BadMagic,
    /// The file's schema version differs from [`SCHEMA_VERSION`].
    BadVersion {
        /// Version found in the file.
        found: u32,
    },
    /// The file ends before the declared body length — a torn write.
    Truncated,
    /// The body CRC does not match — bit rot or a torn write.
    BadCrc {
        /// CRC recorded in the header.
        expected: u32,
        /// CRC of the bytes actually present.
        actual: u32,
    },
    /// The checkpoint was taken under a different network configuration.
    ConfigMismatch {
        /// Hash the restoring run expects.
        expected: u64,
        /// Hash recorded in the checkpoint.
        found: u64,
    },
    /// The checkpoint was taken under different simulation parameters.
    ParamsMismatch {
        /// Hash the restoring run expects.
        expected: u64,
        /// Hash recorded in the checkpoint.
        found: u64,
    },
    /// The body decoded inconsistently (internal section tag or length
    /// mismatch); names the section that failed.
    Malformed(&'static str),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O: {e}"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CheckpointError::BadVersion { found } => write!(
                f,
                "checkpoint schema v{found} is not the supported v{SCHEMA_VERSION}"
            ),
            CheckpointError::Truncated => write!(f, "checkpoint file is truncated"),
            CheckpointError::BadCrc { expected, actual } => write!(
                f,
                "checkpoint body CRC mismatch (header {expected:08x}, body {actual:08x})"
            ),
            CheckpointError::ConfigMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to a different network configuration \
                 (expected {expected:016x}, found {found:016x})"
            ),
            CheckpointError::ParamsMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to different simulation parameters \
                 (expected {expected:016x}, found {found:016x})"
            ),
            CheckpointError::Malformed(sec) => {
                write!(f, "checkpoint body is malformed in section `{sec}`")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// 64-bit FNV-1a over `bytes` (standard offset basis). The same function
/// the result cache uses for content keys, re-declared here so the
/// simulator core stays dependency-free.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Hash of a network configuration, as recorded in checkpoint headers.
///
/// Uses the `Debug` rendering, which covers every field (routing tables
/// included) with stable shortest-round-trip float formatting.
pub fn config_hash(cfg: &NetworkConfig) -> u64 {
    fnv1a64(format!("{cfg:?}").as_bytes())
}

/// CRC-32 (IEEE 802.3, reflected) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

// ---------------------------------------------------------------------------
// Binary encoder / decoder
// ---------------------------------------------------------------------------

/// Appends little-endian primitives and length-prefixed aggregates to a
/// byte buffer. The body of every checkpoint is produced by one `Enc`.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// A fresh, empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the encoder, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes a one-byte section tag; [`Dec::sec`] checks it on decode,
    /// turning any encoder/decoder drift into a typed error naming the
    /// section instead of silently misaligned fields.
    pub fn sec(&mut self, tag: u8) {
        self.buf.push(0xA5);
        self.buf.push(tag);
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f64` losslessly via its bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes a collection: its length as a `usize`, then each element.
    pub fn items<'a, T: Codec + 'a>(&mut self, xs: impl ExactSizeIterator<Item = &'a T>) {
        self.usize(xs.len());
        for x in xs {
            x.enc(self);
        }
    }

    /// Writes a map as [`Enc::items`] writes its `(key, value)` pairs.
    fn pairs<'a, K: Codec + 'a, V: Codec + 'a>(
        &mut self,
        kv: impl ExactSizeIterator<Item = (&'a K, &'a V)>,
    ) {
        self.usize(kv.len());
        for (k, v) in kv {
            k.enc(self);
            v.enc(self);
        }
    }
}

/// Reads back what [`Enc`] wrote, with typed errors on truncation or
/// section-tag mismatch.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder over `buf`, starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// True when every byte has been consumed.
    pub fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.buf.len() - self.pos < n {
            return Err(CheckpointError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Checks a section tag written by [`Enc::sec`].
    ///
    /// # Errors
    /// [`CheckpointError::Malformed`] (naming `what`) when the tag differs.
    pub fn sec(&mut self, tag: u8, what: &'static str) -> Result<(), CheckpointError> {
        let b = self.take(2)?;
        if b != [0xA5, tag] {
            return Err(CheckpointError::Malformed(what));
        }
        Ok(())
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `bool`; any byte other than 0/1 is malformed.
    pub fn bool(&mut self) -> Result<bool, CheckpointError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CheckpointError::Malformed("bool")),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CheckpointError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CheckpointError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a `usize` (stored as `u64`); rejects values over `usize::MAX`.
    pub fn usize(&mut self) -> Result<usize, CheckpointError> {
        usize::try_from(self.u64()?).map_err(|_| CheckpointError::Malformed("usize"))
    }

    /// Reads a length for a collection about to be decoded, rejecting
    /// lengths that exceed the bytes remaining (corrupt counts would
    /// otherwise trigger huge allocations before hitting `Truncated`).
    pub fn len(&mut self, elem_size: usize) -> Result<usize, CheckpointError> {
        let n = self.usize()?;
        if elem_size > 0 && n > (self.buf.len() - self.pos) / elem_size.max(1) + 1 {
            return Err(CheckpointError::Truncated);
        }
        Ok(n)
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CheckpointError> {
        let n = self.len(1)?;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| CheckpointError::Malformed("utf8"))
    }

    /// Reads a collection written by [`Enc::items`] into any container.
    fn items<T: Codec, C: FromIterator<T>>(&mut self) -> Result<C, CheckpointError> {
        let n = self.len(T::MIN)?;
        (0..n).map(|_| T::dec(self)).collect()
    }
}

// ---------------------------------------------------------------------------
// The codec: one wire layout per type
// ---------------------------------------------------------------------------

/// A type with one checkpoint wire layout, read back exactly as written.
///
/// An `Option` is a presence byte, then the value; a collection is its
/// `usize` length, then its elements; an id is its index as a `u64`; an
/// array or tuple is its elements in order; hash-shaped collections are
/// written sorted by key, so the bytes never depend on hash order.
/// Inside the crate, `codec_struct!` and `codec_enum!` declare a struct's
/// field order or an enum's variant tags once, for both directions.
pub trait Codec: Sized {
    /// Fewest bytes one encoded value takes; bounds a decoded collection's
    /// length by the bytes left (see [`Dec::len`]).
    const MIN: usize = 1;

    /// Appends the value to `e`.
    fn enc(&self, e: &mut Enc);

    /// Reads back a value written by [`Codec::enc`].
    ///
    /// # Errors
    /// [`CheckpointError::Truncated`] when the bytes run out, or
    /// [`CheckpointError::Malformed`] naming what failed to decode.
    fn dec(d: &mut Dec) -> Result<Self, CheckpointError>;
}

/// The [`Codec::MIN`] of the field `f` selects, without naming its type
/// (for `codec_struct!`).
pub(crate) const fn wire_min<S, T: Codec>(_f: fn(&S) -> &T) -> usize {
    T::MIN
}

/// Declares each struct's wire layout: its fields in order. Fields after
/// a `;` are not on the wire; decode leaves them at their `Default`, for
/// the restoring side to rebuild from the configuration.
macro_rules! codec_struct {
    ($($ty:ident { $($f:ident),* $(; $($rebuilt:ident),*)? })*) => {$(
        impl $crate::checkpoint::Codec for $ty {
            const MIN: usize = 0 $(+ $crate::checkpoint::wire_min(|s: &Self| &s.$f))*;
            fn enc(&self, e: &mut $crate::checkpoint::Enc) {
                $($crate::checkpoint::Codec::enc(&self.$f, e);)*
            }
            fn dec(
                d: &mut $crate::checkpoint::Dec,
            ) -> Result<Self, $crate::checkpoint::CheckpointError> {
                Ok(Self {
                    $($f: $crate::checkpoint::Codec::dec(d)?,)*
                    $($($rebuilt: Default::default(),)*)?
                })
            }
        }
    )*};
}
pub(crate) use codec_struct;

/// Declares each enum's wire layout: a one-byte tag per variant, then the
/// variant's fields in order. An unknown tag is `Malformed(what)`.
macro_rules! codec_enum {
    ($($ty:ident, $what:literal {
        $($tag:literal => $var:ident $({ $($f:ident),* })? $(( $($t:ident),* ))?),* $(,)?
    })*) => {$(
        impl $crate::checkpoint::Codec for $ty {
            fn enc(&self, e: &mut $crate::checkpoint::Enc) {
                match self {
                    $($ty::$var $({ $($f),* })? $(( $($t),* ))? => {
                        e.u8($tag);
                        $($($crate::checkpoint::Codec::enc($f, e);)*)?
                        $($($crate::checkpoint::Codec::enc($t, e);)*)?
                    })*
                }
            }
            fn dec(
                d: &mut $crate::checkpoint::Dec,
            ) -> Result<Self, $crate::checkpoint::CheckpointError> {
                Ok(match d.u8()? {
                    $($tag => $ty::$var
                        $({ $($f: $crate::checkpoint::Codec::dec(d)?),* })?
                        $(( $({
                            let $t = $crate::checkpoint::Codec::dec(d)?;
                            $t
                        }),* ))?,)*
                    _ => return Err($crate::checkpoint::CheckpointError::Malformed($what)),
                })
            }
        }
    )*};
}
pub(crate) use codec_enum;

macro_rules! codec_primitive {
    ($($ty:ty => $m:ident, $min:literal;)*) => {$(
        impl Codec for $ty {
            const MIN: usize = $min;
            fn enc(&self, e: &mut Enc) {
                e.$m(*self);
            }
            fn dec(d: &mut Dec) -> Result<Self, CheckpointError> {
                d.$m()
            }
        }
    )*};
}

codec_primitive! {
    u8 => u8, 1;
    bool => bool, 1;
    u32 => u32, 4;
    u64 => u64, 8;
    usize => usize, 8;
    f64 => f64, 8;
}

/// Ids are their index, [`Bits`] its `u32`.
macro_rules! codec_newtype {
    ($($ty:ident)*) => {$(
        impl Codec for $ty {
            const MIN: usize = wire_min(|s: &Self| &s.0);
            fn enc(&self, e: &mut Enc) {
                self.0.enc(e);
            }
            fn dec(d: &mut Dec) -> Result<Self, CheckpointError> {
                Codec::dec(d).map($ty)
            }
        }
    )*};
}

codec_newtype!(NodeId RouterId PortId VcId LinkId PacketId Bits);

impl Codec for String {
    const MIN: usize = 8;
    fn enc(&self, e: &mut Enc) {
        e.str(self);
    }
    fn dec(d: &mut Dec) -> Result<Self, CheckpointError> {
        d.str()
    }
}

impl<T: Codec> Codec for Option<T> {
    fn enc(&self, e: &mut Enc) {
        self.is_some().enc(e);
        if let Some(v) = self {
            v.enc(e);
        }
    }
    fn dec(d: &mut Dec) -> Result<Self, CheckpointError> {
        Ok(if d.bool()? { Some(T::dec(d)?) } else { None })
    }
}

impl<T: Codec> Codec for Box<T> {
    const MIN: usize = T::MIN;
    fn enc(&self, e: &mut Enc) {
        (**self).enc(e);
    }
    fn dec(d: &mut Dec) -> Result<Self, CheckpointError> {
        T::dec(d).map(Box::new)
    }
}

impl<T: Codec, const N: usize> Codec for [T; N] {
    const MIN: usize = N * T::MIN;
    fn enc(&self, e: &mut Enc) {
        for x in self {
            x.enc(e);
        }
    }
    fn dec(d: &mut Dec) -> Result<Self, CheckpointError> {
        let v = (0..N).map(|_| T::dec(d)).collect::<Result<Vec<T>, _>>()?;
        Ok(v.try_into()
            .unwrap_or_else(|_| unreachable!("exactly N elements")))
    }
}

macro_rules! codec_tuple {
    ($(($($t:ident)*))*) => {$(
        #[allow(non_snake_case)]
        impl<$($t: Codec),*> Codec for ($($t,)*) {
            const MIN: usize = 0 $(+ $t::MIN)*;
            fn enc(&self, e: &mut Enc) {
                let ($($t,)*) = self;
                $($t.enc(e);)*
            }
            fn dec(d: &mut Dec) -> Result<Self, CheckpointError> {
                Ok(($($t::dec(d)?,)*))
            }
        }
    )*};
}

codec_tuple!((A B) (A B C) (A B C D) (A B C D E));

macro_rules! codec_seq {
    ($($coll:ident<T $(: $bound:ident)?>)*) => {$(
        impl<T: Codec $(+ $bound)?> Codec for $coll<T> {
            const MIN: usize = 8;
            fn enc(&self, e: &mut Enc) {
                e.items(self.iter());
            }
            fn dec(d: &mut Dec) -> Result<Self, CheckpointError> {
                d.items()
            }
        }
    )*};
}

codec_seq!(Vec<T> VecDeque<T> BTreeSet<T: Ord>);

impl<T: Codec + Ord + Hash> Codec for HashSet<T> {
    const MIN: usize = 8;
    fn enc(&self, e: &mut Enc) {
        let mut xs: Vec<&T> = self.iter().collect();
        xs.sort_unstable();
        e.items(xs.into_iter());
    }
    fn dec(d: &mut Dec) -> Result<Self, CheckpointError> {
        d.items()
    }
}

impl<K: Codec + Ord, V: Codec> Codec for BTreeMap<K, V> {
    const MIN: usize = 8;
    fn enc(&self, e: &mut Enc) {
        e.pairs(self.iter());
    }
    fn dec(d: &mut Dec) -> Result<Self, CheckpointError> {
        d.items()
    }
}

impl<K: Codec + Ord + Hash, V: Codec> Codec for HashMap<K, V> {
    const MIN: usize = 8;
    fn enc(&self, e: &mut Enc) {
        let mut kv: Vec<(&K, &V)> = self.iter().collect();
        kv.sort_unstable_by_key(|&(k, _)| k);
        e.pairs(kv.into_iter());
    }
    fn dec(d: &mut Dec) -> Result<Self, CheckpointError> {
        d.items()
    }
}

/// The raw xoshiro256++ state words.
impl Codec for StdRng {
    const MIN: usize = 32;
    fn enc(&self, e: &mut Enc) {
        self.state().enc(e);
    }
    fn dec(d: &mut Dec) -> Result<Self, CheckpointError> {
        Codec::dec(d).map(StdRng::from_state)
    }
}

// ---------------------------------------------------------------------------
// The checkpoint file
// ---------------------------------------------------------------------------

/// One complete checkpoint: the header fields plus the opaque encoded body.
///
/// Produced by [`crate::sim::SimRun`] (via `checkpoint_every`) and consumed
/// by `resume_from`; the body layout is private to the `network::snapshot`
/// and `sim` modules.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// Hash of the network configuration the run was built from.
    pub config_hash: u64,
    /// Hash of the simulation parameters driving the run.
    pub params_hash: u64,
    /// Cycle the state was captured at (an iteration boundary).
    pub cycle: Cycle,
    /// Encoded state (network + driver loop + traffic + trace cursor).
    pub body: Vec<u8>,
}

impl Checkpoint {
    /// Serializes header + body into the on-disk byte layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.body.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
        out.extend_from_slice(&self.config_hash.to_le_bytes());
        out.extend_from_slice(&self.params_hash.to_le_bytes());
        out.extend_from_slice(&self.cycle.to_le_bytes());
        out.extend_from_slice(&(self.body.len() as u64).to_le_bytes());
        out.extend_from_slice(&crc32(&self.body).to_le_bytes());
        out.extend_from_slice(&self.body);
        out
    }

    /// Parses a checkpoint from raw bytes, validating magic, version,
    /// declared length and CRC.
    ///
    /// # Errors
    /// [`CheckpointError::BadMagic`], [`CheckpointError::BadVersion`],
    /// [`CheckpointError::Truncated`] or [`CheckpointError::BadCrc`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        if bytes.len() < HEADER_LEN {
            return Err(CheckpointError::Truncated);
        }
        let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != SCHEMA_VERSION {
            return Err(CheckpointError::BadVersion { found: version });
        }
        let config_hash = word(12);
        let params_hash = word(20);
        let cycle = word(28);
        let body_len = word(36) as usize;
        let expected = u32::from_le_bytes(bytes[44..48].try_into().expect("4 bytes"));
        if bytes.len() < HEADER_LEN + body_len {
            return Err(CheckpointError::Truncated);
        }
        let body = &bytes[HEADER_LEN..HEADER_LEN + body_len];
        let actual = crc32(body);
        if actual != expected {
            return Err(CheckpointError::BadCrc { expected, actual });
        }
        Ok(Checkpoint {
            config_hash,
            params_hash,
            cycle,
            body: body.to_vec(),
        })
    }

    /// Writes the checkpoint atomically: the bytes go to `<path>.tmp`
    /// (fsync'd), then a rename publishes them. A reader never observes a
    /// half-written file at `path`.
    ///
    /// # Errors
    /// Propagates file I/O failures.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let tmp = path.with_extension("ckpt.tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&self.to_bytes())?;
            f.sync_all()?;
        }
        fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Reads and validates a checkpoint from `path`.
    ///
    /// # Errors
    /// I/O failures plus every validation error of
    /// [`Checkpoint::from_bytes`].
    pub fn load(path: &Path) -> Result<Checkpoint, CheckpointError> {
        let bytes = fs::read(path)?;
        Self::from_bytes(&bytes)
    }

    /// Checks the header hashes against the restoring run's configuration
    /// and parameter hashes.
    ///
    /// # Errors
    /// [`CheckpointError::ConfigMismatch`] or
    /// [`CheckpointError::ParamsMismatch`].
    pub fn check_compat(&self, config: u64, params: u64) -> Result<(), CheckpointError> {
        if self.config_hash != config {
            return Err(CheckpointError::ConfigMismatch {
                expected: config,
                found: self.config_hash,
            });
        }
        if self.params_hash != params {
            return Err(CheckpointError::ParamsMismatch {
                expected: params,
                found: self.params_hash,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            config_hash: 0xDEAD_BEEF_0123_4567,
            params_hash: 0x89AB_CDEF_0000_1111,
            cycle: 4096,
            body: (0u16..700).map(|i| (i % 251) as u8).collect(),
        }
    }

    #[test]
    fn roundtrip_bytes() {
        let c = sample();
        let back = Checkpoint::from_bytes(&c.to_bytes()).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn roundtrip_disk_is_atomic() {
        let dir = std::env::temp_dir().join(format!("heteronoc-ckpt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("point.ckpt");
        let c = sample();
        c.save(&path).unwrap();
        assert!(
            !path.with_extension("ckpt.tmp").exists(),
            "tmp renamed away"
        );
        assert_eq!(Checkpoint::load(&path).unwrap(), c);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn typed_errors_for_each_corruption() {
        let good = sample().to_bytes();

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            Checkpoint::from_bytes(&bad_magic),
            Err(CheckpointError::BadMagic)
        ));

        let mut bad_version = good.clone();
        bad_version[8] = 0xFF;
        assert!(matches!(
            Checkpoint::from_bytes(&bad_version),
            Err(CheckpointError::BadVersion { found }) if found != SCHEMA_VERSION
        ));

        let truncated = &good[..good.len() - 10];
        assert!(matches!(
            Checkpoint::from_bytes(truncated),
            Err(CheckpointError::Truncated)
        ));
        assert!(matches!(
            Checkpoint::from_bytes(&good[..HEADER_LEN - 3]),
            Err(CheckpointError::Truncated)
        ));

        let mut flipped = good.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert!(matches!(
            Checkpoint::from_bytes(&flipped),
            Err(CheckpointError::BadCrc { .. })
        ));
    }

    #[test]
    fn compat_check_distinguishes_config_and_params() {
        let c = sample();
        assert!(c.check_compat(c.config_hash, c.params_hash).is_ok());
        assert!(matches!(
            c.check_compat(1, c.params_hash),
            Err(CheckpointError::ConfigMismatch { .. })
        ));
        assert!(matches!(
            c.check_compat(c.config_hash, 1),
            Err(CheckpointError::ParamsMismatch { .. })
        ));
    }

    #[test]
    fn enc_dec_roundtrip_with_sections() {
        let mut e = Enc::new();
        e.sec(1);
        e.u8(9);
        e.bool(true);
        e.u32(0xCAFE_F00D);
        e.u64(u64::MAX - 3);
        e.usize(77);
        e.f64(-0.125);
        e.str("hello world");
        vec![1u64, 2, 3].enc(&mut e);
        None::<u64>.enc(&mut e);
        Some(42u64).enc(&mut e);
        let bytes = e.into_bytes();

        let mut d = Dec::new(&bytes);
        d.sec(1, "s").unwrap();
        assert_eq!(d.u8().unwrap(), 9);
        assert!(d.bool().unwrap());
        assert_eq!(d.u32().unwrap(), 0xCAFE_F00D);
        assert_eq!(d.u64().unwrap(), u64::MAX - 3);
        assert_eq!(d.usize().unwrap(), 77);
        assert_eq!(d.f64().unwrap(), -0.125);
        assert_eq!(d.str().unwrap(), "hello world");
        assert_eq!(Vec::<u64>::dec(&mut d).unwrap(), vec![1, 2, 3]);
        assert_eq!(Option::<u64>::dec(&mut d).unwrap(), None);
        assert_eq!(Option::<u64>::dec(&mut d).unwrap(), Some(42));
        assert!(d.is_done());
    }

    #[test]
    fn dec_flags_wrong_section_and_truncation() {
        let mut e = Enc::new();
        e.sec(3);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert!(matches!(
            d.sec(4, "routers"),
            Err(CheckpointError::Malformed("routers"))
        ));
        let mut d2 = Dec::new(&bytes);
        d2.sec(3, "ok").unwrap();
        assert!(matches!(d2.u64(), Err(CheckpointError::Truncated)));
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }
}
