//! `codec` — the in-repo, zero-dependency, versioned binary serialization
//! layer behind the simulator's checkpoint/resume subsystem.
//!
//! Design goals, in order:
//!
//! 1. **Bit-exact round trips.** A restored simulator must continue
//!    producing byte-identical counters and traces, so every encoding is
//!    explicit little-endian with no platform-dependent layout (`usize` is
//!    always written as `u64`; floats never appear in simulator state).
//! 2. **Loud failure.** Checkpoint files carry a magic number, a format
//!    version and a per-section CRC-32, so a truncated, corrupted or
//!    stale-format file yields a typed [`CodecError`] — never a panic and
//!    never a silently wrong simulation.
//! 3. **No dependencies.** Like [`crate::rng`] and [`crate::prop`], the
//!    codec keeps the workspace hermetic: no serde, no external CRC crate.
//!
//! The layer has three tiers:
//!
//! * [`Writer`] / [`Reader`] — primitive little-endian encode/decode over a
//!   byte buffer.
//! * [`Snapshot`] — the trait simulator components implement; blanket
//!   implementations cover primitives, tuples, `Vec`, `VecDeque`, `Option`,
//!   hash maps and fixed-size arrays, and a struct or tagged enum declares
//!   its encoding once with [`snapshot_struct!`](crate::snapshot_struct) /
//!   [`snapshot_enum!`](crate::snapshot_enum).
//!   (Global memory can additionally encode *only what changed since the
//!   last capture*: `pro_mem::GlobalMem::save_delta`.)
//! * [`write_container`] / [`FileReader`] — the on-disk container: magic +
//!   format version + a chain header (full/delta kind, sequence number,
//!   parent-file CRC) + a table of `(id, length, crc32, payload)` sections,
//!   laid out byte by byte in [`write_container`]'s documentation. The
//!   reader borrows each payload from the bytes it parsed.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::{BuildHasher, Hash};

/// File magic: identifies a PRO snapshot container.
pub const MAGIC: [u8; 8] = *b"PROSNAP\0";

/// Current container format version. Bump on any layout change; readers
/// reject files whose version differs (no silent migration). v2 added the
/// chain header (kind / sequence / parent CRC) enabling delta checkpoints;
/// v3 writes only what the kernel and the rest of the state do not
/// determine; v4 drops the run loop's dispatch queue, cursor, sample clock
/// and TB start cycles, which the SMs and the clock determine; v5 drops the
/// machine's geometry — each cache's and DRAM channel's configuration and
/// every SM, partition, set, bank and completion-queue count — which the
/// machine a container names by fingerprint determines; v6 drops the
/// per-unit order-reuse masks of LRR, GTO and TL, which a restore never
/// read.
pub const FORMAT_VERSION: u32 = 6;

/// What a container holds: a complete state capture, or only the state
/// that changed since the predecessor file in its chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainerKind {
    /// A self-sufficient snapshot (also the base of a delta chain).
    Full,
    /// An incremental snapshot; meaningful only on top of the predecessor
    /// identified by [`FileReader::parent_crc`].
    Delta,
}

/// Every way a snapshot can fail to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is not [`FORMAT_VERSION`].
    BadVersion(u32),
    /// A section's payload failed its CRC-32 check.
    CrcMismatch {
        /// Section id whose checksum failed.
        section: u32,
    },
    /// A required section id is absent from the container.
    MissingSection(u32),
    /// The byte stream ended before a value was fully read.
    Truncated,
    /// A decoded value is out of range for its type (e.g. an invalid enum
    /// tag or a `u64` that does not fit `usize`).
    BadValue(&'static str),
    /// The snapshot is well-formed but belongs to a different run setup
    /// (machine config, kernel or scheduler mismatch).
    Mismatch(String),
    /// A delta container does not continue the chain it was applied to:
    /// wrong kind, out-of-order sequence number, or a parent CRC that does
    /// not match the predecessor file.
    ChainBroken(String),
    /// Every section decoded, and the state they hold together breaks one
    /// of the machine's invariants (`Gpu::check`). Boxed so that the error
    /// stays as small as the run loop's `Result`s were without it.
    Violation(Box<Violation>),
}

/// A fact two of the simulator's structures hold that they hold
/// differently: which one, where, and at which cycle boundary. `Gpu::check`
/// returns the first it finds, a restore refuses a container with it
/// ([`CodecError::Violation`]), and a debug build's run panics with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The invariant, named by the check that found it broken.
    pub invariant: &'static str,
    /// The SM it was found on, when it is one SM's.
    pub sm: Option<u32>,
    /// The warp or TB slot on that SM, when it is one slot's.
    pub slot: Option<Slot>,
    /// The cycle boundary the state was checked at.
    pub cycle: u64,
}

/// A slot of one SM, as a [`Violation`] names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// A warp slot.
    Warp(usize),
    /// A thread-block slot.
    Tb(usize),
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.invariant)?;
        match (self.sm, self.slot) {
            (Some(sm), Some(Slot::Warp(w))) => write!(f, " (SM {sm}, warp slot {w})")?,
            (Some(sm), Some(Slot::Tb(t))) => write!(f, " (SM {sm}, TB slot {t})")?,
            (Some(sm), None) => write!(f, " (SM {sm})")?,
            (None, _) => {}
        }
        write!(f, " at cycle {}", self.cycle)
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "not a PRO snapshot (bad magic)"),
            CodecError::BadVersion(v) => write!(
                f,
                "unsupported snapshot format version {v} (this build reads {FORMAT_VERSION})"
            ),
            CodecError::CrcMismatch { section } => {
                write!(f, "snapshot section {section} is corrupted (CRC mismatch)")
            }
            CodecError::MissingSection(id) => {
                write!(f, "snapshot is missing required section {id}")
            }
            CodecError::Truncated => write!(f, "snapshot data ended unexpectedly"),
            CodecError::BadValue(what) => write!(f, "snapshot contains an invalid value: {what}"),
            CodecError::Mismatch(why) => {
                write!(f, "snapshot does not match this run: {why}")
            }
            CodecError::ChainBroken(why) => {
                write!(f, "delta chain is broken: {why}")
            }
            CodecError::Violation(v) => write!(f, "snapshot state breaks an invariant: {v}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// `Ok` when `holds`, otherwise [`CodecError::BadValue`] naming `what`: one
/// line of a `validate` clause.
pub fn ensure(holds: bool, what: &'static str) -> Result<(), CodecError> {
    if holds {
        Ok(())
    } else {
        Err(CodecError::BadValue(what))
    }
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected, as used by zlib/PNG) — table-driven.
// ---------------------------------------------------------------------------

/// Slicing tables: `CRC_TABLES[k][b]` advances the CRC register over byte
/// `b` followed by `k` zero bytes, so eight input bytes fold in with eight
/// independent lookups. `CRC_TABLES[0]` is the byte-at-a-time table.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Advance the (pre-inverted) CRC register `c` over `data` a byte at a time.
fn crc32_bytes(mut c: u32, data: &[u8]) -> u32 {
    for &b in data {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32 (IEEE) of `data`, eight bytes per step with the byte loop for the
/// tail. Golden-pinned in tests against the standard check value
/// `crc32(b"123456789") == 0xCBF4_3926`.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for ch in &mut chunks {
        let lo = c ^ u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]);
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][(hi >> 8 & 0xFF) as usize]
            ^ t[1][(hi >> 16 & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    crc32_bytes(c, chunks.remainder()) ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Writer / Reader
// ---------------------------------------------------------------------------

/// Append-only little-endian byte sink.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Consume the writer, yielding its byte buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Write one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write `v` as consecutive little-endian `u32`s, no length prefix: the
    /// bytes of one [`Writer::put_u32`] per element, in one bulk copy.
    pub fn put_u32_slice(&mut self, v: &[u32]) {
        let start = self.buf.len();
        self.buf.resize(start + v.len() * 4, 0);
        for (dst, word) in self.buf[start..].chunks_exact_mut(4).zip(v) {
            dst.copy_from_slice(&word.to_le_bytes());
        }
    }

    /// Write a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u128`, little-endian.
    pub(crate) fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `bool` as one byte (0/1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Write a `usize` as `u64` (platform-independent).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Write raw bytes with a `u64` length prefix.
    pub(crate) fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Write a UTF-8 string with a `u64` length prefix.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// Cursor over a byte slice; every accessor returns [`CodecError::Truncated`]
/// instead of panicking when data runs out.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Fill `dst` with consecutive little-endian `u32`s, no length prefix:
    /// the inverse of [`Writer::put_u32_slice`], in one bulk copy.
    pub fn get_u32_slice(&mut self, dst: &mut [u32]) -> Result<(), CodecError> {
        let bytes = self.take(dst.len() * 4)?;
        for (word, src) in dst.iter_mut().zip(bytes.chunks_exact(4)) {
            *word = u32::from_le_bytes([src[0], src[1], src[2], src[3]]);
        }
        Ok(())
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian `u128`.
    pub(crate) fn get_u128(&mut self) -> Result<u128, CodecError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// Read a `bool`; any byte other than 0/1 is a [`CodecError::BadValue`].
    pub fn get_bool(&mut self) -> Result<bool, CodecError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::BadValue("bool")),
        }
    }

    /// Read a `usize` (stored as `u64`).
    pub fn get_usize(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.get_u64()?).map_err(|_| CodecError::BadValue("usize"))
    }

    /// Read length-prefixed raw bytes.
    pub(crate) fn get_bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        let n = self.get_usize()?;
        Ok(self.take(n)?.to_vec())
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_string(&mut self) -> Result<String, CodecError> {
        let bytes = self.get_bytes()?;
        String::from_utf8(bytes).map_err(|_| CodecError::BadValue("utf-8 string"))
    }

    /// Assert the reader consumed its input exactly.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::BadValue("trailing bytes in section"))
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshot trait + blanket impls
// ---------------------------------------------------------------------------

/// A component whose complete dynamic state can be written to and rebuilt
/// from a byte stream.
///
/// The contract backing checkpoint/resume: `save` followed by `load` must
/// produce a value whose **observable future behaviour is bit-identical**
/// to the original — same counters, same stall attribution, same trace
/// bytes. Encoders must be canonical (hash maps serialized in sorted key
/// order, heaps in sorted element order) so identical states produce
/// identical bytes.
///
/// Do not write the two methods by hand for a struct or a tagged enum:
/// declare the field list once with
/// [`snapshot_struct!`](crate::snapshot_struct) or
/// [`snapshot_enum!`](crate::snapshot_enum), which generate both
/// directions from it (`DESIGN.md` §12, "Container layout").
pub trait Snapshot: Sized {
    /// Append this value's encoding to `w`.
    fn save(&self, w: &mut Writer);
    /// Decode a value from `r`.
    fn load(r: &mut Reader<'_>) -> Result<Self, CodecError>;
}

macro_rules! snapshot_prim {
    ($ty:ty, $put:ident, $get:ident) => {
        impl Snapshot for $ty {
            fn save(&self, w: &mut Writer) {
                w.$put(*self);
            }
            fn load(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                r.$get()
            }
        }
    };
}

snapshot_prim!(u8, put_u8, get_u8);
snapshot_prim!(u32, put_u32, get_u32);
snapshot_prim!(u64, put_u64, get_u64);
snapshot_prim!(u128, put_u128, get_u128);
snapshot_prim!(bool, put_bool, get_bool);
snapshot_prim!(usize, put_usize, get_usize);

impl Snapshot for String {
    fn save(&self, w: &mut Writer) {
        w.put_str(self);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.get_string()
    }
}

impl<T: Snapshot> Snapshot for Vec<T> {
    fn save(&self, w: &mut Writer) {
        w.put_u64(self.len() as u64);
        for x in self {
            x.save(w);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.get_usize()?;
        let mut v = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            v.push(T::load(r)?);
        }
        Ok(v)
    }
}

impl<T: Snapshot> Snapshot for VecDeque<T> {
    fn save(&self, w: &mut Writer) {
        w.put_u64(self.len() as u64);
        for x in self {
            x.save(w);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.get_usize()?;
        let mut v = VecDeque::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            v.push_back(T::load(r)?);
        }
        Ok(v)
    }
}

impl<T: Snapshot> Snapshot for Option<T> {
    fn save(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(x) => {
                w.put_u8(1);
                x.save(w);
            }
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::load(r)?)),
            _ => Err(CodecError::BadValue("Option tag")),
        }
    }
}

impl<T: Snapshot, const N: usize> Snapshot for [T; N] {
    fn save(&self, w: &mut Writer) {
        for x in self {
            x.save(w);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let mut v = Vec::with_capacity(N);
        for _ in 0..N {
            v.push(T::load(r)?);
        }
        v.try_into().map_err(|_| CodecError::Truncated)
    }
}

macro_rules! snapshot_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Snapshot),+> Snapshot for ($($name,)+) {
            fn save(&self, w: &mut Writer) {
                $(self.$idx.save(w);)+
            }
            fn load(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok(($($name::load(r)?,)+))
            }
        }
    };
}

snapshot_tuple!(A: 0, B: 1);
snapshot_tuple!(A: 0, B: 1, C: 2);
snapshot_tuple!(A: 0, B: 1, C: 2, D: 3);

/// The canonical map encoding, and the only place keys are sorted for the
/// wire: a `u64` count, then `key, value` pairs in ascending key order, so
/// equal maps produce equal bytes whatever their insertion history.
impl<K, V, S> Snapshot for HashMap<K, V, S>
where
    K: Snapshot + Ord + Hash,
    V: Snapshot,
    S: BuildHasher + Default,
{
    fn save(&self, w: &mut Writer) {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        w.put_u64(entries.len() as u64);
        for (k, v) in entries {
            k.save(w);
            v.save(w);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let mut map = HashMap::default();
        for _ in 0..r.get_usize()? {
            let key = K::load(r)?;
            ensure(map.insert(key, V::load(r)?).is_none(), "duplicate map key")?;
        }
        Ok(map)
    }
}

/// [`Snapshot::load`] for the field a projection names. The projection is
/// never called: it tells the compiler the field's type, so a `validate`
/// clause can call methods on a field the declaration gave no type for.
#[doc(hidden)]
pub fn load_field<S, T: Snapshot>(
    r: &mut Reader<'_>,
    _field: fn(&S) -> &T,
) -> Result<T, CodecError> {
    T::load(r)
}

/// Implement [`Snapshot`] for a struct from **one** list of its fields:
/// the order they are written here is the order they are on the wire, in
/// both directions.
///
/// ```
/// use pro_core::codec::{ensure, Snapshot};
/// use pro_core::snapshot_struct;
///
/// struct Queue<T> {
///     cap: u32,
///     items: Vec<T>,
///     /// Not on the wire: rebuilt from `items`.
///     len_hint: usize,
/// }
/// snapshot_struct! {
///     [T: Snapshot] Queue<T> {
///         cap,
///         items,
///     }
///     derived {
///         len_hint = items.len(),
///     }
///     validate {
///         ensure(items.len() <= cap as usize, "queue over capacity")
///     }
/// }
/// ```
///
/// * Generic parameters, with their bounds, go in `[...]` before the type.
/// * Each listed field is encoded by its own type's [`Snapshot`] impl. A
///   field whose bytes are something else (a foreign type, a layout kept
///   from an older representation) names its function pair instead:
///   `field via (save_fn, load_fn)`, with `save_fn(&Field, &mut Writer)`
///   and `load_fn(&mut Reader) -> Result<Field, CodecError>`.
/// * `derived` fields are not encoded; `load` rebuilds each from its
///   expression, which may use the fields already read (by name).
/// * `validate` is a block of type `Result<(), CodecError>`, run after the
///   listed fields are read and before anything is derived or built, with
///   the fields in scope by name. Cross-field checks on bytes that came
///   from a file go here, so a hostile container is a typed error.
///
/// The generated `save` opens with an exhaustive `let Self { .. } = self`
/// naming every listed and derived field, so a struct that gains a field
/// its declaration lacks stops compiling rather than silently dropping the
/// field from checkpoints:
///
/// ```compile_fail
/// use pro_core::snapshot_struct;
///
/// struct Pair {
///     a: u32,
///     b: u32,
/// }
/// snapshot_struct! {
///     Pair {
///         a,
///     }
/// }
/// ```
#[macro_export]
macro_rules! snapshot_struct {
    (@save $field:ident, $w:ident) => {
        $crate::codec::Snapshot::save($field, $w)
    };
    (@save $field:ident, $w:ident, $save:path) => {
        $save($field, $w)
    };
    (@load $field:ident, $r:ident) => {
        $crate::codec::load_field($r, |this: &Self| &this.$field)?
    };
    (@load $field:ident, $r:ident, $load:path) => {
        $load($r)?
    };
    (
        [$($generics:tt)*] $ty:ty {
            $($field:ident $(via ($save:path, $load:path))?),+ $(,)?
        }
        $(derived { $($dfield:ident = $dexpr:expr),+ $(,)? })?
        $(validate $check:block)?
    ) => {
        impl<$($generics)*> $crate::codec::Snapshot for $ty {
            fn save(&self, w: &mut $crate::codec::Writer) {
                let Self { $($field,)+ $($($dfield: _,)+)? } = self;
                $($crate::snapshot_struct!(@save $field, w $(, $save)?);)+
            }
            fn load(
                r: &mut $crate::codec::Reader<'_>,
            ) -> Result<Self, $crate::codec::CodecError> {
                $(let $field = $crate::snapshot_struct!(@load $field, r $(, $load)?);)+
                $(
                    let checked: Result<(), $crate::codec::CodecError> = $check;
                    checked?;
                )?
                $($(let $dfield = $dexpr;)+)?
                Ok(Self { $($field,)+ $($($dfield,)+)? })
            }
        }
    };
    ($ty:ty { $($fields:tt)* } $($clauses:tt)*) => {
        $crate::snapshot_struct!([] $ty { $($fields)* } $($clauses)*);
    };
}

/// Implement [`Snapshot`] for an enum encoded as a `u8` tag followed by the
/// variant's fields, listing each variant — tag, name, fields — once. An
/// unknown tag decodes to [`CodecError::BadValue`] naming `$what`; a
/// variant missing from the list is a compile error (the generated `save`
/// is an exhaustive `match`).
///
/// ```
/// use pro_core::snapshot_enum;
///
/// enum Shape {
///     Empty,
///     Circle(u32),
///     Rect { w: u32, h: u32 },
/// }
/// snapshot_enum! {
///     Shape, "Shape tag" {
///         0 => Empty,
///         1 => Circle(radius),
///         2 => Rect { w, h },
///     }
/// }
/// ```
#[macro_export]
macro_rules! snapshot_enum {
    (
        $ty:ty, $what:literal {
            $($tag:literal => $variant:ident
                $(($($tfield:ident),+))?
                $({ $($sfield:ident),+ })?
            ),+ $(,)?
        }
    ) => {
        impl $crate::codec::Snapshot for $ty {
            fn save(&self, w: &mut $crate::codec::Writer) {
                match self {
                    $(Self::$variant $(($($tfield),+))? $({ $($sfield),+ })? => {
                        w.put_u8($tag);
                        $($($crate::codec::Snapshot::save($tfield, w);)+)?
                        $($($crate::codec::Snapshot::save($sfield, w);)+)?
                    })+
                }
            }
            fn load(
                r: &mut $crate::codec::Reader<'_>,
            ) -> Result<Self, $crate::codec::CodecError> {
                Ok(match r.get_u8()? {
                    $($tag => Self::$variant
                        $(($({
                            let $tfield = $crate::codec::Snapshot::load(r)?;
                            $tfield
                        }),+))?
                        $({ $($sfield: $crate::codec::Snapshot::load(r)?),+ })?,
                    )+
                    _ => return Err($crate::codec::CodecError::BadValue($what)),
                })
            }
        }
    };
}

// ---------------------------------------------------------------------------
// File container
// ---------------------------------------------------------------------------

/// Bytes of the header before the first section, and of each section's
/// `id`, `len` and `crc32` fields.
const HEADER_LEN: usize = 8 + 4 + 1 + 8 + 4 + 4;
const SECTION_HEADER_LEN: usize = 4 + 8 + 4;

/// Serialize a snapshot container holding `sections` in the order given,
/// into one buffer sized for the whole. `link` makes it a delta at chain
/// position `sequence` (≥ 1) whose predecessor file's bytes hash to
/// `parent_crc`; `None` makes it a full container. Ids must be unique: the
/// reader indexes by id.
///
/// Layout (all integers little-endian):
///
/// ```text
/// magic       8 bytes  "PROSNAP\0"
/// version     u32      FORMAT_VERSION (6)
/// kind        u8       0 = full snapshot, 1 = delta
/// sequence    u64      position in the chain (0 for a full/base snapshot)
/// parent_crc  u32      CRC-32 of the predecessor file's complete bytes
///                      (0 for a full/base snapshot)
/// count       u32      number of sections
/// then, per section:
///   id       u32    caller-chosen section id
///   len      u64    payload length in bytes
///   crc32    u32    IEEE CRC-32 of the payload
///   payload  len bytes
/// ```
///
/// The chain header makes a `base + delta-1 + delta-2 + …` sequence
/// self-validating: each delta names its predecessor by CRC, so a reader
/// can detect a delta grafted onto the wrong base (or applied out of
/// order) without any out-of-band manifest.
pub fn write_container(link: Option<(u64, u32)>, sections: &[(u32, &[u8])]) -> Vec<u8> {
    debug_assert!(link.is_none_or(|(sequence, _)| sequence > 0), "delta sequence numbers start at 1");
    debug_assert!(
        sections.iter().enumerate().all(|(i, (id, _))| sections[..i].iter().all(|(j, _)| j != id)),
        "duplicate snapshot section id"
    );
    let len = sections.iter().map(|(_, p)| SECTION_HEADER_LEN + p.len()).sum::<usize>();
    let mut out = Vec::with_capacity(HEADER_LEN + len);
    let (sequence, parent_crc) = link.unwrap_or((0, 0));
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.push(u8::from(link.is_some()));
    out.extend_from_slice(&sequence.to_le_bytes());
    out.extend_from_slice(&parent_crc.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    for (id, payload) in sections {
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        out.extend_from_slice(payload);
    }
    out
}

/// A parsed snapshot container: magic, version and chain header validated
/// and every section's CRC verified up front. Each payload is a slice of
/// the bytes it parsed, not a copy.
#[derive(Debug)]
pub struct FileReader<'a> {
    kind: ContainerKind,
    sequence: u64,
    parent_crc: u32,
    sections: Vec<(u32, &'a [u8])>,
}

impl<'a> FileReader<'a> {
    /// Parse and fully validate a container ([`write_container`] has the
    /// layout).
    pub fn parse(bytes: &'a [u8]) -> Result<FileReader<'a>, CodecError> {
        let mut r = Reader::new(bytes);
        let magic = r.take(8)?;
        if magic != MAGIC {
            return Err(CodecError::BadMagic);
        }
        let version = r.get_u32()?;
        if version != FORMAT_VERSION {
            return Err(CodecError::BadVersion(version));
        }
        let kind = match r.get_u8()? {
            0 => ContainerKind::Full,
            1 => ContainerKind::Delta,
            _ => return Err(CodecError::BadValue("container kind")),
        };
        let sequence = r.get_u64()?;
        let parent_crc = r.get_u32()?;
        match kind {
            ContainerKind::Full if sequence != 0 || parent_crc != 0 => {
                return Err(CodecError::BadValue("full container with chain linkage"));
            }
            ContainerKind::Delta if sequence == 0 => {
                return Err(CodecError::BadValue("delta container with sequence 0"));
            }
            _ => {}
        }
        let count = r.get_u32()?;
        // A count the remaining bytes cannot hold is not reserved for.
        let mut sections = Vec::with_capacity((count as usize).min(r.remaining() / SECTION_HEADER_LEN));
        for _ in 0..count {
            let id = r.get_u32()?;
            let len = r.get_usize()?;
            let crc = r.get_u32()?;
            let payload = r.take(len)?;
            if crc32(payload) != crc {
                return Err(CodecError::CrcMismatch { section: id });
            }
            sections.push((id, payload));
        }
        r.finish()
            .map_err(|_| CodecError::BadValue("trailing bytes after last section"))?;
        Ok(FileReader {
            kind,
            sequence,
            parent_crc,
            sections,
        })
    }

    /// Whether this container is a full snapshot or a delta.
    pub fn kind(&self) -> ContainerKind {
        self.kind
    }

    /// Chain position: 0 for a full/base snapshot, ≥ 1 for deltas.
    pub fn sequence(&self) -> u64 {
        self.sequence
    }

    /// CRC-32 of the predecessor file's complete bytes (0 for a full
    /// snapshot).
    pub fn parent_crc(&self) -> u32 {
        self.parent_crc
    }

    /// Every `(id, payload)` section, in file order.
    pub fn sections(&self) -> &[(u32, &'a [u8])] {
        &self.sections
    }

    /// A [`Reader`] over section `id`'s payload.
    pub fn section(&self, id: u32) -> Result<Reader<'a>, CodecError> {
        self.section_bytes(id).map(Reader::new)
    }

    /// Section `id`'s raw payload bytes (CRC already verified at parse).
    /// Delta containers store [`crate::bdelta`] streams here, which are
    /// decoded against the predecessor image rather than read field-wise.
    pub fn section_bytes(&self, id: u32) -> Result<&'a [u8], CodecError> {
        self.sections
            .iter()
            .find(|(i, _)| *i == id)
            .map(|&(_, p)| p)
            .ok_or(CodecError::MissingSection(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_golden_check_value() {
        // The universal CRC-32/IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_matches_the_byte_loop_at_every_length_and_alignment() {
        use crate::prop::{check, from_fn, Config};
        use crate::prop_assert_eq;
        // (bytes, start offset): lengths 0..=4 KiB cover no, one and many
        // 8-byte steps with every tail length; the offset moves the slice
        // across all eight alignments of the backing buffer.
        let input = from_fn(|g| {
            let len = g.gen_range(0usize..4097);
            let offset = g.gen_range(0usize..8);
            let buf: Vec<u8> = (0..offset + len).map(|_| g.next_u32() as u8).collect();
            (buf, offset)
        });
        check(Config::with_cases(512), input, |(buf, offset)| {
            let data = &buf[*offset..];
            prop_assert_eq!(crc32(data), crc32_bytes(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF);
            Ok(())
        });
    }

    #[test]
    fn primitive_roundtrip() {
        let mut w = Writer::new();
        w.put_u8(0xAB);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_u128(0x0123_4567_89AB_CDEF_0123_4567_89AB_CDEF);
        w.put_u32_slice(&[1, 0xDEAD_BEEF]);
        w.put_bool(true);
        w.put_usize(42);
        w.put_str("héllo");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_u128().unwrap(), 0x0123_4567_89AB_CDEF_0123_4567_89AB_CDEF);
        assert_eq!((r.get_u32().unwrap(), r.get_u32().unwrap()), (1, 0xDEAD_BEEF));
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_usize().unwrap(), 42);
        assert_eq!(r.get_string().unwrap(), "héllo");
        r.finish().unwrap();
    }

    #[test]
    fn container_roundtrip() {
        let mut a = Writer::new();
        (1u32, 2u64).save(&mut a);
        let mut b = Writer::new();
        vec![Some(3usize), None].save(&mut b);
        let (a, b) = (a.into_bytes(), b.into_bytes());
        let bytes = write_container(None, &[(7, &a), (9, &b)]);

        let parsed = FileReader::parse(&bytes).unwrap();
        assert_eq!(parsed.sections(), &[(7, &a[..]), (9, &b[..])]);
        let mut r = parsed.section(7).unwrap();
        assert_eq!(<(u32, u64)>::load(&mut r).unwrap(), (1, 2));
        r.finish().unwrap();
        let mut r = parsed.section(9).unwrap();
        assert_eq!(Vec::<Option<usize>>::load(&mut r).unwrap(), vec![Some(3), None]);
        assert!(matches!(
            parsed.section(8),
            Err(CodecError::MissingSection(8))
        ));
    }

    #[test]
    fn golden_container_bytes() {
        // Pin the exact byte layout of a minimal full container so an
        // accidental format change (field order, width, endianness, header
        // shape) fails loudly rather than silently invalidating old
        // checkpoints.
        let mut w = Writer::new();
        w.put_u32(0xAABB_CCDD);
        w.put_u8(0x07);
        let bytes = write_container(None, &[(1, &w.into_bytes())]);
        let payload = [0xDDu8, 0xCC, 0xBB, 0xAA, 0x07];
        let mut expect: Vec<u8> = Vec::new();
        expect.extend_from_slice(b"PROSNAP\0"); // magic
        expect.extend_from_slice(&6u32.to_le_bytes()); // format version
        expect.push(0); // kind: full
        expect.extend_from_slice(&0u64.to_le_bytes()); // sequence
        expect.extend_from_slice(&0u32.to_le_bytes()); // parent crc
        expect.extend_from_slice(&1u32.to_le_bytes()); // section count
        expect.extend_from_slice(&1u32.to_le_bytes()); // section id
        expect.extend_from_slice(&5u64.to_le_bytes()); // payload length
        expect.extend_from_slice(&crc32(&payload).to_le_bytes());
        expect.extend_from_slice(&payload);
        assert_eq!(bytes, expect);
        // And the CRC itself is pinned as a literal, independent of crc32():
        assert_eq!(crc32(&payload), 0x885B_CD7A, "payload CRC changed");
        let parsed = FileReader::parse(&bytes).unwrap();
        assert_eq!(parsed.kind(), ContainerKind::Full);
        assert_eq!(parsed.sequence(), 0);
        assert_eq!(parsed.parent_crc(), 0);
    }

    #[test]
    fn golden_delta_container_bytes() {
        // The v2 delta header, byte for byte: kind 1, the chain sequence
        // number, and the predecessor file's CRC.
        let mut w = Writer::new();
        w.put_u8(0x2A);
        let bytes = write_container(Some((3, 0xDEAD_BEEF)), &[(9, &w.into_bytes())]);
        let payload = [0x2Au8];
        let mut expect: Vec<u8> = Vec::new();
        expect.extend_from_slice(b"PROSNAP\0"); // magic
        expect.extend_from_slice(&6u32.to_le_bytes()); // format version
        expect.push(1); // kind: delta
        expect.extend_from_slice(&3u64.to_le_bytes()); // sequence
        expect.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes()); // parent crc
        expect.extend_from_slice(&1u32.to_le_bytes()); // section count
        expect.extend_from_slice(&9u32.to_le_bytes()); // section id
        expect.extend_from_slice(&1u64.to_le_bytes()); // payload length
        expect.extend_from_slice(&crc32(&payload).to_le_bytes());
        expect.extend_from_slice(&payload);
        assert_eq!(bytes, expect);
        let parsed = FileReader::parse(&bytes).unwrap();
        assert_eq!(parsed.kind(), ContainerKind::Delta);
        assert_eq!(parsed.sequence(), 3);
        assert_eq!(parsed.parent_crc(), 0xDEAD_BEEF);
    }

    #[test]
    fn malformed_chain_headers_are_rejected() {
        // A delta must carry a nonzero sequence; a full container must not
        // carry chain linkage. Corrupt either invariant and parse fails.
        let bytes = write_container(None, &[]);
        let kind_off = 8 + 4; // magic + version
        let mut delta0 = bytes.clone();
        delta0[kind_off] = 1; // claim delta, but sequence stays 0
        assert_eq!(
            FileReader::parse(&delta0).err(),
            Some(CodecError::BadValue("delta container with sequence 0"))
        );
        let mut linked_full = bytes.clone();
        linked_full[kind_off + 1] = 7; // full, but with a sequence number
        assert_eq!(
            FileReader::parse(&linked_full).err(),
            Some(CodecError::BadValue("full container with chain linkage"))
        );
        let mut bad_kind = bytes;
        bad_kind[kind_off] = 9;
        assert_eq!(
            FileReader::parse(&bad_kind).err(),
            Some(CodecError::BadValue("container kind"))
        );
    }

    #[test]
    fn corruption_is_detected_not_panicking() {
        let mut w = Writer::new();
        w.put_u64(123_456_789);
        let mut bytes = write_container(None, &[(3, &w.into_bytes())]);
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF; // flip a payload byte
        assert_eq!(
            FileReader::parse(&bytes).err(),
            Some(CodecError::CrcMismatch { section: 3 })
        );
    }

    #[test]
    fn truncation_and_bad_headers_are_clean_errors() {
        let bytes = write_container(None, &[(1, &1u32.to_le_bytes())]);
        assert!(matches!(
            FileReader::parse(&bytes[..bytes.len() - 2]),
            Err(CodecError::Truncated)
        ));
        assert!(matches!(
            FileReader::parse(b"NOTSNAP\0rest"),
            Err(CodecError::BadMagic)
        ));
        let mut vbytes = bytes.clone();
        vbytes[8] = 99; // bogus format version
        assert!(matches!(
            FileReader::parse(&vbytes),
            Err(CodecError::BadVersion(99))
        ));
    }

    #[test]
    fn a_section_count_past_the_bytes_is_truncation() {
        // The count reserves the section table: one the remaining bytes
        // cannot hold must not reserve four billion entries first.
        let mut bytes = write_container(None, &[]);
        let count = bytes.len() - 4;
        bytes[count..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(FileReader::parse(&bytes).err(), Some(CodecError::Truncated));
    }

    #[test]
    fn collections_roundtrip() {
        let mut w = Writer::new();
        let deque: VecDeque<u32> = [5u32, 6, 7].into_iter().collect();
        deque.save(&mut w);
        [9u64, 8].save(&mut w);
        "abc".to_string().save(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(VecDeque::<u32>::load(&mut r).unwrap(), deque);
        assert_eq!(<[u64; 2]>::load(&mut r).unwrap(), [9, 8]);
        assert_eq!(String::load(&mut r).unwrap(), "abc");
        r.finish().unwrap();
    }

    /// A little of everything `snapshot_struct!` accepts.
    #[derive(Debug, PartialEq)]
    struct Mixed<T> {
        id: u32,
        items: Vec<T>,
        kind: Kind,
        flat: [u8; 2],
        by_line: HashMap<u64, bool>,
        total: usize,
    }

    #[derive(Debug, PartialEq)]
    enum Kind {
        Idle,
        Busy(u64),
        Moved { from: u32, to: u32 },
    }

    snapshot_enum! {
        Kind, "Kind tag" {
            0 => Idle,
            1 => Busy(until),
            2 => Moved { from, to },
        }
    }

    fn save_flat(v: &[u8; 2], w: &mut Writer) {
        w.put_u32(u32::from(v[0]) << 8 | u32::from(v[1]));
    }

    fn load_flat(r: &mut Reader<'_>) -> Result<[u8; 2], CodecError> {
        let v = r.get_u32()?;
        Ok([(v >> 8) as u8, v as u8])
    }

    snapshot_struct! {
        [T: Snapshot] Mixed<T> {
            id,
            items,
            kind,
            flat via (save_flat, load_flat),
            by_line,
        }
        derived {
            total = items.len() + by_line.len(),
        }
        validate {
            ensure(id != 0, "Mixed id")
        }
    }

    #[test]
    fn declared_encodings_equal_the_hand_written_byte_sequence() {
        let value = Mixed {
            id: 7,
            items: vec![3u64, 4],
            kind: Kind::Moved { from: 1, to: 2 },
            flat: [0xAB, 0xCD],
            by_line: [(9, true), (2, false), (5, true)].into_iter().collect(),
            total: 5,
        };
        let mut w = Writer::new();
        value.save(&mut w);
        let bytes = w.into_bytes();

        let mut want = Writer::new();
        want.put_u32(7);
        want.put_u64(2); // items: count, then elements
        want.put_u64(3);
        want.put_u64(4);
        want.put_u8(2); // kind: tag, then the variant's fields in order
        want.put_u32(1);
        want.put_u32(2);
        want.put_u32(0xABCD); // flat: its function pair's bytes
        want.put_u64(3); // by_line: count, then pairs by ascending key
        for (k, v) in [(2, false), (5, true), (9, true)] {
            want.put_u64(k);
            want.put_bool(v);
        }
        // `total` is derived: not on the wire.
        assert_eq!(bytes, want.into_bytes());

        let mut r = Reader::new(&bytes);
        assert_eq!(Mixed::<u64>::load(&mut r).unwrap(), value);
        r.finish().unwrap();

        // The other variants, an unknown tag, and the validate clause.
        for (kind, tail) in [(Kind::Idle, vec![0u8]), (Kind::Busy(1), vec![1, 1, 0, 0, 0, 0, 0, 0, 0])] {
            let mut w = Writer::new();
            kind.save(&mut w);
            assert_eq!(w.into_bytes(), tail);
            assert_eq!(Kind::load(&mut Reader::new(&tail)).unwrap(), kind);
        }
        assert_eq!(Kind::load(&mut Reader::new(&[3])), Err(CodecError::BadValue("Kind tag")));
        let mut zero_id = bytes.clone();
        zero_id[0] = 0;
        assert_eq!(
            Mixed::<u64>::load(&mut Reader::new(&zero_id)),
            Err(CodecError::BadValue("Mixed id"))
        );
    }

    #[test]
    fn a_map_listing_a_key_twice_is_refused() {
        let mut w = Writer::new();
        w.put_u64(2);
        for _ in 0..2 {
            w.put_u64(4);
            w.put_bool(true);
        }
        assert_eq!(
            HashMap::<u64, bool>::load(&mut Reader::new(&w.into_bytes())),
            Err(CodecError::BadValue("duplicate map key"))
        );
    }

    #[test]
    fn reader_rejects_invalid_values() {
        let mut r = Reader::new(&[7u8]);
        assert_eq!(r.get_bool(), Err(CodecError::BadValue("bool")));
        let mut r = Reader::new(&[2u8]);
        assert_eq!(
            Option::<u8>::load(&mut r),
            Err(CodecError::BadValue("Option tag"))
        );
        let mut r = Reader::new(&[1u8, 2]);
        assert_eq!(r.get_u64(), Err(CodecError::Truncated));
    }
}
