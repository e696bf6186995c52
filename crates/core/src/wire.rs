//! Serde-free binary encoding for the serving vocabulary.
//!
//! The network layer (`revelio-server`) and the persistent store
//! (`revelio-store`) both speak a hand-rolled little-endian format; this
//! module owns the byte-level primitives, the CRC-32 both use to checksum
//! frames and records, the stable hashes behind persisted fingerprints and
//! routing keys, and one codec per shared type: [`Degradation`], score
//! vectors, the serialisable [`ControlSpec`] subset of [`ExplainControl`],
//! [`GnnConfig`], [`Target`], and counted / optional `f32` lists. Every
//! codec is a plain function pair (`put_*` / `read_*`) because every
//! caller names the type it codes. Everything is explicit and versioned by
//! the frame or record format above it; there is no reflection and no
//! derive machinery.
//!
//! Decoding never trusts a length before checking it against the bytes that
//! are actually present, so a truncated or hostile buffer costs at most the
//! bytes received — never an unbounded allocation.
//!
//! [`ExplainControl`]: crate::ExplainControl

use std::fmt;
use std::hash::Hasher;

use revelio_gnn::{GnnConfig, GnnKind, Task};
use revelio_graph::Target;

use crate::control::Degradation;

/// Error raised by [`WireReader`] when a buffer does not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireDecodeError {
    /// The buffer ended before the announced content did.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// A field held a value its type forbids (bad enum tag, non-UTF-8
    /// string, inconsistent lengths, …).
    Invalid(&'static str),
    /// Decoding finished with unread bytes left over — the sender and
    /// receiver disagree about the message layout.
    TrailingBytes(usize),
}

impl fmt::Display for WireDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireDecodeError::Truncated { needed, remaining } => write!(
                f,
                "truncated message: needed {needed} more bytes, {remaining} remaining"
            ),
            WireDecodeError::Invalid(what) => write!(f, "invalid field: {what}"),
            WireDecodeError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after a complete message")
            }
        }
    }
}

impl std::error::Error for WireDecodeError {}

// ---------------------------------------------------------------------------
// Writer primitives: plain functions appending to a Vec<u8>.
// ---------------------------------------------------------------------------

/// Appends a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a little-endian `u16`.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f32` as its little-endian IEEE-754 bits (bit-exact: `NaN`
/// payloads and signed zeros survive the round trip).
pub fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Appends a `bool` as one byte (`0` / `1`).
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

/// Appends `Some(v)` as `1` + the value, `None` as `0`.
pub fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(v) => {
            out.push(1);
            put_u64(out, v);
        }
        None => out.push(0),
    }
}

/// Appends a `u32` length prefix followed by each value's IEEE bits.
pub fn put_f32s(out: &mut Vec<u8>, vs: &[f32]) {
    put_u32(out, vs.len() as u32);
    for &v in vs {
        put_f32(out, v);
    }
}

/// Appends a `u32` length prefix followed by the values.
pub fn put_u32s(out: &mut Vec<u8>, vs: &[u32]) {
    put_u32(out, vs.len() as u32);
    for &v in vs {
        put_u32(out, v);
    }
}

/// Appends a `u16` length prefix followed by the UTF-8 bytes.
///
/// # Panics
///
/// Panics if `s` is longer than `u16::MAX` bytes; wire strings are short
/// identifiers (method names, error messages are truncated by callers).
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    assert!(s.len() <= u16::MAX as usize, "wire string too long");
    put_u16(out, s.len() as u16);
    out.extend_from_slice(s.as_bytes());
}

// ---------------------------------------------------------------------------
// Reader: bounds-checked cursor over a received buffer.
// ---------------------------------------------------------------------------

/// A bounds-checked little-endian cursor over a received byte buffer.
///
/// Every getter checks the remaining length first and returns
/// [`WireDecodeError::Truncated`] instead of panicking; length-prefixed
/// getters additionally verify the prefix against the remaining bytes
/// *before* allocating.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader over the whole buffer.
    pub fn new(buf: &'a [u8]) -> WireReader<'a> {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireDecodeError> {
        if self.remaining() < n {
            return Err(WireDecodeError::Truncated {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, WireDecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireDecodeError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireDecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireDecodeError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Reads an `f32` from its IEEE bits.
    pub fn f32(&mut self) -> Result<f32, WireDecodeError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Reads a `bool`; any byte other than `0`/`1` is invalid.
    pub fn bool(&mut self) -> Result<bool, WireDecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireDecodeError::Invalid("bool byte")),
        }
    }

    /// Reads an optional `u64` written by [`put_opt_u64`].
    pub fn opt_u64(&mut self) -> Result<Option<u64>, WireDecodeError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            _ => Err(WireDecodeError::Invalid("option tag")),
        }
    }

    /// Reads a `u32`-prefixed `f32` vector, validating the prefix against
    /// the remaining bytes before allocating.
    pub fn f32s(&mut self) -> Result<Vec<f32>, WireDecodeError> {
        let n = self.u32()? as usize;
        let needed = n.checked_mul(4).ok_or(WireDecodeError::Invalid(
            "f32 vector length overflows usize",
        ))?;
        if self.remaining() < needed {
            return Err(WireDecodeError::Truncated {
                needed,
                remaining: self.remaining(),
            });
        }
        (0..n).map(|_| self.f32()).collect()
    }

    /// Reads a `u32`-prefixed `u32` vector, validating the prefix first.
    pub fn u32s(&mut self) -> Result<Vec<u32>, WireDecodeError> {
        let n = self.u32()? as usize;
        let needed = n.checked_mul(4).ok_or(WireDecodeError::Invalid(
            "u32 vector length overflows usize",
        ))?;
        if self.remaining() < needed {
            return Err(WireDecodeError::Truncated {
                needed,
                remaining: self.remaining(),
            });
        }
        (0..n).map(|_| self.u32()).collect()
    }

    /// Reads a `u16`-prefixed UTF-8 string written by [`put_str`].
    pub fn str(&mut self) -> Result<String, WireDecodeError> {
        let n = self.u16()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireDecodeError::Invalid("string is not UTF-8"))
    }

    /// Asserts the buffer is fully consumed (a layout-drift tripwire).
    pub fn expect_end(&self) -> Result<(), WireDecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireDecodeError::TrailingBytes(self.remaining()))
        }
    }
}

// ---------------------------------------------------------------------------
// Codecs for core vocabulary.
// ---------------------------------------------------------------------------

/// The serialisable subset of [`ExplainControl`]: what a *remote* caller can
/// ask for. The process-local parts (the cancel flag, the cached flow
/// index) are attached server-side; the deadline crosses the wire as a
/// relative budget because `Instant`s are meaningless across machines.
///
/// [`ExplainControl`]: crate::ExplainControl
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlSpec {
    /// Per-request latency budget in milliseconds (`None` = the server's
    /// default deadline).
    pub deadline_ms: Option<u64>,
    /// Flow-enumeration cap; oversized instances are shrunk (and the drop
    /// reported via [`Degradation::flows_dropped`]) when
    /// `shrink_on_overflow` is set.
    pub max_flows: u64,
    /// Degrade oversized instances instead of failing them.
    pub shrink_on_overflow: bool,
    /// Capture a structured execution trace for this request. The server
    /// attaches a ring-buffer collector to the job and stores the finished
    /// trace for later retrieval by trace ID; untraced requests pay only the
    /// runtime's always-on phase metrics.
    pub trace: bool,
    /// Ask the server to seed the mask optimisation from its persistent
    /// store (the newest converged mask for the same model/graph/target/L
    /// key, guarded by a model fingerprint). Off by default: a cold run is
    /// bit-identical to one against a server without a store.
    pub warm_start: bool,
}

impl Default for ControlSpec {
    fn default() -> Self {
        ControlSpec {
            deadline_ms: None,
            max_flows: 100_000,
            shrink_on_overflow: true,
            trace: false,
            warm_start: false,
        }
    }
}

impl ControlSpec {
    /// Appends the spec to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_opt_u64(out, self.deadline_ms);
        put_u64(out, self.max_flows);
        put_bool(out, self.shrink_on_overflow);
        put_bool(out, self.trace);
        put_bool(out, self.warm_start);
    }

    /// Reads a spec written by [`ControlSpec::encode`].
    pub fn decode(r: &mut WireReader<'_>) -> Result<ControlSpec, WireDecodeError> {
        Ok(ControlSpec {
            deadline_ms: r.opt_u64()?,
            max_flows: r.u64()?,
            shrink_on_overflow: r.bool()?,
            trace: r.bool()?,
            warm_start: r.bool()?,
        })
    }
}

impl Degradation {
    /// Appends the degradation record to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_bool(out, self.deadline_hit);
        put_u64(out, self.epochs_run as u64);
        put_u64(out, self.epochs_planned as u64);
        put_u64(out, self.flows_dropped);
    }

    /// Reads a record written by [`Degradation::encode`].
    pub fn decode(r: &mut WireReader<'_>) -> Result<Degradation, WireDecodeError> {
        Ok(Degradation {
            deadline_hit: r.bool()?,
            epochs_run: r.u64()? as usize,
            epochs_planned: r.u64()? as usize,
            flows_dropped: r.u64()?,
        })
    }
}

/// Appends a score vector (importance scores are just `f32`s, but the named
/// helper keeps call sites self-describing).
pub fn put_scores(out: &mut Vec<u8>, scores: &[f32]) {
    put_f32s(out, scores);
}

/// Reads a score vector written by [`put_scores`].
pub fn read_scores(r: &mut WireReader<'_>) -> Result<Vec<f32>, WireDecodeError> {
    r.f32s()
}

/// Appends a `u32` count followed by each list as [`put_f32s`] writes it
/// (parameter tensors, per-layer scores).
pub fn put_f32_lists(out: &mut Vec<u8>, lists: &[Vec<f32>]) {
    put_u32(out, lists.len() as u32);
    for list in lists {
        put_f32s(out, list);
    }
}

/// Reads a list sequence written by [`put_f32_lists`], bounding the count
/// by the bytes actually present (each list needs at least its own 4-byte
/// length prefix) before any allocation.
pub fn read_f32_lists(r: &mut WireReader<'_>) -> Result<Vec<Vec<f32>>, WireDecodeError> {
    let n = r.u32()? as usize;
    let floor = n
        .checked_mul(4)
        .ok_or(WireDecodeError::Invalid("list count overflows usize"))?;
    if r.remaining() < floor {
        return Err(WireDecodeError::Truncated {
            needed: floor,
            remaining: r.remaining(),
        });
    }
    (0..n).map(|_| r.f32s()).collect()
}

/// Appends `Some(lists)` as `1` + [`put_f32_lists`], `None` as `0`.
pub fn put_opt_f32_lists(out: &mut Vec<u8>, lists: Option<&[Vec<f32>]>) {
    match lists {
        Some(lists) => {
            put_bool(out, true);
            put_f32_lists(out, lists);
        }
        None => put_bool(out, false),
    }
}

/// Reads an optional list sequence written by [`put_opt_f32_lists`].
pub fn read_opt_f32_lists(
    r: &mut WireReader<'_>,
) -> Result<Option<Vec<Vec<f32>>>, WireDecodeError> {
    Ok(if r.bool()? {
        Some(read_f32_lists(r)?)
    } else {
        None
    })
}

/// Appends `Some(vs)` as `1` + [`put_f32s`], `None` as `0`.
pub fn put_opt_f32s(out: &mut Vec<u8>, vs: Option<&[f32]>) {
    match vs {
        Some(vs) => {
            put_bool(out, true);
            put_f32s(out, vs);
        }
        None => put_bool(out, false),
    }
}

/// Reads an optional vector written by [`put_opt_f32s`].
pub fn read_opt_f32s(r: &mut WireReader<'_>) -> Result<Option<Vec<f32>>, WireDecodeError> {
    Ok(if r.bool()? { Some(r.f32s()?) } else { None })
}

/// Appends a [`Target`]: tag `0` for the whole graph, tag `1` + the node
/// index as a `u64`.
pub fn put_target(out: &mut Vec<u8>, target: Target) {
    match target {
        Target::Graph => put_u8(out, 0),
        Target::Node(n) => {
            put_u8(out, 1);
            put_u64(out, n as u64);
        }
    }
}

/// Reads a target written by [`put_target`].
pub fn read_target(r: &mut WireReader<'_>) -> Result<Target, WireDecodeError> {
    match r.u8()? {
        0 => Ok(Target::Graph),
        1 => Ok(Target::Node(r.u64()? as usize)),
        _ => Err(WireDecodeError::Invalid("target tag")),
    }
}

/// The one-byte tag [`put_gnn_config`] writes for a [`GnnKind`].
pub fn gnn_kind_tag(kind: GnnKind) -> u8 {
    match kind {
        GnnKind::Gcn => 0,
        GnnKind::Gin => 1,
        GnnKind::Gat => 2,
    }
}

/// The one-byte tag [`put_gnn_config`] writes for a [`Task`].
pub fn task_tag(task: Task) -> u8 {
    match task {
        Task::NodeClassification => 0,
        Task::GraphClassification => 1,
    }
}

/// Appends a [`GnnConfig`]: kind and task tags, the five dimensions as
/// `u32`s, then the seed.
pub fn put_gnn_config(out: &mut Vec<u8>, c: &GnnConfig) {
    put_u8(out, gnn_kind_tag(c.kind));
    put_u8(out, task_tag(c.task));
    put_u32(out, c.in_dim as u32);
    put_u32(out, c.hidden_dim as u32);
    put_u32(out, c.num_classes as u32);
    put_u32(out, c.num_layers as u32);
    put_u32(out, c.heads as u32);
    put_u64(out, c.seed);
}

/// Reads a config written by [`put_gnn_config`].
pub fn read_gnn_config(r: &mut WireReader<'_>) -> Result<GnnConfig, WireDecodeError> {
    let kind = match r.u8()? {
        0 => GnnKind::Gcn,
        1 => GnnKind::Gin,
        2 => GnnKind::Gat,
        _ => return Err(WireDecodeError::Invalid("gnn kind tag")),
    };
    let task = match r.u8()? {
        0 => Task::NodeClassification,
        1 => Task::GraphClassification,
        _ => return Err(WireDecodeError::Invalid("task tag")),
    };
    Ok(GnnConfig {
        kind,
        task,
        in_dim: r.u32()? as usize,
        hidden_dim: r.u32()? as usize,
        num_classes: r.u32()? as usize,
        num_layers: r.u32()? as usize,
        heads: r.u32()? as usize,
        seed: r.u64()?,
    })
}

// ---------------------------------------------------------------------------
// Checksum and stable hashes: pure functions of the bytes, identical across
// processes and platforms, so their values may be persisted.
// ---------------------------------------------------------------------------

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3) of `data`, table-driven with the table built at
/// compile time.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// 64-bit FNV-1a as a streaming [`Hasher`]: feeding bytes in several
/// `write` calls hashes exactly like feeding them in one.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The splitmix64 finalizer: a cheap bijective 64-bit mix whose output
/// bits each depend on every input bit.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u16(&mut buf, 513);
        put_u32(&mut buf, 70_000);
        put_u64(&mut buf, u64::MAX - 1);
        put_f32(&mut buf, -0.0);
        put_bool(&mut buf, true);
        put_opt_u64(&mut buf, None);
        put_opt_u64(&mut buf, Some(42));
        put_str(&mut buf, "REVELIO");
        let mut r = WireReader::new(&buf);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u16(), Ok(513));
        assert_eq!(r.u32(), Ok(70_000));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.f32().map(f32::to_bits), Ok((-0.0f32).to_bits()));
        assert_eq!(r.bool(), Ok(true));
        assert_eq!(r.opt_u64(), Ok(None));
        assert_eq!(r.opt_u64(), Ok(Some(42)));
        assert_eq!(r.str().as_deref(), Ok("REVELIO"));
        assert_eq!(r.expect_end(), Ok(()));
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 99);
        let mut r = WireReader::new(&buf[..5]);
        assert!(matches!(
            r.u64(),
            Err(WireDecodeError::Truncated {
                needed: 8,
                remaining: 5
            })
        ));
    }

    #[test]
    fn length_prefix_is_validated_before_allocation() {
        // Claims 2^31 floats but carries none: must fail fast.
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX / 2);
        let mut r = WireReader::new(&buf);
        assert!(matches!(r.f32s(), Err(WireDecodeError::Truncated { .. })));
    }

    #[test]
    fn nan_scores_survive_bit_exact() {
        let weird = f32::from_bits(0x7FC0_0001); // NaN with a payload
        let mut buf = Vec::new();
        put_scores(&mut buf, &[1.5, weird, f32::NEG_INFINITY]);
        let mut r = WireReader::new(&buf);
        let back = read_scores(&mut r).expect("decodes");
        assert_eq!(back.len(), 3);
        assert_eq!(back[0].to_bits(), 1.5f32.to_bits());
        assert_eq!(back[1].to_bits(), weird.to_bits());
        assert_eq!(back[2].to_bits(), f32::NEG_INFINITY.to_bits());
    }

    #[test]
    fn control_spec_and_degradation_round_trip() {
        let spec = ControlSpec {
            deadline_ms: Some(250),
            max_flows: 60_000,
            shrink_on_overflow: false,
            trace: true,
            warm_start: true,
        };
        let mut buf = Vec::new();
        spec.encode(&mut buf);
        let deg = Degradation {
            deadline_hit: true,
            epochs_run: 17,
            epochs_planned: 500,
            flows_dropped: 1234,
        };
        deg.encode(&mut buf);
        let mut r = WireReader::new(&buf);
        assert_eq!(ControlSpec::decode(&mut r), Ok(spec));
        assert_eq!(Degradation::decode(&mut r), Ok(deg));
        assert_eq!(r.expect_end(), Ok(()));
    }

    #[test]
    fn invalid_tags_are_rejected() {
        let mut r = WireReader::new(&[2]);
        assert_eq!(r.bool(), Err(WireDecodeError::Invalid("bool byte")));
        let mut r = WireReader::new(&[9, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(r.opt_u64(), Err(WireDecodeError::Invalid("option tag")));
        let mut r = WireReader::new(&[2, 0, 0xFF, 0xFE]);
        assert_eq!(
            r.str(),
            Err(WireDecodeError::Invalid("string is not UTF-8"))
        );
    }

    #[test]
    fn trailing_bytes_detected() {
        let buf = [1u8, 2, 3];
        let mut r = WireReader::new(&buf);
        let _ = r.u8();
        assert_eq!(r.expect_end(), Err(WireDecodeError::TrailingBytes(2)));
    }
}
