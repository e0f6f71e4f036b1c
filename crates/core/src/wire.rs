//! The wire codec, stated once per message.
//!
//! FractOS Controllers exchange serialized syscalls, Requests and
//! capabilities over RoCE queue pairs. The codec here is a compact
//! little-endian format with two jobs: (1) provide faithful *sizes* so the
//! fabric's traffic accounting and serialization delays reflect what a real
//! deployment would put on the wire, and (2) prove by round-trip tests that
//! the protocol is actually serializable (no in-memory-only shortcuts).
//! A size comes from the same layout run through a sizing [`Encoder`],
//! which counts the bytes it would write and stores none, so accounting a
//! message never builds its encoding.
//!
//! Each layout is declared once, in a `wire!` block: a struct lists its
//! fields in wire order; an enum lists its variants, each with its one-byte
//! tag, and the variant's fields follow the tag in the order listed. The
//! macro generates `encode` and `decode` from that one list, so the two
//! halves cannot drift apart: a missing field or variant does not compile,
//! and a duplicate tag is an unreachable pattern, which CI denies. Building
//! blocks have generic impls: integers, strings and payloads (`u32` length
//! prefix), vectors (`u32` count), `Option` and `Result<_, FosError>` (tag 0
//! for `None`/`Ok`, 1 for `Some`/`Err`). The tag values are frozen
//! protocol: `tests/wire_golden.rs` pins every byte.

use fractos_cap::{CapError, CapRef, Cid, ControllerAddr, Epoch, ObjectId, Perms};
use fractos_net::{Endpoint, Location, NodeId, Payload, TopologyError};
use fractos_sim::TraceCtx;

use crate::types::{
    Arg, CapArg, FosError, IncomingRequest, MemoryDesc, ProcId, RequestDesc, Syscall, SyscallResult,
};
use crate::verify::{PlanPath, PlanStep, VerifyError, VerifyErrorKind};

/// A decoded count pre-allocates at most this many elements, so a hostile
/// count cannot reserve memory the buffer does not back.
const MAX_PREALLOC: usize = 1024;

/// Buffer-writing half of the codec.
///
/// A [`sizing`](Encoder::sizing) encoder runs the same layout but only
/// counts the bytes it would write, so a size costs no buffer.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
    /// Bytes a sizing encoder has counted; `None` when writing `buf`.
    counted: Option<usize>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// Creates an encoder that counts bytes and stores none: its
    /// [`len`](Encoder::len) is the encoded size and
    /// [`finish`](Encoder::finish) returns no bytes.
    pub fn sizing() -> Self {
        Encoder {
            buf: Vec::new(),
            counted: Some(0),
        }
    }

    /// Consumes the encoder, returning the bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written (or counted) so far.
    pub fn len(&self) -> usize {
        self.counted.unwrap_or(self.buf.len())
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn put(&mut self, v: &[u8]) {
        match &mut self.counted {
            Some(n) => *n += v.len(),
            None => self.buf.extend_from_slice(v),
        }
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.put(&[v]);
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }

    /// Appends a `u32` length or element count.
    #[expect(
        clippy::expect_used,
        reason = "encoded lengths bounded by u32 by the message size model"
    )]
    fn count(&mut self, n: usize) {
        self.u32(u32::try_from(n).expect("length exceeds the u32 wire count"));
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.count(v.len());
        self.put(v);
    }
}

/// Buffer-reading half of the codec.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// Errors raised while decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the value was complete.
    Truncated,
    /// An enum discriminant had no known meaning.
    BadTag(u8),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// Trailing bytes remained after the top-level value.
    TrailingBytes,
}

impl core::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated message"),
            DecodeError::BadTag(t) => write!(f, "unknown discriminant {t}"),
            DecodeError::BadUtf8 => write!(f, "invalid UTF-8 in string field"),
            DecodeError::TrailingBytes => write!(f, "trailing bytes after message"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl<'a> Decoder<'a> {
    /// Creates a decoder over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Whether all bytes have been consumed.
    pub fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.slice(N)?);
        Ok(out)
    }

    fn slice(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.pos + n > self.buf.len() {
            return Err(DecodeError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take::<1>()?[0])
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take()?))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take()?))
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let n = self.u32()? as usize;
        self.slice(n)
    }
}

/// Types that can be written to and read from the wire.
pub trait Wire: Sized {
    /// Serializes `self` into the encoder.
    fn encode(&self, e: &mut Encoder);
    /// Deserializes a value.
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError>;

    /// Serialized size in bytes, counted by a sizing encoder.
    fn wire_size(&self) -> u64 {
        let mut e = Encoder::sizing();
        self.encode(&mut e);
        e.len() as u64
    }

    /// Serializes to a fresh buffer, allocated once at the counted size.
    fn to_bytes(&self) -> Vec<u8> {
        let mut e = Encoder {
            buf: Vec::with_capacity(self.wire_size() as usize),
            counted: None,
        };
        self.encode(&mut e);
        e.finish()
    }

    /// Deserializes from a complete buffer, rejecting trailing bytes.
    fn from_bytes(buf: &[u8]) -> Result<Self, DecodeError> {
        let mut d = Decoder::new(buf);
        let v = Self::decode(&mut d)?;
        if d.is_done() {
            Ok(v)
        } else {
            Err(DecodeError::TrailingBytes)
        }
    }
}

/// Declares wire layouts and generates their [`Wire`] impls.
///
/// `struct Name { a, b }` encodes the named fields in the order listed
/// (`{ 0 }` for a newtype). `enum Name { V = 0, W(x) = 1, X { a, b } = 2 }`
/// writes the variant's tag, then its fields in the order listed; decoding
/// rejects an unknown tag before reading anything after it.
macro_rules! wire {
    () => {};
    (struct $ty:ident { $($f:tt),* } $($rest:tt)*) => {
        impl $crate::wire::Wire for $ty {
            fn encode(&self, e: &mut $crate::wire::Encoder) {
                $( $crate::wire::Wire::encode(&self.$f, e); )*
            }
            fn decode(
                d: &mut $crate::wire::Decoder<'_>,
            ) -> Result<Self, $crate::wire::DecodeError> {
                Ok(Self { $( $f: $crate::wire::Wire::decode(d)? ),* })
            }
        }
        $crate::wire::wire!($($rest)*);
    };
    (enum $ty:ident {
        $( $v:ident $(( $($tf:ident),* ))? $({ $($sf:ident),* })? = $tag:literal ),* $(,)?
    } $($rest:tt)*) => {
        impl $crate::wire::Wire for $ty {
            fn encode(&self, e: &mut $crate::wire::Encoder) {
                match self {
                    $( Self::$v $(( $($tf),* ))? $({ $($sf),* })? => {
                        e.u8($tag);
                        $($( $crate::wire::Wire::encode($tf, e); )*)?
                        $($( $crate::wire::Wire::encode($sf, e); )*)?
                    } )*
                }
            }
            fn decode(
                d: &mut $crate::wire::Decoder<'_>,
            ) -> Result<Self, $crate::wire::DecodeError> {
                Ok(match d.u8()? {
                    $( $tag => {
                        $($( let $tf = $crate::wire::Wire::decode(d)?; )*)?
                        $($( let $sf = $crate::wire::Wire::decode(d)?; )*)?
                        Self::$v $(( $($tf),* ))? $({ $($sf),* })?
                    } )*
                    t => return Err($crate::wire::DecodeError::BadTag(t)),
                })
            }
        }
        $crate::wire::wire!($($rest)*);
    };
}
pub(crate) use wire;

macro_rules! int_wire {
    ($($t:ident),*) => {$(
        impl Wire for $t {
            fn encode(&self, e: &mut Encoder) {
                e.$t(*self);
            }
            fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
                d.$t()
            }
        }
    )*};
}
int_wire!(u8, u32, u64);

impl Wire for () {
    fn encode(&self, _: &mut Encoder) {}
    fn decode(_: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(())
    }
}

impl Wire for String {
    fn encode(&self, e: &mut Encoder) {
        e.bytes(self.as_bytes());
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        String::from_utf8(d.bytes()?.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }
}

impl Wire for Payload {
    fn encode(&self, e: &mut Encoder) {
        e.bytes(self);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(d.bytes()?.into())
    }
}

impl Wire for Perms {
    fn encode(&self, e: &mut Encoder) {
        e.u8(self.bits());
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Perms::from_bits(d.u8()?))
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, e: &mut Encoder) {
        e.count(self.len());
        for x in self {
            x.encode(e);
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let n = d.u32()? as usize;
        let mut v = Vec::with_capacity(n.min(MAX_PREALLOC));
        for _ in 0..n {
            v.push(T::decode(d)?);
        }
        Ok(v)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, e: &mut Encoder) {
        match self {
            None => e.u8(0),
            Some(x) => {
                e.u8(1);
                x.encode(e);
            }
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match d.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(d)?)),
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

impl<T: Wire> Wire for Result<T, FosError> {
    fn encode(&self, e: &mut Encoder) {
        match self {
            Ok(x) => {
                e.u8(0);
                x.encode(e);
            }
            Err(err) => {
                e.u8(1);
                err.encode(e);
            }
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match d.u8()? {
            0 => Ok(Ok(T::decode(d)?)),
            1 => Ok(Err(FosError::decode(d)?)),
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

wire! {
    struct Cid { 0 }
    struct ControllerAddr { 0 }
    struct Epoch { 0 }
    struct ObjectId { 0 }
    struct ProcId { 0 }
    struct NodeId { 0 }
    struct CapRef { ctrl, epoch, object }
    struct Endpoint { node, loc }
    enum Location { HostCpu = 0, SmartNic = 1, Gpu(n) = 2, Nvme(n) = 3 }
    struct MemoryDesc { proc, location, addr, view_off, size, perms }
    struct CapArg { cap, mem }
    enum Arg { Imm(b) = 0, Cap(c) = 1 }
    struct RequestDesc { provider, tag, args }
    struct IncomingRequest { tag, imms, caps }
    enum Syscall {
        Null = 0,
        MemoryCreate { addr, size, perms } = 1,
        MemoryDiminish { cid, offset, size, drop_perms } = 2,
        MemoryCopy { src, dst } = 3,
        RequestCreate { base, tag, imms, caps } = 4,
        RequestInvoke { cid } = 5,
        CapCreateRevtree { cid } = 6,
        CapRevoke { cid } = 7,
        MonitorDelegate { cid, callback_id } = 8,
        MonitorReceive { cid, callback_id } = 9,
        KvPut { key, cid } = 10,
        KvGet { key } = 11,
        MemoryStat { cid } = 12,
    }
    enum SyscallResult {
        Ok = 0,
        NewCid(cid) = 1,
        Err(err) = 2,
        Value(v) = 3,
        Stat { addr, off, size } = 4,
    }
    enum FosError {
        Cap(c) = 0,
        WrongObjectKind = 1,
        OutOfBounds = 2,
        PermissionDenied = 3,
        SizeMismatch = 4,
        NoSuchKey = 5,
        ControllerUnreachable = 6,
        ProcessFailed = 7,
        Topology(t) = 8,
        WindowInvalid = 9,
        IntegrityViolation = 10,
        Verify(v) = 11,
    }
    struct VerifyError { kind, path }
    struct PlanPath { 0 }
    struct PlanStep { object, arg }
    // Trace-context header extension: 16 bytes (trace id, parent span id).
    // Carried *out of band* next to the message header — analogous to an
    // RDMA immediate or an optional header TLV — so it is deliberately
    // excluded from every `wire_size` used for traffic accounting: per-link
    // byte counters are identical whether or not span recording is enabled.
    // The codec pins the format for a real deployment.
    struct TraceCtx { trace, span }
}

// `FosError`'s payloads are the irregular, frozen part of the format, so
// they keep hand-written codecs.

/// A capability sub-error: its code, then a `u64` that is always present
/// (the object id; a `Cid` widened; 0 when the variant carries nothing).
impl Wire for CapError {
    fn encode(&self, e: &mut Encoder) {
        let (code, obj) = match *self {
            CapError::NoSuchObject(o) => (0, o.0),
            CapError::Revoked(o) => (1, o.0),
            CapError::StaleEpoch(o) => (2, o.0),
            CapError::BadCid(c) => (3, u64::from(c.0)),
            CapError::SpaceExhausted => (4, 0),
            CapError::PermissionDenied => (5, 0),
            CapError::HasChildren(o) => (6, o.0),
            CapError::AlreadyMonitored(o) => (7, o.0),
        };
        e.u8(code);
        e.u64(obj);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let make: fn(u64) -> CapError = match d.u8()? {
            0 => |o| CapError::NoSuchObject(ObjectId(o)),
            1 => |o| CapError::Revoked(ObjectId(o)),
            2 => |o| CapError::StaleEpoch(ObjectId(o)),
            3 => |o| CapError::BadCid(Cid(o as u32)),
            4 => |_| CapError::SpaceExhausted,
            5 => |_| CapError::PermissionDenied,
            6 => |o| CapError::HasChildren(ObjectId(o)),
            7 => |o| CapError::AlreadyMonitored(ObjectId(o)),
            t => return Err(DecodeError::BadTag(t)),
        };
        Ok(make(d.u64()?))
    }
}

/// A topology rejection is its `FosError` tag alone: the node does not
/// travel, so every one decodes as `UnknownNode(NodeId(0))`.
impl Wire for TopologyError {
    fn encode(&self, _: &mut Encoder) {}
    fn decode(_: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(TopologyError::UnknownNode(NodeId(0)))
    }
}

/// A verifier rejection's kind packs into two bytes: its code, then the
/// missing permissions (0 for every kind but `MissingPerm`).
impl Wire for VerifyErrorKind {
    fn encode(&self, e: &mut Encoder) {
        use VerifyErrorKind as K;
        let (code, perms) = match *self {
            K::DanglingCap => (0, Perms::NONE),
            K::RevokedCap => (1, Perms::NONE),
            K::StaleEpoch => (2, Perms::NONE),
            K::CyclicContinuation => (3, Perms::NONE),
            K::PrivilegeEscalation => (4, Perms::NONE),
            K::RefinementViolation => (5, Perms::NONE),
            K::MissingPerm(p) => (6, p),
            K::WrongObjectKind => (7, Perms::NONE),
        };
        e.u8(code);
        perms.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        use VerifyErrorKind as K;
        let make: fn(Perms) -> K = match d.u8()? {
            0 => |_| K::DanglingCap,
            1 => |_| K::RevokedCap,
            2 => |_| K::StaleEpoch,
            3 => |_| K::CyclicContinuation,
            4 => |_| K::PrivilegeEscalation,
            5 => |_| K::RefinementViolation,
            6 => K::MissingPerm,
            7 => |_| K::WrongObjectKind,
            t => return Err(DecodeError::BadTag(t)),
        };
        Ok(make(Perms::decode(d)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + core::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        let back = T::from_bytes(&bytes).expect("decode");
        assert_eq!(v, back);
        assert_eq!(v.wire_size(), bytes.len() as u64);
    }

    #[test]
    fn caprefs_roundtrip() {
        roundtrip(CapRef {
            ctrl: ControllerAddr(3),
            epoch: Epoch(17),
            object: ObjectId(u64::MAX),
        });
    }

    #[test]
    fn trace_ctx_roundtrips_at_fixed_size() {
        roundtrip(fractos_sim::TraceCtx::NONE);
        let ctx = fractos_sim::TraceCtx {
            trace: 0xDEAD_BEEF_0BAD_F00D,
            span: u64::MAX,
        };
        roundtrip(ctx);
        assert_eq!(ctx.wire_size(), 16);
    }

    #[test]
    fn endpoints_roundtrip() {
        for ep in [
            Endpoint::cpu(NodeId(0)),
            Endpoint::snic(NodeId(1)),
            Endpoint::new(NodeId(2), Location::Gpu(3)),
            Endpoint::new(NodeId(2), Location::Nvme(1)),
        ] {
            roundtrip(ep);
        }
    }

    #[test]
    fn syscalls_roundtrip() {
        let all = vec![
            Syscall::Null,
            Syscall::MemoryCreate {
                addr: 0x1000,
                size: 4096,
                perms: Perms::RW,
            },
            Syscall::MemoryDiminish {
                cid: Cid(4),
                offset: 8,
                size: 16,
                drop_perms: Perms::WRITE,
            },
            Syscall::MemoryCopy {
                src: Cid(1),
                dst: Cid(2),
            },
            Syscall::RequestCreate {
                base: Some(Cid(9)),
                tag: 77,
                imms: vec![vec![1, 2, 3].into(), fractos_net::Payload::empty()],
                caps: vec![Cid(1), Cid(5)],
            },
            Syscall::RequestInvoke { cid: Cid(0) },
            Syscall::CapCreateRevtree { cid: Cid(2) },
            Syscall::CapRevoke { cid: Cid(3) },
            Syscall::MonitorDelegate {
                cid: Cid(1),
                callback_id: 123,
            },
            Syscall::MonitorReceive {
                cid: Cid(1),
                callback_id: 456,
            },
            Syscall::KvPut {
                key: "gpu.init".into(),
                cid: Cid(7),
            },
            Syscall::KvGet {
                key: "fs.open".into(),
            },
        ];
        for sc in all {
            roundtrip(sc);
        }
    }

    #[test]
    fn results_roundtrip() {
        roundtrip(SyscallResult::Ok);
        roundtrip(SyscallResult::NewCid(Cid(12)));
        roundtrip(SyscallResult::Err(FosError::NoSuchKey));
        roundtrip(SyscallResult::Err(FosError::Cap(
            fractos_cap::CapError::Revoked(ObjectId(4)),
        )));
    }

    #[test]
    fn request_desc_roundtrips_with_mixed_args() {
        roundtrip(RequestDesc {
            provider: ProcId(2),
            tag: 5,
            args: vec![
                Arg::Imm(vec![0xca, 0xfe].into()),
                Arg::Cap(CapArg {
                    cap: CapRef {
                        ctrl: ControllerAddr(1),
                        epoch: Epoch(0),
                        object: ObjectId(8),
                    },
                    mem: Some(MemoryDesc {
                        proc: ProcId(3),
                        location: Endpoint::gpu(NodeId(1)),
                        addr: 64,
                        view_off: 32,
                        size: 128,
                        perms: Perms::READ,
                    }),
                }),
            ],
        });
    }

    #[test]
    fn incoming_request_roundtrips() {
        roundtrip(IncomingRequest {
            tag: 9,
            imms: vec![vec![1].into(), vec![2, 3].into()],
            caps: vec![Cid(0), Cid(4)],
        });
    }

    #[test]
    fn sizing_encoder_counts_and_stores_nothing() {
        let sc = Syscall::RequestCreate {
            base: None,
            tag: 3,
            imms: vec![vec![7; 5000].into()],
            caps: vec![Cid(1)],
        };
        let mut e = Encoder::sizing();
        sc.encode(&mut e);
        assert_eq!(e.len(), sc.to_bytes().len());
        assert!(e.finish().is_empty());
    }

    #[test]
    fn truncated_buffers_error() {
        let bytes = Syscall::KvGet { key: "abc".into() }.to_bytes();
        for cut in 0..bytes.len() {
            assert!(Syscall::from_bytes(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = SyscallResult::Ok.to_bytes();
        bytes.push(0);
        assert_eq!(
            SyscallResult::from_bytes(&bytes),
            Err(DecodeError::TrailingBytes)
        );
    }

    #[test]
    fn bad_tags_rejected() {
        assert_eq!(Syscall::from_bytes(&[200]), Err(DecodeError::BadTag(200)));
    }

    #[test]
    fn unknown_tags_rejected_before_the_fields_after_them() {
        use crate::types::MonitorCb;
        assert_eq!(MonitorCb::from_bytes(&[9]), Err(DecodeError::BadTag(9)));
        // Capability sub-code, then verifier kind, each with nothing after.
        assert_eq!(FosError::from_bytes(&[0, 9]), Err(DecodeError::BadTag(9)));
        assert_eq!(FosError::from_bytes(&[11, 9]), Err(DecodeError::BadTag(9)));
    }
}
