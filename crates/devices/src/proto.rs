//! Shared RPC conventions of the device adaptors.
//!
//! Every device RPC is a FractOS Request. Immediate arguments are 8-byte
//! little-endian integers; capability arguments follow the per-RPC
//! conventions documented on each tag constant. Results travel by the
//! continuation idiom: the caller appends one (or two: success/error)
//! continuation Requests, and the adaptor replies by refining and invoking
//! them (§3.4, §5).

use fractos_core::prelude::Payload;

/// GPU adaptor (§5 "Accelerator Service: GPU"): context initialization.
///
/// Caps: `[continuation]`. Reply caps: `[alloc Request, load Request]` bound
/// to the fresh context.
pub const TAG_GPU_INIT: u64 = 0x0100;

/// GPU memory allocation. Imms (appended by client): `[size]`.
/// Caps: `[continuation]`. Reply caps: `[Memory]` in GPU memory.
pub const TAG_GPU_ALLOC: u64 = 0x0101;

/// GPU kernel load. Imms: `[kernel id]`. Caps: `[continuation]`.
/// Reply caps: `[kernel-invocation Request]`.
pub const TAG_GPU_LOAD: u64 = 0x0102;

/// GPU kernel invocation. Imms: `[kernel id (preset)] ++ kernel params`.
/// Caps: `[input Memory, output Memory, success Request, error Request]`
/// (§5: "the GPU-kernel invocation Requests expect two Request arguments
/// used to signal success/error ... all other immediate arguments are
/// forwarded to the GPU kernel itself").
pub const TAG_GPU_INVOKE: u64 = 0x0103;

/// GPU context teardown. Imms: `[context id (preset)]`.
pub const TAG_GPU_FINI: u64 = 0x0104;

/// Block-device adaptor (§5 "Storage Stack"): create a logical volume.
/// Imms: `[size]`. Caps: `[continuation]`. Reply caps:
/// `[read Request, write Request]` bound to the volume.
pub const TAG_BLK_CREATE_VOL: u64 = 0x0200;

/// Volume read. Imms: `[volume (preset), offset, size]`.
/// Caps: `[destination Memory, success Request, error Request]`.
pub const TAG_BLK_READ: u64 = 0x0201;

/// Volume write. Imms: `[volume (preset), offset, size]`.
/// Caps: `[source Memory, success Request, error Request]`.
pub const TAG_BLK_WRITE: u64 = 0x0202;

/// Typed error codes carried in the first appended immediate of a device
/// adaptor's error-continuation reply (§3.6: adaptors translate device
/// failures into typed error invocations the caller can act on).
///
/// The discriminant is the wire code: `DevError::Media as u64` is what
/// `imm_at(&req.imms, N)` yields at the error continuation. The values are
/// frozen protocol; 0 is never a code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
pub enum DevError {
    /// The request was malformed: wrong capability count or undecodable
    /// immediates. Not recoverable by retrying the same request.
    BadRequest = 1,
    /// The transfer exceeds the adaptor's staging capacity.
    TooLarge = 2,
    /// The volume/offset/size triple falls outside the volume, or the
    /// context/volume does not exist.
    Bounds = 3,
    /// A `memory_copy` leg of the operation failed (revoked window,
    /// unreachable peer, or an integrity-envelope mismatch in flight).
    /// Recoverable when the cause is transient.
    Transfer = 4,
    /// The requested GPU kernel is not loaded.
    NoKernel = 5,
    /// A GPU input/output buffer capability failed to stat or read.
    BadBuffer = 6,
    /// An injected (or real) NVMe media error. Recoverable: the adaptor's
    /// caller may re-issue the read/write.
    Media = 7,
    /// A GPU kernel launch failure. Recoverable by relaunching.
    Launch = 8,
    /// The payload failed its integrity envelope at a consumption
    /// boundary (torn write, corrupted output). Recoverable: re-running
    /// the producing operation re-stamps the envelope.
    Integrity = 9,
}

impl DevError {
    /// Every error, in code order.
    const ALL: [DevError; 9] = [
        DevError::BadRequest,
        DevError::TooLarge,
        DevError::Bounds,
        DevError::Transfer,
        DevError::NoKernel,
        DevError::BadBuffer,
        DevError::Media,
        DevError::Launch,
        DevError::Integrity,
    ];

    /// The wire code of this error.
    pub fn code(self) -> u64 {
        self as u64
    }

    /// The immediate encoding of this error.
    pub fn imm(self) -> Payload {
        imm(self.code())
    }

    /// Decodes a wire code.
    pub fn from_code(code: u64) -> Option<Self> {
        Self::ALL.into_iter().find(|e| e.code() == code)
    }

    /// Whether re-issuing the same operation can plausibly succeed
    /// (transient device/transfer faults, as opposed to malformed or
    /// out-of-bounds requests, which fail identically every time).
    pub fn is_recoverable(self) -> bool {
        matches!(
            self,
            DevError::Transfer | DevError::Media | DevError::Launch | DevError::Integrity
        )
    }
}

/// Encodes an integer immediate.
pub fn imm(v: u64) -> Payload {
    Payload::from(v.to_le_bytes())
}

/// Decodes the `i`-th immediate as an integer, if present and well-formed.
pub fn imm_at(imms: &[Payload], i: usize) -> Option<u64> {
    imms.get(i)
        .and_then(|b| <[u8; 8]>::try_from(b.as_slice()).ok())
        .map(u64::from_le_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imm_roundtrip() {
        let imms = vec![imm(7), imm(u64::MAX), vec![1, 2].into()];
        assert_eq!(imm_at(&imms, 0), Some(7));
        assert_eq!(imm_at(&imms, 1), Some(u64::MAX));
        assert_eq!(imm_at(&imms, 2), None, "short immediates rejected");
        assert_eq!(imm_at(&imms, 3), None);
    }

    #[test]
    fn dev_error_codes_roundtrip() {
        for (e, code) in DevError::ALL.into_iter().zip(1..) {
            assert_eq!(e.code(), code, "{e:?}: codes are frozen, dense from 1");
            assert_eq!(DevError::from_code(e.code()), Some(e));
            assert_eq!(imm_at(&[e.imm()], 0), Some(e.code()));
        }
        assert_eq!(DevError::Integrity.code(), 9, "documented anchor");
        assert_eq!(DevError::from_code(0), None);
        assert_eq!(DevError::from_code(10), None);
        assert_eq!(DevError::from_code(99), None);
        assert!(DevError::Media.is_recoverable());
        assert!(!DevError::Bounds.is_recoverable());
    }
}
