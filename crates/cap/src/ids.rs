//! Identifier types for the distributed capability system.
//!
//! A capability in FractOS is *owner-centric*: it names the Controller an
//! object is registered with, the Controller's reboot epoch at grant time,
//! and the object's id within that Controller (§3.5). Processes never hold
//! these references directly — they index into a per-Process capability
//! space via small integers ([`Cid`]), like POSIX file descriptors.

use core::fmt;

/// The unique network address of a Controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ControllerAddr(pub u32);

impl fmt::Display for ControllerAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ctrl{}", self.0)
    }
}

/// A Controller's reboot counter (monotonically increasing, §3.6).
///
/// Stored inside every capability; comparing it against the live
/// Controller's epoch detects capabilities that survived a Controller
/// failure ("simple form of Lamport timestamps on capabilities").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Epoch(pub u64);

impl Epoch {
    /// The next epoch after a reboot.
    pub fn next(self) -> Epoch {
        Epoch(self.0 + 1)
    }
}

/// An object id, unique within one Controller (never reused).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u64);

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj{}", self.0)
    }
}

/// A global, unforgeable reference to a FractOS object.
///
/// This is what Controllers exchange when delegating; Processes only ever
/// see [`Cid`] indices that map to these internally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CapRef {
    /// The Controller the object is registered with (its owner).
    pub ctrl: ControllerAddr,
    /// The owner Controller's epoch when the capability was minted.
    pub epoch: Epoch,
    /// The object within the owner Controller.
    pub object: ObjectId,
}

/// A bare reference is its own capability-space slot.
impl AsRef<CapRef> for CapRef {
    fn as_ref(&self) -> &CapRef {
        self
    }
}

impl fmt::Display for CapRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@e{}/{}", self.ctrl, self.epoch.0, self.object)
    }
}

/// An index into a Process's capability space (the `cid` of Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cid(pub u32);

impl fmt::Display for Cid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cid{}", self.0)
    }
}

/// Opaque token identifying a Process to the capability layer.
///
/// The OS layer maps these to its own Process identities; the capability
/// crate only needs equality (to route monitor callbacks and to revoke a
/// failed Process's objects).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessToken(pub u64);

impl fmt::Display for ProcessToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "proc{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_advances() {
        assert_eq!(Epoch(0).next(), Epoch(1));
        assert!(Epoch(1) > Epoch(0));
    }

    #[test]
    fn display_formats() {
        let r = CapRef {
            ctrl: ControllerAddr(2),
            epoch: Epoch(1),
            object: ObjectId(7),
        };
        assert_eq!(r.to_string(), "ctrl2@e1/obj7");
        assert_eq!(Cid(3).to_string(), "cid3");
        assert_eq!(ProcessToken(9).to_string(), "proc9");
    }
}
