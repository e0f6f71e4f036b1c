//! Property tests for the integrity envelope's bookkeeping and for the
//! one-copy data plane:
//!
//! - after any sequence of stamps and forgets, [`ExtentSums`] holds the
//!   same stamps and gives the same `verify` answers as the rule it
//!   replaced, which scanned every stamp of the object and dropped the
//!   overlapping ones (kept below as the oracle);
//! - on any windows, [`MemoryStore::copy_window`] leaves the same bytes
//!   and returns the same result, error included, as an
//!   `rdma_read_window` of the source followed by an `rdma_write_window`
//!   of its bytes to the destination — also when the source or the
//!   destination region was never written, and so has no bytes yet.
//!
//! Tier-1 runs the default 64 cases per property; CI's long run sets
//! `PROPTEST_CASES=4096`.

use std::collections::BTreeMap;

use proptest::prelude::*;

use fractos_cap::{CapRef, ControllerAddr, Epoch, ObjectId, Perms};
use fractos_core::types::{FosError, MemoryDesc, ProcId};
use fractos_core::{flip_bit, ExtentSums, MemoryStore};
use fractos_net::{Endpoint, NodeId};

// ---------------------------------------------------------------------------
// ExtentSums against the filter-scan rule
// ---------------------------------------------------------------------------

/// The stamp table as the scan rule kept it, with the stamped bytes in
/// place of their checksum, so its `verify` answers are exact.
#[derive(Debug, Default)]
struct ScanOracle {
    stamps: BTreeMap<(u64, u64), Vec<u8>>,
}

impl ScanOracle {
    fn stamp(&mut self, obj: u64, off: u64, data: &[u8]) {
        let end = off + data.len() as u64;
        let stale: Vec<(u64, u64)> = self
            .stamps
            .range((obj, 0)..(obj, u64::MAX))
            .filter(|(&(_, o), d)| o < end && o + d.len() as u64 > off)
            .map(|(&k, _)| k)
            .collect();
        for k in stale {
            self.stamps.remove(&k);
        }
        self.stamps.insert((obj, off), data.to_vec());
    }

    fn verify(&self, obj: u64, off: u64, data: &[u8]) -> Option<bool> {
        let stamped = self.stamps.get(&(obj, off))?;
        (stamped.len() == data.len()).then(|| stamped[..] == *data)
    }

    fn forget(&mut self, obj: u64) {
        self.stamps.retain(|&(o, _), _| o != obj);
    }
}

#[derive(Debug, Clone)]
enum SumOp {
    Stamp { obj: u64, off: u64, data: Vec<u8> },
    Forget(u64),
}

/// Offsets below this bound; extents are short, so stamps collide often.
const SPAN: u64 = 96;

fn arb_sum_op() -> impl Strategy<Value = SumOp> {
    let stamp = || {
        (
            0u64..3,
            0u64..SPAN,
            prop::collection::vec(any::<u8>(), 0..40),
        )
            .prop_map(|(obj, off, data)| SumOp::Stamp { obj, off, data })
    };
    // Three stamp arms to one forget arm.
    prop_oneof![stamp(), stamp(), stamp(), (0u64..3).prop_map(SumOp::Forget)]
}

proptest! {
    /// Same stamps, same answers, after every step of any sequence.
    #[test]
    fn extent_sums_match_the_scan_rule(ops in prop::collection::vec(arb_sum_op(), 0..48)) {
        let mut sums = ExtentSums::new();
        let mut oracle = ScanOracle::default();
        for (step, op) in ops.iter().enumerate() {
            let probe: &[u8] = match op {
                SumOp::Stamp { obj, off, data } => {
                    sums.stamp(*obj, *off, data);
                    oracle.stamp(*obj, *off, data);
                    data
                }
                SumOp::Forget(obj) => {
                    sums.forget(*obj);
                    oracle.forget(*obj);
                    &[0; 8]
                }
            };
            // Equal counts, and every oracle stamp present with its length:
            // the key sets are equal.
            prop_assert_eq!(sums.len(), oracle.stamps.len(), "step {}: {:?}", step, op);
            for (&(obj, off), stamped) in &oracle.stamps {
                prop_assert_eq!(sums.verify(obj, off, stamped), Some(true), "step {}", step);
                let mut flipped = stamped.clone();
                flip_bit(&mut flipped, obj ^ off);
                prop_assert_eq!(
                    sums.verify(obj, off, &flipped),
                    oracle.verify(obj, off, &flipped),
                    "step {}: flipped stamp ({}, {})", step, obj, off
                );
            }
            for obj in 0..3 {
                for off in 0..SPAN {
                    prop_assert_eq!(
                        sums.verify(obj, off, probe),
                        oracle.verify(obj, off, probe),
                        "step {}: probe ({}, {})", step, obj, off
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// copy_window against the read-then-write pair
// ---------------------------------------------------------------------------

const P1: ProcId = ProcId(1);
const P2: ProcId = ProcId(2);

/// Region owners and sizes; the third window target is a bogus address.
const REGIONS: [(ProcId, u64); 3] = [(P1, 40), (P1, 64), (P2, 48)];

fn cap(n: u64) -> CapRef {
    CapRef {
        ctrl: ControllerAddr(0),
        epoch: Epoch(0),
        object: ObjectId(n),
    }
}

/// One window: `(target, view_off, size, perms bits, registered)`, where a
/// target of `REGIONS.len()` names no region.
type WindowSpec = (usize, u64, u64, u8, bool);

/// One copy: `(src window, dst window, len)`; index `windows.len()` is a
/// capability that was never registered.
type CopySpec = (u64, u64, u64);

#[derive(Debug, Clone)]
struct CopyCase {
    seed: u64,
    /// Bit `i` set: region `i` is filled before the copies; clear: it was
    /// never written.
    written: u8,
    windows: Vec<WindowSpec>,
    copies: Vec<CopySpec>,
}

const WINDOWS: u64 = 4;

fn arb_copy_case() -> impl Strategy<Value = CopyCase> {
    // Biased toward copies that go through: most windows are registered,
    // half of them read-write, and most lengths fit most windows.
    let window = (
        0usize..REGIONS.len() + 1,
        0u64..24,
        0u64..48,
        0u8..8,
        0u8..8,
    )
        .prop_map(|(target, off, size, perms, reg)| {
            (target, off, size, perms.min(Perms::RW.bits()), reg != 0)
        });
    let copy = (0u64..WINDOWS + 1, 0u64..WINDOWS + 1, 0u64..32);
    (
        any::<u64>(),
        0u8..1 << REGIONS.len(),
        prop::collection::vec(window, WINDOWS as usize),
        prop::collection::vec(copy, 1..12),
    )
        .prop_map(|(seed, written, windows, copies)| CopyCase {
            seed,
            written,
            windows,
            copies,
        })
}

/// Builds the store a case starts from, and the base address of each
/// region.
fn build(case: &CopyCase) -> (MemoryStore, Vec<(ProcId, u64, u64)>) {
    let mut m = MemoryStore::new();
    let mut regions = Vec::new();
    for (i, &(proc, size)) in REGIONS.iter().enumerate() {
        let addr = m.alloc(proc, size);
        if case.written & (1 << i) != 0 {
            let fill: Vec<u8> = (0..size)
                .map(|b| (case.seed.rotate_left(8 * i as u32 + b as u32) ^ b) as u8)
                .collect();
            m.write(proc, addr, 0, &fill).unwrap();
        } else {
            assert_eq!(m.read(proc, addr, 0, size).unwrap(), vec![0; size as usize]);
        }
        regions.push((proc, addr, size));
    }
    for (n, &(target, view_off, size, perms, registered)) in case.windows.iter().enumerate() {
        let (proc, addr) = match regions.get(target) {
            Some(&(proc, addr, _)) => (proc, addr),
            None => (P1, regions[0].1 + 8),
        };
        if registered {
            let desc = MemoryDesc {
                proc,
                location: Endpoint::cpu(NodeId(0)),
                addr,
                view_off,
                size,
                perms: Perms::from_bits(perms),
            };
            m.register_window(cap(n as u64), desc);
        }
    }
    (m, regions)
}

proptest! {
    /// Same bytes everywhere and the same result after every copy.
    #[test]
    fn copy_window_matches_read_then_write(case in arb_copy_case()) {
        let (mut one, regions) = build(&case);
        let (mut pair, _) = build(&case);
        for (step, &(src, dst, len)) in case.copies.iter().enumerate() {
            let (src, dst) = (cap(src), cap(dst));
            prop_assert_eq!(
                one.window_slice(src, 0, len).map(<[u8]>::to_vec),
                pair.rdma_read_window(src, 0, len),
                "step {}: window_slice", step
            );
            let moved = one.copy_window(src, dst, len).map(|b| b.to_vec());
            let expected = pair
                .rdma_read_window(src, 0, len)
                .and_then(|data| pair.rdma_write_window(dst, 0, &data).map(|()| data));
            prop_assert_eq!(&moved, &expected, "step {}: {:?}", step, case.copies[step]);
            for &(proc, addr, size) in &regions {
                prop_assert_eq!(
                    one.read(proc, addr, 0, size),
                    pair.read(proc, addr, 0, size),
                    "step {}: region {:?}@{:#x}", step, proc, addr
                );
            }
        }
    }
}

#[test]
fn copy_window_checks_the_source_before_the_destination() {
    let case = CopyCase {
        seed: 7,
        written: 0b111,
        windows: vec![
            (0, 0, 40, Perms::WRITE.bits(), true), // no READ
            (1, 0, 64, Perms::READ.bits(), true),  // no WRITE
            (2, 0, 48, Perms::RW.bits(), true),
            (0, 0, 40, Perms::RW.bits(), false),
        ],
        copies: vec![],
    };
    let (mut m, _) = build(&case);
    let err = |m: &mut MemoryStore, s, d, len| m.copy_window(cap(s), cap(d), len).err();
    assert_eq!(
        err(&mut m, 0, 1, 8),
        Some(FosError::PermissionDenied),
        "src READ first"
    );
    assert_eq!(
        err(&mut m, 3, 1, 8),
        Some(FosError::WindowInvalid),
        "invalid src first"
    );
    assert_eq!(
        err(&mut m, 2, 1, 8),
        Some(FosError::PermissionDenied),
        "then dst WRITE"
    );
    assert_eq!(
        err(&mut m, 2, 0, 48),
        Some(FosError::OutOfBounds),
        "then dst bounds"
    );
    assert_eq!(
        err(&mut m, 1, 3, 80),
        Some(FosError::OutOfBounds),
        "src bounds first"
    );
    assert_eq!(err(&mut m, 2, 0, 8), None);
}
