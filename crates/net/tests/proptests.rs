//! Property tests for the fabric model.

use proptest::prelude::*;

use fractos_net::{Endpoint, Fabric, NetParams, NodeId, Topology, TrafficClass};
use fractos_sim::{SimRng, SimTime};

fn fabric() -> Fabric {
    Fabric::new(Topology::paper_testbed(), NetParams::paper())
}

fn endpoint(idx: u8) -> Endpoint {
    // The paper testbed's valid endpoints.
    match idx % 6 {
        0 => Endpoint::cpu(NodeId(0)),
        1 => Endpoint::cpu(NodeId(1)),
        2 => Endpoint::cpu(NodeId(2)),
        3 => Endpoint::snic(NodeId(0)),
        4 => Endpoint::gpu(NodeId(1)),
        _ => Endpoint::nvme(NodeId(0)),
    }
}

proptest! {
    /// Delivery delay is never below the base propagation latency of the
    /// route.
    #[test]
    fn delay_at_least_base_latency(
        sends in prop::collection::vec((any::<u8>(), any::<u8>(), 0u64..1_000_000, 0u64..10_000_000), 1..60),
    ) {
        let mut f = fabric();
        let mut rng = SimRng::new(7);
        for (s, d, size, t_ns) in sends {
            let (src, dst) = (endpoint(s), endpoint(d));
            let base = f.base_latency(src, dst);
            let delay = f.send(
                SimTime::from_nanos(t_ns),
                &mut rng,
                src,
                dst,
                size,
                TrafficClass::Data,
            );
            prop_assert!(delay >= base, "delay {delay} < base {base}");
        }
    }

    /// Widely spaced identical sends observe identical delays (links fully
    /// drain between them).
    #[test]
    fn spaced_sends_are_reproducible(size in 0u64..4_000_000, s in any::<u8>(), d in any::<u8>()) {
        let mut f = fabric();
        let mut rng = SimRng::new(9);
        let (src, dst) = (endpoint(s), endpoint(d));
        let d1 = f.send(SimTime::from_nanos(0), &mut rng, src, dst, size, TrafficClass::Data);
        let d2 = f.send(
            SimTime::from_nanos(10_000_000_000),
            &mut rng,
            src,
            dst,
            size,
            TrafficClass::Data,
        );
        prop_assert_eq!(d1, d2);
    }

    /// Bulk transfers on the same route never finish out of order when
    /// issued in time order at the same instant spacing.
    #[test]
    fn same_route_bulk_is_fifo(sizes in prop::collection::vec(8_193u64..1_000_000, 2..12)) {
        let mut f = fabric();
        let mut rng = SimRng::new(11);
        let src = Endpoint::cpu(NodeId(0));
        let dst = Endpoint::cpu(NodeId(1));
        let mut last_arrival = SimTime::ZERO;
        for (i, &size) in sizes.iter().enumerate() {
            let t = SimTime::from_nanos(i as u64); // virtually simultaneous
            let delay = f.send(t, &mut rng, src, dst, size, TrafficClass::Data);
            let arrival = t + delay;
            prop_assert!(
                arrival >= last_arrival,
                "bulk reordering: {arrival} before {last_arrival}"
            );
            last_arrival = arrival;
        }
    }

    /// Aggregate goodput through one link never exceeds its line rate
    /// (checked over a burst of large transfers; MTU-sized messages are
    /// exempt by design — packet interleaving).
    #[test]
    fn bulk_respects_line_rate(sizes in prop::collection::vec(65_536u64..2_000_000, 2..10)) {
        let mut f = fabric();
        let mut rng = SimRng::new(13);
        let src = Endpoint::cpu(NodeId(0));
        let dst = Endpoint::cpu(NodeId(1));
        let total: u64 = sizes.iter().sum();
        let mut finish = SimTime::ZERO;
        for &size in &sizes {
            let d = f.send(SimTime::ZERO, &mut rng, src, dst, size, TrafficClass::Data);
            finish = finish.max(SimTime::ZERO + d);
        }
        let goodput = total as f64 / finish.as_secs_f64();
        // 5% tolerance for cut-through pipelining of header bytes.
        prop_assert!(
            goodput <= 1.25e9 * 1.05,
            "goodput {goodput:.3e} exceeds the 10 Gbps line rate"
        );
    }

    /// Traffic statistics account every message exactly once.
    #[test]
    fn stats_count_every_send(
        sends in prop::collection::vec((any::<u8>(), any::<u8>(), 0u64..100_000), 1..50),
    ) {
        let mut f = fabric();
        let mut rng = SimRng::new(17);
        let mut expect_network = 0u64;
        let mut expect_bytes = 0u64;
        for (s, d, size) in sends {
            let (src, dst) = (endpoint(s), endpoint(d));
            f.send(SimTime::ZERO, &mut rng, src, dst, size, TrafficClass::Data);
            if src.node != dst.node {
                expect_network += 1;
                expect_bytes += size;
            }
        }
        prop_assert_eq!(f.stats().network_msgs(), expect_network);
        prop_assert_eq!(f.stats().network_bytes(), expect_bytes);
    }
}

/// Scale guard for the link scheduler: thousands of bulk reservations on
/// one link must not blow up (the interval list prunes and stays flat).
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "wall-clock budget of the scale guard; no simulated value reads it"
)]
fn link_schedule_scales() {
    let mut f = fabric();
    let mut rng = SimRng::new(23);
    let src = Endpoint::cpu(NodeId(0));
    let dst = Endpoint::cpu(NodeId(1));
    let t0 = std::time::Instant::now();
    for i in 0..5_000u64 {
        f.send(
            SimTime::from_nanos(i * 1_000),
            &mut rng,
            src,
            dst,
            64 * 1024,
            TrafficClass::Data,
        );
    }
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(5),
        "link scheduler too slow: {:?}",
        t0.elapsed()
    );
}
