//! Calibration constants for the fabric and software-overhead model.
//!
//! Every constant is calibrated against a number the paper itself reports
//! (§6.1, Tables 2–3, Figs 5–7). The bench target `table3_null_op` and the
//! unit tests below check that the composed model reproduces those anchors.
//!
//! Anchor points from the paper:
//!
//! | Measurement | Paper value |
//! |---|---|
//! | Raw loopback ping-pong, server @ host CPU | 2.42 µs RTT |
//! | Raw loopback ping-pong, server @ sNIC | 3.68 µs RTT |
//! | FractOS null op @ CPU | 3.00 µs |
//! | FractOS null op @ sNIC | 4.50 µs |
//! | 1-byte cross-node RDMA | 3.3 µs |
//! | 1-byte `memory_copy`, Controller @ CPU | 12.7 µs |
//! | 1-byte `memory_copy`, Controller @ sNIC | 24.5 µs |
//! | Request handling both ways @ CPU | +1.41 µs |
//! | Request (de)serialization across network @ CPU | +4.41 µs |
//! | Request handling both ways @ sNIC | +5.11 µs |
//! | Request (de)serialization across network @ sNIC | +12.21 µs |
//! | Capability (de)serialization per delegated cap | 2.4 µs CPU / 3.8 µs sNIC |
//! | Network fabric | 10 Gbps |

use fractos_sim::SimDuration;

/// Where a piece of software executes; scales its processing time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComputeDomain {
    /// Xeon host CPU.
    HostCpu,
    /// BlueField SmartNIC ARM cores (≈800 MHz, slow atomics).
    SmartNic,
}

/// Retry budgets for the control plane and the services built on it.
///
/// One typed policy, the constant [`RETRY`], replaces the retry constants
/// that used to be scattered across the Controller/Process retransmit
/// layer and the individual services. Its values are those historical
/// constants exactly, so traces are byte-identical to the
/// pre-consolidation build.
///
/// Exhausting a budget never *declares* a peer dead — it only translates
/// into the §3.6 failure verdicts (`ControllerUnreachable`, severed
/// channels); death declaration stays with the external watchdog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Initial retransmission timeout; doubles on every attempt.
    pub rto_base: SimDuration,
    /// Total transmit attempts (the original plus retries) before the
    /// sender gives up and applies a §3.6 failure verdict.
    pub max_attempts: u32,
    /// Last-resort timeout for a pending peer-operation ack. Covers the
    /// case where the request was delivered but the answering side gave
    /// up on its (also faulty) return path.
    pub ack_timeout: SimDuration,
    /// Last-resort timeout for a pending syscall at the issuing Process.
    pub syscall_timeout: SimDuration,
    /// Application-level retry budget per file-system I/O operation.
    pub fs_io_retries: u32,
    /// Application-level retry budget per face-verification stage.
    pub fv_retries: u32,
    /// Application-level retry budget per composition-pipeline stage.
    pub stage_retries: u32,
}

impl RetryPolicy {
    /// Retransmission backoff: `rto_base * 2^attempt`, saturating.
    pub fn rto(&self, attempt: u32) -> SimDuration {
        let shift = attempt.min(16);
        SimDuration::from_nanos(self.rto_base.as_nanos().saturating_mul(1u64 << shift))
    }
}

/// The retry policy of every channel and service.
pub const RETRY: RetryPolicy = RetryPolicy {
    rto_base: SimDuration::from_micros(30),
    max_attempts: 5,
    ack_timeout: SimDuration::from_millis(1),
    syscall_timeout: SimDuration::from_millis(5),
    fs_io_retries: 4,
    fv_retries: 4,
    stage_retries: 3,
};

/// Calibrated model parameters. Construct via [`NetParams::paper`] for the
/// paper's testbed (Table 2) or tweak fields for sensitivity studies.
#[derive(Debug, Clone)]
pub struct NetParams {
    /// One-way small-message latency through the local NIC loopback path
    /// (Process ↔ Controller on the same node still traverse an RoCE QP,
    /// §4 "Processes are decoupled from their Controller via an RoCE queue
    /// pair"). Calibrated: 2 × 1.21 µs = 2.42 µs raw loopback RTT.
    pub local_oneway: SimDuration,
    /// One-way small-message latency across the switched fabric between two
    /// nodes. Calibrated: 2 × 1.65 µs = 3.3 µs 1-byte RDMA round trip.
    pub remote_oneway: SimDuration,
    /// Extra latency for each traversal into/out of an endpoint that sits
    /// behind an additional PCIe crossing (sNIC ARM complex, GPU, NVMe).
    /// Calibrated: raw loopback to sNIC = 2.42 + 2 × 0.63 = 3.68 µs.
    pub pcie_hop: SimDuration,
    /// Network line rate in bytes/second (10 Gbps fabric, Table 2).
    pub net_bandwidth: f64,
    /// PCIe bandwidth in bytes/second (Gen3 x8-ish for the K80 testbed).
    pub pcie_bandwidth: f64,
    /// Loopback (intra-node NIC) bandwidth in bytes/second.
    pub local_bandwidth: f64,
    /// FractOS per-message software handling on a host CPU (null syscall
    /// adds 2 × 0.29 µs over raw loopback: 3.00 µs total).
    pub fractos_handling_cpu: SimDuration,
    /// Multiplier for FractOS software costs when the code runs on the sNIC
    /// ARM cores. Calibrated so the null op costs 4.50 µs on the sNIC:
    /// (4.50 − 3.68) / (3.00 − 2.42) ≈ 1.41 for the null path; heavier
    /// operations (serialization, atomics-rich capability lookups) use the
    /// dedicated constants below, which embed larger factors from Figs 6–7.
    pub snic_handling_factor: f64,
    /// Request-handling software cost, both directions combined, on a CPU
    /// (Fig 6: +1.41 µs over null-op path).
    pub request_handling_cpu: SimDuration,
    /// Request-handling software cost on the sNIC (Fig 6: +5.11 µs).
    pub request_handling_snic: SimDuration,
    /// Request (de)serialization cost when crossing the network, CPU
    /// deployment (Fig 6: +4.41 µs).
    pub request_serialize_cpu: SimDuration,
    /// Request (de)serialization cost when crossing the network, sNIC
    /// deployment (Fig 6: +12.21 µs).
    pub request_serialize_snic: SimDuration,
    /// Capability (de)serialization per delegated capability, CPU (Fig 7).
    pub cap_serialize_cpu: SimDuration,
    /// Capability (de)serialization per delegated capability, sNIC (Fig 7).
    pub cap_serialize_snic: SimDuration,
    /// Controller-side processing per RDMA bounce operation during
    /// `memory_copy` (Fig 5: 1-byte copy = 12.7 µs on CPU; see
    /// `fractos-core::controller` for the full decomposition).
    pub memcopy_proc_cpu: SimDuration,
    /// Same on the sNIC (Fig 5: 24.5 µs for 1 byte).
    pub memcopy_proc_snic: SimDuration,
    /// Memcpy bandwidth of the bounce-buffer path on a host CPU, in
    /// bytes/second. Each bounced chunk is copied into and out of the
    /// Controller's RoCE buffers, costing CPU time that bounds mediated
    /// throughput below line rate (Fig 11: the FS and the baseline yield
    /// ~20% less than DAX, which skips one bounce traversal).
    pub bounce_memcpy_cpu: f64,
    /// Same on the sNIC ARM cores.
    pub bounce_memcpy_snic: f64,
    /// Chunk size threshold above which `memory_copy` double-buffers
    /// (prototype uses 16 KiB, §6.1).
    pub double_buffer_threshold: u64,
    /// Chunk size used when double buffering.
    pub double_buffer_chunk: u64,
    /// Multiplicative latency jitter amplitude (uniform ±frac); the paper
    /// reports all stddevs below 3% of the mean.
    pub jitter_frac: f64,
    /// When true, Controllers use third-party RDMA offload ("HW copies" in
    /// Fig 5) instead of bounce buffers for `memory_copy`.
    pub third_party_rdma: bool,
    /// When true, Controllers sleep when idle and pay a wake-up cost on the
    /// next message (§4 lists "a dynamic poll/interrupt model" as the next
    /// step beyond the prototype's 2 polling cores).
    pub controller_interrupts: bool,
    /// Interrupt wake-up latency (IRQ delivery + scheduler).
    pub interrupt_wakeup: SimDuration,
    /// Idle time after which a Controller stops polling and sleeps.
    pub poll_window: SimDuration,
    /// When true, Controllers verify integrity envelopes at `memory_copy`
    /// completion (models the NIC/device inline CRC check, so it adds no
    /// simulated time). Off, an in-flight bit flip lands silently — used
    /// by tests to prove the envelope is what catches corruption.
    pub end_to_end_integrity: bool,
}

impl NetParams {
    /// Parameters calibrated to the paper's testbed (Table 2).
    pub fn paper() -> Self {
        NetParams {
            local_oneway: SimDuration::from_nanos(1_210),
            remote_oneway: SimDuration::from_nanos(1_650),
            pcie_hop: SimDuration::from_nanos(630),
            net_bandwidth: 1.25e9,  // 10 Gbps
            pcie_bandwidth: 8.0e9,  // ~PCIe 3.0 x8
            local_bandwidth: 3.0e9, // NIC loopback
            fractos_handling_cpu: SimDuration::from_nanos(290),
            snic_handling_factor: 1.41,
            request_handling_cpu: SimDuration::from_nanos(1_410),
            request_handling_snic: SimDuration::from_nanos(5_110),
            request_serialize_cpu: SimDuration::from_nanos(4_410),
            request_serialize_snic: SimDuration::from_nanos(12_210),
            cap_serialize_cpu: SimDuration::from_nanos(2_400),
            cap_serialize_snic: SimDuration::from_nanos(3_800),
            memcopy_proc_cpu: SimDuration::from_nanos(2_800),
            memcopy_proc_snic: SimDuration::from_nanos(11_000),
            bounce_memcpy_cpu: 4.5e9,
            bounce_memcpy_snic: 3.0e9,
            double_buffer_threshold: 16 * 1024,
            double_buffer_chunk: 16 * 1024,
            jitter_frac: 0.0,
            third_party_rdma: false,
            controller_interrupts: false,
            interrupt_wakeup: SimDuration::from_micros(4),
            poll_window: SimDuration::from_micros(20),
            end_to_end_integrity: true,
        }
    }

    /// Paper parameters with a given jitter amplitude enabled.
    pub fn paper_with_jitter(frac: f64) -> Self {
        NetParams {
            jitter_frac: frac,
            ..Self::paper()
        }
    }

    /// Strict lower bound on the delay of any message between two *nodes*:
    /// the remote one-way base latency scaled by the worst-case jitter
    /// floor, minus one nanosecond to absorb rounding in the fabric's f64
    /// delay math. Serialization, PCIe hops, congestion, and handling
    /// costs only ever add to this bound.
    ///
    /// This is the conservative-lookahead window of the sharded runtime
    /// backend: a cross-node message sent at `t` can never take effect
    /// before `t + conservative_lookahead()`.
    pub fn conservative_lookahead(&self) -> SimDuration {
        let floor = self.remote_oneway * (1.0 - self.jitter_frac.clamp(0.0, 1.0));
        floor
            .saturating_sub(SimDuration::from_nanos(1))
            .max(SimDuration::from_nanos(1))
    }

    /// FractOS per-message handling cost in the given compute domain.
    pub fn fractos_handling(&self, domain: ComputeDomain) -> SimDuration {
        match domain {
            ComputeDomain::HostCpu => self.fractos_handling_cpu,
            ComputeDomain::SmartNic => self.fractos_handling_cpu * self.snic_handling_factor,
        }
    }

    /// Request-handling cost (both ways combined) in the given domain.
    pub fn request_handling(&self, domain: ComputeDomain) -> SimDuration {
        match domain {
            ComputeDomain::HostCpu => self.request_handling_cpu,
            ComputeDomain::SmartNic => self.request_handling_snic,
        }
    }

    /// Request network-(de)serialization cost in the given domain.
    pub fn request_serialize(&self, domain: ComputeDomain) -> SimDuration {
        match domain {
            ComputeDomain::HostCpu => self.request_serialize_cpu,
            ComputeDomain::SmartNic => self.request_serialize_snic,
        }
    }

    /// Per-capability (de)serialization cost in the given domain.
    pub fn cap_serialize(&self, domain: ComputeDomain) -> SimDuration {
        match domain {
            ComputeDomain::HostCpu => self.cap_serialize_cpu,
            ComputeDomain::SmartNic => self.cap_serialize_snic,
        }
    }

    /// Controller processing per bounce-RDMA op in the given domain.
    pub fn memcopy_proc(&self, domain: ComputeDomain) -> SimDuration {
        match domain {
            ComputeDomain::HostCpu => self.memcopy_proc_cpu,
            ComputeDomain::SmartNic => self.memcopy_proc_snic,
        }
    }

    /// Bounce-buffer memcpy bandwidth in the given domain, bytes/second.
    /// Snapshot this scalar when a long computation cannot keep borrowing
    /// the fabric's params, then price chunks with
    /// [`bounce_memcpy_at`](NetParams::bounce_memcpy_at).
    pub fn bounce_memcpy_bw(&self, domain: ComputeDomain) -> f64 {
        match domain {
            ComputeDomain::HostCpu => self.bounce_memcpy_cpu,
            ComputeDomain::SmartNic => self.bounce_memcpy_snic,
        }
    }

    /// CPU time to move `bytes` through the bounce buffers (two memcpys)
    /// at an already snapshotted bandwidth.
    pub fn bounce_memcpy_at(bw: f64, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(2.0 * bytes as f64 / bw)
    }
}

impl Default for NetParams {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rto_doubles_and_saturates() {
        let r = RETRY;
        assert_eq!(r.rto(0), r.rto_base);
        assert_eq!(r.rto(1), SimDuration::from_micros(60));
        assert_eq!(r.rto(3), SimDuration::from_micros(240));
        // Far past the budget: still finite.
        assert!(r.rto(200) > r.rto(4));
    }

    /// The policy must reproduce the historical constants exactly, or
    /// traces would diverge.
    #[test]
    fn retry_defaults_match_historical_constants() {
        let r = RETRY;
        assert_eq!(r.rto_base, SimDuration::from_micros(30));
        assert_eq!(r.max_attempts, 5);
        assert_eq!(r.ack_timeout, SimDuration::from_millis(1));
        assert_eq!(r.syscall_timeout, SimDuration::from_millis(5));
        assert_eq!((r.fs_io_retries, r.fv_retries, r.stage_retries), (4, 4, 3));
    }

    /// Raw loopback RTT @ CPU = 2 × local one-way = 2.42 µs (Table 3).
    #[test]
    fn anchors_raw_loopback_cpu() {
        let p = NetParams::paper();
        let rtt = p.local_oneway * 2;
        assert_eq!(rtt.as_nanos(), 2_420);
    }

    /// Raw loopback RTT @ sNIC = 2 × (local + PCIe hop) = 3.68 µs (Table 3).
    #[test]
    fn anchors_raw_loopback_snic() {
        let p = NetParams::paper();
        let rtt = (p.local_oneway + p.pcie_hop) * 2;
        assert_eq!(rtt.as_nanos(), 3_680);
    }

    /// FractOS null op @ CPU = loopback + 2 × handling = 3.00 µs (Table 3).
    #[test]
    fn anchors_null_op_cpu() {
        let p = NetParams::paper();
        let rtt = p.local_oneway * 2 + p.fractos_handling(ComputeDomain::HostCpu) * 2;
        assert_eq!(rtt.as_nanos(), 3_000);
    }

    /// FractOS null op @ sNIC ≈ 4.50 µs (Table 3).
    #[test]
    fn anchors_null_op_snic() {
        let p = NetParams::paper();
        let rtt =
            (p.local_oneway + p.pcie_hop) * 2 + p.fractos_handling(ComputeDomain::SmartNic) * 2;
        let us = rtt.as_micros_f64();
        assert!((us - 4.50).abs() < 0.1, "null op @ sNIC was {us:.3} µs");
    }

    /// 1-byte cross-node RDMA round trip = 3.3 µs (Fig 5 discussion).
    #[test]
    fn anchors_one_byte_rdma() {
        let p = NetParams::paper();
        let rtt = p.remote_oneway * 2;
        assert_eq!(rtt.as_nanos(), 3_300);
    }

    #[test]
    fn snic_costs_exceed_cpu_costs() {
        let p = NetParams::paper();
        for (cpu, snic) in [
            (
                p.request_handling(ComputeDomain::HostCpu),
                p.request_handling(ComputeDomain::SmartNic),
            ),
            (
                p.request_serialize(ComputeDomain::HostCpu),
                p.request_serialize(ComputeDomain::SmartNic),
            ),
            (
                p.cap_serialize(ComputeDomain::HostCpu),
                p.cap_serialize(ComputeDomain::SmartNic),
            ),
            (
                p.memcopy_proc(ComputeDomain::HostCpu),
                p.memcopy_proc(ComputeDomain::SmartNic),
            ),
        ] {
            assert!(snic > cpu);
        }
    }

    #[test]
    fn line_rate_is_10_gbps() {
        let p = NetParams::paper();
        assert_eq!(p.net_bandwidth, 1.25e9);
        // 256 KiB at line rate ≈ 210 µs — the regime where Fig 5 reaches
        // full throughput.
        let t = SimDuration::from_secs_f64(256.0 * 1024.0 / p.net_bandwidth);
        assert!(t.as_micros_f64() > 200.0 && t.as_micros_f64() < 215.0);
    }
}
