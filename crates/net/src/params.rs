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

/// One-way small-message latency through the local NIC loopback path
/// (Process ↔ Controller on the same node still traverse an RoCE QP,
/// §4 "Processes are decoupled from their Controller via an RoCE queue
/// pair"). Calibrated: 2 × 1.21 µs = 2.42 µs raw loopback RTT.
pub const LOCAL_ONEWAY: SimDuration = SimDuration::from_nanos(1_210);
/// One-way small-message latency across the switched fabric between two
/// nodes. Calibrated: 2 × 1.65 µs = 3.3 µs 1-byte RDMA round trip.
pub const REMOTE_ONEWAY: SimDuration = SimDuration::from_nanos(1_650);
/// Extra latency for each traversal into/out of an endpoint that sits
/// behind an additional PCIe crossing (sNIC ARM complex, GPU, NVMe).
/// Calibrated: raw loopback to sNIC = 2.42 + 2 × 0.63 = 3.68 µs.
pub const PCIE_HOP: SimDuration = SimDuration::from_nanos(630);
/// Network line rate in bytes/second (10 Gbps fabric, Table 2).
pub const NET_BANDWIDTH: f64 = 1.25e9;
/// PCIe bandwidth in bytes/second (Gen3 x8-ish for the K80 testbed).
pub const PCIE_BANDWIDTH: f64 = 8.0e9;
/// Loopback (intra-node NIC) bandwidth in bytes/second.
pub const LOCAL_BANDWIDTH: f64 = 3.0e9;
/// FractOS per-message software handling on a host CPU (null syscall
/// adds 2 × 0.29 µs over raw loopback: 3.00 µs total).
pub const FRACTOS_HANDLING_CPU: SimDuration = SimDuration::from_nanos(290);
/// Multiplier for FractOS software costs when the code runs on the sNIC
/// ARM cores. Calibrated so the null op costs 4.50 µs on the sNIC:
/// (4.50 − 3.68) / (3.00 − 2.42) ≈ 1.41 for the null path; heavier
/// operations (serialization, atomics-rich capability lookups) use the
/// dedicated constants below, which embed larger factors from Figs 6–7.
pub const SNIC_HANDLING_FACTOR: f64 = 1.41;
/// Request-handling software cost, both directions combined, on a CPU
/// (Fig 6: +1.41 µs over null-op path).
pub const REQUEST_HANDLING_CPU: SimDuration = SimDuration::from_nanos(1_410);
/// Request-handling software cost on the sNIC (Fig 6: +5.11 µs).
pub const REQUEST_HANDLING_SNIC: SimDuration = SimDuration::from_nanos(5_110);
/// Request (de)serialization cost when crossing the network, CPU
/// deployment (Fig 6: +4.41 µs).
pub const REQUEST_SERIALIZE_CPU: SimDuration = SimDuration::from_nanos(4_410);
/// Request (de)serialization cost when crossing the network, sNIC
/// deployment (Fig 6: +12.21 µs).
pub const REQUEST_SERIALIZE_SNIC: SimDuration = SimDuration::from_nanos(12_210);
/// Capability (de)serialization per delegated capability, CPU (Fig 7).
pub const CAP_SERIALIZE_CPU: SimDuration = SimDuration::from_nanos(2_400);
/// Capability (de)serialization per delegated capability, sNIC (Fig 7).
pub const CAP_SERIALIZE_SNIC: SimDuration = SimDuration::from_nanos(3_800);
/// Controller-side processing per RDMA bounce operation during
/// `memory_copy` (Fig 5: 1-byte copy = 12.7 µs on CPU; see
/// `fractos-core::controller` for the full decomposition).
pub const MEMCOPY_PROC_CPU: SimDuration = SimDuration::from_nanos(2_800);
/// Same on the sNIC (Fig 5: 24.5 µs for 1 byte).
pub const MEMCOPY_PROC_SNIC: SimDuration = SimDuration::from_nanos(11_000);
/// Memcpy bandwidth of the bounce-buffer path on a host CPU, in
/// bytes/second. Each bounced chunk is copied into and out of the
/// Controller's RoCE buffers, costing CPU time that bounds mediated
/// throughput below line rate (Fig 11: the FS and the baseline yield
/// ~20% less than DAX, which skips one bounce traversal).
pub const BOUNCE_MEMCPY_CPU: f64 = 4.5e9;
/// Same on the sNIC ARM cores.
pub const BOUNCE_MEMCPY_SNIC: f64 = 3.0e9;
/// Interrupt wake-up latency (IRQ delivery + scheduler) of a Controller
/// running with [`NetParams::controller_interrupts`].
pub const INTERRUPT_WAKEUP: SimDuration = SimDuration::from_micros(4);
/// Idle time after which a Controller running with
/// [`NetParams::controller_interrupts`] stops polling and sleeps.
pub const POLL_WINDOW: SimDuration = SimDuration::from_micros(20);

impl ComputeDomain {
    /// FractOS per-message handling cost in this domain.
    pub fn fractos_handling(self) -> SimDuration {
        match self {
            ComputeDomain::HostCpu => FRACTOS_HANDLING_CPU,
            ComputeDomain::SmartNic => FRACTOS_HANDLING_CPU * SNIC_HANDLING_FACTOR,
        }
    }

    /// Request-handling cost (both ways combined) in this domain.
    pub fn request_handling(self) -> SimDuration {
        match self {
            ComputeDomain::HostCpu => REQUEST_HANDLING_CPU,
            ComputeDomain::SmartNic => REQUEST_HANDLING_SNIC,
        }
    }

    /// Request network-(de)serialization cost in this domain.
    pub fn request_serialize(self) -> SimDuration {
        match self {
            ComputeDomain::HostCpu => REQUEST_SERIALIZE_CPU,
            ComputeDomain::SmartNic => REQUEST_SERIALIZE_SNIC,
        }
    }

    /// Per-capability (de)serialization cost in this domain.
    pub fn cap_serialize(self) -> SimDuration {
        match self {
            ComputeDomain::HostCpu => CAP_SERIALIZE_CPU,
            ComputeDomain::SmartNic => CAP_SERIALIZE_SNIC,
        }
    }

    /// Controller processing per bounce-RDMA op in this domain.
    pub fn memcopy_proc(self) -> SimDuration {
        match self {
            ComputeDomain::HostCpu => MEMCOPY_PROC_CPU,
            ComputeDomain::SmartNic => MEMCOPY_PROC_SNIC,
        }
    }

    /// Bounce-buffer memcpy bandwidth in this domain, bytes/second.
    pub fn bounce_memcpy_bw(self) -> f64 {
        match self {
            ComputeDomain::HostCpu => BOUNCE_MEMCPY_CPU,
            ComputeDomain::SmartNic => BOUNCE_MEMCPY_SNIC,
        }
    }

    /// CPU time to move `bytes` through the bounce buffers (two memcpys)
    /// at this domain's [`bounce_memcpy_bw`](ComputeDomain::bounce_memcpy_bw).
    pub fn bounce_memcpy_at(self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(2.0 * bytes as f64 / self.bounce_memcpy_bw())
    }
}

/// The model knobs some experiment varies; everything else is one of the
/// calibration constants above. Construct via [`NetParams::paper`] for the
/// paper's testbed (Table 2).
#[derive(Debug, Clone)]
pub struct NetParams {
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
    /// When true, Controllers sleep when idle for [`POLL_WINDOW`] and pay
    /// [`INTERRUPT_WAKEUP`] on the next message (§4 lists "a dynamic
    /// poll/interrupt model" as the next step beyond the prototype's 2
    /// polling cores).
    pub controller_interrupts: bool,
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
            double_buffer_threshold: 16 * 1024,
            double_buffer_chunk: 16 * 1024,
            jitter_frac: 0.0,
            third_party_rdma: false,
            controller_interrupts: false,
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
        let floor = REMOTE_ONEWAY * (1.0 - self.jitter_frac.clamp(0.0, 1.0));
        floor
            .saturating_sub(SimDuration::from_nanos(1))
            .max(SimDuration::from_nanos(1))
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
        let rtt = LOCAL_ONEWAY * 2;
        assert_eq!(rtt.as_nanos(), 2_420);
    }

    /// Raw loopback RTT @ sNIC = 2 × (local + PCIe hop) = 3.68 µs (Table 3).
    #[test]
    fn anchors_raw_loopback_snic() {
        let rtt = (LOCAL_ONEWAY + PCIE_HOP) * 2;
        assert_eq!(rtt.as_nanos(), 3_680);
    }

    /// FractOS null op @ CPU = loopback + 2 × handling = 3.00 µs (Table 3).
    #[test]
    fn anchors_null_op_cpu() {
        let rtt = LOCAL_ONEWAY * 2 + ComputeDomain::HostCpu.fractos_handling() * 2;
        assert_eq!(rtt.as_nanos(), 3_000);
    }

    /// FractOS null op @ sNIC ≈ 4.50 µs (Table 3).
    #[test]
    fn anchors_null_op_snic() {
        let rtt = (LOCAL_ONEWAY + PCIE_HOP) * 2 + ComputeDomain::SmartNic.fractos_handling() * 2;
        let us = rtt.as_micros_f64();
        assert!((us - 4.50).abs() < 0.1, "null op @ sNIC was {us:.3} µs");
    }

    /// 1-byte cross-node RDMA round trip = 3.3 µs (Fig 5 discussion).
    #[test]
    fn anchors_one_byte_rdma() {
        let rtt = REMOTE_ONEWAY * 2;
        assert_eq!(rtt.as_nanos(), 3_300);
    }

    #[test]
    fn snic_costs_exceed_cpu_costs() {
        let (h, s) = (ComputeDomain::HostCpu, ComputeDomain::SmartNic);
        for (cpu, snic) in [
            (h.request_handling(), s.request_handling()),
            (h.request_serialize(), s.request_serialize()),
            (h.cap_serialize(), s.cap_serialize()),
            (h.memcopy_proc(), s.memcopy_proc()),
        ] {
            assert!(snic > cpu);
        }
    }

    #[test]
    fn line_rate_is_10_gbps() {
        assert_eq!(NET_BANDWIDTH, 1.25e9);
        // 256 KiB at line rate ≈ 210 µs — the regime where Fig 5 reaches
        // full throughput.
        let t = SimDuration::from_secs_f64(256.0 * 1024.0 / NET_BANDWIDTH);
        assert!(t.as_micros_f64() > 200.0 && t.as_micros_f64() < 215.0);
    }
}
