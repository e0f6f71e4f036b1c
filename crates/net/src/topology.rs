//! Cluster topology: nodes, their components, and endpoint addressing.
//!
//! A node is a chassis on the switched fabric. Each node has a host CPU and
//! may carry a SmartNIC, GPUs and NVMe drives behind its PCIe complex. An
//! [`Endpoint`] addresses one communicating entity: `(node, location)`.

use core::fmt;

/// Identifies a node (chassis) in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Where on a node an endpoint lives.
///
/// The location determines which buses a message must traverse: the host CPU
/// talks to the NIC directly, while the SmartNIC ARM complex, GPUs and NVMe
/// drives sit behind an extra PCIe crossing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Location {
    /// The host CPU package (applications, CPU Controllers, adaptors).
    HostCpu,
    /// The SmartNIC ARM cores (offloaded Controllers).
    SmartNic,
    /// GPU number `n` on the node's PCIe complex.
    Gpu(u8),
    /// NVMe drive number `n` on the node's PCIe complex.
    Nvme(u8),
}

impl Location {
    /// Whether this location sits behind an extra PCIe crossing relative to
    /// the node's NIC.
    pub fn behind_pcie(self) -> bool {
        !matches!(self, Location::HostCpu)
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Location::HostCpu => write!(f, "cpu"),
            Location::SmartNic => write!(f, "snic"),
            Location::Gpu(n) => write!(f, "gpu{n}"),
            Location::Nvme(n) => write!(f, "nvme{n}"),
        }
    }
}

/// A communicating entity: `(node, location)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Endpoint {
    /// The node this endpoint lives on.
    pub node: NodeId,
    /// Where on the node.
    pub loc: Location,
}

impl Endpoint {
    /// Convenience constructor.
    pub fn new(node: NodeId, loc: Location) -> Self {
        Endpoint { node, loc }
    }

    /// Host-CPU endpoint of `node`.
    pub fn cpu(node: NodeId) -> Self {
        Endpoint::new(node, Location::HostCpu)
    }

    /// SmartNIC endpoint of `node`.
    pub fn snic(node: NodeId) -> Self {
        Endpoint::new(node, Location::SmartNic)
    }

    /// First GPU of `node`.
    pub fn gpu(node: NodeId) -> Self {
        Endpoint::new(node, Location::Gpu(0))
    }

    /// First NVMe drive of `node`.
    pub fn nvme(node: NodeId) -> Self {
        Endpoint::new(node, Location::Nvme(0))
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.node, self.loc)
    }
}

/// Hardware configuration of one node.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Human-readable name (e.g. "storage-node").
    pub name: String,
    /// Whether a SmartNIC is installed.
    pub snic: bool,
    /// Number of GPUs.
    pub gpus: u8,
    /// Number of NVMe drives.
    pub nvmes: u8,
}

impl NodeConfig {
    /// A bare CPU node.
    pub fn cpu_only(name: &str) -> Self {
        NodeConfig {
            name: name.to_string(),
            snic: false,
            gpus: 0,
            nvmes: 0,
        }
    }

    /// Adds a SmartNIC.
    pub fn with_snic(mut self) -> Self {
        self.snic = true;
        self
    }

    /// Adds `n` GPUs.
    pub fn with_gpus(mut self, n: u8) -> Self {
        self.gpus = n;
        self
    }

    /// Adds `n` NVMe drives.
    pub fn with_nvmes(mut self, n: u8) -> Self {
        self.nvmes = n;
        self
    }
}

/// The cluster: an ordered set of nodes on one switched fabric.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    nodes: Vec<NodeConfig>,
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// The paper's 3-node testbed (Table 2): every node has a BlueField
    /// SmartNIC and a 970-EVO-class NVMe drive; node 1 additionally carries
    /// the Tesla K80.
    pub fn paper_testbed() -> Self {
        let mut t = Topology::new();
        t.add_node(NodeConfig::cpu_only("storage").with_snic().with_nvmes(1));
        t.add_node(
            NodeConfig::cpu_only("gpu")
                .with_snic()
                .with_gpus(1)
                .with_nvmes(1),
        );
        t.add_node(NodeConfig::cpu_only("frontend").with_snic().with_nvmes(1));
        t
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, config: NodeConfig) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("too many nodes"));
        self.nodes.push(config);
        id
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the topology has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Configuration of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not part of the topology.
    pub fn node(&self, node: NodeId) -> &NodeConfig {
        &self.nodes[node.0 as usize]
    }

    /// Iterates over `(id, config)` pairs.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &NodeConfig)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, c)| (NodeId(i as u32), c))
    }

    /// Validates that an endpoint refers to hardware that exists.
    pub fn validate(&self, ep: Endpoint) -> Result<(), TopologyError> {
        let Some(cfg) = self.nodes.get(ep.node.0 as usize) else {
            return Err(TopologyError::UnknownNode(ep.node));
        };
        let ok = match ep.loc {
            Location::HostCpu => true,
            Location::SmartNic => cfg.snic,
            Location::Gpu(n) => n < cfg.gpus,
            Location::Nvme(n) => n < cfg.nvmes,
        };
        if ok {
            Ok(())
        } else {
            Err(TopologyError::MissingComponent(ep))
        }
    }
}

/// Errors raised by topology validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyError {
    /// The node id is out of range.
    UnknownNode(NodeId),
    /// The node exists but lacks the addressed component.
    MissingComponent(Endpoint),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::UnknownNode(n) => write!(f, "unknown node {n}"),
            TopologyError::MissingComponent(ep) => {
                write!(f, "node has no such component: {ep}")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_shape() {
        let t = Topology::paper_testbed();
        assert_eq!(t.len(), 3);
        assert!(t.node(NodeId(0)).snic);
        assert_eq!(t.node(NodeId(1)).gpus, 1);
        assert_eq!(t.node(NodeId(0)).nvmes, 1);
        assert_eq!(t.node(NodeId(2)).nvmes, 1);
    }

    #[test]
    fn validate_known_endpoints() {
        let t = Topology::paper_testbed();
        assert!(t.validate(Endpoint::cpu(NodeId(0))).is_ok());
        assert!(t.validate(Endpoint::snic(NodeId(1))).is_ok());
        assert!(t.validate(Endpoint::gpu(NodeId(1))).is_ok());
        assert!(t.validate(Endpoint::nvme(NodeId(0))).is_ok());
    }

    #[test]
    fn validate_rejects_missing_hardware() {
        let t = Topology::paper_testbed();
        assert_eq!(
            t.validate(Endpoint::gpu(NodeId(0))),
            Err(TopologyError::MissingComponent(Endpoint::gpu(NodeId(0))))
        );
        assert_eq!(
            t.validate(Endpoint::cpu(NodeId(9))),
            Err(TopologyError::UnknownNode(NodeId(9)))
        );
    }

    #[test]
    fn locations_behind_pcie() {
        assert!(!Location::HostCpu.behind_pcie());
        assert!(Location::SmartNic.behind_pcie());
        assert!(Location::Gpu(0).behind_pcie());
        assert!(Location::Nvme(0).behind_pcie());
    }

    #[test]
    fn endpoint_display() {
        assert_eq!(Endpoint::gpu(NodeId(1)).to_string(), "node1/gpu0");
    }

    #[test]
    fn builder_composes() {
        let cfg = NodeConfig::cpu_only("x")
            .with_snic()
            .with_gpus(2)
            .with_nvmes(3);
        assert!(cfg.snic);
        assert_eq!((cfg.gpus, cfg.nvmes), (2, 3));
    }
}
