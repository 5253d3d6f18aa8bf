//! Node and GPU identity.
//!
//! The paper identifies GPU devices by their **node ID and PCI Express bus
//! address** (Section 3.2, footnote 6); we model both.

use core::fmt;
use core::str::FromStr;

/// Compute-node identifier within the cluster.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Hostname-like rendering used in syslog lines, e.g. `gpub042`.
    pub fn hostname(self) -> String {
        format!("gpub{:03}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.hostname())
    }
}

/// PCI Express address of a GPU: `domain:bus:device` (function is always 0
/// for the GPUs modeled here), rendered like `0000:C1:00`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct PciAddr {
    pub domain: u16,
    pub bus: u8,
    pub device: u8,
}

impl PciAddr {
    pub const fn new(domain: u16, bus: u8, device: u8) -> Self {
        PciAddr {
            domain,
            bus,
            device,
        }
    }

    /// Conventional PCI bus numbers for GPU slot `idx` on a multi-GPU node.
    ///
    /// Mirrors the bus layout of SXM baseboards where GPUs sit on
    /// distinct root ports (0x07, 0x0f, 0x47, 0x4e, 0x87, 0x90, 0xb7, 0xbd).
    pub fn for_slot(idx: usize) -> Self {
        const BUSES: [u8; 8] = [0x07, 0x0f, 0x47, 0x4e, 0x87, 0x90, 0xb7, 0xbd];
        PciAddr::new(0, BUSES[idx % BUSES.len()], 0)
    }
}

impl fmt::Display for PciAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:04x}:{:02x}:{:02x}",
            self.domain, self.bus, self.device
        )
    }
}

/// Error produced when parsing a [`PciAddr`] from text fails.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParsePciError;

impl fmt::Display for ParsePciError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("invalid PCI address (expected dddd:bb:dd hex triple)")
    }
}

impl std::error::Error for ParsePciError {}

impl FromStr for PciAddr {
    type Err = ParsePciError;

    /// Exactly three `:`-separated hex fields, each what
    /// `from_str_radix(_, 16)` accepts for its width: digits in either
    /// case, leading zeros, an optional leading `+`. One pass over the
    /// bytes.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut bytes = s.bytes();
        // One field: an optional `+`, then hex digits up to the next `:`
        // (or, for the last field, the end).
        let mut field = |last: bool| -> Option<u16> {
            let mut next = bytes.next();
            if next == Some(b'+') {
                next = bytes.next();
            }
            let mut value: Option<u16> = None;
            loop {
                match next {
                    Some(b':') if !last => return value,
                    None if last => return value,
                    None => return None,
                    Some(b) => {
                        let d = match b {
                            b'0'..=b'9' => b - b'0',
                            b'a'..=b'f' => b - b'a' + 10,
                            b'A'..=b'F' => b - b'A' + 10,
                            _ => return None,
                        };
                        value = Some(value.unwrap_or(0).checked_mul(16)?.checked_add(d.into())?);
                    }
                }
                next = bytes.next();
            }
        };
        let byte = |v: Option<u16>| v.and_then(|v| u8::try_from(v).ok());
        let domain = field(false).ok_or(ParsePciError)?;
        let bus = byte(field(false)).ok_or(ParsePciError)?;
        let device = byte(field(true)).ok_or(ParsePciError)?;
        Ok(PciAddr {
            domain,
            bus,
            device,
        })
    }
}

/// A GPU device identity: the node it lives in plus its PCI address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct GpuId {
    pub node: NodeId,
    pub pci: PciAddr,
}

impl GpuId {
    pub const fn new(node: NodeId, pci: PciAddr) -> Self {
        GpuId { node, pci }
    }

    /// GPU at slot `idx` of node `node` using the conventional bus layout.
    pub fn at_slot(node: NodeId, idx: usize) -> Self {
        GpuId::new(node, PciAddr::for_slot(idx))
    }

    /// Whether two GPUs share a node (used by inter-GPU propagation).
    #[inline]
    pub fn same_node(self, other: GpuId) -> bool {
        self.node == other.node
    }
}

impl fmt::Display for GpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.node, self.pci)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pci_display_and_parse_round_trip() {
        let a = PciAddr::new(0, 0xc1, 0);
        assert_eq!(a.to_string(), "0000:c1:00");
        assert_eq!("0000:c1:00".parse::<PciAddr>(), Ok(a));
        assert_eq!("0000:C1:00".parse::<PciAddr>(), Ok(a));
    }

    #[test]
    fn pci_parse_rejects_garbage() {
        assert!("".parse::<PciAddr>().is_err());
        assert!("0000:c1".parse::<PciAddr>().is_err());
        assert!("0000:c1:00:0".parse::<PciAddr>().is_err());
        assert!("zz:c1:00".parse::<PciAddr>().is_err());
    }

    #[test]
    fn pci_parse_accepts_what_from_str_radix_accepts() {
        let ok = |s: &str| s.parse::<PciAddr>().ok();
        assert_eq!(ok("+0:+c1:+0"), Some(PciAddr::new(0, 0xc1, 0)));
        assert_eq!(ok("0000ffff:00C1:0000000"), Some(PciAddr::new(0xffff, 0xc1, 0)));
        assert_eq!(ok("FFFF:FF:fF"), Some(PciAddr::new(0xffff, 0xff, 0xff)));
        let rejected = [
            "10000:0:0", "0:100:0", "0:0:100", "+:0:0", "-0:0:0", "++0:0:0", "0:0:", ":0:0",
            "0: 0:0", "0:0:0\n", "0:c١:0",
        ];
        for bad in rejected {
            assert_eq!(ok(bad), None, "{bad:?}");
        }
    }

    proptest::proptest! {
        /// The byte-level parser accepts exactly the inputs the
        /// `split(':')` + `from_str_radix` reader it replaced accepts.
        #[test]
        fn pci_parse_matches_from_str_radix(
            fields in proptest::collection::vec("[0-9a-fA-FgG+-]{0,6}", 1..5),
        ) {
            let s = fields.join(":");
            let mut parts = s.split(':');
            let oracle = (|| {
                Some(PciAddr::new(
                    u16::from_str_radix(parts.next()?, 16).ok()?,
                    u8::from_str_radix(parts.next()?, 16).ok()?,
                    u8::from_str_radix(parts.next()?, 16).ok()?,
                ))
            })()
            .filter(|_| parts.next().is_none());
            proptest::prop_assert_eq!(s.parse::<PciAddr>().ok(), oracle, "{:?}", s);
        }
    }

    #[test]
    fn slots_are_distinct_within_8_way_node() {
        let addrs: Vec<_> = (0..8).map(PciAddr::for_slot).collect();
        for i in 0..8 {
            for j in (i + 1)..8 {
                assert_ne!(addrs[i], addrs[j]);
            }
        }
    }

    #[test]
    fn gpu_identity_and_same_node() {
        let a = GpuId::at_slot(NodeId(3), 0);
        let b = GpuId::at_slot(NodeId(3), 1);
        let c = GpuId::at_slot(NodeId(4), 0);
        assert!(a.same_node(b));
        assert!(!a.same_node(c));
        assert_ne!(a, b);
        assert_eq!(a.to_string(), "gpub003/0000:07:00");
    }
}
