//! Per-class traffic accounting (Figure 9's decomposition).

use crate::packet::TrafficClass;

/// Bytes and messages moved through the network, split by
/// Request / Reply / Coherence.
///
/// Bytes are counted per link traversal ("the total number of bytes
/// transmitted by all the switches of the interconnect"), so a packet that
/// crosses `h` links contributes `h × bytes`.
#[derive(Clone, Copy, Debug, Default)]
pub struct TrafficStats {
    bytes: [u64; 3],
    /// Messages injected, by class (each message counted once).
    messages: [u64; 3],
    /// Link traversals (packet-hops), by class.
    hops: [u64; 3],
}
glocks_sim_base::snap!(TrafficStats { bytes as fixed, messages as fixed, hops as fixed });

impl TrafficStats {
    pub fn on_inject(&mut self, class: TrafficClass) {
        self.messages[class.index()] += 1;
    }

    pub fn on_link_traversal(&mut self, class: TrafficClass, bytes: u32) {
        self.bytes[class.index()] += bytes as u64;
        self.hops[class.index()] += 1;
    }

    pub fn bytes(&self, class: TrafficClass) -> u64 {
        self.bytes[class.index()]
    }

    pub fn messages(&self, class: TrafficClass) -> u64 {
        self.messages[class.index()]
    }

    pub fn hops(&self, class: TrafficClass) -> u64 {
        self.hops[class.index()]
    }

    /// Total bytes across all classes — Figure 9's bar height.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    pub fn total_messages(&self) -> u64 {
        self.messages.iter().sum()
    }

    pub fn total_hops(&self) -> u64 {
        self.hops.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_accumulates_per_class() {
        let mut t = TrafficStats::default();
        t.on_inject(TrafficClass::Request);
        t.on_link_traversal(TrafficClass::Request, 8);
        t.on_link_traversal(TrafficClass::Request, 8);
        t.on_link_traversal(TrafficClass::Reply, 72);
        assert_eq!(t.bytes(TrafficClass::Request), 16);
        assert_eq!(t.hops(TrafficClass::Request), 2);
        assert_eq!(t.bytes(TrafficClass::Reply), 72);
        assert_eq!(t.total_bytes(), 88);
        assert_eq!(t.messages(TrafficClass::Request), 1);
        assert_eq!(t.total_messages(), 1);
    }
}
