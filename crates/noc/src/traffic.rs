//! Per-class traffic accounting (Figure 9's decomposition).

use crate::packet::TrafficClass;
use glocks_sim_base::stats::Summary;

/// Bytes and messages moved through the network, split by
/// Request / Reply / Coherence, plus packet-latency summaries.
///
/// Bytes are counted per link traversal ("the total number of bytes
/// transmitted by all the switches of the interconnect"), so a packet that
/// crosses `h` links contributes `h × bytes`.
#[derive(Clone, Debug, Default)]
pub struct TrafficStats {
    bytes: [u64; 3],
    /// Messages injected, by class (each message counted once).
    messages: [u64; 3],
    /// Link traversals (packet-hops), by class.
    hops: [u64; 3],
    /// End-to-end packet latency (inject → deliver) in cycles.
    pub latency: Summary,
}
glocks_sim_base::snap!(TrafficStats {
    bytes as fixed, messages as fixed, hops as fixed, latency
});

impl TrafficStats {
    pub fn on_inject(&mut self, class: TrafficClass) {
        self.messages[class.index()] += 1;
    }

    pub fn on_link_traversal(&mut self, class: TrafficClass, bytes: u32) {
        self.bytes[class.index()] += bytes as u64;
        self.hops[class.index()] += 1;
    }

    pub fn on_deliver(&mut self, latency_cycles: u64) {
        self.latency.record(latency_cycles as f64);
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

    pub fn merge(&mut self, other: &TrafficStats) {
        for i in 0..3 {
            self.bytes[i] += other.bytes[i];
            self.messages[i] += other.messages[i];
            self.hops[i] += other.hops[i];
        }
        // Summaries merge by re-deriving count/sum/min/max.
        if other.latency.count > 0 {
            if self.latency.count == 0 {
                self.latency = other.latency;
            } else {
                self.latency.count += other.latency.count;
                self.latency.sum += other.latency.sum;
                self.latency.min = self.latency.min.min(other.latency.min);
                self.latency.max = self.latency.max.max(other.latency.max);
            }
        }
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

    #[test]
    fn merge_sums_everything() {
        let mut a = TrafficStats::default();
        let mut b = TrafficStats::default();
        a.on_link_traversal(TrafficClass::Coherence, 8);
        a.on_deliver(10);
        b.on_link_traversal(TrafficClass::Coherence, 8);
        b.on_deliver(30);
        a.merge(&b);
        assert_eq!(a.bytes(TrafficClass::Coherence), 16);
        assert_eq!(a.latency.count, 2);
        assert_eq!(a.latency.max, 30.0);
        assert_eq!(a.latency.min, 10.0);
    }

    #[test]
    fn merge_into_empty_copies() {
        let mut a = TrafficStats::default();
        let mut b = TrafficStats::default();
        b.on_deliver(5.0 as u64);
        a.merge(&b);
        assert_eq!(a.latency.count, 1);
        assert_eq!(a.latency.min, 5.0);
    }
}
