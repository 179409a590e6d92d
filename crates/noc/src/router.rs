//! A single input-queued mesh router.
//!
//! Five ports (four mesh directions + local inject/eject), FIFO input
//! queues, round-robin arbitration per output port, and output links that
//! stay busy for a packet's serialization time. Queues are unbounded — the
//! memory system's blocking directory bounds the number of packets in
//! flight, so backpressure never builds up in practice, and the arbitration
//! still serializes contending packets, which is where mesh contention
//! latency comes from.

use crate::packet::Packet;
use glocks_sim_base::snap::{Decode, Snap, SnapError, SnapReader, SnapWriter};
use glocks_sim_base::Cycle;
use std::collections::VecDeque;

/// Router port indices.
pub const P_EAST: usize = 0;
pub const P_WEST: usize = 1;
pub const P_NORTH: usize = 2;
pub const P_SOUTH: usize = 3;
pub const P_LOCAL: usize = 4;
pub const N_PORTS: usize = 5;

/// A packet waiting in an input queue, eligible once the router pipeline
/// delay has elapsed.
#[derive(Debug)]
pub(crate) struct Queued<T> {
    pub pkt: Packet<T>,
    pub ready_at: Cycle,
}
glocks_sim_base::snap!(Queued<T> { pkt, ready_at });

/// One mesh router.
pub(crate) struct Router<T> {
    pub in_q: [VecDeque<Queued<T>>; N_PORTS],
    /// First cycle at which each output link is free again.
    pub out_free_at: [Cycle; N_PORTS],
    /// Round-robin pointer per output port (next input port to consider).
    rr: [usize; N_PORTS],
}

/// Hand-written: a loaded round-robin pointer must name a port.
impl<T: Decode> Snap for Router<T> {
    fn save(&self, w: &mut SnapWriter) {
        let Router { in_q, out_free_at, rr } = self;
        in_q.save(w);
        out_free_at.save(w);
        rr.save(w);
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let Router { in_q, out_free_at, rr } = self;
        in_q.load(r)?;
        out_free_at.load(r)?;
        rr.load(r)?;
        if rr.iter().any(|&p| p >= N_PORTS) {
            return Err(SnapError::Corrupt { what: "router round-robin pointer" });
        }
        Ok(())
    }
}

impl<T> Router<T> {
    pub fn new() -> Self {
        Router {
            in_q: Default::default(),
            out_free_at: [0; N_PORTS],
            rr: [0; N_PORTS],
        }
    }

    pub fn occupancy(&self) -> usize {
        self.in_q.iter().map(VecDeque::len).sum()
    }

    /// For output port `out`, pick the winning input port this cycle under
    /// round-robin arbitration, given a per-input-port view of where each
    /// ready head packet wants to go. Returns the winning input port.
    #[allow(clippy::needless_range_loop)]
    pub fn arbitrate(&mut self, out: usize, wants: &[Option<usize>; N_PORTS]) -> Option<usize> {
        for k in 0..N_PORTS {
            let p = (self.rr[out] + k) % N_PORTS;
            if wants[p] == Some(out) {
                self.rr[out] = (p + 1) % N_PORTS;
                return Some(p);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_rotates_between_contenders() {
        let mut r: Router<()> = Router::new();
        // ports 0 and 2 both want output 4
        let wants = [Some(4), None, Some(4), None, None];
        let w1 = r.arbitrate(4, &wants).unwrap();
        let w2 = r.arbitrate(4, &wants).unwrap();
        let w3 = r.arbitrate(4, &wants).unwrap();
        assert_eq!(w1, 0);
        assert_eq!(w2, 2);
        assert_eq!(w3, 0, "round-robin must wrap");
    }

    #[test]
    fn no_contender_no_winner() {
        let mut r: Router<()> = Router::new();
        let wants = [None; N_PORTS];
        assert_eq!(r.arbitrate(0, &wants), None);
    }

    #[test]
    fn arbitration_skips_other_outputs() {
        let mut r: Router<()> = Router::new();
        let wants = [Some(1), Some(0), None, None, None];
        assert_eq!(r.arbitrate(0, &wants), Some(1));
        assert_eq!(r.arbitrate(1, &wants), Some(0));
    }
}
