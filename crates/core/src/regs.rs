//! The programmer-visible GLock register interface (Figure 5).
//!
//! Each core gets a pair of flags per hardware lock: `lock_req` (set to
//! request; reset by the local controller when the lock is granted — the
//! core busy-waits on it) and `lock_rel` (set to release; reset by the
//! controller once the REL signal is sent). The paper groups all pairs in
//! one special lock register per core.
//!
//! The simulation is single-threaded, so the register file is shared
//! between the core-side scripts and the G-line network through
//! `Rc<GlockRegisters>` with `Cell` fields — modelling memory-mapped
//! device registers.

use std::cell::Cell;
use std::rc::Rc;

/// The register pairs of one hardware lock, one pair per core.
#[derive(Debug)]
pub struct GlockRegisters {
    lock_req: Vec<Cell<bool>>,
    lock_rel: Vec<Cell<bool>>,
    /// The core whose request was granted and whose release the
    /// controller has not yet consumed. Updated atomically with the grant
    /// delivery, so observers (invariant checker, failover drain) never
    /// see a torn holder — unlike polling the core-side scripts, which
    /// learn of a grant one resume later.
    holder: Cell<Option<usize>>,
}
glocks_sim_base::snap!(shared GlockRegisters { lock_req as fixed, lock_rel as each, holder });

impl GlockRegisters {
    pub fn new(n_cores: usize) -> Rc<Self> {
        Rc::new(GlockRegisters {
            lock_req: (0..n_cores).map(|_| Cell::new(false)).collect(),
            lock_rel: (0..n_cores).map(|_| Cell::new(false)).collect(),
            holder: Cell::new(None),
        })
    }

    pub fn n_cores(&self) -> usize {
        self.lock_req.len()
    }

    /// Core side: request the lock (`mov 1, lock_req`).
    pub fn set_req(&self, core: usize) {
        self.lock_req[core].set(true);
    }

    /// Core side: busy-wait test (`bnz lock_req, loop`).
    pub fn req_pending(&self, core: usize) -> bool {
        self.lock_req[core].get()
    }

    /// Core side: release the lock (`mov 1, lock_rel`).
    pub fn set_rel(&self, core: usize) {
        self.lock_rel[core].set(true);
    }

    /// Core side: is a release still being processed?
    pub fn rel_pending(&self, core: usize) -> bool {
        self.lock_rel[core].get()
    }

    /// The core currently granted on the hardware path, if any. On a dead
    /// (quarantined) network the controller never consumes the holder's
    /// release, so the holder stays set with `rel_pending(holder)` true
    /// once its critical section ended — see [`Self::hw_drained`].
    pub fn hw_holder(&self) -> Option<usize> {
        self.holder.get()
    }

    /// Failover drain predicate: the hardware path holds nobody inside a
    /// critical section. True when no grant is outstanding, or when the
    /// grantee has already written its release (the controller of a dead
    /// network will never consume it, but the critical section is over).
    pub fn hw_drained(&self) -> bool {
        match self.holder.get() {
            None => true,
            Some(h) => self.lock_rel[h].get(),
        }
    }

    /// Controller side: the grant — resets `lock_req`.
    pub(crate) fn grant(&self, core: usize) {
        self.lock_req[core].set(false);
        self.holder.set(Some(core));
    }

    /// Controller side: consume a pending release, if any.
    pub(crate) fn take_rel(&self, core: usize) -> bool {
        let v = self.lock_rel[core].get();
        if v {
            self.lock_rel[core].set(false);
            if self.holder.get() == Some(core) {
                self.holder.set(None);
            }
        }
        v
    }

    /// Controller side: observe a pending request (left set until grant).
    pub(crate) fn req_raised(&self, core: usize) -> bool {
        self.lock_req[core].get()
    }

    /// Repair: wipe the register file back to the boot image (no requests,
    /// no releases, no holder). Only valid while the network is dead and
    /// drained — every core-side script must already have observed the
    /// death and failed over, or a cleared `lock_req` could be mistaken
    /// for a grant.
    pub(crate) fn reset(&self) {
        for c in &self.lock_req {
            c.set(false);
        }
        for c in &self.lock_rel {
            c.set(false);
        }
        self.holder.set(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_grant_cycle() {
        let r = GlockRegisters::new(4);
        assert!(!r.req_pending(2));
        r.set_req(2);
        assert!(r.req_pending(2));
        assert!(r.req_raised(2));
        r.grant(2);
        assert!(!r.req_pending(2), "grant resets lock_req");
    }

    #[test]
    fn release_is_consumed_once() {
        let r = GlockRegisters::new(2);
        r.set_rel(1);
        assert!(r.rel_pending(1));
        assert!(r.take_rel(1));
        assert!(!r.rel_pending(1));
        assert!(!r.take_rel(1));
    }

    #[test]
    fn holder_tracks_grant_to_release_consumption() {
        let r = GlockRegisters::new(2);
        assert_eq!(r.hw_holder(), None);
        assert!(r.hw_drained());
        r.set_req(1);
        r.grant(1);
        assert_eq!(r.hw_holder(), Some(1));
        assert!(!r.hw_drained(), "grantee is inside its critical section");
        // The grantee writes its release: drained even before (or without)
        // the controller consuming it — the dead-network drain case.
        r.set_rel(1);
        assert!(r.hw_drained());
        assert_eq!(r.hw_holder(), Some(1), "holder cleared only by the controller");
        assert!(r.take_rel(1));
        assert_eq!(r.hw_holder(), None);
        assert!(r.hw_drained());
    }

    #[test]
    fn cores_are_independent() {
        let r = GlockRegisters::new(3);
        r.set_req(0);
        assert!(!r.req_pending(1));
        assert!(!r.req_pending(2));
    }
}
