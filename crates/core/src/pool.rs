//! Dynamic GLock sharing — Section V's future work: "a few GLocks could be
//! statically or **dynamically** shared among all of the workloads".
//!
//! A small hardware binding table maps *logical* locks onto the CMP's few
//! physical G-line networks on demand: the first acquirer of an unbound
//! logical lock claims a free physical GLock; while any acquire or hold is
//! outstanding the binding is pinned; when the last release drains, the
//! physical lock returns to the free pool. If every physical lock is busy,
//! the logical lock *spills* to its software fallback until it quiesces.
//!
//! Because a binding can only change when the logical lock has no
//! acquirers and no holder, every contender of a given critical-section
//! episode uses the same implementation — mutual exclusion is preserved
//! across regime changes.
//!
//! Binding is eager — the first episode of any lock may claim an
//! unreserved physical GLock — but a freed physical lock keeps a
//! *reservation* for its previous owner: another logical lock may take it
//! over only if it has accumulated at least as many acquires ("heat").
//! Without reservations, a rarely-used lock can grab a physical GLock in
//! the brief window where a hot lock quiesces, stranding the hot lock on
//! the software fallback through a whole saturated epoch. With them, the
//! physical locks gravitate to exactly the paper's "highly-contended
//! locks", automatically and without programmer annotation.

use crate::network::NetworkHealth;
use crate::regs::GlockRegisters;
use glocks_sim_base::snap::{Decode, Snap, SnapError, SnapReader, SnapWriter};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// How a logical lock's next acquire must proceed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolDecision {
    /// Use physical GLock `k` (its register file drives the G-lines).
    Hardware(usize),
    /// All physical locks busy: use the software fallback.
    Software,
}

/// Pool statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Bind operations (a logical lock claimed a physical one).
    pub binds: u64,
    /// Unbind operations (a binding drained and was released).
    pub unbinds: u64,
    /// Acquires that had to spill to software.
    pub spills: u64,
    /// Acquires served by hardware.
    pub hw_acquires: u64,
    /// Acquires rerouted to software because their physical GLock died
    /// mid-episode (hard-fault failover).
    pub failovers: u64,
}
glocks_sim_base::snap!(PoolStats { binds, unbinds, spills, hw_acquires, failovers });

struct PoolState {
    /// Per physical lock: the logical lock currently bound to it.
    owner_of: Vec<Option<u16>>,
    /// Per physical lock: the previous owner holding a reservation.
    reserved_for: Vec<Option<u16>>,
    /// Per logical lock: its binding and outstanding-use count.
    bindings: HashMap<u16, Binding>,
    /// Lifetime acquire count per logical lock (saturating).
    heat: HashMap<u16, u32>,
    stats: PoolStats,
}

/// Hand-written: the owner tables write each logical id widened to 64 bits,
/// and only the first carries the physical-lock count.
impl Snap for PoolState {
    fn save(&self, w: &mut SnapWriter) {
        let PoolState { owner_of, reserved_for, bindings, heat, stats } = self;
        w.usize(owner_of.len());
        for owner in owner_of.iter().chain(reserved_for) {
            owner.map(u64::from).save(w);
        }
        bindings.save(w);
        heat.save(w);
        stats.save(w);
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let PoolState { owner_of, reserved_for, bindings, heat, stats } = self;
        if r.usize()? != owner_of.len() {
            return Err(SnapError::Corrupt { what: "glock pool physical lock count" });
        }
        for owner in owner_of.iter_mut().chain(reserved_for) {
            *owner = Option::<u64>::decode(r)?
                .map(u16::try_from)
                .transpose()
                .map_err(|_| SnapError::Corrupt { what: "glock pool logical lock id" })?;
        }
        bindings.load(r)?;
        heat.load(r)?;
        stats.load(r)
    }
}

#[derive(Clone, Copy, Debug)]
struct Binding {
    hw: Option<usize>,
    /// Outstanding acquires + holders (hardware or software regime alike).
    refs: u32,
}
glocks_sim_base::snap!(Binding { hw, refs });

/// The binding table shared by all dynamic lock backends.
pub struct GlockPool {
    regs: Vec<Rc<GlockRegisters>>,
    state: RefCell<PoolState>,
    /// Liveness handles of the physical networks (empty = all healthy,
    /// the fault-free configuration).
    healths: RefCell<Vec<Rc<NetworkHealth>>>,
}
glocks_sim_base::snap!(shared GlockPool mark "glock-pool" { state; skip regs, healths });

impl GlockPool {
    /// Build a pool over the register files of the CMP's physical GLocks.
    pub fn new(regs: Vec<Rc<GlockRegisters>>) -> Rc<Self> {
        let n = regs.len();
        assert!(n > 0, "pool needs at least one physical GLock");
        Rc::new(GlockPool {
            regs,
            state: RefCell::new(PoolState {
                owner_of: vec![None; n],
                reserved_for: vec![None; n],
                bindings: HashMap::new(),
                heat: HashMap::new(),
                stats: PoolStats::default(),
            }),
            healths: RefCell::new(Vec::new()),
        })
    }

    pub fn n_physical(&self) -> usize {
        self.regs.len()
    }

    /// The register file of physical lock `k`.
    pub fn regs(&self, k: usize) -> &GlockRegisters {
        &self.regs[k]
    }

    /// Attach the physical networks' liveness handles (index-aligned with
    /// the register files). Without them every network is assumed healthy.
    pub fn attach_healths(&self, healths: Vec<Rc<NetworkHealth>>) {
        assert_eq!(healths.len(), self.regs.len(), "one health per physical lock");
        *self.healths.borrow_mut() = healths;
    }

    /// Whether physical lock `k`'s G-line network has been declared dead.
    pub fn is_dead(&self, k: usize) -> bool {
        self.healths.borrow().get(k).is_some_and(|h| h.is_dead())
    }

    /// Whether physical lock `k`'s network is fully trusted. A
    /// repaired-but-untrusted network is excluded from binding just like a
    /// dead one: pool bindings carry no fail-back probe machinery, so an
    /// untrusted pool network is simply never bound again (only statically
    /// mapped GLocks earn trust back, through their fail-back controller).
    pub fn is_trusted(&self, k: usize) -> bool {
        self.healths.borrow().get(k).is_none_or(|h| h.is_trusted())
    }

    /// Count one mid-episode hardware→software failover.
    pub fn note_failover(&self) {
        self.state.borrow_mut().stats.failovers += 1;
    }

    /// A thread starts acquiring `logical`: pin (or establish) its binding
    /// and learn which implementation to use for this episode.
    pub fn begin_acquire(&self, logical: u16) -> PoolDecision {
        let mut st = self.state.borrow_mut();
        let heat = st.heat.entry(logical).or_insert(0);
        *heat = heat.saturating_add(1);
        let my_heat = *heat;
        let entry = st.bindings.entry(logical).or_insert(Binding { hw: None, refs: 0 });
        if entry.refs > 0 {
            // Pinned: join the existing regime.
            entry.refs += 1;
            let hw = entry.hw;
            match hw {
                Some(k) => {
                    st.stats.hw_acquires += 1;
                    PoolDecision::Hardware(k)
                }
                None => {
                    st.stats.spills += 1;
                    PoolDecision::Software
                }
            }
        } else {
            // Quiesced: (re)decide. Preference order among free physical
            // locks: one reserved for us, an unreserved one, then one
            // whose reservation we out-heat. A network that is not fully
            // trusted (dead, or repaired but not yet failed back) is never
            // bound.
            let candidate = (0..st.owner_of.len())
                .filter(|&k| st.owner_of[k].is_none() && self.is_trusted(k))
                .min_by_key(|&k| match st.reserved_for[k] {
                    Some(owner) if owner == logical => 0u32,
                    None => 1,
                    Some(owner) => {
                        let owner_heat = st.heat.get(&owner).copied().unwrap_or(0);
                        if my_heat >= owner_heat {
                            2
                        } else {
                            u32::MAX // not claimable
                        }
                    }
                })
                .filter(|&k| match st.reserved_for[k] {
                    Some(owner) if owner != logical => {
                        my_heat >= st.heat.get(&owner).copied().unwrap_or(0)
                    }
                    _ => true,
                });
            let entry = st.bindings.get_mut(&logical).expect("just inserted");
            entry.refs = 1;
            match candidate {
                Some(k) => {
                    entry.hw = Some(k);
                    st.owner_of[k] = Some(logical);
                    st.reserved_for[k] = Some(logical);
                    st.stats.binds += 1;
                    st.stats.hw_acquires += 1;
                    PoolDecision::Hardware(k)
                }
                None => {
                    entry.hw = None;
                    st.stats.spills += 1;
                    PoolDecision::Software
                }
            }
        }
    }

    /// A thread finished releasing `logical`; when the last outstanding
    /// use drains, the binding dissolves.
    pub fn end_release(&self, logical: u16) {
        let mut st = self.state.borrow_mut();
        let entry = st.bindings.get_mut(&logical).expect("release of unknown lock");
        assert!(entry.refs > 0, "unbalanced end_release for lock {logical}");
        entry.refs -= 1;
        if entry.refs == 0 {
            if let Some(k) = entry.hw.take() {
                st.owner_of[k] = None;
                st.stats.unbinds += 1;
            }
            st.bindings.remove(&logical);
        }
    }

    /// Current binding of a logical lock (tests/diagnostics).
    pub fn binding_of(&self, logical: u16) -> Option<usize> {
        self.state
            .borrow()
            .bindings
            .get(&logical)
            .and_then(|b| b.hw)
    }

    pub fn stats(&self) -> PoolStats {
        self.state.borrow().stats
    }

    /// No logical lock has outstanding uses (end-of-run check).
    pub fn is_quiescent(&self) -> bool {
        self.state.borrow().bindings.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(n: usize) -> Rc<GlockPool> {
        GlockPool::new((0..n).map(|_| GlockRegisters::new(4)).collect())
    }

    #[test]
    fn reservations_protect_hot_locks_from_cold_thieves() {
        let p = pool(1);
        // Lock 9 becomes hot (5 episodes) and unbinds each time.
        for _ in 0..5 {
            assert_eq!(p.begin_acquire(9), PoolDecision::Hardware(0));
            p.end_release(9);
        }
        // Cold lock 5 (first episode, heat 1 < 5) cannot take the
        // reserved physical…
        assert_eq!(p.begin_acquire(5), PoolDecision::Software);
        p.end_release(5);
        // …but lock 9 reclaims it instantly.
        assert_eq!(p.begin_acquire(9), PoolDecision::Hardware(0));
        p.end_release(9);
    }

    #[test]
    fn equal_heat_peers_may_take_over_a_reservation() {
        let p = pool(1);
        assert_eq!(p.begin_acquire(1), PoolDecision::Hardware(0));
        p.end_release(1);
        // lock 2's heat (1) equals lock 1's heat (1): takeover allowed
        assert_eq!(p.begin_acquire(2), PoolDecision::Hardware(0));
        p.end_release(2);
    }

    #[test]
    fn first_acquirer_binds_hardware() {
        let p = pool(2);
        assert_eq!(p.begin_acquire(7), PoolDecision::Hardware(0));
        assert_eq!(p.binding_of(7), Some(0));
        // a second contender of the same lock joins the same regime
        assert_eq!(p.begin_acquire(7), PoolDecision::Hardware(0));
        // a different lock claims the other physical lock
        assert_eq!(p.begin_acquire(9), PoolDecision::Hardware(1));
        // and a third lock spills
        assert_eq!(p.begin_acquire(11), PoolDecision::Software);
        assert_eq!(p.stats().spills, 1);
        assert_eq!(p.stats().binds, 2);
    }

    #[test]
    fn binding_dissolves_at_quiescence_and_rebinds() {
        let p = pool(1);
        assert_eq!(p.begin_acquire(1), PoolDecision::Hardware(0));
        assert_eq!(p.begin_acquire(2), PoolDecision::Software);
        p.end_release(2);
        p.end_release(1);
        assert_eq!(p.stats().unbinds, 1);
        assert!(p.is_quiescent());
        // now lock 2 can claim the hardware
        assert_eq!(p.begin_acquire(2), PoolDecision::Hardware(0));
        p.end_release(2);
    }

    #[test]
    fn pinned_binding_survives_partial_release() {
        let p = pool(1);
        assert_eq!(p.begin_acquire(5), PoolDecision::Hardware(0));
        assert_eq!(p.begin_acquire(5), PoolDecision::Hardware(0));
        p.end_release(5);
        // still one outstanding: binding pinned
        assert_eq!(p.binding_of(5), Some(0));
        assert_eq!(p.begin_acquire(6), PoolDecision::Software);
        p.end_release(6);
        p.end_release(5);
        assert_eq!(p.binding_of(5), None);
    }

    #[test]
    fn dead_physical_lock_is_never_bound_again() {
        let p = pool(2);
        let healths: Vec<Rc<NetworkHealth>> =
            (0..2).map(|_| Rc::new(NetworkHealth::default())).collect();
        p.attach_healths(healths.clone());
        assert_eq!(p.begin_acquire(1), PoolDecision::Hardware(0));
        p.end_release(1);
        // Physical 0 dies; even its own reservation holder cannot rebind.
        healths[0].mark_dead(100);
        assert!(p.is_dead(0) && !p.is_dead(1));
        assert_eq!(p.begin_acquire(1), PoolDecision::Hardware(1));
        assert_eq!(p.begin_acquire(2), PoolDecision::Software, "only one live physical left");
        p.end_release(2);
        p.end_release(1);
        // Both dead: everything spills forever.
        healths[1].mark_dead(200);
        assert_eq!(p.begin_acquire(1), PoolDecision::Software);
        p.end_release(1);
    }

    #[test]
    fn failover_count_lands_in_stats() {
        let p = pool(1);
        p.note_failover();
        p.note_failover();
        assert_eq!(p.stats().failovers, 2);
    }

    #[test]
    #[should_panic(expected = "release of unknown lock")]
    fn unbalanced_release_is_detected() {
        let p = pool(1);
        assert_eq!(p.begin_acquire(3), PoolDecision::Hardware(0));
        p.end_release(3);
        p.end_release(3);
    }
}
