//! Deterministic fault injection.
//!
//! The paper's protocol assumes perfectly reliable G-lines and a never-stuck
//! memory system. To exercise the hardened protocol (epoch-tagged tokens,
//! retransmission) and the runner watchdog, a [`FaultPlan`] describes a
//! reproducible schedule of injected faults: dropped / delayed / duplicated
//! G-line signals, dropped / delayed NoC packets, and stalled directory
//! responses.
//!
//! Determinism is the whole point: the decision for event `i` at a given
//! site is a pure function of `(plan seed, site, stream, i)` — a SplitMix64
//! hash — so a fault schedule replays bit-identically regardless of how the
//! simulator interleaves its component ticks, and a failing configuration
//! can be handed around as `(seed, rates)`.

use crate::rng::SplitMix64;

/// Event-granular fault probabilities for one injection site, expressed in
/// parts-per-million so plans are exact integers (no float drift between
/// platforms).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultRates {
    /// Probability (ppm) that an event is silently dropped.
    pub drop_ppm: u32,
    /// Probability (ppm) that an event is delayed by `1..=max_delay` extra
    /// cycles.
    pub delay_ppm: u32,
    /// Upper bound on the extra delay; ignored when `delay_ppm == 0`.
    pub max_delay: u64,
    /// Probability (ppm) that an event is delivered twice.
    pub duplicate_ppm: u32,
}

impl FaultRates {
    /// No faults at all.
    pub const NONE: FaultRates = FaultRates {
        drop_ppm: 0,
        delay_ppm: 0,
        max_delay: 0,
        duplicate_ppm: 0,
    };

    /// Drop-only rates.
    pub fn drops(drop_ppm: u32) -> Self {
        FaultRates { drop_ppm, ..Self::NONE }
    }

    /// Delay-only rates.
    pub fn delays(delay_ppm: u32, max_delay: u64) -> Self {
        FaultRates { delay_ppm, max_delay, ..Self::NONE }
    }

    /// Duplicate-only rates.
    pub fn duplicates(duplicate_ppm: u32) -> Self {
        FaultRates { duplicate_ppm, ..Self::NONE }
    }

    pub fn is_active(&self) -> bool {
        self.drop_ppm > 0 || self.delay_ppm > 0 || self.duplicate_ppm > 0
    }

    /// Structural validation: the three ppm fields must sum to at most
    /// 1_000_000 (probabilities, not weights), and delay faults need a
    /// nonempty delay range to draw from.
    pub fn validate(&self, site: &'static str) -> Result<(), FaultPlanError> {
        let total = u64::from(self.drop_ppm)
            + u64::from(self.delay_ppm)
            + u64::from(self.duplicate_ppm);
        if total > 1_000_000 {
            return Err(FaultPlanError::RateOverflow { site, total_ppm: total });
        }
        if self.delay_ppm > 0 && self.max_delay == 0 {
            return Err(FaultPlanError::DelayWithoutBound { site });
        }
        Ok(())
    }
}

/// A structurally invalid [`FaultPlan`], caught at construction instead of
/// silently misbehaving mid-run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultPlanError {
    /// `drop_ppm + delay_ppm + duplicate_ppm` exceed 1_000_000 at `site`.
    RateOverflow { site: &'static str, total_ppm: u64 },
    /// `delay_ppm > 0` with `max_delay == 0`: the delay draw would be empty.
    DelayWithoutBound { site: &'static str },
    /// A hard fault's `repair_at` does not lie strictly after its kill
    /// cycle — the fault window would be empty or inverted.
    InvertedRepairWindow { at_cycle: u64, repair_at: u64 },
    /// `repair_at` on a target that has no repair semantics (routers and
    /// tiles lose state that no lock-layer repair can restore).
    UnrepairableTarget { target: HardFaultTarget },
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::RateOverflow { site, total_ppm } => {
                write!(f, "{site} fault rates exceed 100% ({total_ppm} ppm)")
            }
            FaultPlanError::DelayWithoutBound { site } => {
                write!(f, "{site} delay faults need max_delay >= 1")
            }
            FaultPlanError::InvertedRepairWindow { at_cycle, repair_at } => {
                write!(
                    f,
                    "repair_at {repair_at} must lie strictly after the kill cycle {at_cycle}"
                )
            }
            FaultPlanError::UnrepairableTarget { target } => {
                write!(f, "{target:?} cannot carry a repair_at (not a repairable target)")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// Where faults are injected. Each site draws from an independent hash
/// stream, so enabling one site never perturbs another's schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSite {
    /// 1-bit G-line signal transmissions (REQ / TOKEN / REL).
    Gline,
    /// NoC packet injections.
    Noc,
    /// Directory response scheduling (delay only — a directory cannot
    /// "drop" its own transaction, it can only stall it).
    Dir,
}

impl FaultSite {
    fn tag(self) -> u64 {
        match self {
            FaultSite::Gline => 0x47_4C49_4E45,
            FaultSite::Noc => 0x004E_4F43,
            FaultSite::Dir => 0x0044_4952,
        }
    }
}

/// The verdict for one event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultDecision {
    /// Deliver normally.
    Deliver,
    /// Lose the event.
    Drop,
    /// Deliver `extra` cycles late.
    Delay(u64),
    /// Deliver twice.
    Duplicate,
}

/// A component that dies *permanently* at a scheduled cycle. Unlike the
/// transient [`FaultRates`] (which the hardened protocol rides out), a hard
/// fault is unsurvivable at the component level — recovery, where it exists,
/// is architectural: detection plus failover to a software lock path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HardFaultTarget {
    /// The shared G-line segments of lock network `net`: every signal sent
    /// at or after the death cycle is lost and in-flight signals never
    /// arrive. Kills the whole network's ability to communicate.
    GlockLine { net: usize },
    /// One lock manager (`Sx` secondary or `R` root) of network `net`, by
    /// arbiter node index. A dead manager ignores all signals and emits
    /// none, severing its whole subtree.
    GlockManager { net: usize, node: usize },
    /// Core `core`'s local controller (`Cx`) on network `net`. The core's
    /// register pair goes unanswered forever on the hardware path.
    GlockLeaf { net: usize, core: usize },
    /// The mesh router at `tile`: queued packets are dropped and nothing is
    /// ever routed through it again.
    NocRouter { tile: usize },
    /// A whole tile: its router dies and the core at `core` halts mid-run.
    Tile { core: usize },
}

/// One component failure at a deterministic cycle. Permanent by default;
/// an **intermittent** fault additionally carries a `repair_at` cycle at
/// which replacement hardware arrives: the dead component is reset to a
/// clean boot image and comes back *untrusted* — the fail-back machinery
/// (`locks::failback`) must probe it healthy before the hardware path is
/// re-armed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HardFault {
    /// Cycle at which the component dies.
    pub at_cycle: u64,
    pub target: HardFaultTarget,
    /// Earliest cycle at which the component may be repaired (`None` =
    /// permanent). The repair actually fires once the death has been
    /// *detected* and the component has drained, so `repair_at` is a lower
    /// bound, not an exact instant. Must lie strictly after `at_cycle`,
    /// and only GLock-layer targets (`GlockLine`/`GlockManager`/
    /// `GlockLeaf`) are repairable — a router or tile loses architectural
    /// state no lock-layer reset can restore.
    pub repair_at: Option<u64>,
}

impl HardFault {
    /// A permanent fault (never repaired).
    pub fn permanent(at_cycle: u64, target: HardFaultTarget) -> Self {
        HardFault { at_cycle, target, repair_at: None }
    }

    /// An intermittent fault: killed at `at_cycle`, repairable from
    /// `repair_at` on.
    pub fn intermittent(at_cycle: u64, repair_at: u64, target: HardFaultTarget) -> Self {
        HardFault { at_cycle, target, repair_at: Some(repair_at) }
    }

    /// Structural validation of the repair window (see [`HardFault::repair_at`]).
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        if let Some(repair_at) = self.repair_at {
            if repair_at <= self.at_cycle {
                return Err(FaultPlanError::InvertedRepairWindow {
                    at_cycle: self.at_cycle,
                    repair_at,
                });
            }
            match self.target {
                HardFaultTarget::GlockLine { .. }
                | HardFaultTarget::GlockManager { .. }
                | HardFaultTarget::GlockLeaf { .. } => {}
                HardFaultTarget::NocRouter { .. } | HardFaultTarget::Tile { .. } => {
                    return Err(FaultPlanError::UnrepairableTarget { target: self.target });
                }
            }
        }
        Ok(())
    }
}

/// A complete, seeded fault schedule for one simulation run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Master seed; every injection site derives its stream from it.
    pub seed: u64,
    /// G-line signal faults (applied per lock network).
    pub gline: FaultRates,
    /// NoC packet faults.
    pub noc: FaultRates,
    /// Directory response stalls (only `delay_ppm`/`max_delay` are used).
    pub dir: FaultRates,
    /// Permanent component deaths, each at a fixed cycle.
    pub hard: Vec<HardFault>,
}

impl FaultPlan {
    /// An all-quiet plan with the given seed; set rates on the fields.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan { seed, ..Self::default() }
    }

    pub fn is_active(&self) -> bool {
        self.gline.is_active()
            || self.noc.is_active()
            || self.dir.is_active()
            || !self.hard.is_empty()
    }

    /// Whether the plan schedules any permanent component death.
    pub fn has_hard_faults(&self) -> bool {
        !self.hard.is_empty()
    }

    /// Validate every rate site. Call this before handing the plan to a
    /// simulation; [`FaultInjector::new`] still panics on an invalid plan
    /// as a second line of defense.
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        self.gline.validate("gline")?;
        self.noc.validate("noc")?;
        self.dir.validate("dir")?;
        for hf in &self.hard {
            hf.validate()?;
        }
        Ok(())
    }

    /// Whether the plan schedules any *intermittent* hard fault (one with
    /// a repair window).
    pub fn has_repairs(&self) -> bool {
        self.hard.iter().any(|hf| hf.repair_at.is_some())
    }

    /// Schedule a permanent G-line death for every one of `n_nets` lock
    /// networks at a seed-derived cycle in `[earliest, latest]`. The kill
    /// cycle is a pure function of `(seed, net)`, so a chaos schedule is
    /// reproducible from the plan seed alone.
    pub fn kill_all_glock_networks(&mut self, n_nets: usize, earliest: u64, latest: u64) {
        assert!(latest >= earliest, "empty kill window");
        let span = latest - earliest + 1;
        for net in 0..n_nets {
            let mut rng = SplitMix64::new(
                self.seed
                    ^ 0x4841_5244_4641_4C54
                    ^ (net as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            self.hard.push(HardFault {
                at_cycle: earliest + rng.next_below(span),
                target: HardFaultTarget::GlockLine { net },
                repair_at: None,
            });
        }
    }

    /// Like [`Self::kill_all_glock_networks`], but intermittent: each
    /// network becomes repairable `repair_delay` cycles after its
    /// seed-derived kill cycle. Same RNG derivation, so the kill schedule
    /// is identical to the permanent variant under the same seed.
    pub fn blink_all_glock_networks(
        &mut self,
        n_nets: usize,
        earliest: u64,
        latest: u64,
        repair_delay: u64,
    ) {
        assert!(repair_delay > 0, "repair must come strictly after the kill");
        let before = self.hard.len();
        self.kill_all_glock_networks(n_nets, earliest, latest);
        for hf in &mut self.hard[before..] {
            hf.repair_at = Some(hf.at_cycle + repair_delay);
        }
    }

    /// Build the injector for one component instance. `stream`
    /// distinguishes same-site instances (lock index, directory tile, ...).
    pub fn injector(&self, site: FaultSite, stream: u64) -> FaultInjector {
        let rates = match site {
            FaultSite::Gline => self.gline,
            FaultSite::Noc => self.noc,
            FaultSite::Dir => self.dir,
        };
        FaultInjector::new(self.seed, site, stream, rates)
    }
}

/// Running totals of injected faults (reported in diagnostics).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Events the injector ruled on.
    pub decided: u64,
    pub dropped: u64,
    pub delayed: u64,
    pub duplicated: u64,
}
crate::snap!(FaultStats { decided, dropped, delayed, duplicated });

impl FaultStats {
    pub fn injected(&self) -> u64 {
        self.dropped + self.delayed + self.duplicated
    }
}

/// Field-wise totals over several injectors (all the directories, all the
/// G-line networks).
impl std::iter::Sum for FaultStats {
    fn sum<I: Iterator<Item = FaultStats>>(iter: I) -> Self {
        iter.fold(FaultStats::default(), |t, s| FaultStats {
            decided: t.decided + s.decided,
            dropped: t.dropped + s.dropped,
            delayed: t.delayed + s.delayed,
            duplicated: t.duplicated + s.duplicated,
        })
    }
}

/// The per-component decision maker. Holds only a monotone event counter —
/// each verdict is re-derived from `(seed, site, stream, index)`, so
/// cloning or re-creating an injector at the same index replays the exact
/// schedule.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    seed: u64,
    site: FaultSite,
    stream: u64,
    rates: FaultRates,
    next_event: u64,
    stats: FaultStats,
}
// Verdicts are pure functions of `(seed, site, stream, index)`, so the
// monotone event counter plus the running totals are the whole state.
crate::snap!(FaultInjector mark "fault-injector" {
    next_event, stats;
    skip seed, site, stream, rates
});

impl FaultInjector {
    pub fn new(seed: u64, site: FaultSite, stream: u64, rates: FaultRates) -> Self {
        let name = match site {
            FaultSite::Gline => "gline",
            FaultSite::Noc => "noc",
            FaultSite::Dir => "dir",
        };
        if let Err(e) = rates.validate(name) {
            panic!("{e}");
        }
        FaultInjector { seed, site, stream, rates, next_event: 0, stats: FaultStats::default() }
    }

    /// An injector that always delivers (handy as a no-op default).
    pub fn inactive() -> Self {
        FaultInjector::new(0, FaultSite::Gline, 0, FaultRates::NONE)
    }

    pub fn is_active(&self) -> bool {
        self.rates.is_active()
    }

    pub fn rates(&self) -> FaultRates {
        self.rates
    }

    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Rule on the next event at this site.
    pub fn decide(&mut self) -> FaultDecision {
        let idx = self.next_event;
        self.next_event += 1;
        if !self.rates.is_active() {
            return FaultDecision::Deliver;
        }
        self.stats.decided += 1;
        // Independent stream per (seed, site, stream); one SplitMix64 step
        // per event keeps the draw stateless in everything but the index.
        let mut rng = SplitMix64::new(
            self.seed
                ^ self.site.tag().rotate_left(17)
                ^ self.stream.wrapping_mul(0xD605_0B66_4B8B_6E85)
                ^ idx.wrapping_mul(0x2545_F491_4F6C_DD1D),
        );
        let p = rng.next_below(1_000_000) as u32;
        let drop_end = self.rates.drop_ppm;
        let dup_end = drop_end + self.rates.duplicate_ppm;
        let delay_end = dup_end + self.rates.delay_ppm;
        if p < drop_end {
            self.stats.dropped += 1;
            FaultDecision::Drop
        } else if p < dup_end {
            self.stats.duplicated += 1;
            FaultDecision::Duplicate
        } else if p < delay_end {
            self.stats.delayed += 1;
            FaultDecision::Delay(1 + rng.next_below(self.rates.max_delay))
        } else {
            FaultDecision::Deliver
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(drop: u32, dup: u32, delay: u32) -> FaultPlan {
        let mut p = FaultPlan::seeded(42);
        p.gline = FaultRates { drop_ppm: drop, duplicate_ppm: dup, delay_ppm: delay, max_delay: 8 };
        p
    }

    #[test]
    fn schedules_are_deterministic_and_stream_independent() {
        let p = plan(100_000, 50_000, 50_000);
        let mut a = p.injector(FaultSite::Gline, 3);
        let mut b = p.injector(FaultSite::Gline, 3);
        let mut other = p.injector(FaultSite::Gline, 4);
        let seq_a: Vec<_> = (0..500).map(|_| a.decide()).collect();
        let seq_b: Vec<_> = (0..500).map(|_| b.decide()).collect();
        assert_eq!(seq_a, seq_b, "same (seed, site, stream) must replay");
        let seq_o: Vec<_> = (0..500).map(|_| other.decide()).collect();
        assert_ne!(seq_a, seq_o, "streams must be independent");
    }

    #[test]
    fn rates_are_roughly_honored() {
        let p = plan(200_000, 0, 0); // 20% drop
        let mut inj = p.injector(FaultSite::Gline, 0);
        let n = 20_000;
        let dropped = (0..n).filter(|_| inj.decide() == FaultDecision::Drop).count();
        let frac = dropped as f64 / n as f64;
        assert!((0.17..0.23).contains(&frac), "drop fraction {frac} far from 20%");
        assert_eq!(inj.stats().dropped, dropped as u64);
    }

    #[test]
    fn inactive_injector_always_delivers() {
        let mut inj = FaultInjector::inactive();
        assert!(!inj.is_active());
        for _ in 0..100 {
            assert_eq!(inj.decide(), FaultDecision::Deliver);
        }
        assert_eq!(inj.stats(), FaultStats::default());
    }

    #[test]
    fn delays_are_bounded() {
        let p = plan(0, 0, 1_000_000); // always delay
        let mut inj = p.injector(FaultSite::Gline, 0);
        for _ in 0..1000 {
            match inj.decide() {
                FaultDecision::Delay(d) => assert!((1..=8).contains(&d)),
                other => panic!("expected delay, got {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "fault rates exceed 100%")]
    fn overfull_rates_are_rejected() {
        let p = plan(900_000, 200_000, 0);
        let _ = p.injector(FaultSite::Gline, 0);
    }

    #[test]
    fn full_drop_is_expressible() {
        let p = plan(1_000_000, 0, 0);
        let mut inj = p.injector(FaultSite::Gline, 0);
        for _ in 0..100 {
            assert_eq!(inj.decide(), FaultDecision::Drop);
        }
    }

    #[test]
    fn plan_validation_reports_structured_errors() {
        let ok = plan(100_000, 0, 0);
        assert_eq!(ok.validate(), Ok(()));
        let over = plan(900_000, 200_000, 0);
        assert_eq!(
            over.validate(),
            Err(FaultPlanError::RateOverflow { site: "gline", total_ppm: 1_100_000 })
        );
        assert!(over.validate().unwrap_err().to_string().contains("fault rates exceed 100%"));
        let mut unbounded = FaultPlan::seeded(1);
        unbounded.noc = FaultRates { delay_ppm: 10, max_delay: 0, ..FaultRates::NONE };
        assert_eq!(
            unbounded.validate(),
            Err(FaultPlanError::DelayWithoutBound { site: "noc" })
        );
        assert!(unbounded.validate().unwrap_err().to_string().contains("max_delay >= 1"));
    }

    #[test]
    fn repair_windows_are_validated() {
        let mut p = FaultPlan::seeded(3);
        p.hard.push(HardFault::intermittent(1_000, 2_000, HardFaultTarget::GlockLine { net: 0 }));
        assert_eq!(p.validate(), Ok(()));
        assert!(p.has_repairs());

        let mut inverted = FaultPlan::seeded(3);
        inverted
            .hard
            .push(HardFault::intermittent(2_000, 2_000, HardFaultTarget::GlockLine { net: 0 }));
        assert_eq!(
            inverted.validate(),
            Err(FaultPlanError::InvertedRepairWindow { at_cycle: 2_000, repair_at: 2_000 })
        );
        assert!(inverted.validate().unwrap_err().to_string().contains("strictly after"));

        let mut tile = FaultPlan::seeded(3);
        tile.hard.push(HardFault::intermittent(100, 200, HardFaultTarget::Tile { core: 1 }));
        assert_eq!(
            tile.validate(),
            Err(FaultPlanError::UnrepairableTarget {
                target: HardFaultTarget::Tile { core: 1 }
            })
        );

        let mut permanent = FaultPlan::seeded(3);
        permanent.hard.push(HardFault::permanent(100, HardFaultTarget::NocRouter { tile: 2 }));
        assert_eq!(permanent.validate(), Ok(()));
        assert!(!permanent.has_repairs());
    }

    #[test]
    fn blink_schedule_matches_kill_schedule_with_repairs() {
        let mut killed = FaultPlan::seeded(9);
        killed.kill_all_glock_networks(3, 1_000, 5_000);
        let mut blinked = FaultPlan::seeded(9);
        blinked.blink_all_glock_networks(3, 1_000, 5_000, 2_500);
        assert_eq!(blinked.validate(), Ok(()));
        for (k, b) in killed.hard.iter().zip(&blinked.hard) {
            assert_eq!(k.at_cycle, b.at_cycle, "same seed, same kill cycle");
            assert_eq!(b.repair_at, Some(b.at_cycle + 2_500));
        }
    }

    #[test]
    fn hard_fault_schedule_is_seed_deterministic() {
        let mut a = FaultPlan::seeded(7);
        a.kill_all_glock_networks(4, 1_000, 9_000);
        let mut b = FaultPlan::seeded(7);
        b.kill_all_glock_networks(4, 1_000, 9_000);
        assert_eq!(a.hard, b.hard, "same seed must replay the kill schedule");
        assert_eq!(a.hard.len(), 4);
        assert!(a.is_active() && a.has_hard_faults());
        for (k, hf) in a.hard.iter().enumerate() {
            assert!((1_000..=9_000).contains(&hf.at_cycle));
            assert_eq!(hf.target, HardFaultTarget::GlockLine { net: k });
        }
        let mut c = FaultPlan::seeded(8);
        c.kill_all_glock_networks(4, 1_000, 9_000);
        assert_ne!(a.hard, c.hard, "different seeds pick different cycles");
    }
}
