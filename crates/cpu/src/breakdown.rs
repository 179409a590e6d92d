//! Per-thread execution-time attribution — Figure 8's four categories,
//! plus an `Idle` bucket for open-loop service workloads (a core sleeping
//! between request arrivals is doing none of the paper's four things).

/// Where a core cycle is spent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Category {
    /// Computation ("Busy").
    Busy,
    /// Waiting on workload memory operations ("Memory").
    Memory,
    /// Inside lock acquire/release ("Lock").
    Lock,
    /// Inside a barrier episode ("Barrier").
    Barrier,
    /// Sleeping until a scheduled arrival (`Action::WaitUntil`). Closed-loop
    /// workloads never charge this, so Figure 8's four-way split is intact.
    Idle,
}

/// Cycle counts per category for one thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Breakdown {
    pub busy: u64,
    pub memory: u64,
    pub lock: u64,
    pub barrier: u64,
    /// Open-loop inter-arrival sleep; always 0 for closed-loop workloads.
    pub idle: u64,
    /// Dynamic instructions executed (energy-model input).
    pub instructions: u64,
}
glocks_sim_base::snap!(Breakdown { busy, memory, lock, barrier, idle, instructions });

impl Breakdown {
    #[inline]
    pub fn charge(&mut self, cat: Category, cycles: u64) {
        match cat {
            Category::Busy => self.busy += cycles,
            Category::Memory => self.memory += cycles,
            Category::Lock => self.lock += cycles,
            Category::Barrier => self.barrier += cycles,
            Category::Idle => self.idle += cycles,
        }
    }

    /// Total attributed cycles (including idle sleep).
    pub fn total(&self) -> u64 {
        self.busy + self.memory + self.lock + self.barrier + self.idle
    }

    /// Attributed cycles spent doing work, excluding inter-arrival sleep —
    /// the denominator for Figure 8's four-way fractions.
    pub fn active(&self) -> u64 {
        self.busy + self.memory + self.lock + self.barrier
    }

    /// Element-wise sum (for fleet averages).
    pub fn merge(&mut self, other: &Breakdown) {
        self.busy += other.busy;
        self.memory += other.memory;
        self.lock += other.lock;
        self.barrier += other.barrier;
        self.idle += other.idle;
        self.instructions += other.instructions;
    }

    /// Fractions of the active (non-idle) cycles per category
    /// `[busy, memory, lock, barrier]`; zeros if nothing attributed.
    /// Idle sleep is excluded so the Figure 8 split stays a distribution
    /// over working cycles even for open-loop service runs.
    pub fn fractions(&self) -> [f64; 4] {
        let t = self.active();
        if t == 0 {
            return [0.0; 4];
        }
        [
            self.busy as f64 / t as f64,
            self.memory as f64 / t as f64,
            self.lock as f64 / t as f64,
            self.barrier as f64 / t as f64,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate() {
        let mut b = Breakdown::default();
        b.charge(Category::Busy, 10);
        b.charge(Category::Lock, 30);
        b.charge(Category::Memory, 40);
        b.charge(Category::Barrier, 20);
        assert_eq!(b.total(), 100);
        let f = b.fractions();
        assert_eq!(f, [0.1, 0.4, 0.3, 0.2]);
    }

    #[test]
    fn empty_fractions_are_zero() {
        assert_eq!(Breakdown::default().fractions(), [0.0; 4]);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a =
            Breakdown { busy: 1, memory: 2, lock: 3, barrier: 4, idle: 0, instructions: 5 };
        let b = a;
        a.merge(&b);
        assert_eq!(a.total(), 20);
        assert_eq!(a.instructions, 10);
    }

    #[test]
    fn idle_excluded_from_fractions_but_counted_in_total() {
        let mut b = Breakdown::default();
        b.charge(Category::Busy, 30);
        b.charge(Category::Memory, 10);
        b.charge(Category::Idle, 60);
        assert_eq!(b.total(), 100);
        assert_eq!(b.active(), 40);
        assert_eq!(b.fractions(), [0.75, 0.25, 0.0, 0.0]);
    }
}
