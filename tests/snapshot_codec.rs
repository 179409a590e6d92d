//! The checkpoint byte format, held two ways.
//!
//! * **Pinned images.** Fixed machines checkpointed at fixed cycles must
//!   produce images of the recorded length and [`Fingerprint`] digest. A
//!   deliberate format change bumps `SNAP_VERSION` and re-records the
//!   table in the same commit (the failure message prints the new rows);
//!   a digest that moves without a version bump is an accidental format
//!   change.
//! * **Symmetry.** checkpoint → [`Simulation::resume`] → checkpoint yields
//!   the same bytes. A load that drops or misplaces a field shows up here
//!   even when that field never changes the run, which the dump-identity
//!   tests cannot see.
//!
//! Stats are on throughout, so the typed-stats registry rides in every
//! image.

use glocks_arrivals::{ArrivalProcess, ServiceConfig, ServiceWorkload};
use glocks_repro::cpu::Workload;
use glocks_repro::prelude::*;
use glocks_repro::sim::{CheckerConfig, Snapshot};
use glocks_repro::sim_base::fault::{FaultPlan, FaultRates};
use glocks_repro::sim_base::snap::{Fingerprint, SnapError, SNAP_VERSION};
use glocks_repro::stats as gstats;

const CORES: usize = 8;

/// Per-core programs and the initial memory image of one machine.
type Parts = (Vec<Box<dyn Workload>>, Vec<(Addr, u64)>);
const SERVICE_DATA: Addr = Addr(0x200_0000);

#[derive(Clone, Copy)]
enum Load {
    Bench(BenchKind),
    /// Open-loop MMPP arrivals over one lock: at cycle 6,000 streams 1 and 6
    /// are mid-burst, with the arrival RNGs mid-stream.
    Service,
}

/// One machine specification, rebuilt from scratch for every resume.
struct Machine {
    load: Load,
    mapping: LockMapping,
    options: SimulationOptions,
}

impl Machine {
    fn bench(kind: BenchKind, algo: LockAlgorithm) -> Self {
        let bench = BenchConfig::smoke(kind, CORES);
        Machine {
            load: Load::Bench(kind),
            mapping: LockMapping::hybrid(&bench.hc_locks(), algo, bench.n_locks()),
            options: SimulationOptions::default(),
        }
    }

    /// SCTR through a G-line kill → repair → fail-back, checker attached.
    fn chaos(algo: LockAlgorithm) -> Self {
        let mut plan = FaultPlan::seeded(0xBEEF);
        plan.gline = FaultRates::drops(10_000);
        plan.blink_all_glock_networks(1, 2_000, 6_000, 40_000);
        Machine {
            options: SimulationOptions {
                fault_plan: Some(plan),
                checker: Some(CheckerConfig::default()),
                watchdog_cycles: 500_000,
                ..Default::default()
            },
            ..Machine::bench(BenchKind::Sctr, algo)
        }
    }

    fn service() -> Self {
        Machine {
            load: Load::Service,
            mapping: LockMapping::uniform(LockAlgorithm::Glock, 1),
            options: SimulationOptions { watchdog_cycles: 500_000, ..Default::default() },
        }
    }

    fn parts(&self) -> Parts {
        match self.load {
            Load::Bench(kind) => {
                let inst = BenchConfig::smoke(kind, CORES).build();
                (inst.workloads, inst.init)
            }
            Load::Service => {
                let process = ArrivalProcess::Mmpp {
                    calm_gap: 900,
                    burst_gap: 60,
                    calm_dwell: 3_000,
                    burst_dwell: 2_000,
                };
                let workloads = (0..CORES)
                    .map(|core| {
                        let c = ServiceConfig {
                            lock: LockId(0),
                            data: SERVICE_DATA,
                            cs_instructions: 8,
                            requests: 40,
                            queue_cap: 16,
                            process,
                            tenant: 0,
                        };
                        Box::new(ServiceWorkload::new(c, 0xA11E, core as u64)) as Box<dyn Workload>
                    })
                    .collect();
                (workloads, vec![(SERVICE_DATA, 0)])
            }
        }
    }

    fn cfg(&self) -> CmpConfig {
        CmpConfig::paper_baseline().with_cores(CORES)
    }

    /// A fresh machine inside a fresh stats session.
    fn start(&self) -> Simulation {
        gstats::enable(gstats::StatsConfig::default());
        let (workloads, init) = self.parts();
        Simulation::new(&self.cfg(), &self.mapping, workloads, &init, self.options.clone())
    }

    /// Step `sim` densely to `cycle` and checkpoint it there; `None` if
    /// the run finished first.
    fn image_at(sim: &mut Simulation, cycle: u64) -> Option<Snapshot> {
        while sim.now() < cycle {
            if sim.step().expect("run stays healthy until the checkpoint") {
                return None;
            }
        }
        Some(sim.checkpoint().expect("every component snapshots"))
    }

    /// Resume `bytes` into a rebuilt machine in a fresh stats session.
    fn resume(&self, bytes: &[u8]) -> Result<Simulation, SnapError> {
        gstats::enable(gstats::StatsConfig::default());
        let snap = Snapshot::from_bytes(bytes.to_vec())?;
        let (workloads, init) = self.parts();
        let options = self.options.clone();
        Simulation::resume(&self.cfg(), &self.mapping, workloads, &init, options, &snap)
    }

    /// Resume `snap` and checkpoint the rebuilt machine straight away.
    fn round_trip(&self, snap: &Snapshot) -> Snapshot {
        let mut sim = self
            .resume(snap.as_bytes())
            .expect("a snapshot loads into an identically specified machine");
        let again = sim.checkpoint().expect("a resumed machine snapshots");
        gstats::disable();
        again
    }
}

fn digest(snap: &Snapshot) -> (usize, u64) {
    let mut fp = Fingerprint::new();
    fp.mix_bytes(snap.as_bytes());
    (snap.len(), fp.value())
}

/// Checkpoint `m` at each of `cycles` in one run, round-trip every image
/// and return the originals. Cycles the run does not reach are skipped.
fn symmetric_images(m: &Machine, what: &str, cycles: &[u64]) -> Vec<(u64, Snapshot)> {
    let mut sim = m.start();
    let mut images = Vec::new();
    for &cycle in cycles {
        match Machine::image_at(&mut sim, cycle) {
            Some(snap) => images.push((cycle, snap)),
            None => break,
        }
    }
    drop(sim);
    gstats::disable();
    for (cycle, snap) in &images {
        let again = m.round_trip(snap);
        assert!(
            again == *snap,
            "{what} @{cycle}: checkpoint → resume → checkpoint changed the image \
             ({} → {} bytes; a load drops or misplaces a field its save writes)",
            snap.len(),
            again.len()
        );
    }
    images
}

/// `(label, cycle, length, digest)` of every pinned image, recorded when
/// `SNAP_VERSION` was 4.
const PINNED: &[(&str, u64, usize, u64)] = &[
    ("SCTR/Simple", 7000, 88353, 0x31f87f4e557bd646),
    ("SCTR/TATAS", 7000, 88622, 0x9d701d4a76d09a1f),
    ("SCTR/TATAS-BO", 7000, 88440, 0x74ea42460f1cb7fb),
    ("SCTR/Ticket", 7000, 88517, 0x6b2115d3427c45a2),
    ("SCTR/Anderson", 7000, 89286, 0xaf3188ce62352d6e),
    ("SCTR/MCS", 7000, 89435, 0xdd7f07124076fa94),
    ("SCTR/Ideal", 7000, 88093, 0xee4cb4cc39bf53da),
    ("SCTR/GLock", 7000, 89562, 0x458b28644f7b1543),
    ("SCTR/MP-Lock", 7000, 88031, 0xdfa68c2e43dc2fac),
    ("SCTR/SB", 7000, 88049, 0x62599a59286ce364),
    ("SCTR/DynGLock", 7000, 90948, 0x9b0ab3f56a5d5525),
    ("SCTR/Reactive", 7000, 88663, 0x87217fb99faddb4e),
    ("MCTR/MCS", 7000, 89867, 0x5c8b8df95510af5e),
    ("DBLL/MCS", 7000, 90861, 0xd54254af0f65d0d8),
    ("PRCO/MCS", 7000, 90099, 0x0c880a2007791408),
    ("ACTR/MCS", 7000, 94009, 0xb20eef5c219ea327),
    ("RAYTR/MCS", 7000, 151802, 0xaa4cb9a655144295),
    ("OCEAN/MCS", 7000, 112287, 0x104ba2634ad0bd73),
    ("QSORT/MCS", 7000, 129124, 0xe589f6aad864ad22),
    ("chaos/GLock", 50000, 92288, 0xeb31c7ed4f38245f),
    ("chaos/DynGLock", 50000, 93698, 0x4db78fb923ac5de2),
    ("service/GLock", 6000, 93239, 0x7ae609ae9ec97eb8),
];

fn pinned_machines() -> Vec<(String, Machine, u64)> {
    let mut out = Vec::new();
    for algo in LockAlgorithm::ALL {
        out.push((format!("SCTR/{}", algo.name()), Machine::bench(BenchKind::Sctr, algo), 7_000));
    }
    for kind in BenchKind::ALL.into_iter().filter(|&k| k != BenchKind::Sctr) {
        let m = Machine::bench(kind, LockAlgorithm::Mcs);
        out.push((format!("{}/MCS", kind.name()), m, 7_000));
    }
    for algo in [LockAlgorithm::Glock, LockAlgorithm::DynamicGlock] {
        out.push((format!("chaos/{}", algo.name()), Machine::chaos(algo), 50_000));
    }
    out.push(("service/GLock".to_string(), Machine::service(), 6_000));
    out
}

#[test]
fn snapshot_images_match_the_pinned_format() {
    assert_eq!(SNAP_VERSION, 4, "a format change re-records PINNED below");
    let mut got = Vec::new();
    for (label, m, cycle) in pinned_machines() {
        let mut sim = m.start();
        let snap = Machine::image_at(&mut sim, cycle)
            .unwrap_or_else(|| panic!("{label} finished before cycle {cycle}"));
        drop(sim);
        gstats::disable();
        let (len, dig) = digest(&snap);
        got.push((label, cycle, len, dig));
    }
    let table: String = got
        .iter()
        .map(|(l, c, n, d)| format!("    ({l:?}, {c}, {n}, {d:#018x}),\n"))
        .collect();
    let same = got.len() == PINNED.len()
        && got.iter().zip(PINNED).all(|((l, c, n, d), p)| (l.as_str(), *c, *n, *d) == *p);
    assert!(same, "snapshot images moved; the current rows are:\n{table}");
}

fn symmetric_for(kind: BenchKind) {
    for algo in LockAlgorithm::ALL {
        let what = format!("{}/{}", kind.name(), algo.name());
        symmetric_images(&Machine::bench(kind, algo), &what, &[1_500, 7_000]);
    }
}

#[test]
fn sctr_images_are_symmetric() {
    symmetric_for(BenchKind::Sctr);
}

#[test]
fn mctr_images_are_symmetric() {
    symmetric_for(BenchKind::Mctr);
}

#[test]
fn dbll_images_are_symmetric() {
    symmetric_for(BenchKind::Dbll);
}

#[test]
fn prco_images_are_symmetric() {
    symmetric_for(BenchKind::Prco);
}

#[test]
fn actr_images_are_symmetric() {
    symmetric_for(BenchKind::Actr);
}

#[test]
fn raytr_images_are_symmetric() {
    symmetric_for(BenchKind::Raytr);
}

#[test]
fn ocean_images_are_symmetric() {
    symmetric_for(BenchKind::Ocean);
}

#[test]
fn qsort_images_are_symmetric() {
    symmetric_for(BenchKind::Qsort);
}

/// The fault machinery's state (quarantined nets, fail-back probes and
/// drain, the checker's shadow) and an open-loop service backlog.
#[test]
fn chaos_and_service_images_are_symmetric() {
    for algo in [LockAlgorithm::Glock, LockAlgorithm::DynamicGlock] {
        let what = format!("chaos/{}", algo.name());
        let images =
            symmetric_images(&Machine::chaos(algo), &what, &[4_000, 20_000, 50_000]);
        assert_eq!(images.len(), 3, "{what} must outlive the probe/drain window");
    }
    let images = symmetric_images(&Machine::service(), "service", &[1_500, 6_000]);
    assert_eq!(images.len(), 2, "the service run must outlive its checkpoints");
}

/// A damaged image is refused, never mis-loaded: each kind of damage meets
/// the check that guards it.
#[test]
fn damaged_images_are_refused() {
    let m = Machine::bench(BenchKind::Sctr, LockAlgorithm::Mcs);
    let mut sim = m.start();
    let image = Machine::image_at(&mut sim, 1_500).expect("SCTR runs past cycle 1,500");
    drop(sim);
    gstats::disable();
    let bytes = image.as_bytes();
    // Header (magic, version, fingerprint, cycle) = 24 bytes, then the
    // "sim" mark, the progress mark (16), the core count (8), the first
    // core's "core" mark and its state tag.
    const FINGERPRINT: usize = 8;
    const SIM_MARK: usize = 24;
    const CORE_COUNT: usize = 44;
    const FIRST_CORE_STATE: usize = 56;
    let damaged = |at: usize, byte: u8| {
        let mut b = bytes.to_vec();
        b[at] = byte;
        m.resume(&b).err().expect("a damaged image must be refused")
    };
    let refusals = [
        damaged(FINGERPRINT, bytes[FINGERPRINT] ^ 1),
        damaged(SIM_MARK, bytes[SIM_MARK] ^ 1),
        damaged(CORE_COUNT, 9),
        damaged(FIRST_CORE_STATE, 99),
        m.resume(&bytes[..bytes.len() / 2]).err().expect("a truncated image must be refused"),
    ];
    gstats::disable();
    let [fingerprint, mark, shape, tag, truncated] = refusals;
    assert!(matches!(fingerprint, SnapError::FingerprintMismatch { .. }), "{fingerprint}");
    assert_eq!(mark, SnapError::MarkMismatch { label: "sim" });
    assert_eq!(shape, SnapError::Corrupt { what: "core count" });
    assert!(matches!(tag, SnapError::BadTag { tag: 99, .. }), "{tag}");
    assert!(matches!(truncated, SnapError::Truncated { .. }), "{truncated}");
}
