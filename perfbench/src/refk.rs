//! The reference kernel: a fixed amount of std-only work, timed beside
//! every rep, so host time can be reported relative to how fast the host
//! runs at that moment.
//!
//! On a shared host the same rep can take anywhere from 1x to 2x its
//! fastest time as other tenants come and go, in swings that last
//! minutes, so the medians of runs made minutes apart spread by more than
//! any useful bound. The kernel's time swings with the host too: ordered
//! maps, hashing, float formatting and parsing, sorting and dynamic
//! dispatch are branchy, allocation-heavy code like the simulator's. In
//! five-minute traces on a 2-vCPU shared VM, the simulator's rep time
//! followed the kernel's with a log-log slope near 1, where it followed a
//! register-only loop's with a slope near 2. Over ten 25-second runs per
//! workload on that VM, dividing by the kernel cut the spread (IQR over
//! median) of the runs' medians from 9-32% to 2-12%.
//!
//! The kernel calls nothing in the simulator, so a change to the program
//! cannot move it. Its inputs are fixed and its hashing unkeyed, so every
//! pass does identical work.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Longest stretch of a rep timed against one pair of kernel passes.
const SEGMENT_S: f64 = 0.5;
/// A time in reference units times this is in reference seconds, which
/// are plain seconds on a host where one pass takes 30 ms (as on a quiet
/// 2.1 GHz Xeon VM).
pub const PASS_S: f64 = 0.030;

/// Host seconds of one pass of the kernel (about 30 ms on a 2.1 GHz Xeon).
pub fn time() -> f64 {
    let t = Instant::now();
    black_box(kernel(black_box(0x9E37_79B9_7F4A_7C15)));
    t.elapsed().as_secs_f64()
}

/// Times reps in host seconds and in reference units: each segment of a
/// rep, at most [`SEGMENT_S`] long, is divided by the mean of the kernel
/// passes just before and just after it, and the quotients are summed.
/// The kernel's own passes count in neither figure. A meter made with
/// [`Meter::off`] never runs the kernel and times host seconds only.
pub struct Meter {
    on: bool,
    start: Instant,
    /// The most recent pass, which begins the next segment.
    last: f64,
    wall_s: f64,
    wall_ref: f64,
    /// Every pass taken, for reporting the host's speed.
    pub passes: Vec<f64>,
}

impl Meter {
    pub fn on() -> Self {
        let last = time();
        Meter {
            on: true,
            passes: vec![last],
            last,
            ..Meter::off()
        }
    }

    pub fn off() -> Self {
        Meter {
            on: false,
            start: Instant::now(),
            last: 0.0,
            wall_s: 0.0,
            wall_ref: 0.0,
            passes: Vec::new(),
        }
    }

    /// The most recent pass, in host seconds.
    pub fn last(&self) -> f64 {
        self.last
    }

    /// Starts timing a rep.
    pub fn begin(&mut self) {
        (self.wall_s, self.wall_ref) = (0.0, 0.0);
        self.start = Instant::now();
    }

    /// Called often from inside a rep: closes the segment once it is
    /// [`SEGMENT_S`] long.
    pub fn poll(&mut self) {
        if self.on && self.start.elapsed().as_secs_f64() >= SEGMENT_S {
            self.close();
        }
    }

    /// Ends the rep: its host seconds and reference units (0 when off).
    pub fn end(&mut self) -> (f64, f64) {
        if self.on {
            self.close();
        } else {
            self.wall_s = self.start.elapsed().as_secs_f64();
        }
        (self.wall_s, self.wall_ref)
    }

    fn close(&mut self) {
        let segment = self.start.elapsed().as_secs_f64();
        let pass = time();
        self.wall_s += segment;
        self.wall_ref += segment / ((self.last + pass) / 2.0);
        self.last = pass;
        self.passes.push(pass);
        self.start = Instant::now();
    }
}

trait Step {
    fn step(&mut self, x: u64) -> u64;
}

struct Mix(u64);
struct Table(Vec<u64>);
struct Queue(std::collections::VecDeque<u64>);

impl Step for Mix {
    fn step(&mut self, x: u64) -> u64 {
        self.0 = self.0.rotate_left(7) ^ x;
        if self.0 % 3 == 0 {
            self.0 / 3
        } else {
            self.0
        }
    }
}

impl Step for Table {
    fn step(&mut self, x: u64) -> u64 {
        let n = self.0.len();
        let j = x as usize % n;
        self.0[j] = self.0[j].wrapping_add(x);
        self.0[(j * 7) % n]
    }
}

impl Step for Queue {
    fn step(&mut self, x: u64) -> u64 {
        if x & 1 == 0 {
            self.0.push_back(x);
        } else {
            self.0.pop_front();
        }
        self.0.len() as u64
    }
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn kernel(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut acc = 0u64;
    let mut tree = BTreeMap::new();
    for _ in 0..60_000 {
        let k = xorshift(&mut x) % 75_000;
        if k & 4 == 0 {
            tree.insert(k, x);
        } else if let Some(v) = tree.remove(&(k ^ 1)) {
            acc ^= v;
        }
    }
    let mut names: HashMap<u64, String, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for _ in 0..22_000 {
        let f = (xorshift(&mut x) % 1_000_000) as f64 / 7.0;
        let s = format!("{f:.4}");
        acc = acc.wrapping_add(s.parse::<f64>().map_or(0, |v| v as u64));
        names.insert(x % 4096, s);
    }
    let mut v: Vec<u32> = (0..90_000).map(|_| xorshift(&mut x) as u32).collect();
    v.sort_unstable();
    acc ^= u64::from(v[v.len() / 2]);
    let mut steps: Vec<Box<dyn Step>> = (0..64)
        .map(|i| match i % 3 {
            0 => Box::new(Mix(i)) as Box<dyn Step>,
            1 => Box::new(Table(vec![1; 512])),
            _ => Box::new(Queue(Default::default())),
        })
        .collect();
    for _ in 0..300_000 {
        let r = xorshift(&mut x);
        acc = acc.wrapping_add(steps[(r % 64) as usize].step(r));
    }
    acc.wrapping_add(names.len() as u64 + tree.len() as u64)
}
