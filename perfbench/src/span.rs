//! Spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start and end on the host clock, the span that
//! opened it, and the id of the rep (one workload run) it belongs to.
//! Spans stay in memory and are written out once the benchmark ends. A
//! disabled [`Tracer`] records nothing: every method returns after one
//! branch, so the untraced runs that give the end-to-end metrics pay no
//! more than that.

use glocks_stats::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub run: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// `step_fast` calls covered (step windows only).
    pub calls: u64,
    /// Simulated cycles covered (step windows only).
    pub cycles: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Give the spans of the next rep a new run id.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            run: self.run,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
            calls: 0,
            cycles: 0,
        });
        self.open.push(self.spans.len() - 1);
    }

    pub fn exit(&mut self) {
        self.exit_counted(0, 0);
    }

    /// Close the innermost span, recording the `step_fast` calls and
    /// simulated cycles it covered.
    pub fn exit_counted(&mut self, calls: u64, cycles: u64) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        let i = self.open.pop().expect("span exit without enter");
        let s = &mut self.spans[i];
        s.end_ns = now;
        s.calls = calls;
        s.cycles = cycles;
    }

    /// Number of open spans.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Close every span opened since the tracer stood at `depth` (a rep
    /// that failed part-way leaves some open).
    pub fn unwind(&mut self, depth: usize) {
        while self.open.len() > depth {
            self.exit();
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Per run, per span name: summed self time (seconds: duration minus
    /// the part covered by child spans), calls, cycles and span count.
    pub fn self_times(&self) -> BTreeMap<u32, BTreeMap<&'static str, SelfTime>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<u32, BTreeMap<&'static str, SelfTime>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.run).or_default().entry(s.name).or_default();
            e.self_s += s.dur_ns().saturating_sub(child_ns[i]) as f64 * 1e-9;
            e.calls += s.calls;
            e.cycles += s.cycles;
            e.count += 1;
        }
        out
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let fields = [
                ("id", Json::UInt(i as u64)),
                ("run", Json::UInt(u64::from(s.run))),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                ),
                ("name", Json::Str(s.name.into())),
                ("start_ns", Json::UInt(s.start_ns)),
                ("end_ns", Json::UInt(s.end_ns)),
                ("calls", Json::UInt(s.calls)),
                ("cycles", Json::UInt(s.cycles)),
            ];
            let obj = fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect();
            out.push_str(&Json::Obj(obj).encode());
            out.push('\n');
        }
        out
    }
}

#[derive(Clone, Copy, Debug, Default)]
pub struct SelfTime {
    pub self_s: f64,
    pub calls: u64,
    pub cycles: u64,
    pub count: u64,
}
