//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around its calls into
//! each crate: name, start, end, parent span and the id of the solve or
//! job they belong to. They stay in memory and are written as Chrome
//! trace-event JSON (which Perfetto opens) when the run ends. With the
//! recorder disabled, [`Recorder::span`] only calls its closure.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// The solve or job this span belongs to.
    pub job: u64,
    /// Small integer naming the recording thread.
    pub tid: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    static TID: u64 = {
        use std::sync::atomic::{AtomicU64, Ordering};
        // a statistic-style counter: it publishes no other data
        static NEXT: AtomicU64 = AtomicU64::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span named `name`. `f` receives the span's id (to
    /// parent child spans), or `None` when recording is off.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        job: u64,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let id = {
            let mut spans = self.spans.lock().expect("span list mutex poisoned");
            spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                job,
                tid: TID.with(|t| *t),
            });
            spans.len() - 1
        };
        let start = self.now_ns();
        let r = f(Some(id));
        let end = self.now_ns();
        let mut spans = self.spans.lock().expect("span list mutex poisoned");
        spans[id].start_ns = start;
        spans[id].end_ns = end;
        r
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span list mutex poisoned").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list mutex poisoned").clone()
    }

    /// Per span name: (total seconds, self seconds, count). A span's self
    /// time is its duration minus the part of it its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, f64, usize)> {
        let spans = self.spans();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, (f64, f64, usize)> = BTreeMap::new();
        for (s, kids) in spans.iter().zip(children.iter_mut()) {
            let covered = covered_ns(kids, s.start_ns, s.end_ns);
            let e = out.entry(s.name).or_insert((0.0, 0.0, 0));
            e.0 += s.seconds();
            e.1 += (s.end_ns - s.start_ns - covered) as f64 * 1e-9;
            e.2 += 1;
        }
        out
    }

    /// Write every span as Chrome trace-event JSON under `.perfbench_out/`
    /// of the working directory and return the file's path.
    pub fn write_chrome_json(&self, workload: &str, seed: u64) -> std::io::Result<String> {
        use std::io::Write;
        let dir = std::path::Path::new(".perfbench_out");
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("trace-{workload}-seed{seed}.json"));
        let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(w, "{{\"traceEvents\": [")?;
        let spans = self.spans();
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {parent}, \"job\": {}}}}}{}",
                s.name,
                s.tid,
                s.start_ns as f64 * 1e-3,
                (s.end_ns - s.start_ns) as f64 * 1e-3,
                s.job,
                if i + 1 < spans.len() { "," } else { "" }
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()?;
        Ok(path.display().to_string())
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(cursor), b.min(hi));
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut kids = vec![(10, 30), (20, 40), (50, 60), (90, 120)];
        // union inside [0, 100): [10, 40) + [50, 60) + [90, 100)
        assert_eq!(covered_ns(&mut kids, 0, 100), 30 + 10 + 10);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::new(false);
        let v = rec.span("x", None, 0, |id| {
            assert!(id.is_none());
            7
        });
        assert_eq!(v, 7);
        assert!(rec.is_empty());
    }

    #[test]
    fn children_nest_inside_their_parent() {
        let rec = Recorder::new(true);
        rec.span("outer", None, 3, |id| {
            rec.span("inner", id, 3, |_| std::hint::black_box(1 + 1));
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let st = rec.self_times();
        assert!(st["outer"].1 <= st["outer"].0);
    }
}
