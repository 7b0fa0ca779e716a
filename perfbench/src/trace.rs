//! Benchmark-side spans: recorded around calls into each layer's public
//! functions, kept in memory and written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary name (one of [`crate::report::SPANS`]).
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<u32>,
    /// Request id, for spans that belong to one serve request.
    pub req: Option<u64>,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A handle to an open span; [`Tracer::close`] takes it back.
#[must_use]
pub struct Open(Option<u32>);

/// A per-thread span recorder. When off, opening and closing spans does
/// nothing and reads no clock.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A tracer recording relative to `epoch` when `on`.
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, req: Option<u64>) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            req,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes `span`, which must be the innermost open one.
    pub fn close(&mut self, span: Open) {
        if let Some(id) = span.0 {
            let end_ns = self.now_ns();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost first");
            self.spans[id as usize].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a leaf span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let s = self.open(name, None);
        let out = f();
        self.close(s);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans, consuming the tracer.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default, Clone)]
pub struct Layer {
    /// Every span's duration, ns.
    pub durations: Vec<f64>,
    /// Summed self time (duration minus child spans), ns.
    pub self_ns: u64,
}

/// Groups `spans` by name with self times. Parents index into the same
/// slice, so spans from several tracers are summarised one tracer at a
/// time and merged with [`merge`].
pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.ns();
        }
    }
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (s, c) in spans.iter().zip(child_ns) {
        let l = out.entry(s.name).or_default();
        l.durations.push(s.ns() as f64);
        l.self_ns += s.ns().saturating_sub(c);
    }
    out
}

/// Folds `other` into `into`.
pub fn merge(into: &mut BTreeMap<&'static str, Layer>, other: BTreeMap<&'static str, Layer>) {
    for (name, l) in other {
        let e = into.entry(name).or_default();
        e.durations.extend(l.durations);
        e.self_ns += l.self_ns;
    }
}

/// Writes `groups` (one span list per tracer) as tab-separated lines:
/// `group id parent name start_ns end_ns req`.
///
/// # Errors
///
/// I/O errors from creating or writing the file.
pub fn write_tsv(path: &Path, groups: &[&[Span]]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "group\tid\tparent\tname\tstart_ns\tend_ns\treq")?;
    for (g, spans) in groups.iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let req = s.req.map_or("-".to_string(), |r| r.to_string());
            writeln!(
                w,
                "{g}\t{i}\t{parent}\t{}\t{}\t{}\t{req}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    w.flush()
}
