//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span records its name (`layer.operation`), start and end, the span
//! open when it began (its parent) and the item it belongs to (a flush
//! sequence number, a roll-up or an instance). Spans stay in memory
//! while the workload runs and are written out when it ends. A disabled
//! tracer records nothing and costs one branch per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `layer.operation`; the layer is the part before the first dot.
    pub name: &'static str,
    /// The item (flush, roll-up, instance) the span belongs to.
    pub item: u64,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall time covered by the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer the span is attributed to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Span recorder; see the module docs.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, item: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            item,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let i = self.open.pop().expect("end() without begin()");
        self.spans[i].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, item: u64, f: impl FnOnce() -> R) -> R {
        self.begin(name, item);
        let r = f();
        self.end();
        r
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as tab-separated lines: name, item, start_ns,
    /// end_ns, parent index (`-` for none).
    pub fn write_tsv(&self, w: &mut impl Write) -> std::io::Result<()> {
        writeln!(w, "name\titem\tstart_ns\tend_ns\tparent")?;
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}",
                s.name, s.item, s.start_ns, s.end_ns, parent
            )?;
        }
        Ok(())
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once;
/// a child reaching past its parent counts only inside it).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Self time summed per layer.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer()).or_insert(0) += t;
    }
    out
}

/// `(count, total duration ns)` per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_insert((0, 0));
        e.0 += 1;
        e.1 += s.duration_ns();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            item: 0,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) ⊃ a [10,40) ⊃ a1 [15,25); b [50,70).
        let spans = vec![
            span("bench.root", 0, 100, None),
            span("ingest.a", 10, 40, Some(0)),
            span("wire.a1", 15, 25, Some(1)),
            span("topology.b", 50, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
        let by_layer = self_time_by_layer(&spans);
        assert_eq!(by_layer["bench"], 50);
        assert_eq!(by_layer["ingest"], 20);
        assert_eq!(by_layer["wire"], 10);
        assert_eq!(by_layer["topology"], 20);
        // Self times partition the root's duration.
        assert_eq!(by_layer.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("bench.root", 0, 100, None),
            span("core.x", 10, 50, Some(0)),
            span("core.y", 30, 60, Some(0)),
            span("core.z", 90, 130, Some(0)),
        ];
        // Covered: [10,60) + [90,100) = 60.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn tracer_records_nesting_and_items() {
        let mut t = Tracer::new(true);
        t.begin("bench.item", 7);
        let v = t.time("codec.decode", 7, || 41 + 1);
        t.end();
        assert_eq!(v, 42);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].item, 7);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(totals_by_name(s)["codec.decode"].0, 1);
        let mut out = Vec::new();
        t.write_tsv(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.begin("bench.item", 1);
        t.time("codec.decode", 1, || ());
        t.end();
        assert!(t.spans().is_empty());
    }
}
