//! Spans recorded by the harness around its calls into each layer. They
//! are kept in memory and written out once, when the run ends.

use std::io::{self, Write};
use std::time::Instant;

/// Index of a span in its [`Tracer`]; also its `id` in the written trace.
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The job (one program run, one request) the span belongs to.
    pub job: u64,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span buffer of a run; times count from `epoch`.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span starting now; [`Tracer::close`] ends it.
    pub fn open(&mut self, name: &'static str, job: u64, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.record(name, job, parent, start_ns, start_ns)
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records a span whose ends were clocked by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        job: u64,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            job,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span.
    pub fn scope<R>(
        &mut self,
        name: &'static str,
        job: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, job, parent);
        let r = f();
        self.close(id);
        r
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let start = s.start_ns.max(spans[p].start_ns);
            let end = s.end_ns.min(spans[p].end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Writes one JSON object per span.
pub fn write_jsonl(spans: &[Span], out: &mut impl Write) -> io::Result<()> {
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"job\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.job, s.start_ns, s.end_ns
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            job: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 50, 60),
            span(Some(1), 12, 20),
        ];
        assert_eq!(self_times_ns(&spans), vec![70, 12, 10, 8]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span(None, 100, 200),
            span(Some(0), 110, 150),
            span(Some(0), 140, 160),
            span(Some(0), 120, 130),
            span(Some(0), 190, 250),
        ];
        // Cover: [110,160) and [190,200) = 60.
        assert_eq!(self_times_ns(&spans)[0], 40);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let spans = [span(None, 1, 2), span(Some(0), 1, 2)];
        let mut out = Vec::new();
        write_jsonl(&spans, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(
            text.lines().next().unwrap(),
            "{\"id\":0,\"name\":\"s\",\"job\":0,\"parent\":null,\"start_ns\":1,\"end_ns\":2}"
        );
        assert_eq!(text.lines().count(), 2);
    }
}
