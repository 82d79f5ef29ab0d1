//! In-memory spans recorded from the bench's own code around the calls
//! it makes into each layer, written out when the run ends.
//!
//! A span is a name, a start and end (nanoseconds since the tracer's
//! origin), the request it belongs to and the span that caused it. A
//! span's self time is its duration minus the part of that interval its
//! direct children cover.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRec {
    pub name: &'static str,
    /// The request this span belongs to (shared by all its spans).
    pub request: u64,
    /// Index of the parent span in the same [`Trace`], if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A span list with a common time origin.
pub struct Trace {
    origin: Instant,
    pub spans: Vec<SpanRec>,
}

impl Trace {
    pub fn new(origin: Instant) -> Self {
        Trace {
            origin,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the origin to `t` (0 for instants before it).
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span and returns its index (for children to point at).
    pub fn push(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = SpanRec {
            name,
            request,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Self time of every span, in nanoseconds, indexed like `spans`.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| {
                let covered = covered_ns(s.start_ns, s.end_ns, kids);
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Mean self time per span name, in microseconds, with span counts.
    pub fn mean_self_us(&self) -> BTreeMap<&'static str, (f64, usize)> {
        let mut acc: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            let e = acc.entry(s.name).or_default();
            e.0 += t as f64 / 1e3;
            e.1 += 1;
        }
        for v in acc.values_mut() {
            v.0 /= v.1 as f64;
        }
        acc
    }

    /// Writes one JSON object per span, one per line.
    pub fn write_jsonl(&self, mut out: impl Write) -> io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// How much of `[start, end)` the union of `intervals` covers.
fn covered_ns(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (a, b) in intervals {
        let (a, b) = (a.max(reach), b.min(end));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

/// FNV-1a over a request line: the key that joins a server-side span to
/// the client-side span of the same request.
pub fn line_key(line: &str) -> u64 {
    line.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut tr = Trace::new(t0);
        let root = tr.push("request", 1, None, at(0), at(100));
        tr.push("parse", 1, Some(root), at(10), at(30));
        // Overlapping children count once.
        tr.push("read", 1, Some(root), at(20), at(60));
        tr.push("encode", 1, Some(root), at(90), at(120));
        let st = tr.self_times();
        assert_eq!(st[root], (100 - (60 - 10) - (100 - 90)) * 1000);
        assert_eq!(st[1], 20_000);
        let means = tr.mean_self_us();
        assert_eq!(means["parse"], (20.0, 1));
        let mut out = Vec::new();
        tr.write_jsonl(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 4);
    }

    #[test]
    fn line_keys_differ_for_different_lines() {
        assert_ne!(line_key("batch ns/r0 1 0:1"), line_key("batch ns/r0 1 0:2"));
        assert_eq!(line_key("x"), line_key("x"));
    }
}
