//! Harness-side spans: one around every public call the benchmark makes
//! into a layer. Spans are kept in memory and written as JSON lines only
//! when the run ends, so recording never touches the disk mid-round.

use std::io::Write;

use crate::stats;

/// One timed call. `parent` is the id of the enclosing span (0 = none);
/// `req` ties together the spans that served one request.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects spans while `on`; while off, `record` is a branch and
/// nothing else, so the untraced rounds pay nothing for it.
#[derive(Debug, Default)]
pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Record a finished call; returns its span id (0 when off) so the
    /// caller can parent later spans to it.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Reserve an id for a span that encloses calls not made yet (a
    /// round); fill it in with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: u64, start_ns: u64) -> u64 {
        self.record(name, parent, 0, start_ns, start_ns)
    }

    pub fn close(&mut self, id: u64, end_ns: u64) {
        if id != 0 {
            self.spans[id as usize - 1].end_ns = end_ns;
        }
    }

    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Median duration of the spans called `name`, in ns (0 if none).
    pub fn median_ns(&self, name: &str) -> f64 {
        stats::median_u64(&self.durations(name))
    }

    /// Total duration of the spans called `name`, in ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.durations(name).iter().sum()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// One JSON object per line: `{"workload":"..","id":..,"parent":..,
    /// "req":..,"name":"..","start_ns":..,"end_ns":..}`. Ids are unique
    /// within a workload.
    pub fn write_jsonl(&self, workload: &str, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_on_records_a_tree() {
        let mut t = Tracer::default();
        assert_eq!(t.record("engine.query", 0, 1, 10, 20), 0);
        assert_eq!(t.len(), 0);
        t.set_on(true);
        let round = t.open("round", 0, 100);
        let q = t.record("engine.query", round, 7, 110, 140);
        t.record("engine.query", round, 8, 150, 160);
        t.close(round, 200);
        assert_eq!((round, q), (1, 2));
        assert_eq!(t.durations("engine.query"), vec![30, 10]);
        assert_eq!(t.median_ns("engine.query"), 20.0);
        assert_eq!(t.total_ns("round"), 100);
        let mut buf = Vec::new();
        t.write_jsonl("w", &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 3);
        for line in text.lines() {
            let v = waves_obs::JsonValue::parse(line).unwrap();
            assert!(v.get("name").and_then(|n| n.as_str()).is_some());
        }
        assert!(text
            .lines()
            .nth(1)
            .unwrap()
            .contains("\"workload\":\"w\",\"id\":2,\"parent\":1,\"req\":7"));
    }
}
