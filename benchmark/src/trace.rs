//! Outside-in spans: recorded around the benchmark's own calls into the
//! program, kept in memory, written out when the run ends. No file
//! outside `benchmark/` gains a span.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval. `parent` indexes the span that was open when
/// this one began; spans of one tick share `tick`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub tick: u64,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Handle of an open span (`None` while tracing is off).
#[must_use]
pub struct Open(Option<u32>);

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Untraced runs pay one branch per call site.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, tick: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            tick,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, open: Open) {
        if let Some(id) = open.0 {
            self.spans[id as usize].end_ns = self.now_ns();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans must nest");
        }
    }

    /// Run `f` under a span (when tracing is on); returns its nanoseconds.
    pub fn time(&mut self, name: &'static str, f: impl FnOnce()) -> f64 {
        let span = self.enter(name, 0);
        let t0 = Instant::now();
        f();
        let ns = t0.elapsed().as_nanos() as f64;
        self.exit(span);
        ns
    }

    /// Self time per span name in milliseconds: each span's duration
    /// minus the part its direct children cover.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(child);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// The trace file: every span plus the per-name self times.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut s = format!("{{\n  \"workload\": \"{workload}\",\n  \"seed\": {seed},\n");
        s.push_str("  \"self_ms\": {");
        let selfs: Vec<String> = self
            .self_ms()
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v:.6}"))
            .collect();
        s.push_str(&selfs.join(", "));
        s.push_str("},\n  \"spans\": [\n");
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|sp| {
                format!(
                    "    {{\"name\": \"{}\", \"tick\": {}, \"parent\": {}, \
                     \"start_ns\": {}, \"end_ns\": {}}}",
                    sp.name,
                    sp.tick,
                    sp.parent.map_or("null".to_string(), |p| p.to_string()),
                    sp.start_ns,
                    sp.end_ns
                )
            })
            .collect();
        s.push_str(&rows.join(",\n"));
        s.push_str("\n  ]\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let mut t = Tracer::new();
        let o = t.enter("quiet", 0);
        t.exit(o);
        assert!(t.spans.is_empty());

        t.set_enabled(true);
        let outer = t.enter("tick", 1);
        let inner = t.enter("step", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(inner);
        t.exit(outer);
        assert_eq!(t.spans[1].parent, Some(0));
        let s = t.self_ms();
        assert!(s["step"] >= 2.0);
        assert!(s["tick"] < s["step"]);
        let json = crate::sut::json::parse(&t.to_json("w", 7)).expect("trace file is JSON");
        assert_eq!(json.get("spans").unwrap().as_array().unwrap().len(), 2);
    }
}
