//! The benchmark's own in-memory span recorder.
//!
//! Spans wrap the calls the benchmark makes into each layer; nothing
//! inside the library is instrumented. A span knows the span that was
//! open when it started (`parent`) and the operation it belongs to
//! (`run_id`). Spans are kept in memory and written out once, when the
//! run ends. Every interval is timed whether or not the recorder is on
//! (the end-to-end metrics need the numbers); turning it on only adds
//! the push into `spans`.

use runtime::obs::json::Json;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run_id: u32,
}

/// A started interval; hand it back to [`Tracer::exit`].
pub struct Open {
    index: Option<usize>,
    start: Instant,
}

pub struct Tracer {
    pub enabled: bool,
    pub run_id: u32,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            enabled: false,
            run_id: 0,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let index = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: 0,
                parent: self.stack.last().copied(),
                run_id: self.run_id,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { index, start }
    }

    /// Close the interval and return its length in seconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(i) = open.index {
            self.spans[i].end_ns = (end - self.epoch).as_nanos() as u64;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(i), "spans must close in LIFO order");
        }
        (end - open.start).as_secs_f64()
    }

    /// Index the next span will get: a handle on "everything recorded
    /// from here on".
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Share of span `root`'s duration that none of its children cover
    /// (`None` when the recorder was off and `root` was never recorded).
    pub fn unattributed_share(&self, root: usize) -> Option<f64> {
        let span = self.spans.get(root)?;
        let total = span.end_ns.saturating_sub(span.start_ns);
        (total > 0).then(|| self_times(&self.spans)[root] as f64 / total as f64)
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    let mut o = Json::obj();
                    o.insert("name", Json::Str(s.name.to_string()));
                    o.insert("start_ns", Json::Num(s.start_ns as f64));
                    o.insert("end_ns", Json::Num(s.end_ns as f64));
                    o.insert(
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    );
                    o.insert("run_id", Json::Num(f64::from(s.run_id)));
                    o
                })
                .collect(),
        )
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover. Children of one parent never overlap (the recorder is
/// a stack), so the covered part is the plain sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            run_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_adjacent_children() {
        // root 0..100 with children 10..40 and 40..90 back to back
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(40, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 50]);
    }

    #[test]
    fn self_time_of_nested_children_counts_one_level() {
        // root ⊃ a ⊃ b: b's time leaves a's self time, not root's twice
        let spans = [
            span(0, 100, None),
            span(20, 80, Some(0)),
            span(30, 50, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![40, 40, 20]);
    }

    #[test]
    fn recorder_links_parents_and_is_silent_when_off() {
        let mut tr = Tracer::new();
        let o = tr.enter("off");
        assert!(tr.exit(o) >= 0.0);
        assert_eq!(tr.mark(), 0);

        tr.enabled = true;
        tr.run_id = 3;
        let root = tr.enter("root");
        let child = tr.enter("child");
        tr.exit(child);
        tr.exit(root);
        assert_eq!(tr.spans[1].parent, Some(0));
        assert_eq!(tr.spans[0].parent, None);
        assert_eq!(tr.spans[1].run_id, 3);
        assert!(tr.spans[0].end_ns >= tr.spans[1].end_ns);
        let share = tr.unattributed_share(0).unwrap();
        assert!((0.0..=1.0).contains(&share));
    }

    #[test]
    fn dump_round_trips_through_the_runtime_parser() {
        let mut tr = Tracer::new();
        tr.enabled = true;
        let root = tr.enter("root");
        let child = tr.enter("child");
        tr.exit(child);
        tr.exit(root);
        let text = tr.to_json().to_string();
        let back = Json::parse(&text).unwrap();
        let arr = back.as_arr().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[1].get("name").and_then(Json::as_str), Some("child"));
        assert_eq!(arr[1].get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(arr[0].get("parent"), Some(&Json::Null));
    }
}
