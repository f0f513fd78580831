//! Observability: trace export, the metrics registry, and structured run events.
//!
//! This is the cold-path half of the instrumentation story (the PaRSEC
//! PINS/profiling analogue): everything here consumes a finished
//! [`Trace`] or counter set and turns it into artifacts — a Chrome-trace
//! (Perfetto) JSON timeline and the JSON forms of run events and class
//! breakdowns. Prometheus text is not a separate exporter: it is
//! [`Json::to_prometheus`](json::Json::to_prometheus), a rendering of a
//! JSON tree such as the run report's. The hot-path half is the engine's
//! [`Observe`](crate::engine::Observe) channel with its two sinks (the
//! [`registry`] always, [`crate::engine::ExecObs`] per run) and rank
//! logging inside the kernel workspaces; this module only runs after a
//! factorization finishes.
//!
//! The JSON layer is hand-rolled: the workspace's `serde` is an offline
//! marker-trait shim with no `serde_json`, so [`json::Json`] provides the
//! minimal writer/parser the exporters and their round-trip tests need,
//! and the Prometheus rendering of the same tree.

use crate::trace::{ClassBreakdown, Trace};

pub mod registry;

/// Minimal zero-dependency JSON tree, writer and parser.
pub mod json {
    use std::fmt::Write as _;

    /// A JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Any number (stored as `f64`; non-finite values serialize as `null`).
        Num(f64),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Json>),
        /// An object; insertion order is preserved.
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        /// Object field lookup (first match).
        pub fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// Numeric value, if this is a number.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Json::Num(x) => Some(*x),
                _ => None,
            }
        }

        /// String value, if this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Json::Str(s) => Some(s),
                _ => None,
            }
        }

        /// Array elements, if this is an array.
        pub fn as_arr(&self) -> Option<&[Json]> {
            match self {
                Json::Arr(v) => Some(v),
                _ => None,
            }
        }

        /// An empty object (build up with [`Json::insert`]).
        pub fn obj() -> Json {
            Json::Obj(Vec::new())
        }

        /// Append a field to an object (keeps insertion order; does
        /// nothing on non-objects, so builder chains stay infallible).
        pub fn insert(&mut self, key: impl Into<String>, value: Json) {
            if let Json::Obj(fields) = self {
                fields.push((key.into(), value));
            }
        }

        fn write(&self, out: &mut String) {
            match self {
                Json::Null => out.push_str("null"),
                Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Json::Num(x) => {
                    if x.is_finite() {
                        let _ = write!(out, "{x}");
                    } else {
                        out.push_str("null");
                    }
                }
                Json::Str(s) => write_escaped(out, s),
                Json::Arr(items) => {
                    out.push('[');
                    for (n, it) in items.iter().enumerate() {
                        if n > 0 {
                            out.push(',');
                        }
                        it.write(out);
                    }
                    out.push(']');
                }
                Json::Obj(fields) => {
                    out.push('{');
                    for (n, (k, v)) in fields.iter().enumerate() {
                        if n > 0 {
                            out.push(',');
                        }
                        write_escaped(out, k);
                        out.push(':');
                        v.write(out);
                    }
                    out.push('}');
                }
            }
        }

        /// Prometheus text exposition of the tree: every finite number and
        /// every boolean (as 0 / 1) is one gauge sample; strings, `null`
        /// and non-finite numbers print nothing. A sample's name is its
        /// object keys joined with `_` under `tlr` (any character outside
        /// `[a-zA-Z0-9_]` becomes `_`); each enclosing array adds its
        /// position as a label, `i` for the outermost, then `j`, `k`, ….
        /// Samples of one name print together, after its one `# TYPE`
        /// line, in the order the names first occur.
        pub fn to_prometheus(&self) -> String {
            let mut families: Vec<(String, String)> = Vec::new();
            self.gather("tlr".into(), &mut Vec::new(), &mut families);
            let mut out = String::new();
            for (name, samples) in families {
                let _ = writeln!(out, "# TYPE {name} gauge");
                out.push_str(&samples);
            }
            out
        }

        /// One walk of [`Json::to_prometheus`]: `name` is the metric name so
        /// far, `index` the positions in the enclosing arrays, `families`
        /// the sample lines per name.
        fn gather(&self, name: String, index: &mut Vec<usize>, families: &mut Vec<(String, String)>) {
            let value = match self {
                Json::Bool(b) => f64::from(u8::from(*b)),
                Json::Num(x) if x.is_finite() => *x,
                Json::Null | Json::Num(_) | Json::Str(_) => return,
                Json::Arr(items) => {
                    for (n, it) in items.iter().enumerate() {
                        index.push(n);
                        it.gather(name.clone(), index, families);
                        index.pop();
                    }
                    return;
                }
                Json::Obj(fields) => {
                    for (k, v) in fields {
                        let key = k.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' });
                        v.gather(format!("{name}_{}", key.collect::<String>()), index, families);
                    }
                    return;
                }
            };
            let at = match families.iter().position(|(n, _)| *n == name) {
                Some(at) => at,
                None => {
                    families.push((name, String::new()));
                    families.len() - 1
                }
            };
            let (name, samples) = &mut families[at];
            samples.push_str(name);
            for (depth, n) in index.iter().enumerate() {
                let sep = if depth == 0 { '{' } else { ',' };
                let _ = write!(samples, "{sep}{}=\"{n}\"", axis_label(depth));
            }
            if !index.is_empty() {
                samples.push('}');
            }
            let _ = writeln!(samples, " {value}");
        }

        /// Parse JSON text. Returns an error message with a byte offset on
        /// malformed input.
        ///
        /// Serialization is the [`std::fmt::Display`] impl (compact, no
        /// whitespace): `json.to_string()`.
        pub fn parse(text: &str) -> Result<Json, String> {
            let bytes = text.as_bytes();
            let mut pos = 0usize;
            let v = parse_value(bytes, &mut pos)?;
            skip_ws(bytes, &mut pos);
            if pos != bytes.len() {
                return Err(format!("trailing data at byte {pos}"));
            }
            Ok(v)
        }
    }

    impl std::fmt::Display for Json {
        /// Compact JSON text (no whitespace).
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            let mut out = String::new();
            self.write(&mut out);
            f.write_str(&out)
        }
    }

    /// Prometheus label of the array `depth` levels in: `i`, `j`, … `z`,
    /// then `i18`, `i19`, ….
    fn axis_label(depth: usize) -> String {
        match u8::try_from(depth) {
            Ok(d) if d < 18 => char::from(b'i' + d).to_string(),
            _ => format!("i{depth}"),
        }
    }

    fn write_escaped(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
        if b[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected `{lit}` at byte {pos}", pos = *pos))
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            None => Err("unexpected end of input".into()),
            Some(b'n') => expect(b, pos, "null").map(|_| Json::Null),
            Some(b't') => expect(b, pos, "true").map(|_| Json::Bool(true)),
            Some(b'f') => expect(b, pos, "false").map(|_| Json::Bool(false)),
            Some(b'"') => parse_string(b, pos).map(Json::Str),
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(parse_value(b, pos)?);
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
                    }
                }
            }
            Some(b'{') => {
                *pos += 1;
                let mut fields = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    skip_ws(b, pos);
                    let key = parse_string(b, pos)?;
                    skip_ws(b, pos);
                    expect(b, pos, ":")?;
                    let val = parse_value(b, pos)?;
                    fields.push((key, val));
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
                    }
                }
            }
            Some(_) => parse_number(b, pos).map(Json::Num),
        }
    }

    fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected string at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let mut out = String::new();
        loop {
            match b.get(*pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = b
                                .get(*pos + 1..*pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            *pos += 4;
                        }
                        _ => return Err("bad escape".into()),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so this is safe).
                    let rest = std::str::from_utf8(&b[*pos..]).map_err(|_| "invalid utf-8")?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    *pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_number(b: &[u8], pos: &mut usize) -> Result<f64, String> {
        let start = *pos;
        while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        }
        let tok = std::str::from_utf8(&b[start..*pos]).map_err(|_| "invalid utf-8")?;
        tok.parse::<f64>()
            .map_err(|_| format!("bad number `{tok}` at byte {start}"))
    }
}

use json::Json;

/// Export a [`Trace`] as Chrome-trace (Perfetto) JSON.
///
/// Produces the `{"traceEvents": [...]}` object form with one complete
/// (`"ph": "X"`) event per task record, `ts`/`dur` in microseconds,
/// `pid = 0`, `tid` = worker/process id, and per-event `args` carrying the
/// task id, tile coordinates, and queue wait. Events are sorted by `ts`
/// and durations are clamped non-negative so the file always loads in
/// `chrome://tracing` / <https://ui.perfetto.dev>.
pub fn chrome_trace_json(trace: &Trace, process_name: &str) -> String {
    chrome_trace_json_with_events(trace, &[], process_name)
}

/// [`chrome_trace_json`] plus structured run events rendered as
/// Chrome-trace instant (`"ph": "i"`) markers, so crashes, recoveries,
/// and integrity incidents (corruption detected / healed) show up on the
/// Perfetto timeline next to the task spans. Instants carry
/// process-scoped visibility (`"s": "p"`), `tid` = the affected rank,
/// and the event payload in `args`.
pub fn chrome_trace_json_with_events(
    trace: &Trace,
    run_events: &[RunEvent],
    process_name: &str,
) -> String {
    let mut recs: Vec<_> = trace.records.iter().collect();
    recs.sort_by(|a, b| a.start.total_cmp(&b.start));
    let mut events = Vec::with_capacity(recs.len() + 1);
    events.push(Json::Obj(vec![
        ("name".into(), Json::Str("process_name".into())),
        ("ph".into(), Json::Str("M".into())),
        ("pid".into(), Json::Num(0.0)),
        (
            "args".into(),
            Json::Obj(vec![("name".into(), Json::Str(process_name.into()))]),
        ),
    ]));
    for r in recs {
        let name = match r.data {
            Some(d) => format!("{}({},{})", r.class.name(), d.i, d.j),
            None => r.class.name().to_string(),
        };
        let mut args = vec![("task".into(), Json::Num(r.task as f64))];
        if let Some(d) = r.data {
            args.push(("i".into(), Json::Num(d.i as f64)));
            args.push(("j".into(), Json::Num(d.j as f64)));
        }
        args.push(("queue_wait_us".into(), Json::Num(r.queue_wait() * 1e6)));
        events.push(Json::Obj(vec![
            ("name".into(), Json::Str(name)),
            ("cat".into(), Json::Str("task".into())),
            ("ph".into(), Json::Str("X".into())),
            ("ts".into(), Json::Num((r.start.max(0.0)) * 1e6)),
            ("dur".into(), Json::Num(r.duration() * 1e6)),
            ("pid".into(), Json::Num(0.0)),
            ("tid".into(), Json::Num(r.proc as f64)),
            ("args".into(), Json::Obj(args)),
        ]));
    }
    let mut evs: Vec<&RunEvent> = run_events.iter().collect();
    evs.sort_by(|a, b| a.at().total_cmp(&b.at()));
    for ev in evs {
        let (name, tid) = match *ev {
            RunEvent::Crash { rank, .. } => ("crash", rank),
            RunEvent::Recovery { failed, .. } => ("recovery", failed),
            RunEvent::CorruptionDetected { rank, .. } => ("corruption_detected", rank),
            RunEvent::Healed { rank, .. } => ("corruption_healed", rank),
        };
        events.push(Json::Obj(vec![
            ("name".into(), Json::Str(name.into())),
            ("cat".into(), Json::Str("event".into())),
            ("ph".into(), Json::Str("i".into())),
            ("s".into(), Json::Str("p".into())),
            ("ts".into(), Json::Num(ev.at().max(0.0) * 1e6)),
            ("pid".into(), Json::Num(0.0)),
            ("tid".into(), Json::Num(tid as f64)),
            ("args".into(), ev.to_json()),
        ]));
    }
    Json::Obj(vec![
        ("traceEvents".into(), Json::Arr(events)),
        ("displayTimeUnit".into(), Json::Str("ms".into())),
    ])
    .to_string()
}

/// A structured crash/recovery event from a fault-tolerant run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RunEvent {
    /// Rank `rank` fail-stopped at virtual time `at`.
    Crash {
        /// The rank that died.
        rank: usize,
        /// Virtual time of the crash, seconds.
        at: f64,
    },
    /// Crash recovery migrated rank `failed`'s work onto `survivor`.
    Recovery {
        /// The dead rank whose work was recovered.
        failed: usize,
        /// The surviving rank that absorbed it.
        survivor: usize,
        /// Virtual time recovery completed, seconds.
        at: f64,
    },
    /// A checksum mismatch was caught on rank `rank` — either a message
    /// payload rejected at delivery or a store tile rejected at a task
    /// read boundary.
    CorruptionDetected {
        /// The rank that detected the mismatch.
        rank: usize,
        /// Tile row index of the affected datum.
        i: usize,
        /// Tile column index of the affected datum.
        j: usize,
        /// Virtual time of detection, seconds.
        at: f64,
    },
    /// Lineage healing restored tile `(i, j)` on rank `rank`: the datum
    /// was rolled back to its checkpoint and its writer chain re-executed
    /// (or, for never-written inputs, restored directly).
    Healed {
        /// The rank holding the healed datum.
        rank: usize,
        /// Tile row index of the healed datum.
        i: usize,
        /// Tile column index of the healed datum.
        j: usize,
        /// Virtual time healing completed, seconds.
        at: f64,
    },
}

impl RunEvent {
    /// Virtual time of the event, seconds.
    pub fn at(&self) -> f64 {
        match *self {
            RunEvent::Crash { at, .. }
            | RunEvent::Recovery { at, .. }
            | RunEvent::CorruptionDetected { at, .. }
            | RunEvent::Healed { at, .. } => at,
        }
    }

    /// JSON form (the run report's `events` entries).
    pub fn to_json(&self) -> Json {
        match *self {
            RunEvent::Crash { rank, at } => Json::Obj(vec![
                ("event".into(), Json::Str("crash".into())),
                ("rank".into(), Json::Num(rank as f64)),
                ("at".into(), Json::Num(at)),
            ]),
            RunEvent::Recovery {
                failed,
                survivor,
                at,
            } => Json::Obj(vec![
                ("event".into(), Json::Str("recovery".into())),
                ("failed".into(), Json::Num(failed as f64)),
                ("survivor".into(), Json::Num(survivor as f64)),
                ("at".into(), Json::Num(at)),
            ]),
            RunEvent::CorruptionDetected { rank, i, j, at } => Json::Obj(vec![
                ("event".into(), Json::Str("corruption_detected".into())),
                ("rank".into(), Json::Num(rank as f64)),
                ("i".into(), Json::Num(i as f64)),
                ("j".into(), Json::Num(j as f64)),
                ("at".into(), Json::Num(at)),
            ]),
            RunEvent::Healed { rank, i, j, at } => Json::Obj(vec![
                ("event".into(), Json::Str("healed".into())),
                ("rank".into(), Json::Num(rank as f64)),
                ("i".into(), Json::Num(i as f64)),
                ("j".into(), Json::Num(j as f64)),
                ("at".into(), Json::Num(at)),
            ]),
        }
    }
}

impl ClassBreakdown {
    /// JSON object of the busy seconds, one key per class.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("potrf".into(), Json::Num(self.potrf)),
            ("trsm".into(), Json::Num(self.trsm)),
            ("syrk".into(), Json::Num(self.syrk)),
            ("gemm".into(), Json::Num(self.gemm)),
            ("other".into(), Json::Num(self.other)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{DataRef, TaskClass};
    use crate::trace::TaskRecord;

    fn sample_trace() -> Trace {
        let mut t = Trace::default();
        t.push_record(TaskRecord {
            task: 0,
            class: TaskClass::Potrf,
            proc: 0,
            data: Some(DataRef { i: 0, j: 0 }),
            queued: 0.0,
            start: 0.0,
            end: 1.0,
        });
        t.push_record(TaskRecord {
            task: 1,
            class: TaskClass::Trsm,
            proc: 1,
            data: Some(DataRef { i: 1, j: 0 }),
            queued: 1.0,
            start: 1.25,
            end: 2.0,
        });
        t
    }

    #[test]
    fn json_round_trip() {
        let v = Json::Obj(vec![
            ("s".into(), Json::Str("a \"b\"\nc".into())),
            ("n".into(), Json::Num(-12.5)),
            (
                "a".into(),
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::Num(3.0)]),
            ),
            ("o".into(), Json::Obj(vec![("k".into(), Json::Num(1e-3))])),
        ]);
        let text = v.to_string();
        let back = Json::parse(&text).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn json_parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("1 2").is_err());
    }

    #[test]
    fn chrome_trace_is_valid_and_sorted() {
        let text = chrome_trace_json(&sample_trace(), "test");
        let doc = Json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // 1 metadata + 2 task events
        assert_eq!(events.len(), 3);
        let mut last_ts = f64::NEG_INFINITY;
        for ev in events.iter().skip(1) {
            assert_eq!(ev.get("ph").unwrap().as_str().unwrap(), "X");
            let ts = ev.get("ts").unwrap().as_f64().unwrap();
            let dur = ev.get("dur").unwrap().as_f64().unwrap();
            assert!(ts >= last_ts);
            assert!(dur >= 0.0);
            last_ts = ts;
        }
        // Tile coordinates survive into args.
        let ev = &events[2];
        assert_eq!(ev.get("name").unwrap().as_str().unwrap(), "TRSM(1,0)");
        assert_eq!(
            ev.get("args").unwrap().get("i").unwrap().as_f64().unwrap(),
            1.0
        );
    }

    #[test]
    fn run_event_json() {
        let e = RunEvent::Recovery {
            failed: 2,
            survivor: 0,
            at: 1.5,
        };
        let j = e.to_json();
        assert_eq!(j.get("event").unwrap().as_str().unwrap(), "recovery");
        assert_eq!(j.get("survivor").unwrap().as_f64().unwrap(), 0.0);

        let d = RunEvent::CorruptionDetected {
            rank: 1,
            i: 3,
            j: 2,
            at: 0.5,
        }
        .to_json();
        assert_eq!(
            d.get("event").unwrap().as_str().unwrap(),
            "corruption_detected"
        );
        assert_eq!(d.get("i").unwrap().as_f64().unwrap(), 3.0);
        let h = RunEvent::Healed {
            rank: 1,
            i: 3,
            j: 2,
            at: 0.75,
        }
        .to_json();
        assert_eq!(h.get("event").unwrap().as_str().unwrap(), "healed");
        assert_eq!(h.get("at").unwrap().as_f64().unwrap(), 0.75);
    }

    #[test]
    fn run_events_export_as_chrome_instants() {
        let events = [
            RunEvent::Healed { rank: 1, i: 0, j: 0, at: 1.75 },
            RunEvent::Crash { rank: 2, at: 0.5 },
            RunEvent::CorruptionDetected { rank: 1, i: 0, j: 0, at: 1.5 },
            RunEvent::Recovery { failed: 2, survivor: 0, at: 0.75 },
        ];
        let text = chrome_trace_json_with_events(&sample_trace(), &events, "test");
        let doc = Json::parse(&text).unwrap();
        let all = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let instants: Vec<&Json> =
            all.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("i")).collect();
        assert_eq!(instants.len(), 4, "one instant per run event");
        // Time-ordered, process-scoped, named by kind, payload in args.
        let names: Vec<&str> =
            instants.iter().map(|e| e.get("name").unwrap().as_str().unwrap()).collect();
        assert_eq!(names, ["crash", "recovery", "corruption_detected", "corruption_healed"]);
        for e in &instants {
            assert_eq!(e.get("s").unwrap().as_str().unwrap(), "p");
            assert!(e.get("args").unwrap().get("event").is_some());
        }
        assert_eq!(instants[3].get("ts").unwrap().as_f64().unwrap(), 1.75e6);
        assert_eq!(instants[0].get("tid").unwrap().as_f64().unwrap(), 2.0);
        // The task spans are unaffected.
        let spans = all.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("X")).count();
        assert_eq!(spans, 2);
    }
}
