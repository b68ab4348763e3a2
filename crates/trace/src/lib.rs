//! # cppll-trace — structured tracing and metrics for the verification stack
//!
//! A zero-dependency (beyond [`cppll_json`]) observability layer: the
//! pipeline, SOS supervisor, and SDP solver emit hierarchical spans
//! (pipeline stage → SOS program → supervisor attempt → SDP solve),
//! per-iteration solver telemetry instants, and named counters into a
//! [`Tracer`]. Recording is strictly *read-only* with respect to the
//! numerics — events copy already-computed values — so enabling a trace
//! can never perturb a solve; bit-identical results across trace levels
//! hold by construction.
//!
//! Events land in per-thread lanes: each thread appends to its own buffer
//! behind an uncontended lock, so the parallel hot path never serialises
//! on a shared sink. Exporters drain every lane and merge by timestamp.
//!
//! Three export formats:
//! * [`Tracer::to_jsonl`] — one JSON object per event, bit-exact `f64`
//!   encoding via [`cppll_json`] (same encoder as the result digest);
//! * [`Tracer::to_chrome_trace`] — a Chrome `trace_event` JSON file,
//!   loadable in `about:tracing` / [Perfetto](https://ui.perfetto.dev);
//! * [`Tracer::to_prometheus`] — a Prometheus text-exposition metrics
//!   dump (counters plus per-span duration summaries).
//!
//! Tests consume traces through [`TraceRecorder`] and the
//! [`assert_span_tree!`] shape matcher, making traces a first-class
//! testable artifact.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cppll_json::{ObjectBuilder, Value};

/// How much detail a [`Tracer`] records. Levels are cumulative: `Iter`
/// includes everything `Solve` records, and so on down to `Off`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TraceLevel {
    /// Record nothing.
    #[default]
    Off,
    /// Pipeline-stage spans (lyapunov / levelset / advection / escape)
    /// and counters.
    Stage,
    /// Plus per-SOS-program, per-attempt, and per-SDP-solve spans.
    Solve,
    /// Plus one instant per interior-point iteration with the solver's
    /// numeric state (μ, residuals, step lengths, stage timings).
    Iter,
}

impl TraceLevel {
    /// Parses a CLI-style level name.
    pub fn parse(s: &str) -> Option<TraceLevel> {
        match s {
            "off" => Some(TraceLevel::Off),
            "stage" => Some(TraceLevel::Stage),
            "solve" => Some(TraceLevel::Solve),
            "iter" => Some(TraceLevel::Iter),
            _ => None,
        }
    }

    /// The canonical CLI name of this level.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceLevel::Off => "off",
            TraceLevel::Stage => "stage",
            TraceLevel::Solve => "solve",
            TraceLevel::Iter => "iter",
        }
    }
}

/// A telemetry field value attached to an [`EventKind::Instant`].
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// A float, exported with bit-exact shortest-roundtrip encoding.
    F64(f64),
    /// An unsigned integer.
    U64(u64),
    /// A string.
    Str(String),
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// What an [`Event`] records.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A span opened.
    Begin {
        /// Tracer-unique span id.
        span: u64,
        /// Enclosing span on the same thread, if any.
        parent: Option<u64>,
        /// Static span name (e.g. `"sdp_solve"`).
        name: &'static str,
        /// Free-form label (e.g. `"m=120 blocks=4"`).
        label: String,
    },
    /// A span closed.
    End {
        /// The span that closed.
        span: u64,
        /// Its name, repeated for self-contained JSONL lines.
        name: &'static str,
    },
    /// A point-in-time telemetry record (e.g. one solver iteration).
    Instant {
        /// Enclosing span on the emitting thread, if any.
        span: Option<u64>,
        /// Static event name (e.g. `"iteration"`).
        name: &'static str,
        /// Named values copied from already-computed solver state.
        fields: Vec<(&'static str, FieldValue)>,
    },
    /// A named monotonic counter increment.
    Counter {
        /// Enclosing span on the emitting thread, if any.
        span: Option<u64>,
        /// Counter name (e.g. `"retry"`, `"fault_injected"`).
        name: &'static str,
        /// Increment (usually 1).
        delta: u64,
    },
}

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Nanoseconds since the tracer was created (monotonic clock).
    pub ts_ns: u64,
    /// Lane id of the emitting thread (registration order, 0-based).
    pub tid: u64,
    /// Per-lane sequence number (strictly increasing within a lane).
    pub seq: u64,
    /// Payload.
    pub kind: EventKind,
}

impl Event {
    /// The event's name regardless of kind.
    pub fn name(&self) -> &'static str {
        match &self.kind {
            EventKind::Begin { name, .. }
            | EventKind::End { name, .. }
            | EventKind::Instant { name, .. }
            | EventKind::Counter { name, .. } => name,
        }
    }

    /// The enclosing (or own, for begin/end) span id, if any.
    pub fn span_id(&self) -> Option<u64> {
        match &self.kind {
            EventKind::Begin { span, .. } | EventKind::End { span, .. } => Some(*span),
            EventKind::Instant { span, .. } | EventKind::Counter { span, .. } => *span,
        }
    }

    /// Looks up an instant field by name.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        match &self.kind {
            EventKind::Instant { fields, .. } => {
                fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// Looks up a numeric instant field by name.
    pub fn field_f64(&self, key: &str) -> Option<f64> {
        match self.field(key)? {
            FieldValue::F64(v) => Some(*v),
            FieldValue::U64(v) => Some(*v as f64),
            FieldValue::Str(_) => None,
        }
    }

    fn type_str(&self) -> &'static str {
        match &self.kind {
            EventKind::Begin { .. } => "begin",
            EventKind::End { .. } => "end",
            EventKind::Instant { .. } => "instant",
            EventKind::Counter { .. } => "counter",
        }
    }

    fn to_json(&self) -> Value {
        let mut b = ObjectBuilder::new()
            .field("ts_ns", self.ts_ns)
            .field("tid", self.tid)
            .field("seq", self.seq)
            .field("type", self.type_str());
        match &self.kind {
            EventKind::Begin {
                span,
                parent,
                name,
                label,
            } => {
                b = b.field("span", *span);
                b = match parent {
                    Some(p) => b.field("parent", *p),
                    None => b.field("parent", Value::Null),
                };
                b = b.field("name", *name).field("label", label.as_str());
            }
            EventKind::End { span, name } => {
                b = b.field("span", *span).field("name", *name);
            }
            EventKind::Instant { span, name, fields } => {
                if let Some(s) = span {
                    b = b.field("span", *s);
                }
                b = b.field("name", *name);
                let mut fb = ObjectBuilder::new();
                for (k, v) in fields {
                    fb = match v {
                        FieldValue::F64(x) => fb.field(k, *x),
                        FieldValue::U64(x) => fb.field(k, *x),
                        FieldValue::Str(x) => fb.field(k, x.as_str()),
                    };
                }
                b = b.field("fields", fb.build());
            }
            EventKind::Counter { span, name, delta } => {
                if let Some(s) = span {
                    b = b.field("span", *s);
                }
                b = b.field("name", *name).field("delta", *delta);
            }
        }
        b.build()
    }
}

#[derive(Debug, Default)]
struct LaneState {
    events: Vec<Event>,
    /// Stack of open span ids on the owning thread.
    stack: Vec<u64>,
    seq: u64,
}

#[derive(Debug)]
struct Lane {
    tid: u64,
    state: Mutex<LaneState>,
}

#[derive(Debug)]
struct TracerInner {
    id: u64,
    level: TraceLevel,
    start: Instant,
    next_span: AtomicU64,
    next_tid: AtomicU64,
    lanes: Mutex<Vec<Arc<Lane>>>,
    /// Latest value per gauge name. Gauges are *state*, not history:
    /// unlike counters they live outside the event lanes, so setting one
    /// at high frequency (queue depth on every job) costs one map write
    /// and no event-buffer growth.
    gauges: Mutex<BTreeMap<&'static str, f64>>,
}

static NEXT_TRACER_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Per-thread cache of (tracer id → lane), so the hot path finds its
    /// lane without touching the shared registry. Tracer ids are globally
    /// unique, so a stale entry can never alias a new tracer; a lane only
    /// the cache still holds belongs to a dropped tracer and is pruned
    /// whenever a new lane is cached.
    static LANE_CACHE: RefCell<Vec<(u64, Arc<Lane>)>> = const { RefCell::new(Vec::new()) };
}

/// A shared, cloneable trace sink. Cloning is cheap (one `Arc`); all
/// clones feed the same event store. A tracer at [`TraceLevel::Off`]
/// records nothing and every recording call is a constant-time no-op.
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Tracer {
    /// A tracer recording events at (and below) `level`.
    pub fn new(level: TraceLevel) -> Tracer {
        Tracer {
            inner: Arc::new(TracerInner {
                id: NEXT_TRACER_ID.fetch_add(1, Ordering::Relaxed),
                level,
                start: Instant::now(),
                next_span: AtomicU64::new(1),
                next_tid: AtomicU64::new(0),
                lanes: Mutex::new(Vec::new()),
                gauges: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// The recording level.
    pub fn level(&self) -> TraceLevel {
        self.inner.level
    }

    /// Whether events at `level` are recorded.
    pub fn enabled(&self, level: TraceLevel) -> bool {
        level != TraceLevel::Off && level <= self.inner.level
    }

    fn now_ns(&self) -> u64 {
        self.inner.start.elapsed().as_nanos() as u64
    }

    /// The calling thread's lane, registering one on first use.
    fn lane(&self) -> Arc<Lane> {
        let id = self.inner.id;
        LANE_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some((_, lane)) = cache.iter().find(|(tid, _)| *tid == id) {
                return Arc::clone(lane);
            }
            let lane = Arc::new(Lane {
                tid: self.inner.next_tid.fetch_add(1, Ordering::Relaxed),
                state: Mutex::new(LaneState::default()),
            });
            self.inner
                .lanes
                .lock()
                .expect("trace lane registry")
                .push(Arc::clone(&lane));
            cache.retain(|(_, cached)| Arc::strong_count(cached) > 1);
            cache.push((id, Arc::clone(&lane)));
            lane
        })
    }

    fn push(&self, lane: &Lane, kind: EventKind) {
        let ts_ns = self.now_ns();
        let mut st = lane.state.lock().expect("trace lane");
        let seq = st.seq;
        st.seq += 1;
        st.events.push(Event {
            ts_ns,
            tid: lane.tid,
            seq,
            kind,
        });
    }

    /// Opens a span. Returns a guard that closes the span on drop; when
    /// `level` is above the tracer's level the guard is inert and nothing
    /// is recorded.
    pub fn span(
        &self,
        level: TraceLevel,
        name: &'static str,
        label: impl Into<String>,
    ) -> SpanGuard {
        if !self.enabled(level) {
            return SpanGuard {
                tracer: None,
                span: 0,
                name,
            };
        }
        let span = self.inner.next_span.fetch_add(1, Ordering::Relaxed);
        let lane = self.lane();
        let parent = {
            let st = lane.state.lock().expect("trace lane");
            st.stack.last().copied()
        };
        self.push(
            &lane,
            EventKind::Begin {
                span,
                parent,
                name,
                label: label.into(),
            },
        );
        lane.state.lock().expect("trace lane").stack.push(span);
        SpanGuard {
            tracer: Some(self.clone()),
            span,
            name,
        }
    }

    /// Records a point-in-time telemetry event under the current span.
    pub fn instant(
        &self,
        level: TraceLevel,
        name: &'static str,
        fields: Vec<(&'static str, FieldValue)>,
    ) {
        if !self.enabled(level) {
            return;
        }
        let lane = self.lane();
        let span = lane.state.lock().expect("trace lane").stack.last().copied();
        self.push(&lane, EventKind::Instant { span, name, fields });
    }

    /// Increments a named counter. Counters are recorded at every level
    /// except [`TraceLevel::Off`].
    pub fn counter(&self, name: &'static str, delta: u64) {
        if self.inner.level == TraceLevel::Off {
            return;
        }
        let lane = self.lane();
        let span = lane.state.lock().expect("trace lane").stack.last().copied();
        self.push(&lane, EventKind::Counter { span, name, delta });
    }

    /// Sets a named gauge to its latest value. Gauges are recorded at
    /// every level except [`TraceLevel::Off`] and surface in
    /// [`Tracer::to_prometheus`] as `cppll_<name>` gauge samples — the
    /// natural shape for service state like queue depth or in-flight jobs.
    pub fn gauge(&self, name: &'static str, value: f64) {
        if self.inner.level == TraceLevel::Off {
            return;
        }
        self.inner
            .gauges
            .lock()
            .expect("trace gauges")
            .insert(name, value);
    }

    /// Latest value of every gauge ever set, by name.
    pub fn gauges(&self) -> BTreeMap<&'static str, f64> {
        self.inner.gauges.lock().expect("trace gauges").clone()
    }

    fn close_span(&self, span: u64, name: &'static str) {
        let lane = self.lane();
        {
            let mut st = lane.state.lock().expect("trace lane");
            if let Some(pos) = st.stack.iter().rposition(|&s| s == span) {
                st.stack.truncate(pos);
            }
        }
        self.push(&lane, EventKind::End { span, name });
    }

    /// All recorded events, merged across lanes and ordered by
    /// `(ts_ns, tid, seq)`.
    pub fn events(&self) -> Vec<Event> {
        let lanes = self.inner.lanes.lock().expect("trace lane registry");
        let mut all: Vec<Event> = Vec::new();
        for lane in lanes.iter() {
            all.extend(
                lane.state
                    .lock()
                    .expect("trace lane")
                    .events
                    .iter()
                    .cloned(),
            );
        }
        all.sort_by_key(|e| (e.ts_ns, e.tid, e.seq));
        all
    }

    /// Total recorded event count.
    pub fn event_count(&self) -> usize {
        let lanes = self.inner.lanes.lock().expect("trace lane registry");
        lanes
            .iter()
            .map(|l| l.state.lock().expect("trace lane").events.len())
            .sum()
    }

    /// Aggregated counter totals, sorted by name. Sums each lane in place,
    /// without copying or ordering its events.
    pub fn counter_totals(&self) -> BTreeMap<&'static str, u64> {
        let mut totals = BTreeMap::new();
        let lanes = self.inner.lanes.lock().expect("trace lane registry");
        for lane in lanes.iter() {
            add_counters(&mut totals, &lane.state.lock().expect("trace lane").events);
        }
        totals
    }

    /// The JSONL event log: one compact JSON object per line, in merged
    /// event order, with bit-exact `f64` encoding.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in self.events() {
            out.push_str(&e.to_json().to_compact_string());
            out.push('\n');
        }
        out
    }

    /// A Chrome `trace_event` JSON document (load in `about:tracing` or
    /// [Perfetto](https://ui.perfetto.dev)). Spans become `B`/`E` pairs,
    /// instants become `i` events with their fields under `args`, and
    /// counters become `C` events carrying the running total.
    pub fn to_chrome_trace(&self) -> String {
        let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut rows: Vec<Value> = Vec::new();
        for e in self.events() {
            let ts_us = e.ts_ns as f64 / 1000.0;
            let base = |ph: &str, name: &str| {
                ObjectBuilder::new()
                    .field("ph", ph)
                    .field("name", name)
                    .field("ts", ts_us)
                    .field("pid", 1u64)
                    .field("tid", e.tid)
            };
            let row = match &e.kind {
                EventKind::Begin { label, name, .. } => base("B", name)
                    .field(
                        "args",
                        ObjectBuilder::new().field("label", label.as_str()).build(),
                    )
                    .build(),
                EventKind::End { name, .. } => base("E", name).build(),
                EventKind::Instant { name, fields, .. } => {
                    let mut fb = ObjectBuilder::new();
                    for (k, v) in fields {
                        fb = match v {
                            FieldValue::F64(x) => fb.field(k, *x),
                            FieldValue::U64(x) => fb.field(k, *x),
                            FieldValue::Str(x) => fb.field(k, x.as_str()),
                        };
                    }
                    base("i", name)
                        .field("s", "t")
                        .field("args", fb.build())
                        .build()
                }
                EventKind::Counter { name, delta, .. } => {
                    let t = totals.entry(name).or_insert(0);
                    *t += delta;
                    base("C", name)
                        .field("args", ObjectBuilder::new().field("value", *t).build())
                        .build()
                }
            };
            rows.push(row);
        }
        ObjectBuilder::new()
            .field("traceEvents", Value::Array(rows))
            .field("displayTimeUnit", "ms")
            .build()
            .to_compact_string()
    }

    /// A Prometheus text-exposition metrics dump: every counter as
    /// `cppll_<name>_total`, the total event count, and per-span-name
    /// duration sums/counts from matched begin/end pairs.
    pub fn to_prometheus(&self) -> String {
        let events = self.events();
        let mut counters = BTreeMap::new();
        add_counters(&mut counters, &events);
        let mut out = String::new();
        for (name, total) in counters {
            out.push_str(&format!("# TYPE cppll_{name}_total counter\n"));
            out.push_str(&format!("cppll_{name}_total {total}\n"));
        }
        for (name, value) in self.gauges() {
            out.push_str(&format!("# TYPE cppll_{name} gauge\n"));
            out.push_str(&format!("cppll_{name} {value}\n"));
        }
        out.push_str("# TYPE cppll_trace_events_total counter\n");
        out.push_str(&format!("cppll_trace_events_total {}\n", events.len()));

        let mut begins: BTreeMap<u64, (&'static str, u64)> = BTreeMap::new();
        let mut durs: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        for e in &events {
            match &e.kind {
                EventKind::Begin { span, name, .. } => {
                    begins.insert(*span, (name, e.ts_ns));
                }
                EventKind::End { span, .. } => {
                    if let Some((name, t0)) = begins.remove(span) {
                        let d = durs.entry(name).or_insert((0.0, 0));
                        d.0 += e.ts_ns.saturating_sub(t0) as f64 / 1e9;
                        d.1 += 1;
                    }
                }
                _ => {}
            }
        }
        if !durs.is_empty() {
            out.push_str("# TYPE cppll_span_duration_seconds summary\n");
            for (name, (sum, count)) in durs {
                out.push_str(&format!(
                    "cppll_span_duration_seconds_sum{{span=\"{name}\"}} {sum}\n"
                ));
                out.push_str(&format!(
                    "cppll_span_duration_seconds_count{{span=\"{name}\"}} {count}\n"
                ));
            }
        }
        out
    }

    /// Writes `trace.jsonl`, `trace.chrome.json`, and `metrics.prom`
    /// under `dir` (created if missing). Returns the three paths.
    pub fn write_all(&self, dir: &std::path::Path) -> std::io::Result<Vec<std::path::PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let jsonl = dir.join("trace.jsonl");
        let chrome = dir.join("trace.chrome.json");
        let prom = dir.join("metrics.prom");
        std::fs::write(&jsonl, self.to_jsonl())?;
        std::fs::write(&chrome, self.to_chrome_trace())?;
        std::fs::write(&prom, self.to_prometheus())?;
        Ok(vec![jsonl, chrome, prom])
    }
}

/// Adds the counter increments among `events` into `totals`.
fn add_counters(totals: &mut BTreeMap<&'static str, u64>, events: &[Event]) {
    for e in events {
        if let EventKind::Counter { name, delta, .. } = e.kind {
            *totals.entry(name).or_insert(0) += delta;
        }
    }
}

/// RAII guard closing a span on drop. Inert when the span's level was
/// above the tracer's recording level.
#[derive(Debug)]
pub struct SpanGuard {
    tracer: Option<Tracer>,
    span: u64,
    name: &'static str,
}

impl SpanGuard {
    /// The span id, or `None` for an inert guard.
    pub fn id(&self) -> Option<u64> {
        self.tracer.as_ref().map(|_| self.span)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(t) = self.tracer.take() {
            t.close_span(self.span, self.name);
        }
    }
}

/// One node of the reconstructed span tree.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// Span id.
    pub id: u64,
    /// Span name.
    pub name: String,
    /// The label the span was opened with.
    pub label: String,
    /// Inclusive duration in nanoseconds: End timestamp − Begin
    /// timestamp. `None` while the span is still open.
    pub duration_ns: Option<u64>,
    /// Child spans in open order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    fn render(&self, depth: usize, out: &mut String) {
        out.push_str(&"  ".repeat(depth));
        out.push_str(&self.name);
        out.push('\n');
        for c in &self.children {
            c.render(depth + 1, out);
        }
    }
}

/// Reconstructs the span forest (roots in open order) from an event
/// stream, using the parent links recorded at span open, and times each
/// span from its Begin and End timestamps.
pub fn span_forest(events: &[Event]) -> Vec<SpanNode> {
    // Pass 1: create nodes; pass 2: close them; pass 3: attach children in
    // begin order.
    let mut order: Vec<u64> = Vec::new();
    let mut nodes: BTreeMap<u64, SpanNode> = BTreeMap::new();
    // Per span: its parent and its Begin timestamp.
    let mut opened: BTreeMap<u64, (Option<u64>, u64)> = BTreeMap::new();
    for e in events {
        if let EventKind::Begin {
            span,
            parent,
            name,
            label,
        } = &e.kind
        {
            order.push(*span);
            opened.insert(*span, (*parent, e.ts_ns));
            nodes.insert(
                *span,
                SpanNode {
                    id: *span,
                    name: (*name).to_string(),
                    label: label.clone(),
                    duration_ns: None,
                    children: Vec::new(),
                },
            );
        }
    }
    for e in events {
        if let EventKind::End { span, .. } = e.kind {
            if let (Some(node), Some(&(_, begin))) = (nodes.get_mut(&span), opened.get(&span)) {
                node.duration_ns = Some(e.ts_ns.saturating_sub(begin));
            }
        }
    }
    // Attach deepest-first so children are complete before their parent
    // swallows them: iterate begin order reversed.
    let mut roots: Vec<u64> = Vec::new();
    for &span in order.iter().rev() {
        let parent = opened.get(&span).and_then(|&(parent, _)| parent);
        match parent {
            Some(p) if nodes.contains_key(&p) => {
                let node = nodes.remove(&span).expect("span node");
                let pn = nodes.get_mut(&p).expect("parent node");
                pn.children.insert(0, node);
            }
            _ => roots.push(span),
        }
    }
    roots.reverse();
    roots.into_iter().filter_map(|s| nodes.remove(&s)).collect()
}

/// An in-memory trace sink for tests: wraps a [`Tracer`], hands out
/// clones to pass into solver/pipeline options, and answers structural
/// queries (span tree, counter totals, event filters) afterwards.
#[derive(Debug)]
pub struct TraceRecorder {
    tracer: Tracer,
}

impl TraceRecorder {
    /// A recorder capturing at `level`.
    pub fn new(level: TraceLevel) -> TraceRecorder {
        TraceRecorder {
            tracer: Tracer::new(level),
        }
    }

    /// A tracer clone to hand into options structs.
    pub fn tracer(&self) -> Tracer {
        self.tracer.clone()
    }

    /// All events recorded so far, in merged order.
    pub fn events(&self) -> Vec<Event> {
        self.tracer.events()
    }

    /// The reconstructed span forest.
    pub fn span_tree(&self) -> Vec<SpanNode> {
        span_forest(&self.tracer.events())
    }

    /// Total for one counter name (0 if never incremented).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.tracer
            .counter_totals()
            .iter()
            .find(|(k, _)| **k == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Events with kind `Counter` and the given name.
    pub fn counter_events(&self, name: &str) -> Vec<Event> {
        self.events()
            .into_iter()
            .filter(|e| matches!(e.kind, EventKind::Counter { .. }) && e.name() == name)
            .collect()
    }

    /// Events with kind `Instant` and the given name.
    pub fn instants_named(&self, name: &str) -> Vec<Event> {
        self.events()
            .into_iter()
            .filter(|e| matches!(e.kind, EventKind::Instant { .. }) && e.name() == name)
            .collect()
    }

    /// Number of spans opened with the given name.
    pub fn spans_named(&self, name: &str) -> usize {
        self.events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Begin { .. }) && e.name() == name)
            .count()
    }
}

/// Checks lane-local ordering invariants: within each lane (`tid`),
/// sequence numbers are strictly increasing and timestamps never go
/// backwards. Returns a description of the first violation.
pub fn check_lane_monotonic(events: &[Event]) -> Result<(), String> {
    let mut last: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    // Events may arrive merged by (ts, tid, seq); re-split by lane.
    let mut by_lane: BTreeMap<u64, Vec<&Event>> = BTreeMap::new();
    for e in events {
        by_lane.entry(e.tid).or_default().push(e);
    }
    for (tid, lane) in by_lane {
        let mut sorted = lane.clone();
        sorted.sort_by_key(|e| e.seq);
        for e in sorted {
            if let Some(&(seq, ts)) = last.get(&tid) {
                if e.seq <= seq {
                    return Err(format!(
                        "lane {tid}: seq {} not greater than {}",
                        e.seq, seq
                    ));
                }
                if e.ts_ns < ts {
                    return Err(format!(
                        "lane {tid}: ts {} went backwards from {}",
                        e.ts_ns, ts
                    ));
                }
            }
            last.insert(tid, (e.seq, e.ts_ns));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Span-tree shape matching (assert_span_tree!)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum Quantifier {
    One,
    ZeroOrOne,
    ZeroOrMore,
    OneOrMore,
}

#[derive(Debug, Clone)]
struct SpecNode {
    name: String,
    quant: Quantifier,
    children: Vec<SpecNode>,
}

fn parse_spec(spec: &str) -> Result<Vec<SpecNode>, String> {
    // Indentation-based tree: two spaces per level; a trailing `*`, `+`,
    // or `?` on a name is a sibling quantifier.
    let mut roots: Vec<SpecNode> = Vec::new();
    // Stack of (depth, index-path into roots).
    let mut stack: Vec<(usize, Vec<usize>)> = Vec::new();
    for (lineno, raw) in spec.lines().enumerate() {
        let line = raw.trim_end();
        if line.trim().is_empty() {
            continue;
        }
        let indent = line.len() - line.trim_start().len();
        if indent % 2 != 0 {
            return Err(format!("line {}: odd indentation", lineno + 1));
        }
        let depth = indent / 2;
        let token = line.trim();
        let (name, quant) = match token.chars().last() {
            Some('*') => (&token[..token.len() - 1], Quantifier::ZeroOrMore),
            Some('+') => (&token[..token.len() - 1], Quantifier::OneOrMore),
            Some('?') => (&token[..token.len() - 1], Quantifier::ZeroOrOne),
            _ => (token, Quantifier::One),
        };
        let node = SpecNode {
            name: name.to_string(),
            quant,
            children: Vec::new(),
        };
        while let Some(&(d, _)) = stack.last() {
            if d >= depth {
                stack.pop();
            } else {
                break;
            }
        }
        let path = match stack.last() {
            None => {
                if depth != 0 {
                    return Err(format!("line {}: unexpected indentation", lineno + 1));
                }
                roots.push(node);
                vec![roots.len() - 1]
            }
            Some((d, parent_path)) => {
                if depth != d + 1 {
                    return Err(format!("line {}: indentation skips a level", lineno + 1));
                }
                let mut cur: &mut SpecNode = &mut roots[parent_path[0]];
                for &i in &parent_path[1..] {
                    cur = &mut cur.children[i];
                }
                cur.children.push(node);
                let mut p = parent_path.clone();
                p.push(cur.children.len() - 1);
                p
            }
        };
        stack.push((depth, path));
    }
    Ok(roots)
}

fn node_matches(node: &SpanNode, spec: &SpecNode, path: &str) -> Result<(), String> {
    if node.name != spec.name {
        return Err(format!(
            "{path}: expected span '{}', found '{}'",
            spec.name, node.name
        ));
    }
    match_siblings(
        &node.children,
        &spec.children,
        &format!("{path}/{}", node.name),
    )
}

fn match_siblings(nodes: &[SpanNode], specs: &[SpecNode], path: &str) -> Result<(), String> {
    let mut i = 0usize;
    for spec in specs {
        match spec.quant {
            Quantifier::One => {
                let node = nodes.get(i).ok_or_else(|| {
                    format!(
                        "{path}: expected span '{}', found end of siblings",
                        spec.name
                    )
                })?;
                node_matches(node, spec, path)?;
                i += 1;
            }
            Quantifier::ZeroOrOne => {
                if let Some(node) = nodes.get(i) {
                    if node.name == spec.name {
                        node_matches(node, spec, path)?;
                        i += 1;
                    }
                }
            }
            Quantifier::OneOrMore => {
                let node = nodes.get(i).ok_or_else(|| {
                    format!(
                        "{path}: expected at least one span '{}', found end of siblings",
                        spec.name
                    )
                })?;
                node_matches(node, spec, path)?;
                i += 1;
                while let Some(node) = nodes.get(i) {
                    if node.name != spec.name {
                        break;
                    }
                    node_matches(node, spec, path)?;
                    i += 1;
                }
            }
            Quantifier::ZeroOrMore => {
                while let Some(node) = nodes.get(i) {
                    if node.name != spec.name {
                        break;
                    }
                    node_matches(node, spec, path)?;
                    i += 1;
                }
            }
        }
    }
    if i != nodes.len() {
        return Err(format!(
            "{path}: unexpected extra span '{}' at position {i}",
            nodes[i].name
        ));
    }
    Ok(())
}

/// Matches a span forest against an indented shape spec (two spaces per
/// level; `*` = zero or more, `+` = one or more, `?` = optional sibling).
/// Returns a description of the first mismatch, including a rendering of
/// the actual tree.
pub fn match_span_tree(nodes: &[SpanNode], spec: &str) -> Result<(), String> {
    let specs = parse_spec(spec)?;
    match_siblings(nodes, &specs, "").map_err(|e| {
        let mut actual = String::new();
        for n in nodes {
            n.render(0, &mut actual);
        }
        format!("{e}\nactual span tree:\n{actual}")
    })
}

/// Asserts that a [`TraceRecorder`]'s span tree matches an indented
/// shape spec.
///
/// ```
/// use cppll_trace::{assert_span_tree, TraceLevel, TraceRecorder};
/// let rec = TraceRecorder::new(TraceLevel::Solve);
/// let t = rec.tracer();
/// {
///     let _root = t.span(TraceLevel::Stage, "pipeline", "");
///     let _a = t.span(TraceLevel::Stage, "lyapunov", "");
/// }
/// assert_span_tree!(rec, "pipeline\n  lyapunov");
/// ```
#[macro_export]
macro_rules! assert_span_tree {
    ($recorder:expr, $spec:expr) => {
        if let Err(e) = $crate::match_span_tree(&$recorder.span_tree(), $spec) {
            panic!("span tree mismatch: {e}");
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let t = Tracer::new(TraceLevel::Off);
        {
            let _s = t.span(TraceLevel::Stage, "pipeline", "x");
            t.instant(TraceLevel::Stage, "tick", vec![]);
            t.counter("retry", 1);
        }
        assert_eq!(t.event_count(), 0);
        assert!(t.to_jsonl().is_empty());
    }

    #[test]
    fn level_gating_is_cumulative() {
        let t = Tracer::new(TraceLevel::Solve);
        assert!(t.enabled(TraceLevel::Stage));
        assert!(t.enabled(TraceLevel::Solve));
        assert!(!t.enabled(TraceLevel::Iter));
        assert!(!t.enabled(TraceLevel::Off));
        {
            let _s = t.span(TraceLevel::Iter, "iteration", "");
        }
        assert_eq!(t.event_count(), 0);
    }

    #[test]
    fn a_dropped_tracers_lane_is_freed_when_the_thread_traces_on() {
        std::thread::spawn(|| {
            let old = Tracer::new(TraceLevel::Stage);
            old.counter("jobs", 1);
            let lane = Arc::downgrade(&old.lane());
            drop(old);
            assert!(lane.upgrade().is_some(), "the cache keeps it until then");
            let new = Tracer::new(TraceLevel::Stage);
            new.counter("jobs", 1);
            assert!(lane.upgrade().is_none(), "the dropped tracer's lane");
            assert_eq!(LANE_CACHE.with(|c| c.borrow().len()), 1);
            // A live tracer's lane stays cached: the hit path still finds it.
            let live = Arc::as_ptr(&new.lane());
            new.counter("jobs", 1);
            assert_eq!(Arc::as_ptr(&new.lane()), live);
            assert_eq!(new.counter_totals().get("jobs"), Some(&2));
        })
        .join()
        .expect("tracing thread");
    }

    #[test]
    fn parse_level_names() {
        assert_eq!(TraceLevel::parse("off"), Some(TraceLevel::Off));
        assert_eq!(TraceLevel::parse("stage"), Some(TraceLevel::Stage));
        assert_eq!(TraceLevel::parse("solve"), Some(TraceLevel::Solve));
        assert_eq!(TraceLevel::parse("iter"), Some(TraceLevel::Iter));
        assert_eq!(TraceLevel::parse("debug"), None);
        assert_eq!(TraceLevel::Iter.as_str(), "iter");
    }

    #[test]
    fn span_nesting_and_parents() {
        let rec = TraceRecorder::new(TraceLevel::Iter);
        let t = rec.tracer();
        {
            let root = t.span(TraceLevel::Stage, "pipeline", "");
            let root_id = root.id().unwrap();
            {
                let child = t.span(TraceLevel::Solve, "sdp_solve", "m=3");
                let child_id = child.id().unwrap();
                t.instant(TraceLevel::Iter, "iteration", vec![("mu", 0.5.into())]);
                let events = rec.events();
                let begin = events
                    .iter()
                    .find(|e| matches!(e.kind, EventKind::Begin { span, .. } if span == child_id))
                    .unwrap();
                if let EventKind::Begin { parent, .. } = begin.kind {
                    assert_eq!(parent, Some(root_id));
                } else {
                    unreachable!()
                }
            }
        }
        let inst = &rec.instants_named("iteration")[0];
        assert_eq!(inst.field_f64("mu"), Some(0.5));
        assert_span_tree!(rec, "pipeline\n  sdp_solve");
    }

    #[test]
    fn span_nodes_carry_their_durations() {
        let rec = TraceRecorder::new(TraceLevel::Stage);
        let t = rec.tracer();
        let root = t.span(TraceLevel::Stage, "pipeline", "");
        {
            let _a = t.span(TraceLevel::Stage, "advection", "");
            let _s = t.span(TraceLevel::Stage, "inclusion", "");
        }
        let events = rec.events();
        let span = |name| span_of(&events, name);
        let tree = rec.span_tree();
        assert_eq!(tree.len(), 1);
        let (pipeline, advection) = (&tree[0], &tree[0].children[0]);
        assert_eq!(pipeline.name, "pipeline");
        assert_eq!(pipeline.duration_ns, None, "an open span has no duration");
        assert_eq!(advection.name, "advection");
        assert_eq!(advection.duration_ns, Some(span("advection")));
        assert_eq!(advection.children.len(), 1);
        let inclusion = &advection.children[0];
        assert_eq!(inclusion.name, "inclusion");
        assert_eq!(inclusion.duration_ns, Some(span("inclusion")));
        assert!(inclusion.duration_ns <= advection.duration_ns);

        drop(root);
        let tree = rec.span_tree();
        assert_eq!(
            tree[0].duration_ns,
            Some(span_of(&rec.events(), "pipeline"))
        );
        assert_eq!(tree[0].children[0].children[0].name, "inclusion");
    }

    /// End − Begin timestamp of the first span named `name`.
    fn span_of(events: &[Event], name: &str) -> u64 {
        let at = |kind: &str| {
            events
                .iter()
                .find(|e| e.type_str() == kind && e.name() == name)
                .map(|e| e.ts_ns)
                .unwrap()
        };
        at("end") - at("begin")
    }

    #[test]
    fn counters_aggregate() {
        let rec = TraceRecorder::new(TraceLevel::Stage);
        let t = rec.tracer();
        t.counter("retry", 1);
        t.counter("retry", 1);
        t.counter("fault_injected", 3);
        assert_eq!(rec.counter_total("retry"), 2);
        assert_eq!(rec.counter_total("fault_injected"), 3);
        assert_eq!(rec.counter_total("missing"), 0);
        assert_eq!(rec.counter_events("retry").len(), 2);
    }

    #[test]
    fn jsonl_is_parseable_and_bit_exact() {
        let t = Tracer::new(TraceLevel::Iter);
        let x = 0.1f64 + 0.2f64;
        {
            let _s = t.span(TraceLevel::Stage, "pipeline", "toy");
            t.instant(TraceLevel::Iter, "iteration", vec![("mu", x.into())]);
            t.counter("retry", 1);
        }
        let jsonl = t.to_jsonl();
        let mut saw_mu = false;
        for line in jsonl.lines() {
            let v = cppll_json::parse(line).expect("well-formed line");
            assert!(v.get("ts_ns").is_some());
            assert!(v.get("type").is_some());
            if let Some(fields) = v.get("fields") {
                if let Some(mu) = fields.get("mu") {
                    assert_eq!(mu.as_f64().unwrap().to_bits(), x.to_bits());
                    saw_mu = true;
                }
            }
        }
        assert!(saw_mu);
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let t = Tracer::new(TraceLevel::Iter);
        {
            let _s = t.span(TraceLevel::Stage, "pipeline", "toy");
            t.instant(TraceLevel::Iter, "iteration", vec![("mu", 1.0.into())]);
            t.counter("retry", 1);
            t.counter("retry", 1);
        }
        let doc = cppll_json::parse(&t.to_chrome_trace()).expect("valid chrome trace");
        let rows = doc.get("traceEvents").and_then(|v| v.as_array()).unwrap();
        assert_eq!(rows.len(), 5); // B, i, C, C, E
        let phases: Vec<&str> = rows
            .iter()
            .map(|r| r.get("ph").and_then(|p| p.as_str()).unwrap())
            .collect();
        assert_eq!(phases, ["B", "i", "C", "C", "E"]);
        // Counter rows carry the running total.
        let c2 = rows[3].get("args").and_then(|a| a.get("value")).unwrap();
        assert_eq!(c2.as_f64(), Some(2.0));
    }

    #[test]
    fn prometheus_dump_has_counters_and_durations() {
        let t = Tracer::new(TraceLevel::Solve);
        {
            let _s = t.span(TraceLevel::Solve, "sdp_solve", "");
            t.counter("retry", 2);
        }
        let prom = t.to_prometheus();
        assert!(prom.contains("cppll_retry_total 2"));
        assert!(prom.contains("cppll_trace_events_total 3"));
        assert!(prom.contains("cppll_span_duration_seconds_count{span=\"sdp_solve\"} 1"));
    }

    #[test]
    fn gauges_keep_latest_value_and_export_as_prometheus_gauges() {
        let t = Tracer::new(TraceLevel::Stage);
        t.gauge("queue_depth", 3.0);
        t.gauge("queue_depth", 7.0);
        t.gauge("inflight", 2.0);
        assert_eq!(t.gauges().get("queue_depth"), Some(&7.0));
        let prom = t.to_prometheus();
        assert!(prom.contains("# TYPE cppll_queue_depth gauge"));
        assert!(prom.contains("cppll_queue_depth 7"));
        assert!(prom.contains("cppll_inflight 2"));
        // Gauges are state, not events: nothing lands in the lanes.
        assert_eq!(t.event_count(), 0);

        let off = Tracer::new(TraceLevel::Off);
        off.gauge("queue_depth", 1.0);
        assert!(off.gauges().is_empty());
    }

    #[test]
    fn span_tree_quantifiers() {
        let rec = TraceRecorder::new(TraceLevel::Solve);
        let t = rec.tracer();
        {
            let _p = t.span(TraceLevel::Stage, "pipeline", "");
            let _a = t.span(TraceLevel::Stage, "lyapunov", "");
            drop(_a);
            let _b = t.span(TraceLevel::Stage, "advection", "");
            for _ in 0..3 {
                let _s = t.span(TraceLevel::Stage, "advection_step", "");
            }
        }
        assert_span_tree!(
            rec,
            "pipeline\n  lyapunov\n  levelset?\n  advection\n    advection_step+\n  escape*"
        );
        assert!(match_span_tree(&rec.span_tree(), "pipeline\n  lyapunov\n  advection").is_err());
        assert!(match_span_tree(&rec.span_tree(), "pipeline\n  escape+").is_err());
    }

    #[test]
    fn multi_thread_lanes_merge() {
        let t = Tracer::new(TraceLevel::Iter);
        let _root = t.span(TraceLevel::Stage, "pipeline", "");
        let mut handles = Vec::new();
        for w in 0..4u64 {
            let tc = t.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..10u64 {
                    tc.instant(
                        TraceLevel::Iter,
                        "worker_tick",
                        vec![("w", w.into()), ("i", i.into())],
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        drop(_root);
        let events = t.events();
        assert_eq!(
            events.iter().filter(|e| e.name() == "worker_tick").count(),
            40
        );
        check_lane_monotonic(&events).unwrap();
    }

    #[test]
    fn counter_totals_sum_every_thread_lane() {
        let t = Tracer::new(TraceLevel::Stage);
        let handles: Vec<_> = (0..4u64)
            .map(|w| {
                let tc = t.clone();
                std::thread::spawn(move || {
                    for i in 0..25u64 {
                        tc.counter("work", w * 100 + i);
                        tc.counter("ticks", 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let want: u64 = (0..4u64)
            .flat_map(|w| (0..25u64).map(move |i| w * 100 + i))
            .sum();
        let totals = t.counter_totals();
        assert_eq!(totals.get("work"), Some(&want));
        assert_eq!(totals.get("ticks"), Some(&100));
        assert_eq!(totals.len(), 2);
        assert!(t
            .to_prometheus()
            .contains(&format!("cppll_work_total {want}\n")));
    }

    #[test]
    fn write_all_creates_three_files() {
        let dir = std::env::temp_dir().join("cppll-trace-test-write-all");
        let _ = std::fs::remove_dir_all(&dir);
        let t = Tracer::new(TraceLevel::Stage);
        {
            let _s = t.span(TraceLevel::Stage, "pipeline", "");
        }
        let paths = t.write_all(&dir).unwrap();
        assert_eq!(paths.len(), 3);
        for p in &paths {
            assert!(p.exists(), "{p:?} missing");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
