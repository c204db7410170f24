//! Spans recorded by the benchmark around its calls into the system under
//! test, plus what those calls returned (operator profiles, optimizer run
//! records) imported as child spans on the same clock.
//!
//! Every client thread owns one pre-sized [`Log`]; logs are merged when the
//! run ends. A layer's *self time* is its spans' duration minus the part
//! their children cover.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use crate::json::{obj, Json};

/// Span identifier; `0` means "no parent".
pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    /// Module the call went into (`service`, `engine`, `operators`, ...).
    pub layer: &'static str,
    /// Function or operator family within the layer.
    pub name: &'static str,
    /// Operation (query submission, episode, ...) the span belongs to.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Client thread, or `100 + worker` for imported operator spans.
    pub lane: u32,
    /// True when the interval was reported by the system under test and
    /// placed on the benchmark's clock, not timed by the benchmark itself.
    pub imported: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span buffer. A disabled log records nothing, so the same
/// workload code runs traced and untraced.
#[derive(Debug)]
pub struct Log {
    epoch: Option<Instant>,
    lane: u32,
    next: u32,
    spans: Vec<Span>,
}

impl Log {
    pub fn off() -> Self {
        Log { epoch: None, lane: 0, next: 0, spans: Vec::new() }
    }

    /// A recording log for client thread `lane` (below 100), timestamps
    /// relative to `epoch` — the one monotonic clock all logs of a run share.
    pub fn on(epoch: Instant, lane: u32, capacity: usize) -> Self {
        Log { epoch: Some(epoch), lane, next: 0, spans: Vec::with_capacity(capacity) }
    }

    pub fn enabled(&self) -> bool {
        self.epoch.is_some()
    }

    /// Reserves an id, so children can name their parent before it closes.
    pub fn id(&mut self) -> SpanId {
        self.next += 1;
        ((self.lane + 1) << 24) | self.next
    }

    pub fn ns(&self, at: Instant) -> u64 {
        self.epoch.map_or(0, |epoch| at.saturating_duration_since(epoch).as_nanos() as u64)
    }

    /// Records a span the benchmark timed itself.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        id: SpanId,
        parent: SpanId,
        layer: &'static str,
        name: &'static str,
        op: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled() {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            let lane = self.lane;
            self.spans.push(Span {
                id,
                parent,
                layer,
                name,
                op,
                start_ns,
                end_ns,
                lane,
                imported: false,
            });
        }
    }

    /// Records an interval reported by the system under test.
    #[allow(clippy::too_many_arguments)]
    pub fn import(
        &mut self,
        parent: SpanId,
        layer: &'static str,
        name: &'static str,
        op: u64,
        start_ns: u64,
        end_ns: u64,
        lane: u32,
    ) -> SpanId {
        if !self.enabled() {
            return 0;
        }
        let id = self.id();
        self.spans.push(Span {
            id,
            parent,
            layer,
            name,
            op,
            start_ns,
            end_ns,
            lane,
            imported: true,
        });
        id
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Length of the union of `children` clipped to `[start, end)`.
pub fn covered_ns(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let (mut covered, mut cursor) = (0, start);
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Busy and self time of one `layer.name`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    pub spans: usize,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Total and self time per `(layer, name)`.
pub fn self_times(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), LayerTime> {
    let mut children: HashMap<SpanId, Vec<(u64, u64)>> = HashMap::new();
    for span in spans.iter().filter(|s| s.parent != 0) {
        children.entry(span.parent).or_default().push((span.start_ns, span.end_ns));
    }
    let mut out: BTreeMap<_, LayerTime> = BTreeMap::new();
    for span in spans {
        let cover = children
            .get_mut(&span.id)
            .map_or(0, |kids| covered_ns(span.start_ns, span.end_ns, kids));
        let entry = out.entry((span.layer, span.name)).or_default();
        entry.spans += 1;
        entry.total_ns += span.duration_ns();
        entry.self_ns += span.duration_ns() - cover;
    }
    out
}

/// Self time of a whole layer, in milliseconds.
pub fn layer_self_ms(
    times: &BTreeMap<(&'static str, &'static str), LayerTime>,
    layer: &str,
) -> f64 {
    times.iter().filter(|((l, _), _)| *l == layer).map(|(_, t)| t.self_ns).sum::<u64>() as f64 / 1e6
}

/// How far imported children stick out of their parents.
#[derive(Debug, Clone, PartialEq)]
pub struct Containment {
    pub checked: usize,
    /// Children sticking out by more than the tolerance.
    pub violations: usize,
    /// Worst overhang as a share of the parent's duration, and who it was.
    pub worst_ratio: f64,
    pub worst: Option<(&'static str, &'static str)>,
}

/// Checks every imported child against its parent's interval.
pub fn containment(spans: &[Span], tolerance: f64) -> Containment {
    let by_id: HashMap<SpanId, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut out = Containment { checked: 0, violations: 0, worst_ratio: 0.0, worst: None };
    for child in spans.iter().filter(|s| s.imported) {
        let Some(parent) = by_id.get(&child.parent) else { continue };
        let overhang = parent.start_ns.saturating_sub(child.start_ns)
            + child.end_ns.saturating_sub(parent.end_ns);
        let ratio = overhang as f64 / parent.duration_ns().max(1) as f64;
        out.checked += 1;
        if ratio > tolerance {
            out.violations += 1;
        }
        if ratio > out.worst_ratio {
            out.worst_ratio = ratio;
            out.worst = Some((child.layer, child.name));
        }
    }
    out
}

/// Chrome-trace (`chrome://tracing`, Perfetto) rendering: one complete
/// ("X") event per span, microsecond timestamps.
pub fn chrome_trace(spans: &[Span]) -> Json {
    let events = spans
        .iter()
        .map(|s| {
            obj([
                ("name", Json::from(format!("{}.{}", s.layer, s.name))),
                ("cat", Json::from(if s.imported { "imported" } else { "benchmark" })),
                ("ph", Json::from("X")),
                ("ts", Json::from(s.start_ns as f64 / 1e3)),
                ("dur", Json::from(s.duration_ns() as f64 / 1e3)),
                ("pid", Json::from(1usize)),
                ("tid", Json::from(s.lane as usize)),
                (
                    "args",
                    obj([
                        ("id", Json::from(s.id as usize)),
                        ("parent", Json::from(s.parent as usize)),
                        ("op", Json::from(s.op)),
                    ]),
                ),
            ])
        })
        .collect();
    obj([("displayTimeUnit", Json::from("ms")), ("traceEvents", Json::Arr(events))])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn span(id: SpanId, parent: SpanId, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            name: "x",
            op: 1,
            start_ns: start,
            end_ns: end,
            lane: 0,
            imported: parent != 0,
        }
    }

    #[test]
    fn cover_is_the_union_clipped_to_the_parent() {
        // Overlapping, nested, disjoint and overhanging children.
        let mut kids = vec![(10, 30), (20, 40), (25, 35), (60, 70), (90, 120), (0, 5)];
        assert_eq!(covered_ns(5, 100, &mut kids), 30 + 10 + 10);
        assert_eq!(covered_ns(0, 100, &mut []), 0);
        assert_eq!(covered_ns(50, 60, &mut [(0, 100)]), 10);
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span(1, 0, "service", 0, 100),
            span(2, 1, "engine", 10, 90),
            span(3, 2, "operators", 10, 40),
            span(4, 2, "operators", 30, 60), // runs beside span 3 on another worker
            span(5, 0, "service", 200, 250), // a cache hit: no children
        ];
        let times = self_times(&spans);
        assert_eq!(times[&("service", "x")], LayerTime { spans: 2, total_ns: 150, self_ns: 70 });
        assert_eq!(times[&("engine", "x")], LayerTime { spans: 1, total_ns: 80, self_ns: 30 });
        assert_eq!(times[&("operators", "x")].self_ns, 60);
        assert!((layer_self_ms(&times, "service") - 70e-6).abs() < 1e-12);
    }

    #[test]
    fn containment_reports_the_worst_overhang() {
        let spans = vec![
            span(1, 0, "engine", 100, 200),
            span(2, 1, "operators", 100, 201), // 1 % over
            span(3, 1, "operators", 90, 150),  // 10 % early
        ];
        let report = containment(&spans, 0.02);
        assert_eq!((report.checked, report.violations), (2, 1));
        assert!((report.worst_ratio - 0.10).abs() < 1e-12);
        assert_eq!(report.worst, Some(("operators", "x")));
    }

    #[test]
    fn disabled_logs_record_nothing_and_ids_are_unique_per_lane() {
        let now = Instant::now();
        let mut off = Log::off();
        let id = off.id();
        off.record(id, 0, "engine", "execute", 1, now, now);
        assert_eq!(off.import(id, "operators", "select", 1, 0, 1, 100), 0);
        assert!(off.into_spans().is_empty());

        let (mut a, mut b) = (Log::on(now, 0, 4), Log::on(now, 1, 4));
        assert_ne!(a.id(), b.id());
        let id = a.id();
        a.record(id, 0, "engine", "execute", 7, now, now + Duration::from_micros(5));
        let kid = a.import(id, "operators", "select", 7, 1_000, 2_000, 100);
        let spans = a.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].duration_ns(), 5_000);
        assert_eq!((spans[1].id, spans[1].parent, spans[1].imported), (kid, id, true));
        let trace = chrome_trace(&spans);
        let events = trace.get("traceEvents").unwrap().as_array();
        assert_eq!(events[0].get("name").and_then(Json::as_str), Some("engine.execute"));
        assert_eq!(events[1].get("dur").and_then(Json::as_f64), Some(1.0));
        assert_eq!(Json::parse(&trace.to_line()).unwrap(), trace);
    }
}
