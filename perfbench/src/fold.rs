//! Folds the events a traced pipeline run records into per-layer times.
//!
//! Spans nest per thread: every `Begin` names the enclosing span of its own
//! lane. A span's self time is therefore its duration minus the durations of
//! its direct children, exact in integer nanoseconds however the lanes of
//! parallel workers interleave in the merged stream.

use std::collections::BTreeMap;

use cppll_verify::{Event, EventKind};

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanTime {
    pub name: &'static str,
    pub parent: Option<u64>,
    pub incl_ns: u64,
    pub self_ns: u64,
}

/// Every closed span by id, with inclusive and self time. Spans still open
/// when the events were taken are left out.
pub fn span_times(events: &[Event]) -> BTreeMap<u64, SpanTime> {
    let mut open: BTreeMap<u64, (&'static str, Option<u64>, u64)> = BTreeMap::new();
    let mut spans = BTreeMap::new();
    for e in events {
        match &e.kind {
            EventKind::Begin {
                span, parent, name, ..
            } => {
                open.insert(*span, (*name, *parent, e.ts_ns));
            }
            EventKind::End { span, .. } => {
                if let Some((name, parent, t0)) = open.remove(span) {
                    let d = e.ts_ns.saturating_sub(t0);
                    spans.insert(
                        *span,
                        SpanTime {
                            name,
                            parent,
                            incl_ns: d,
                            self_ns: d,
                        },
                    );
                }
            }
            _ => {}
        }
    }
    let child_time: Vec<(u64, u64)> = spans
        .values()
        .filter_map(|s| s.parent.map(|p| (p, s.incl_ns)))
        .collect();
    for (parent, d) in child_time {
        if let Some(p) = spans.get_mut(&parent) {
            p.self_ns = p.self_ns.saturating_sub(d);
        }
    }
    spans
}

/// The pipeline stages, in run order.
pub const STAGES: [&str; 4] = ["lyapunov", "levelset", "advection", "escape"];

/// Per-iteration solver stage fields of the `iteration` instants, with the
/// per-layer metric each one sums into.
pub const ITER_FIELDS: [(&str, &str); 6] = [
    ("schur_assembly_s", "sdp.schur_assembly_s"),
    ("kkt_factor_s", "sdp.kkt_factor_s"),
    ("kkt_solve_s", "sdp.kkt_solve_s"),
    ("line_search_s", "sdp.line_search_s"),
    ("factorizations_s", "sdp.factorizations_s"),
    ("residuals_s", "sdp.residuals_s"),
];

/// Times below one pipeline stage.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageFold {
    /// The stage span itself.
    pub incl_ns: u64,
    /// `sos_solve` spans (inclusive) and their count.
    pub sos_ns: u64,
    pub sos_solves: usize,
    /// `sos_solve` self time: the supervisor between attempts.
    pub supervisor_ns: u64,
    /// `attempt` and `cone_screen` self time: SOS→SDP lowering plus
    /// reduction, everything an attempt does outside its SDP solve.
    pub compile_ns: u64,
    /// `sdp_solve` spans (inclusive) and their count.
    pub sdp_ns: u64,
    pub sdp_solves: usize,
    /// `iteration` instants and the sums of their stage fields, in
    /// [`ITER_FIELDS`] order.
    pub iterations: usize,
    pub iter_s: [f64; 6],
}

/// A traced pipeline run folded by stage. Spans outside every stage (the
/// `pipeline` span itself) fold into the `""` entry.
#[derive(Debug, Clone, Default)]
pub struct PipelineFold {
    pub stages: BTreeMap<&'static str, StageFold>,
    pub advection_steps: usize,
    /// Duration of every `sdp_solve`, in seconds.
    pub sdp_solve_s: Vec<f64>,
}

impl PipelineFold {
    /// Sum of one field over every stage.
    pub fn total(&self, f: impl Fn(&StageFold) -> u64) -> f64 {
        self.stages.values().map(f).sum::<u64>() as f64 / 1e9
    }

    /// The named stage, or an empty one when it never ran.
    pub fn stage(&self, name: &str) -> StageFold {
        self.stages.get(name).cloned().unwrap_or_default()
    }
}

/// The stage a span belongs to: the nearest stage among itself and its
/// ancestors.
fn stage_of(spans: &BTreeMap<u64, SpanTime>, mut id: u64) -> &'static str {
    while let Some(s) = spans.get(&id) {
        if let Some(stage) = STAGES.iter().find(|&&st| st == s.name) {
            return stage;
        }
        match s.parent {
            Some(p) => id = p,
            None => break,
        }
    }
    ""
}

/// Folds a traced pipeline run by stage.
pub fn fold_pipeline(events: &[Event]) -> PipelineFold {
    let spans = span_times(events);
    let mut fold = PipelineFold::default();
    for (&id, s) in &spans {
        let st = fold.stages.entry(stage_of(&spans, id)).or_default();
        match s.name {
            "sos_solve" => {
                st.sos_ns += s.incl_ns;
                st.sos_solves += 1;
                st.supervisor_ns += s.self_ns;
            }
            "attempt" | "cone_screen" => st.compile_ns += s.self_ns,
            "sdp_solve" => {
                st.sdp_ns += s.incl_ns;
                st.sdp_solves += 1;
                fold.sdp_solve_s.push(s.incl_ns as f64 / 1e9);
            }
            "advection_step" => fold.advection_steps += 1,
            name if STAGES.contains(&name) => st.incl_ns += s.incl_ns,
            _ => {}
        }
    }
    for e in events {
        if let EventKind::Instant {
            span: Some(span),
            name: "iteration",
            ..
        } = &e.kind
        {
            let st = fold.stages.entry(stage_of(&spans, *span)).or_default();
            st.iterations += 1;
            for (k, (field, _)) in ITER_FIELDS.iter().enumerate() {
                st.iter_s[k] += e.field_f64(field).unwrap_or(0.0);
            }
        }
    }
    fold
}

/// The wall → stage → sos → sdp tree of one traced run, in seconds.
pub fn render_tree(fold: &PipelineFold, wall_s: f64) -> String {
    let mut out = String::new();
    let mut line = |depth: usize, label: &str, secs: f64, note: String| {
        let pad = 34usize.saturating_sub(2 * depth);
        out.push_str(&format!(
            "{}{label:<pad$} {secs:>9.3} s{note}\n",
            "  ".repeat(depth)
        ));
    };
    let s = |ns: u64| ns as f64 / 1e9;
    line(0, "wall", wall_s, String::new());
    for name in STAGES.iter().filter(|s| fold.stages.contains_key(*s)) {
        let st = fold.stage(name);
        let note = match *name {
            "advection" => format!("  ({} steps)", fold.advection_steps),
            _ => String::new(),
        };
        line(1, name, s(st.incl_ns), note);
        line(
            2,
            "stage self (polynomial work)",
            s(st.incl_ns.saturating_sub(st.sos_ns)),
            String::new(),
        );
        line(
            2,
            "sos_solve",
            s(st.sos_ns),
            format!("  (n={})", st.sos_solves),
        );
        line(3, "supervisor", s(st.supervisor_ns), String::new());
        line(3, "compile", s(st.compile_ns), String::new());
        line(
            3,
            "sdp_solve",
            s(st.sdp_ns),
            format!("  (n={}, {} iterations)", st.sdp_solves, st.iterations),
        );
        for (k, (field, _)) in ITER_FIELDS.iter().enumerate() {
            line(4, field.trim_end_matches("_s"), st.iter_s[k], String::new());
        }
        line(
            4,
            "outside_iter",
            s(st.sdp_ns) - st.iter_s.iter().sum::<f64>(),
            String::new(),
        );
    }
    let staged = fold.total(|st| st.incl_ns);
    let unaccounted = wall_s - staged;
    line(
        1,
        "unaccounted",
        unaccounted,
        format!("  ({:.2}% of wall)", 100.0 * unaccounted / wall_s),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cppll_verify::FieldValue;

    fn begin(ts: u64, tid: u64, span: u64, parent: Option<u64>, name: &'static str) -> Event {
        Event {
            ts_ns: ts,
            tid,
            seq: 0,
            kind: EventKind::Begin {
                span,
                parent,
                name,
                label: String::new(),
            },
        }
    }

    fn end(ts: u64, tid: u64, span: u64, name: &'static str) -> Event {
        Event {
            ts_ns: ts,
            tid,
            seq: 0,
            kind: EventKind::End { span, name },
        }
    }

    /// Lane 0: a[0,100] ⊃ b[10,40] ⊃ c[20,30], then b2[50,90].
    /// Lane 1: x[5,50] ⊃ y[15,45]. The lanes interleave in time.
    fn two_lanes() -> Vec<Event> {
        let mut ev = vec![
            begin(0, 0, 1, None, "a"),
            begin(5, 1, 10, None, "x"),
            begin(10, 0, 2, Some(1), "b"),
            begin(15, 1, 11, Some(10), "y"),
            begin(20, 0, 3, Some(2), "c"),
            end(30, 0, 3, "c"),
            end(40, 0, 2, "b"),
            end(45, 1, 11, "y"),
            end(50, 1, 10, "x"),
            begin(50, 0, 4, Some(1), "b"),
            end(90, 0, 4, "b"),
            end(100, 0, 1, "a"),
        ];
        ev.sort_by_key(|e| (e.ts_ns, e.tid));
        ev
    }

    #[test]
    fn self_time_is_exact_across_interleaved_lanes() {
        let spans = span_times(&two_lanes());
        let got: Vec<(u64, &str, u64, u64)> = spans
            .iter()
            .map(|(&id, s)| (id, s.name, s.incl_ns, s.self_ns))
            .collect();
        assert_eq!(
            got,
            vec![
                (1, "a", 100, 100 - 30 - 40),
                (2, "b", 30, 20),
                (3, "c", 10, 10),
                (4, "b", 40, 40),
                (10, "x", 45, 15),
                (11, "y", 30, 30),
            ]
        );
        // Self times partition each lane's root exactly.
        let lane0: u64 = [1, 2, 3, 4].iter().map(|id| spans[id].self_ns).sum();
        assert_eq!(lane0, spans[&1].incl_ns);
    }

    #[test]
    fn pipeline_fold_attributes_solves_and_iterations_to_stages() {
        let mut ev = vec![
            begin(0, 0, 1, None, "pipeline"),
            begin(10, 0, 2, Some(1), "lyapunov"),
            begin(20, 0, 3, Some(2), "sos_solve"),
            begin(25, 0, 4, Some(3), "attempt"),
            begin(30, 0, 5, Some(4), "sdp_solve"),
            end(70, 0, 5, "sdp_solve"),
            end(80, 0, 4, "attempt"),
            end(90, 0, 3, "sos_solve"),
            end(95, 0, 2, "lyapunov"),
            begin(100, 0, 6, Some(1), "advection"),
            begin(105, 0, 7, Some(6), "advection_step"),
            end(110, 0, 7, "advection_step"),
            end(120, 0, 6, "advection"),
            end(130, 0, 1, "pipeline"),
        ];
        ev.push(Event {
            ts_ns: 50,
            tid: 0,
            seq: 0,
            kind: EventKind::Instant {
                span: Some(5),
                name: "iteration",
                fields: vec![("schur_assembly_s", FieldValue::F64(0.5))],
            },
        });
        ev.sort_by_key(|e| e.ts_ns);
        let fold = fold_pipeline(&ev);
        let ly = fold.stage("lyapunov");
        assert_eq!(
            (
                ly.incl_ns,
                ly.sos_ns,
                ly.supervisor_ns,
                ly.compile_ns,
                ly.sdp_ns
            ),
            (85, 70, 15, 15, 40)
        );
        assert_eq!((ly.sos_solves, ly.sdp_solves, ly.iterations), (1, 1, 1));
        assert_eq!(ly.iter_s[0], 0.5);
        assert_eq!(fold.stage("advection").incl_ns, 20);
        assert_eq!(fold.advection_steps, 1);
        assert_eq!(fold.stage("escape"), StageFold::default());
        assert_eq!(fold.sdp_solve_s, vec![40e-9]);
        assert_eq!(fold.total(|s| s.incl_ns), 105e-9);
    }
}
