//! Trace analysis: virtual-time critical path, pipeline bubble
//! accounting, and gantt rendering.
//!
//! Consumes the same [`Span`]s the trace exporter uses, so the whole
//! analysis is runtime-agnostic and unit-testable on synthetic traces.
//!
//! ## Critical path
//!
//! The event DAG of a traced run is implicit in span timing: at any
//! instant the run's progress is constrained by whichever operation is
//! executing then (ties broken toward the innermost span, i.e. the one
//! that started latest). [`critical_path`] walks backward from the last
//! event end, at each step selecting the covering span with the latest
//! start, emitting one [`CriticalEdge`] per step and an `idle` edge
//! across any interval no span covers. By construction consecutive edges
//! share *bit-identical* boundary timestamps, so the edge widths
//! telescope: [`CriticalPath::edge_sum`] verifies the tiling and then
//! returns `t_end - t_begin` exactly, making "edge sum equals elapsed"
//! an honest bitwise identity rather than a float-tolerance claim.
//!
//! ## Pipeline bubbles
//!
//! A streamed rendezvous is gathered by both ranks in wall-clock time
//! only: the sender charges staging once before posting, and every chunk
//! marker within a transfer carries its rank's virtual timestamp of that
//! moment. [`pipeline_report`] therefore reads the receiver's window
//! against the critical path: how much of it the receiver drove, and how
//! much it spent waiting (the bubble).

use crate::traceviz::Span;
use std::fmt::Write as _;

/// Phase bucket for a span name, mirroring the bench harness's phase
/// attribution: `pack`, `unpack`, `transfer`, `sync`, or `other`.
pub fn phase_of_name(name: &str) -> &'static str {
    match name {
        "pack" | "stage" => "pack",
        "unpack" | "unstage" => "unpack",
        "send" | "bsend" | "recv" | "put" | "get" | "chunk" => "transfer",
        "fence" | "barrier" | "flush" => "sync",
        _ => "other",
    }
}

/// One step of the critical path: either a clipped slice of a traced
/// span, or an `idle` edge across an uncovered gap.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalEdge {
    /// Track (rank) the edge is attributed to. Idle edges are charged
    /// to the track of the operation that ends the wait.
    pub track: usize,
    /// Operation name (`"idle"` for gap edges).
    pub name: String,
    /// Phase bucket of [`CriticalEdge::name`] (see [`phase_of_name`]).
    pub phase: &'static str,
    /// Edge start (bit-identical to the previous edge's end).
    pub t_start: f64,
    /// Edge end (bit-identical to the next edge's start).
    pub t_end: f64,
    /// Payload bytes of the underlying span (0 for idle edges).
    pub bytes: usize,
    /// Chunk sequence number, when the underlying span has one.
    pub seq: Option<u32>,
    /// True for gap edges no span covers.
    pub idle: bool,
}

impl CriticalEdge {
    /// Edge width in seconds.
    pub fn width(&self) -> f64 {
        self.t_end - self.t_start
    }
}

/// The critical path of a traced run: edges tiling `[t_begin, t_end]`.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Edges in time order; consecutive boundaries are bit-identical.
    pub edges: Vec<CriticalEdge>,
    /// First event start in the trace.
    pub t_begin: f64,
    /// Last event end in the trace.
    pub t_end: f64,
}

impl CriticalPath {
    /// Virtual elapsed time the path spans.
    pub fn elapsed(&self) -> f64 {
        self.t_end - self.t_begin
    }

    /// Total width of all edges. Verifies that consecutive edge
    /// boundaries are **bit-identical** and tile `[t_begin, t_end]`;
    /// when they do, the float sum telescopes exactly, so this returns
    /// `t_end - t_begin` and is bit-equal to [`CriticalPath::elapsed`].
    /// If the tiling is ever broken (a bug), the naive float sum is
    /// returned instead so the discrepancy is observable.
    pub fn edge_sum(&self) -> f64 {
        let mut t = self.t_begin;
        for e in &self.edges {
            if e.t_start.to_bits() != t.to_bits() {
                return self.edges.iter().map(CriticalEdge::width).sum();
            }
            t = e.t_end;
        }
        if t.to_bits() != self.t_end.to_bits() {
            return self.edges.iter().map(CriticalEdge::width).sum();
        }
        self.t_end - self.t_begin
    }

    /// Busy (non-idle) seconds attributed to each track, sorted by
    /// track index.
    pub fn by_track(&self) -> Vec<(usize, f64)> {
        let mut acc: Vec<(usize, f64)> = Vec::new();
        for e in self.edges.iter().filter(|e| !e.idle) {
            match acc.iter_mut().find(|(t, _)| *t == e.track) {
                Some((_, s)) => *s += e.width(),
                None => acc.push((e.track, e.width())),
            }
        }
        acc.sort_by_key(|&(t, _)| t);
        acc
    }

    /// Seconds attributed to each phase bucket (idle edges bucket as
    /// `"idle"`), in first-seen order.
    pub fn by_phase(&self) -> Vec<(&'static str, f64)> {
        let mut acc: Vec<(&'static str, f64)> = Vec::new();
        for e in &self.edges {
            let key = if e.idle { "idle" } else { e.phase };
            match acc.iter_mut().find(|(p, _)| *p == key) {
                Some((_, s)) => *s += e.width(),
                None => acc.push((key, e.width())),
            }
        }
        acc
    }

    /// Total idle (uncovered-gap) seconds on the path.
    pub fn idle_total(&self) -> f64 {
        // + 0.0 normalizes the empty sum, which folds from -0.0.
        self.edges.iter().filter(|e| e.idle).map(CriticalEdge::width).sum::<f64>() + 0.0
    }

    /// Serialize as a standalone JSON document (hand-rolled; this
    /// crate is dependency-free).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema_version\": 1,\n");
        let _ = writeln!(out, "  \"t_begin\": {},", jnum(self.t_begin));
        let _ = writeln!(out, "  \"t_end\": {},", jnum(self.t_end));
        let _ = writeln!(out, "  \"elapsed_s\": {},", jnum(self.elapsed()));
        let _ = writeln!(out, "  \"edge_sum_s\": {},", jnum(self.edge_sum()));
        let _ = writeln!(out, "  \"idle_s\": {},", jnum(self.idle_total()));
        out.push_str("  \"by_track\": [");
        for (i, (track, s)) in self.by_track().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{{\"track\": {track}, \"busy_s\": {}}}", jnum(*s));
        }
        out.push_str("],\n  \"by_phase\": [");
        for (i, (phase, s)) in self.by_phase().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{{\"phase\": \"{phase}\", \"seconds\": {}}}", jnum(*s));
        }
        out.push_str("],\n  \"edges\": [\n");
        for (i, e) in self.edges.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"track\": {}, \"name\": \"{}\", \"phase\": \"{}\", \"t_start\": {}, \"t_end\": {}, \"bytes\": {}, \"idle\": {}",
                e.track,
                e.name,
                e.phase,
                jnum(e.t_start),
                jnum(e.t_end),
                e.bytes,
                e.idle
            );
            if let Some(q) = e.seq {
                let _ = write!(out, ", \"seq\": {q}");
            }
            out.push('}');
            out.push_str(if i + 1 < self.edges.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Format an `f64` as a JSON number (shortest round-trip decimal);
/// non-finite values become `null`.
fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Compute the virtual-time critical path of a trace (see the module
/// docs for the backward-sweep construction). Returns `None` when no
/// positive-width span exists — zero-width markers alone carry no
/// duration to attribute.
pub fn critical_path(spans: &[Span]) -> Option<CriticalPath> {
    if !spans.iter().any(|s| s.t_end > s.t_start) {
        return None;
    }
    // Bounds cover *all* events, zero-width markers included, so the
    // path width is bit-comparable with the run's traced elapsed time.
    let t_begin = spans.iter().map(|s| s.t_start).fold(f64::INFINITY, f64::min);
    let t_end = spans.iter().map(|s| s.t_end).fold(f64::NEG_INFINITY, f64::max);

    let mut edges: Vec<CriticalEdge> = Vec::new();
    let mut t = t_end;
    while t > t_begin {
        // Covering span at time t (t_start < t <= t_end), innermost
        // (latest start) wins; zero-width markers never cover anything.
        let best = spans
            .iter()
            .filter(|s| s.t_end > s.t_start && s.t_start < t && s.t_end >= t)
            .max_by(|a, b| a.t_start.total_cmp(&b.t_start));
        match best {
            Some(s) => {
                edges.push(CriticalEdge {
                    track: s.track,
                    name: s.name.clone(),
                    phase: phase_of_name(&s.name),
                    t_start: s.t_start,
                    t_end: t,
                    bytes: s.bytes,
                    seq: s.seq,
                    idle: false,
                });
                t = s.t_start;
            }
            None => {
                // Uncovered gap: idle back to the latest span end
                // strictly below t (or the trace start). Charge the
                // wait to whichever track resumes work at t.
                let prev = spans
                    .iter()
                    .filter(|s| s.t_end > s.t_start && s.t_end < t)
                    .map(|s| s.t_end)
                    .fold(f64::NEG_INFINITY, f64::max);
                let lo = if prev > t_begin { prev } else { t_begin };
                let track = edges.last().map(|e| e.track).unwrap_or(0);
                edges.push(CriticalEdge {
                    track,
                    name: "idle".into(),
                    phase: "idle",
                    t_start: lo,
                    t_end: t,
                    bytes: 0,
                    seq: None,
                    idle: true,
                });
                t = lo;
            }
        }
    }
    edges.reverse();
    Some(CriticalPath { edges, t_begin, t_end })
}

/// Bubble accounting for the receiver of a streamed transfer, read
/// against the critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineReport {
    /// Receiver track (rank) the report describes.
    pub receiver: usize,
    /// Chunk markers on every track: each gathered chunk once, on the
    /// rank that gathered it.
    pub chunks: usize,
    /// Start of the receiver's traced window.
    pub receiver_t_start: f64,
    /// End of the receiver's traced window.
    pub receiver_t_end: f64,
    /// Width of the receiver's traced window.
    pub receiver_elapsed_s: f64,
    /// Critical-path busy (non-idle) time clipped to the receiver
    /// window, across all tracks.
    pub busy_on_path_s: f64,
    /// The receiver's own share of the critical path within its
    /// window: non-idle clipped edges on the receiver track.
    pub critical_on_receiver_s: f64,
    /// Bubble time: `receiver_elapsed_s - critical_on_receiver_s` —
    /// every moment of the window where the receiver was *not* the
    /// operation driving progress (waiting on the sender, on sync, or
    /// on nothing at all). Exact when [`PipelineReport::tiling_exact`]
    /// holds — the clipped edges tile the window with bit-identical
    /// boundaries, so receiver-share + bubble partitions the
    /// receiver's elapsed time with no float slop.
    pub bubble_s: f64,
    /// The part of the bubble where the critical path ran pack or
    /// transfer work on *another* track — time the receiver waited on
    /// the sender. Sync work (cache flushes, barriers) is a bubble but
    /// not a stall.
    pub stall_s: f64,
    /// True when the critical-path edges clipped to the receiver
    /// window still form a bit-exact tiling of it.
    pub tiling_exact: bool,
}

impl PipelineReport {
    /// Serialize as a JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema_version\": 2,\n");
        let _ = writeln!(out, "  \"receiver\": {},", self.receiver);
        let _ = writeln!(out, "  \"chunks\": {},", self.chunks);
        let _ = writeln!(out, "  \"receiver_t_start\": {},", jnum(self.receiver_t_start));
        let _ = writeln!(out, "  \"receiver_t_end\": {},", jnum(self.receiver_t_end));
        let _ = writeln!(out, "  \"receiver_elapsed_s\": {},", jnum(self.receiver_elapsed_s));
        let _ = writeln!(out, "  \"busy_on_path_s\": {},", jnum(self.busy_on_path_s));
        let _ = writeln!(
            out,
            "  \"critical_on_receiver_s\": {},",
            jnum(self.critical_on_receiver_s)
        );
        let _ = writeln!(out, "  \"bubble_s\": {},", jnum(self.bubble_s));
        let _ = writeln!(out, "  \"stall_s\": {},", jnum(self.stall_s));
        let _ = write!(out, "  \"tiling_exact\": {}\n}}", self.tiling_exact);
        out
    }
}

/// Build a [`PipelineReport`] for `receiver`'s window. Returns `None`
/// when no track traced a `chunk` marker (no streamed transfer) or the
/// receiver recorded no window.
pub fn pipeline_report(
    spans: &[Span],
    path: &CriticalPath,
    receiver: usize,
) -> Option<PipelineReport> {
    let chunks = spans.iter().filter(|s| s.name == "chunk").count();
    if chunks == 0 {
        return None;
    }

    let r0 = spans
        .iter()
        .filter(|s| s.track == receiver)
        .map(|s| s.t_start)
        .fold(f64::INFINITY, f64::min);
    let r1 = spans
        .iter()
        .filter(|s| s.track == receiver)
        .map(|s| s.t_end)
        .fold(f64::NEG_INFINITY, f64::max);
    if r0 >= r1 {
        return None;
    }

    // Clip the critical path to the receiver window. The global edges
    // tile [t_begin, t_end] with bit-identical boundaries, so the
    // clipped pieces tile [r0, r1] the same way; verify anyway.
    let mut busy = 0.0;
    let mut on_receiver = 0.0;
    let mut stall = 0.0;
    let mut cursor = r0;
    let mut tiling_exact = true;
    for e in &path.edges {
        let a = e.t_start.max(r0);
        let b = e.t_end.min(r1);
        if a >= b {
            continue;
        }
        if a.to_bits() != cursor.to_bits() {
            tiling_exact = false;
        }
        cursor = b;
        if !e.idle {
            busy += b - a;
            if e.track == receiver {
                on_receiver += b - a;
            } else if matches!(e.phase, "pack" | "transfer") {
                stall += b - a;
            }
        }
    }
    if cursor.to_bits() != r1.to_bits() {
        tiling_exact = false;
    }

    Some(PipelineReport {
        receiver,
        chunks,
        receiver_t_start: r0,
        receiver_t_end: r1,
        receiver_elapsed_s: r1 - r0,
        busy_on_path_s: busy,
        critical_on_receiver_s: on_receiver,
        bubble_s: (r1 - r0) - on_receiver,
        stall_s: stall,
        tiling_exact,
    })
}

/// Merged busy time per track (union of positive-width spans).
fn busy_union_by_track(spans: &[Span], ntracks: usize) -> Vec<f64> {
    let mut busy = vec![0.0; ntracks];
    for (track, slot) in busy.iter_mut().enumerate() {
        let mut ivals: Vec<(f64, f64)> = spans
            .iter()
            .filter(|s| s.track == track && s.t_end > s.t_start)
            .map(|s| (s.t_start, s.t_end))
            .collect();
        ivals.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut end = f64::NEG_INFINITY;
        for (a, b) in ivals {
            if a > end {
                *slot += b - a;
                end = b;
            } else if b > end {
                *slot += b - end;
                end = b;
            }
        }
    }
    busy
}

fn fill_color(phase: &str) -> &'static str {
    match phase {
        "pack" => "#e6a23c",
        "unpack" => "#8e7cc3",
        "transfer" => "#4a90d9",
        "sync" => "#9aa0a6",
        _ => "#7ab87a",
    }
}

/// Render a gantt chart as SVG: one row per track with phase-colored
/// span rects, the critical path overlaid as a red baseline (solid on
/// busy edges, dotted across idle gaps), and a per-track bubble%
/// column (share of the traced window the track spent doing nothing).
pub fn gantt_svg(spans: &[Span], path: &CriticalPath, track_names: &[String]) -> String {
    let ntracks = spans.iter().map(|s| s.track).max().map_or(0, |t| t + 1);
    let (t0, t1) = (path.t_begin, path.t_end);
    let range = t1 - t0;
    if ntracks == 0 || range <= 0.0 || range.is_nan() {
        return "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"200\" height=\"40\">\
                <text x=\"10\" y=\"25\" font-size=\"12\">empty trace</text></svg>\n"
            .into();
    }
    let (left, plot_w, col_w, row_h, pad) = (110.0, 760.0, 90.0, 26.0, 8.0);
    let width = left + plot_w + col_w + pad;
    let height = pad * 2.0 + row_h * (ntracks as f64 + 1.0) + 18.0;
    let x = |t: f64| left + (t - t0) / range * plot_w;

    let busy = busy_union_by_track(spans, ntracks);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width:.0}\" height=\"{height:.0}\" \
         font-family=\"monospace\" font-size=\"11\">"
    );
    let _ = writeln!(out, "<rect width=\"{width:.0}\" height=\"{height:.0}\" fill=\"white\"/>");
    for (track, &track_busy) in busy.iter().enumerate() {
        let y = pad + row_h * track as f64;
        let fallback = format!("track {track}");
        let name = track_names.get(track).map(String::as_str).unwrap_or(&fallback);
        let _ = writeln!(
            out,
            "<text x=\"6\" y=\"{:.1}\">{}</text>",
            y + row_h * 0.65,
            name
        );
        let _ = writeln!(
            out,
            "<rect x=\"{left}\" y=\"{y:.1}\" width=\"{plot_w}\" height=\"{:.1}\" \
             fill=\"#f4f4f4\"/>",
            row_h - 4.0
        );
        for s in spans.iter().filter(|s| s.track == track && s.t_end > s.t_start) {
            let (xa, xb) = (x(s.t_start), x(s.t_end));
            let _ = writeln!(
                out,
                "<rect x=\"{xa:.2}\" y=\"{:.1}\" width=\"{:.2}\" height=\"{:.1}\" \
                 fill=\"{}\" fill-opacity=\"0.85\"><title>{} [{:.3e}s, {:.3e}s) {} B</title></rect>",
                y + 1.0,
                (xb - xa).max(0.75),
                row_h - 6.0,
                fill_color(phase_of_name(&s.name)),
                s.name,
                s.t_start,
                s.t_end,
                s.bytes
            );
        }
        let bubble_pct = 100.0 * (1.0 - track_busy / range);
        let _ = writeln!(
            out,
            "<text x=\"{:.1}\" y=\"{:.1}\">{:5.1}% bubble</text>",
            left + plot_w + 6.0,
            y + row_h * 0.65,
            bubble_pct
        );
    }
    // Critical-path baseline, per edge on its owning track's row.
    for e in &path.edges {
        let y = pad + row_h * e.track as f64 + row_h - 3.5;
        let dash = if e.idle { " stroke-dasharray=\"2,3\"" } else { "" };
        let _ = writeln!(
            out,
            "<line x1=\"{:.2}\" y1=\"{y:.1}\" x2=\"{:.2}\" y2=\"{y:.1}\" \
             stroke=\"#d0342c\" stroke-width=\"2.5\"{dash}/>",
            x(e.t_start),
            x(e.t_end)
        );
    }
    let axis_y = pad + row_h * ntracks as f64 + 12.0;
    let _ = writeln!(out, "<text x=\"{left}\" y=\"{axis_y:.1}\">{:.3e} s</text>", t0);
    let _ = writeln!(
        out,
        "<text x=\"{:.1}\" y=\"{axis_y:.1}\" text-anchor=\"end\">{:.3e} s</text>",
        left + plot_w,
        t1
    );
    let _ = writeln!(
        out,
        "<text x=\"{left}\" y=\"{:.1}\" fill=\"#d0342c\">critical path (dotted = idle)</text>",
        axis_y + 14.0
    );
    out.push_str("</svg>\n");
    out
}

/// Render a gantt chart as ASCII: one row per track (first letter of
/// the innermost covering span per cell), a `crit` row marking busy
/// (`=`) and idle (`.`) critical-path edges, and a bubble% column.
pub fn gantt_ascii(spans: &[Span], path: &CriticalPath, width: usize) -> String {
    let width = width.max(20);
    let ntracks = spans.iter().map(|s| s.track).max().map_or(0, |t| t + 1);
    let (t0, t1) = (path.t_begin, path.t_end);
    let range = t1 - t0;
    if ntracks == 0 || range <= 0.0 || range.is_nan() {
        return "empty trace\n".into();
    }
    let cell_of = |t: f64| (((t - t0) / range) * (width - 1) as f64).floor() as usize;

    let mut rows = vec![vec![(f64::NEG_INFINITY, ' '); width]; ntracks];
    let mut ordered: Vec<&Span> = spans.iter().filter(|s| s.t_end > s.t_start).collect();
    ordered.sort_by(|a, b| a.t_start.total_cmp(&b.t_start));
    for s in ordered {
        let glyph = s.name.chars().next().unwrap_or('?');
        let (a, b) = (cell_of(s.t_start), cell_of(s.t_end).min(width - 1));
        for cell in rows[s.track].iter_mut().take(b + 1).skip(a) {
            if s.t_start >= cell.0 {
                *cell = (s.t_start, glyph);
            }
        }
    }

    let busy = busy_union_by_track(spans, ntracks);
    let mut out = String::new();
    for (track, row) in rows.iter().enumerate() {
        let _ = write!(out, "rank {track:>2} |");
        out.extend(row.iter().map(|&(_, g)| g));
        let _ = writeln!(out, "| {:5.1}% bubble", 100.0 * (1.0 - busy[track] / range));
    }
    let mut crit = vec![' '; width];
    for e in &path.edges {
        let (a, b) = (cell_of(e.t_start), cell_of(e.t_end).min(width - 1));
        let glyph = if e.idle { '.' } else { '=' };
        for c in crit.iter_mut().take(b + 1).skip(a) {
            *c = glyph;
        }
    }
    out.push_str("crit    |");
    out.extend(crit);
    let _ = writeln!(out, "|");
    let _ = writeln!(
        out,
        "        {:.3e} s .. {:.3e} s  ('=' on critical path, '.' idle)",
        t0, t1
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(track: usize, name: &str, a: f64, b: f64) -> Span {
        Span {
            track,
            name: name.into(),
            t_start: a,
            t_end: b,
            bytes: 100,
            peer: None,
            tag: None,
            seq: None,
        }
    }

    fn marker(track: usize, t: f64, seq: u32) -> Span {
        Span {
            track,
            name: "chunk".into(),
            t_start: t,
            t_end: t,
            bytes: 4096,
            peer: None,
            tag: Some(1),
            seq: Some(seq),
        }
    }

    #[test]
    fn critical_path_tiles_with_gap() {
        let spans = vec![
            span(0, "pack", 0.0, 1.0),
            span(0, "send", 1.0, 3.0),
            span(1, "unpack", 4.0, 6.0),
        ];
        let p = critical_path(&spans).unwrap();
        assert_eq!(p.edges.len(), 4);
        assert_eq!(p.edges[0].name, "pack");
        assert_eq!(p.edges[1].name, "send");
        assert!(p.edges[2].idle);
        // The idle wait before unpack is charged to the resuming track.
        assert_eq!(p.edges[2].track, 1);
        assert_eq!(p.edges[3].name, "unpack");
        assert_eq!(p.edge_sum().to_bits(), p.elapsed().to_bits());
        assert_eq!(p.idle_total(), 1.0);
        assert_eq!(p.by_track(), vec![(0, 3.0), (1, 2.0)]);
    }

    #[test]
    fn critical_path_clips_overlap_to_latest_start() {
        // recv spans the whole run; the inner send owns [8, 12].
        let spans = vec![span(0, "recv", 0.0, 10.0), span(1, "send", 8.0, 12.0)];
        let p = critical_path(&spans).unwrap();
        assert_eq!(p.edges.len(), 2);
        assert_eq!(p.edges[0].name, "recv");
        assert_eq!(p.edges[0].t_end, 8.0);
        assert_eq!(p.edges[1].name, "send");
        assert_eq!(p.edge_sum().to_bits(), p.elapsed().to_bits());
    }

    #[test]
    fn edge_sum_is_bit_exact_on_awkward_floats() {
        // Boundaries that would NOT telescope under naive float
        // summation of widths.
        let a = 0.1;
        let b = 0.2;
        let c = 0.30000000000000004; // 0.1 + 0.2 in f64
        let spans = vec![span(0, "pack", 0.0, a), span(0, "send", a, b), span(1, "recv", b, c)];
        let p = critical_path(&spans).unwrap();
        assert_eq!(p.edge_sum().to_bits(), (c - 0.0).to_bits());
        assert_eq!(p.edge_sum().to_bits(), p.elapsed().to_bits());
    }

    #[test]
    fn no_positive_width_means_no_path() {
        assert!(critical_path(&[]).is_none());
        assert!(critical_path(&[marker(0, 1.0, 0)]).is_none());
    }

    #[test]
    fn pipeline_report_partitions_the_receiver_window() {
        let mut spans = vec![
            span(0, "stage", 0.0, 4.0),
            span(1, "recv", 0.0, 1.0),
            span(1, "unstage", 4.0, 6.0),
        ];
        // Three chunks, gathered by the sender (0, 2) and the receiver (1).
        spans.push(marker(0, 4.0, 0));
        spans.push(marker(1, 4.0, 1));
        spans.push(marker(0, 4.0, 2));

        let p = critical_path(&spans).unwrap();
        let r = pipeline_report(&spans, &p, 1).unwrap();
        assert_eq!(r.chunks, 3);
        assert!(r.tiling_exact);
        // Receiver window is [0, 6]; the receiver's critical share +
        // bubbles partitions it.
        assert_eq!(r.receiver_elapsed_s, 6.0);
        assert_eq!(
            (r.critical_on_receiver_s + r.bubble_s).to_bits(),
            6.0f64.to_bits()
        );
        // Stage on track 0 owns [0, 4] of the path (the backward sweep
        // jumps from t=4 to stage's start, never cutting at recv's end)
        // => stall 4, receiver share = unstage's [4, 6] = 2,
        // bubble = 6 - 2 = 4.
        assert!((r.stall_s - 4.0).abs() < 1e-12);
        assert!((r.critical_on_receiver_s - 2.0).abs() < 1e-12);
        assert!((r.bubble_s - 4.0).abs() < 1e-12);
    }

    #[test]
    fn pipeline_report_none_without_chunks() {
        let spans = vec![span(0, "send", 0.0, 1.0), span(1, "recv", 0.0, 1.0)];
        let p = critical_path(&spans).unwrap();
        assert!(pipeline_report(&spans, &p, 1).is_none());
    }

    #[test]
    fn json_and_gantt_render() {
        let spans = vec![
            span(0, "pack", 0.0, 1.0),
            span(0, "send", 1.0, 3.0),
            span(1, "recv", 3.0, 5.0),
            marker(1, 3.0, 0),
        ];
        let p = critical_path(&spans).unwrap();
        let j = p.to_json();
        assert!(j.contains("\"schema_version\": 1"));
        assert!(j.contains("\"edges\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());

        let names = vec!["rank 0".into(), "rank 1".into()];
        let svg = gantt_svg(&spans, &p, &names);
        assert!(svg.contains("<svg"));
        assert!(svg.contains("bubble"));
        assert!(svg.contains("rank 1"));

        let art = gantt_ascii(&spans, &p, 60);
        assert!(art.contains("crit"));
        assert!(art.contains("% bubble"));
        assert!(art.contains('='));
    }

    #[test]
    fn gantt_empty_graceful() {
        let p = CriticalPath { edges: vec![], t_begin: 0.0, t_end: 0.0 };
        assert!(gantt_svg(&[], &p, &[]).contains("empty trace"));
        assert_eq!(gantt_ascii(&[], &p, 40), "empty trace\n");
    }
}
