//! Spans recorded by the traced pass around every call the benchmark
//! makes into a layer. Kept in memory, written out at exit.
//!
//! Ids are computed, not allocated, so two rank threads never coordinate:
//! the spans of message `m` are `m*8 + slot`, and the ping-pong span (slot
//! 0, on rank 0) is the parent of the four call spans of both ranks.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Slot of the ping-pong span within a message's ids.
pub const SLOT_PINGPONG: u64 = 0;
/// Ids of spans that belong to no message start here.
pub const LOOSE_BASE: u64 = 1 << 40;

/// One timed interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// Rank (thread) that made the call; the harness thread is rank 0.
    pub rank: u8,
    /// Unique id.
    pub id: u64,
    /// Id of the span that caused this one (0: none).
    pub parent: u64,
    /// Message the span belongs to (-1: none); spans of one message share it.
    pub msg: i64,
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// End, ns since the run's epoch.
    pub end_ns: u64,
}

/// An in-memory span buffer of one thread.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    rank: u8,
    loose: u64,
    /// The recorded spans.
    pub v: Vec<Span>,
}

impl Spans {
    /// A buffer with room for `cap` spans, timing against `epoch`.
    pub fn new(epoch: Instant, rank: u8, cap: usize) -> Spans {
        Spans {
            epoch,
            rank,
            loose: 0,
            v: Vec::with_capacity(cap),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Record slot `slot` of message `msg`, caused by its ping-pong span.
    pub fn message(&mut self, name: &'static str, msg: usize, slot: u64, t0: Instant, t1: Instant) {
        let base = (msg as u64 + 1) * 8;
        let parent = if slot == SLOT_PINGPONG {
            0
        } else {
            base + SLOT_PINGPONG
        };
        let (start_ns, end_ns) = (self.ns(t0), self.ns(t1));
        self.v.push(Span {
            name,
            rank: self.rank,
            id: base + slot,
            parent,
            msg: msg as i64,
            start_ns,
            end_ns,
        });
    }

    /// Time `f` as a span that belongs to no message.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.loose += 1;
        let (start_ns, end_ns) = (self.ns(t0), self.ns(t1));
        let id = LOOSE_BASE + self.loose;
        self.v.push(Span {
            name,
            rank: self.rank,
            id,
            parent: 0,
            msg: -1,
            start_ns,
            end_ns,
        });
        out
    }
}

/// Write `out/trace_<workload>.json` in this package's directory; returns
/// the path.
pub fn write(workload: &str, seed: u64, spans: &[Span]) -> std::io::Result<PathBuf> {
    let dir = crate::env::package_dir().join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace_{workload}.json"));
    let mut s = String::with_capacity(64 + spans.len() * 110);
    let _ = write!(
        s,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"unit\": \"ns\", \"spans\": ["
    );
    for (i, sp) in spans.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let _ = write!(
            s,
            "{sep}{{\"name\": \"{}\", \"rank\": {}, \"id\": {}, \"parent\": {}, \"msg\": {}, \"start\": {}, \"end\": {}}}",
            sp.name, sp.rank, sp.id, sp.parent, sp.msg, sp.start_ns, sp.end_ns
        );
    }
    s.push_str("\n]}\n");
    let mut f = std::fs::File::create(&path)?;
    f.write_all(s.as_bytes())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_spans_share_an_id_and_name_their_cause() {
        let epoch = Instant::now();
        let mut s = Spans::new(epoch, 1, 4);
        let t = Instant::now();
        s.message("pingpong", 3, SLOT_PINGPONG, t, t);
        s.message("Comm::recv", 3, 3, t, t);
        s.time("plan_for", || ());
        assert_eq!((s.v[0].id, s.v[0].parent, s.v[0].msg), (32, 0, 3));
        assert_eq!((s.v[1].id, s.v[1].parent, s.v[1].msg), (35, 32, 3));
        assert_eq!(
            (s.v[2].id, s.v[2].parent, s.v[2].msg),
            (LOOSE_BASE + 1, 0, -1)
        );
        assert!(s.v[2].end_ns >= s.v[2].start_ns);
    }
}
