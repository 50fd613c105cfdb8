//! Flit-level event tracing.
//!
//! A [`TraceSink`] installed on a [`crate::network::Network`] receives one
//! typed [`TraceEvent`] per flit-lifecycle step — injection, buffer
//! write/read, VC allocation, switch-allocation grant, link traversal,
//! ejection, retransmission and fault — stamped with the cycle and the
//! router/link coordinates where it happened. With no sink installed the
//! engine's hot path contains a single `Option::is_some()` branch per
//! potential event and builds no event values at all, so fault-free golden
//! fingerprints (and wall time) are unaffected.
//!
//! Each event kind's fields are declared once, in `SCHEMA`: their JSON
//! names, their order, and where the Chrome writer puts them. Two
//! serializing sinks and one checker read it:
//!
//! * [`JsonlSink`] — one compact JSON object per line, a fixed field order
//!   per event kind, fully deterministic byte-for-byte per (config, seed).
//! * [`ChromeTraceSink`] — the Chrome `trace_event` array format, loadable
//!   directly in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
//! * [`check_jsonl`] — validates a JSONL trace (`heteronoc trace --check`).
//!
//! [`SharedBuffer`] is a small `Arc<Mutex<Vec<u8>>>` writer so callers can
//! recover a trace after [`crate::sim::SimRun::run`] has consumed the
//! network that owned the sink.

use std::io::{self, Write};
use std::sync::{Arc, Mutex};

use heteronoc_obs::json::{parse, Json};

use crate::types::{Cycle, LinkId, NodeId, PacketId, PortId, RouterId, VcId};

/// The unit a fault event names.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultUnit {
    /// A flit was corrupted in flight on `link` (CRC detected; NACKed).
    Corrupt {
        /// Link the corrupted flit was traversing.
        link: LinkId,
    },
    /// A hard fault killed one direction of a channel.
    LinkDead {
        /// The dead link.
        link: LinkId,
    },
    /// A hard fault killed a whole router.
    RouterDead {
        /// The dead router.
        router: RouterId,
    },
}

/// One flit-lifecycle event, stamped with the cycle it happened on.
///
/// Events are emitted in nondecreasing cycle order; within a cycle the
/// order follows the engine's phase order (event delivery, injection, RC/VA,
/// SA/ST) and is deterministic per (config, seed).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceEvent {
    /// A packet's head flit left its source queue and entered the network.
    Inject {
        /// Cycle of the event.
        cycle: Cycle,
        /// Injecting endpoint.
        node: NodeId,
        /// The packet.
        packet: PacketId,
        /// Total flits in the packet.
        flits: u32,
    },
    /// A flit was written into an input buffer (BW stage).
    BufferWrite {
        /// Cycle of the event.
        cycle: Cycle,
        /// Receiving router.
        router: RouterId,
        /// Input port written.
        port: PortId,
        /// Virtual channel written.
        vc: VcId,
        /// Owning packet.
        packet: PacketId,
        /// Flit sequence number within the packet.
        seq: u32,
    },
    /// An output virtual channel was allocated to a packet (VA stage).
    VcAlloc {
        /// Cycle of the event.
        cycle: Cycle,
        /// Router granting the allocation.
        router: RouterId,
        /// Input port holding the requesting head flit.
        in_port: PortId,
        /// Input virtual channel of the requester.
        in_vc: VcId,
        /// Output port allocated.
        out_port: PortId,
        /// Output virtual channel allocated.
        out_vc: VcId,
        /// Owning packet.
        packet: PacketId,
    },
    /// A flit won switch allocation (SA stage).
    SaGrant {
        /// Cycle of the event.
        cycle: Cycle,
        /// Router granting the crossbar slot.
        router: RouterId,
        /// Input port of the winning flit.
        in_port: PortId,
        /// Input virtual channel of the winning flit.
        in_vc: VcId,
        /// Output port won.
        out_port: PortId,
        /// Owning packet.
        packet: PacketId,
        /// Flit sequence number within the packet.
        seq: u32,
    },
    /// A flit was read out of its input buffer and crossed the crossbar
    /// (ST stage). Always follows an `SaGrant` in the same cycle.
    BufferRead {
        /// Cycle of the event.
        cycle: Cycle,
        /// Router the flit is leaving.
        router: RouterId,
        /// Input port read.
        port: PortId,
        /// Virtual channel read.
        vc: VcId,
        /// Owning packet.
        packet: PacketId,
        /// Flit sequence number within the packet.
        seq: u32,
    },
    /// A flit was launched onto a router-to-router channel (LT stage).
    LinkTraverse {
        /// Cycle of the event (launch cycle; arrival is two cycles later).
        cycle: Cycle,
        /// The channel traversed.
        link: LinkId,
        /// Owning packet.
        packet: PacketId,
        /// Flit sequence number within the packet.
        seq: u32,
    },
    /// A flit reached its destination endpoint.
    Eject {
        /// Cycle of the event.
        cycle: Cycle,
        /// Destination endpoint.
        node: NodeId,
        /// Owning packet.
        packet: PacketId,
        /// Flit sequence number within the packet.
        seq: u32,
        /// True when this flit completed the packet.
        done: bool,
    },
    /// The link layer re-sent a flit (go-back-N recovery).
    Retransmit {
        /// Cycle of the event.
        cycle: Cycle,
        /// Link re-sending.
        link: LinkId,
        /// Link-layer sequence number being replayed.
        seq: u64,
    },
    /// A fault fired: corruption detected, or equipment died.
    Fault {
        /// Cycle of the event.
        cycle: Cycle,
        /// What failed.
        unit: FaultUnit,
    },
}

impl TraceEvent {
    /// The cycle stamped on the event.
    pub fn cycle(&self) -> Cycle {
        match *self {
            TraceEvent::Inject { cycle, .. }
            | TraceEvent::BufferWrite { cycle, .. }
            | TraceEvent::VcAlloc { cycle, .. }
            | TraceEvent::SaGrant { cycle, .. }
            | TraceEvent::BufferRead { cycle, .. }
            | TraceEvent::LinkTraverse { cycle, .. }
            | TraceEvent::Eject { cycle, .. }
            | TraceEvent::Retransmit { cycle, .. }
            | TraceEvent::Fault { cycle, .. } => cycle,
        }
    }

    /// The event's kind name as it appears in the JSONL `"ev"` field.
    pub fn kind(&self) -> &'static str {
        self.visit(|kind, _| kind.name)
    }

    /// Hands `f` the event's kind and one value per field of that kind, in
    /// the kind's field order. This match and [`SCHEMA`] are the trace
    /// format: every writer and the checker go through them.
    fn visit<R>(&self, f: impl FnOnce(&'static Kind, &[Value]) -> R) -> R {
        use Value::{Absent, Bool, Int, Name};
        fn id(i: impl Into<usize>) -> Value {
            Int(i.into() as u64)
        }
        match *self {
            TraceEvent::Inject {
                node,
                packet,
                flits,
                ..
            } => f(&INJECT, &[id(node), id(packet), Int(flits.into())]),
            TraceEvent::BufferWrite {
                router,
                port,
                vc,
                packet,
                seq,
                ..
            } => f(
                &BUFFER_WRITE,
                &[id(router), id(port), id(vc), id(packet), Int(seq.into())],
            ),
            TraceEvent::VcAlloc {
                router,
                in_port,
                in_vc,
                out_port,
                out_vc,
                packet,
                ..
            } => f(
                &VC_ALLOC,
                &[
                    id(router),
                    id(in_port),
                    id(in_vc),
                    id(out_port),
                    id(out_vc),
                    id(packet),
                ],
            ),
            TraceEvent::SaGrant {
                router,
                in_port,
                in_vc,
                out_port,
                packet,
                seq,
                ..
            } => f(
                &SA_GRANT,
                &[
                    id(router),
                    id(in_port),
                    id(in_vc),
                    id(out_port),
                    id(packet),
                    Int(seq.into()),
                ],
            ),
            TraceEvent::BufferRead {
                router,
                port,
                vc,
                packet,
                seq,
                ..
            } => f(
                &BUFFER_READ,
                &[id(router), id(port), id(vc), id(packet), Int(seq.into())],
            ),
            TraceEvent::LinkTraverse {
                link, packet, seq, ..
            } => f(&LINK_TRAVERSE, &[id(link), id(packet), Int(seq.into())]),
            TraceEvent::Eject {
                node,
                packet,
                seq,
                done,
                ..
            } => f(&EJECT, &[id(node), id(packet), Int(seq.into()), Bool(done)]),
            TraceEvent::Retransmit { link, seq, .. } => f(&RETRANSMIT, &[id(link), Int(seq)]),
            TraceEvent::Fault { unit, .. } => match unit {
                FaultUnit::Corrupt { link } => f(&FAULT, &[Name("corrupt"), id(link), Absent]),
                FaultUnit::LinkDead { link } => f(&FAULT, &[Name("link_dead"), id(link), Absent]),
                FaultUnit::RouterDead { router } => {
                    f(&FAULT, &[Name("router_dead"), Absent, id(router)])
                }
            },
        }
    }
}

/// One event kind of the trace schema.
#[derive(Debug)]
struct Kind {
    /// The JSONL `"ev"` name and the Chrome event name.
    name: &'static str,
    /// The fields after `ev` and `cycle`, in JSONL order.
    fields: &'static [Field],
}

/// One field of an event kind.
#[derive(Debug)]
struct Field {
    /// The JSON member name.
    name: &'static str,
    /// Where the Chrome writer puts the value.
    role: Role,
    /// False for a field only some events of the kind carry: a fault names
    /// either a link or a router.
    required: bool,
}

/// Where the Chrome writer puts a field: Chrome's `pid`/`tid` place an
/// event in the viewer, and everything else goes into its `args`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Role {
    /// The `pid`: the value plus this offset, which keeps routers, links
    /// and endpoints apart.
    Pid(u64),
    /// The `tid`: the port. An event without one has `tid` 0.
    Tid,
    /// One member of `args`.
    Arg,
}

const ROUTER: Role = Role::Pid(0);
const LINK: Role = Role::Pid(100_000);
const NODE: Role = Role::Pid(200_000);
const TID: Role = Role::Tid;
const ARG: Role = Role::Arg;

/// A field every event of its kind carries.
const fn field(name: &'static str, role: Role) -> Field {
    Field {
        name,
        role,
        required: true,
    }
}

/// The unit a fault names: a link or a router, never both.
const fn unit(name: &'static str, role: Role) -> Field {
    Field {
        name,
        role,
        required: false,
    }
}

const INJECT: Kind = Kind {
    name: "inject",
    fields: &[
        field("node", NODE),
        field("packet", ARG),
        field("flits", ARG),
    ],
};
const BUFFER_WRITE: Kind = Kind {
    name: "buffer_write",
    fields: &[
        field("router", ROUTER),
        field("port", TID),
        field("vc", ARG),
        field("packet", ARG),
        field("seq", ARG),
    ],
};
const VC_ALLOC: Kind = Kind {
    name: "vc_alloc",
    fields: &[
        field("router", ROUTER),
        field("in_port", TID),
        field("in_vc", ARG),
        field("out_port", ARG),
        field("out_vc", ARG),
        field("packet", ARG),
    ],
};
const SA_GRANT: Kind = Kind {
    name: "sa_grant",
    fields: &[
        field("router", ROUTER),
        field("in_port", TID),
        field("in_vc", ARG),
        field("out_port", ARG),
        field("packet", ARG),
        field("seq", ARG),
    ],
};
const BUFFER_READ: Kind = Kind {
    name: "buffer_read",
    fields: &[
        field("router", ROUTER),
        field("port", TID),
        field("vc", ARG),
        field("packet", ARG),
        field("seq", ARG),
    ],
};
const LINK_TRAVERSE: Kind = Kind {
    name: "link_traverse",
    fields: &[field("link", LINK), field("packet", ARG), field("seq", ARG)],
};
const EJECT: Kind = Kind {
    name: "eject",
    fields: &[
        field("node", NODE),
        field("packet", ARG),
        field("seq", ARG),
        field("done", ARG),
    ],
};
const RETRANSMIT: Kind = Kind {
    name: "retransmit",
    fields: &[field("link", LINK), field("seq", ARG)],
};
const FAULT: Kind = Kind {
    name: "fault",
    fields: &[
        field("what", ARG),
        unit("link", LINK),
        unit("router", ROUTER),
    ],
};

/// The trace schema: every event kind with its fields, in the order the
/// JSONL writer emits them. [`JsonlSink`], [`ChromeTraceSink`],
/// [`EVENT_KINDS`] and [`check_jsonl`] all read it.
const SCHEMA: [&Kind; 9] = [
    &INJECT,
    &BUFFER_WRITE,
    &VC_ALLOC,
    &SA_GRANT,
    &BUFFER_READ,
    &LINK_TRAVERSE,
    &EJECT,
    &RETRANSMIT,
    &FAULT,
];

/// Every event kind name a JSONL trace may contain, in schema order.
pub const EVENT_KINDS: [&str; SCHEMA.len()] = {
    let mut names = [""; SCHEMA.len()];
    let mut i = 0;
    while i < names.len() {
        names[i] = SCHEMA[i].name;
        i += 1;
    }
    names
};

/// One field's value in one event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Value {
    /// An id, count or sequence number.
    Int(u64),
    /// A flag.
    Bool(bool),
    /// A name, written as a JSON string (it needs no escaping).
    Name(&'static str),
    /// A field this event does not carry; writers leave it out.
    Absent,
}

/// Appends `"name":value` to `out`; the trace writers build every member
/// this way, straight into their line buffer.
fn push_member(out: &mut Vec<u8>, name: &str, value: Value) {
    out.push(b'"');
    out.extend_from_slice(name.as_bytes());
    out.extend_from_slice(b"\":");
    match value {
        Value::Int(mut v) => {
            let mut digits = [0u8; 20];
            let mut at = digits.len();
            loop {
                at -= 1;
                digits[at] = b'0' + (v % 10) as u8;
                v /= 10;
                if v == 0 {
                    break;
                }
            }
            out.extend_from_slice(&digits[at..]);
        }
        Value::Bool(b) => out.extend_from_slice(if b { b"true" } else { b"false" }),
        Value::Name(s) => {
            out.push(b'"');
            out.extend_from_slice(s.as_bytes());
            out.push(b'"');
        }
        Value::Absent => {}
    }
}

/// Receiver of flit-lifecycle events.
///
/// Implementations must not assume `finish` is called (a panicking run may
/// drop the network), but the simulation driver calls it exactly once after
/// the last cycle, so file formats needing a footer (Chrome traces) close
/// properly on every normal run.
pub trait TraceSink: Send {
    /// Called once per event, in emission order.
    fn event(&mut self, ev: &TraceEvent);

    /// Called once after the final cycle; write footers/flush here.
    fn finish(&mut self) {}

    /// Bytes this sink has emitted so far, when the sink counts them
    /// (only [`JsonlSink`] does). Checkpoints store this cursor so a
    /// resumed run can truncate its trace file back to the cut and append
    /// a byte-identical suffix.
    fn bytes_written(&self) -> Option<u64> {
        None
    }
}

impl std::fmt::Debug for dyn TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("dyn TraceSink")
    }
}

/// Writes one compact JSON object per event per line.
///
/// Field order is fixed per kind (`ev`, `cycle`, then the kind's fields in
/// schema order), all ids are raw integers, and no floating point is
/// involved, so the byte stream is deterministic per (config, seed).
#[derive(Debug)]
pub struct JsonlSink<W: Write + Send> {
    out: W,
    written: u64,
    /// The line being built, reused from event to event.
    line: Vec<u8>,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps `out`. Consider a `BufWriter` for file targets.
    pub fn new(out: W) -> Self {
        Self::resumed(out, 0)
    }

    /// Wraps `out` continuing a byte count captured from an earlier sink's
    /// [`TraceSink::bytes_written`] (checkpoint resume: `out` should be the
    /// original trace file truncated to `written` and opened for append).
    pub fn resumed(out: W, written: u64) -> Self {
        Self {
            out,
            written,
            line: Vec::with_capacity(160),
        }
    }
}

impl<W: Write + Send> TraceSink for JsonlSink<W> {
    fn event(&mut self, ev: &TraceEvent) {
        let line = &mut self.line;
        line.clear();
        ev.visit(|kind, values| {
            line.push(b'{');
            push_member(line, "ev", Value::Name(kind.name));
            line.push(b',');
            push_member(line, "cycle", Value::Int(ev.cycle()));
            for (field, &value) in kind.fields.iter().zip(values) {
                if value != Value::Absent {
                    line.push(b',');
                    push_member(line, field.name, value);
                }
            }
        });
        line.extend_from_slice(b"}\n");
        self.written += line.len() as u64;
        let _ = self.out.write_all(line);
    }

    fn finish(&mut self) {
        let _ = self.out.flush();
    }

    fn bytes_written(&self) -> Option<u64> {
        Some(self.written)
    }
}

/// Writes the Chrome `trace_event` JSON array format.
///
/// Each event becomes an instant event (`"ph":"i"`): `ts` is the cycle (the
/// viewer's microsecond axis reads as cycles), `pid` groups by router (or
/// `100000 + link` for link-scoped events, `200000 + node` for endpoint
/// events) and `tid` is the port. Load the file in `chrome://tracing` or
/// drop it on <https://ui.perfetto.dev>.
#[derive(Debug)]
pub struct ChromeTraceSink<W: Write + Send> {
    out: W,
    first: bool,
    /// The event being built, reused from event to event.
    line: Vec<u8>,
}

impl<W: Write + Send> ChromeTraceSink<W> {
    /// Wraps `out` and writes the array header.
    pub fn new(mut out: W) -> Self {
        let _ = out.write_all(b"[\n");
        Self {
            out,
            first: true,
            line: Vec::with_capacity(160),
        }
    }
}

impl<W: Write + Send> TraceSink for ChromeTraceSink<W> {
    fn event(&mut self, ev: &TraceEvent) {
        let line = &mut self.line;
        line.clear();
        if !self.first {
            line.extend_from_slice(b",\n");
        }
        self.first = false;
        ev.visit(|kind, values| {
            let (mut pid, mut tid) = (0, 0);
            for (field, &value) in kind.fields.iter().zip(values) {
                match (field.role, value) {
                    (Role::Pid(offset), Value::Int(v)) => pid = offset + v,
                    (Role::Tid, Value::Int(v)) => tid = v,
                    _ => {}
                }
            }
            line.push(b'{');
            push_member(line, "name", Value::Name(kind.name));
            line.extend_from_slice(b",\"ph\":\"i\",\"s\":\"t\",");
            push_member(line, "ts", Value::Int(ev.cycle()));
            line.push(b',');
            push_member(line, "pid", Value::Int(pid));
            line.push(b',');
            push_member(line, "tid", Value::Int(tid));
            line.extend_from_slice(b",\"args\":{");
            let args = kind.fields.iter().zip(values);
            let args = args.filter(|&(f, &v)| f.role == Role::Arg && v != Value::Absent);
            for (i, (field, &value)) in args.enumerate() {
                if i > 0 {
                    line.push(b',');
                }
                push_member(line, field.name, value);
            }
            line.extend_from_slice(b"}}");
        });
        let _ = self.out.write_all(line);
    }

    fn finish(&mut self) {
        let _ = self.out.write_all(b"\n]\n");
        let _ = self.out.flush();
    }
}

/// A clonable in-memory byte buffer implementing [`Write`].
///
/// [`crate::sim::SimRun::run`] consumes the network (and with it any
/// installed sink), so tests hand a `SharedBuffer` clone to a
/// [`JsonlSink`]/[`ChromeTraceSink`] and read the bytes back from their own
/// clone after the run.
#[derive(Clone, Debug, Default)]
pub struct SharedBuffer {
    inner: Arc<Mutex<Vec<u8>>>,
}

impl SharedBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of everything written so far.
    ///
    /// # Panics
    /// Panics if a writer panicked while holding the lock.
    pub fn contents(&self) -> Vec<u8> {
        self.inner.lock().expect("trace buffer poisoned").clone()
    }

    /// `contents()` as UTF-8 (lossy).
    pub fn to_text(&self) -> String {
        String::from_utf8_lossy(&self.contents()).into_owned()
    }
}

impl Write for SharedBuffer {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.inner
            .lock()
            .expect("trace buffer poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Summary of a validated trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceCheck {
    /// Lines (= events) validated.
    pub events: u64,
    /// Events per kind, indexed like [`EVENT_KINDS`].
    pub per_kind: [u64; EVENT_KINDS.len()],
    /// Cycle stamp of the last event (0 for an empty trace).
    pub last_cycle: u64,
}

impl TraceCheck {
    /// Count for kind `name` (0 for unknown names).
    pub fn count(&self, name: &str) -> u64 {
        EVENT_KINDS
            .iter()
            .position(|k| *k == name)
            .map_or(0, |i| self.per_kind[i])
    }
}

/// Validates a whole JSONL trace, as `heteronoc trace --check` does: every
/// line must parse as a JSON object, name a known event kind, and carry
/// `cycle` and every field the schema requires of that kind, and the cycle
/// stamps must be nondecreasing (the simulator emits events in cycle
/// order, so a violation means a corrupted or interleaved file). Returns
/// per-kind counts on success.
///
/// # Errors
/// A `String` of the form `line N: <problem>` naming the first offending
/// line.
pub fn check_jsonl(text: &str) -> Result<TraceCheck, String> {
    let mut check = TraceCheck::default();
    let mut prev_cycle: u64 = 0;
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            return Err(format!("line {lineno}: empty line inside trace"));
        }
        let v = parse(line).map_err(|e| format!("line {lineno}: {e}"))?;
        let ev = v
            .get("ev")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {lineno}: missing string field \"ev\""))?;
        let kind = SCHEMA
            .iter()
            .position(|k| k.name == ev)
            .ok_or_else(|| format!("line {lineno}: unknown event kind {ev:?}"))?;
        let cycle = v
            .get("cycle")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("line {lineno}: missing integer field \"cycle\""))?;
        if cycle < prev_cycle {
            return Err(format!(
                "line {lineno}: cycle went backwards ({cycle} after {prev_cycle})"
            ));
        }
        for field in SCHEMA[kind].fields.iter().filter(|f| f.required) {
            if v.get(field.name).is_none() {
                return Err(format!(
                    "line {lineno}: {ev} event missing field {:?}",
                    field.name
                ));
            }
        }
        prev_cycle = cycle;
        check.events += 1;
        check.per_kind[kind] += 1;
        check.last_cycle = cycle;
    }
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Inject {
                cycle: 1,
                node: NodeId(3),
                packet: PacketId(7),
                flits: 6,
            },
            TraceEvent::BufferWrite {
                cycle: 2,
                router: RouterId(4),
                port: PortId(1),
                vc: VcId(0),
                packet: PacketId(7),
                seq: 0,
            },
            TraceEvent::VcAlloc {
                cycle: 3,
                router: RouterId(4),
                in_port: PortId(1),
                in_vc: VcId(0),
                out_port: PortId(2),
                out_vc: VcId(1),
                packet: PacketId(7),
            },
            TraceEvent::SaGrant {
                cycle: 4,
                router: RouterId(4),
                in_port: PortId(1),
                in_vc: VcId(0),
                out_port: PortId(2),
                packet: PacketId(7),
                seq: 0,
            },
            TraceEvent::BufferRead {
                cycle: 4,
                router: RouterId(4),
                port: PortId(1),
                vc: VcId(0),
                packet: PacketId(7),
                seq: 0,
            },
            TraceEvent::LinkTraverse {
                cycle: 4,
                link: LinkId(9),
                packet: PacketId(7),
                seq: 0,
            },
            TraceEvent::Eject {
                cycle: 8,
                node: NodeId(5),
                packet: PacketId(7),
                seq: 5,
                done: true,
            },
            TraceEvent::Retransmit {
                cycle: 9,
                link: LinkId(9),
                seq: 17,
            },
            TraceEvent::Fault {
                cycle: 10,
                unit: FaultUnit::RouterDead {
                    router: RouterId(12),
                },
            },
        ]
    }

    /// `events` as the JSONL sink writes them.
    fn jsonl(events: &[TraceEvent]) -> String {
        let buf = SharedBuffer::new();
        let mut sink = JsonlSink::new(buf.clone());
        for ev in events {
            sink.event(ev);
        }
        sink.finish();
        buf.to_text()
    }

    #[test]
    fn jsonl_lines_cover_every_kind_once() {
        let events = sample_events();
        assert_eq!(events.len(), EVENT_KINDS.len());
        let text = jsonl(&events);
        for ((ev, kind), line) in events.iter().zip(EVENT_KINDS).zip(text.lines()) {
            assert_eq!(ev.kind(), kind);
            assert!(
                line.contains(&format!("\"ev\":\"{kind}\"")),
                "line {line} must name its kind"
            );
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
        let check = check_jsonl(&text).expect("sink output validates");
        assert_eq!(check.per_kind, [1; EVENT_KINDS.len()]);
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let buf = SharedBuffer::new();
        let mut sink = JsonlSink::new(buf.clone());
        for ev in sample_events() {
            sink.event(&ev);
        }
        sink.finish();
        let text = buf.to_text();
        assert_eq!(text.lines().count(), EVENT_KINDS.len());
        assert!(text.lines().all(|l| l.starts_with('{')));
        assert_eq!(sink.bytes_written(), Some(text.len() as u64));
    }

    #[test]
    fn chrome_sink_produces_a_json_array() {
        let buf = SharedBuffer::new();
        let mut sink = ChromeTraceSink::new(buf.clone());
        for ev in sample_events() {
            sink.event(&ev);
        }
        sink.finish();
        let text = buf.to_text();
        let trimmed = text.trim();
        assert!(trimmed.starts_with('[') && trimmed.ends_with(']'), "{text}");
        assert_eq!(text.matches("\"ph\":\"i\"").count(), EVENT_KINDS.len());
        // No trailing comma before the closing bracket.
        assert!(!text.contains(",\n]"), "{text}");
    }

    #[test]
    fn chrome_sink_empty_trace_is_still_an_array() {
        let buf = SharedBuffer::new();
        let mut sink = ChromeTraceSink::new(buf.clone());
        sink.finish();
        assert_eq!(buf.to_text(), "[\n\n]\n");
    }

    #[test]
    fn cycle_accessor_matches_payload() {
        for (i, ev) in sample_events().iter().enumerate() {
            assert!(ev.cycle() >= 1, "event {i} has a cycle");
        }
    }

    fn inject(cycle: u64) -> TraceEvent {
        TraceEvent::Inject {
            cycle,
            node: NodeId(3),
            packet: PacketId(7),
            flits: 6,
        }
    }

    #[test]
    fn check_accepts_real_sink_output() {
        let check = check_jsonl(&jsonl(&[inject(1), inject(5)])).unwrap();
        assert_eq!(check.events, 2);
        assert_eq!(check.count("inject"), 2);
        assert_eq!(check.last_cycle, 5);
    }

    #[test]
    fn check_counts_events_by_kind() {
        let check = check_jsonl(&jsonl(&sample_events())).unwrap();
        assert_eq!(check.events, EVENT_KINDS.len() as u64);
        assert_eq!(check.count("inject"), 1);
        assert_eq!(check.count("no_such_kind"), 0);
    }

    #[test]
    fn check_accepts_an_empty_trace() {
        assert_eq!(check_jsonl("").unwrap().events, 0);
    }

    #[test]
    fn check_rejects_unparseable_unknown_and_incomplete_lines() {
        assert!(check_jsonl("not json\n").unwrap_err().contains("line 1"));
        let unknown = "{\"ev\":\"warp\",\"cycle\":1}\n";
        assert!(check_jsonl(unknown)
            .unwrap_err()
            .contains("unknown event kind"));
        let incomplete = "{\"ev\":\"inject\",\"cycle\":1,\"node\":0}\n";
        assert!(check_jsonl(incomplete)
            .unwrap_err()
            .contains("missing field \"packet\""));
    }

    #[test]
    fn check_rejects_time_travel() {
        let text = jsonl(&[inject(9), inject(2)]);
        assert!(check_jsonl(&text).unwrap_err().contains("backwards"));
    }
}
