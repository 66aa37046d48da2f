//! The traced run's client: the same four public calls `RemoteDb::call`
//! makes (`to_frame`, `write_frame`, `read_frame`, `from_frame`) over
//! one stream, each timed as a child span of the `post` or `sync` root
//! the load code opens around its whole operation. Codec costs the
//! server pays are re-measured on the run's own frames after the root
//! closes.

use crate::timed::{now_ns, Span};
use csaw::global::{GlobalApi, RegistrationError};
use csaw_simnet::time::SimTime;
use csaw_simnet::topology::Asn;
use csaw_store::net::{DbRequest, DbResponse};
use csaw_store::{Batch, ConfidenceFilter, GlobalRecord, IngestReceipt, StoreError, Uuid};
use csaw_webproto::bytes::BytesMut;
use csaw_webproto::codec::{read_frame, write_frame, Frame};
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Per-phase durations (ns) of one request kind.
#[derive(Debug, Default, Clone)]
pub struct Phases {
    /// Root span durations.
    pub root: Vec<f64>,
    /// `DbRequest` construction plus `to_frame`.
    pub encode: Vec<f64>,
    /// `write_frame`.
    pub write: Vec<f64>,
    /// `read_frame`: server time, socket and reading the response.
    pub wait: Vec<f64>,
    /// `DbResponse::from_frame`.
    pub decode: Vec<f64>,
}

/// Codec timings on copies of the run's frames (ns), outside requests.
#[derive(Debug, Default, Clone)]
pub struct Codec {
    /// `DbRequest::to_frame` of each POST.
    pub post_encode: Vec<f64>,
    /// `DbRequest::from_frame` of a copy of each POST (the reactor's decode).
    pub post_decode: Vec<f64>,
    /// POST frame bytes and reports carried.
    pub post_bytes: u64,
    /// Reports carried by those POST frames.
    pub post_reports: u64,
    /// `DbResponse::to_frame` of each RECORDS response (the server's encode).
    pub records_encode: Vec<f64>,
    /// `DbResponse::from_frame` of each RECORDS response.
    pub records_decode: Vec<f64>,
    /// Wire bytes of each RECORDS response.
    pub records_bytes: Vec<f64>,
}

/// Everything one traced connection recorded.
#[derive(Debug, Default, Clone)]
pub struct ClientTrace {
    /// Post requests.
    pub post: Phases,
    /// Sync requests.
    pub sync: Phases,
    /// Codec re-measurements.
    pub codec: Codec,
    /// Spans for the Chrome trace (capped, see [`SPAN_CAP`]).
    pub spans: Vec<Span>,
}

/// Roots kept per connection for the Chrome trace file; the per-layer
/// statistics use every request regardless.
pub const SPAN_CAP: usize = 5_000;

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Wire bytes of a frame beyond its payload: the length header and opcode.
pub const FRAME_OVERHEAD: usize = csaw_webproto::codec::FRAME_HEADER_BYTES + 1;

/// A benchmark-side client over one stream per connection.
#[derive(Debug)]
pub struct TracedClient {
    track: String,
    conn: Mutex<(TcpStream, BytesMut)>,
    state: Mutex<State>,
}

#[derive(Debug, Default)]
struct State {
    trace: ClientTrace,
    /// The open root's span id (0: none).
    root: u64,
    /// Codec work to re-measure once the open root closes.
    pending: Vec<Redo>,
}

/// Codec work the other side of a request did, redone outside the root.
#[derive(Debug)]
enum Redo {
    /// The reactor's decode of a POST frame.
    Post { frame: Frame, reports: usize },
    /// The server's encode of a RECORDS response.
    Records { resp: DbResponse, wire: usize },
}

/// The kind of a root: one fully reconciled post, or one sync.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// `GlobalApi::ingest` until the receipt reconciles.
    Post,
    /// `GlobalApi::blocked_for_as`.
    Sync,
}

impl Kind {
    fn names(self) -> [&'static str; 5] {
        match self {
            Kind::Post => [
                "post",
                "post.encode",
                "post.write",
                "post.wait",
                "post.decode",
            ],
            Kind::Sync => [
                "sync",
                "sync.encode",
                "sync.write",
                "sync.wait",
                "sync.decode",
            ],
        }
    }
}

impl ClientTrace {
    fn phases(&mut self, kind: Kind) -> &mut Phases {
        match kind {
            Kind::Post => &mut self.post,
            Kind::Sync => &mut self.sync,
        }
    }
}

impl TracedClient {
    /// Connect to `addr`; `track` names the connection in the trace.
    pub fn connect(addr: SocketAddr, track: &str) -> std::io::Result<TracedClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(TracedClient {
            track: track.to_string(),
            conn: Mutex::new((stream, BytesMut::new())),
            state: Mutex::new(State::default()),
        })
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("trace lock poisoned")
    }

    /// Take what this connection recorded.
    pub fn take(&self) -> ClientTrace {
        std::mem::take(&mut self.state().trace)
    }

    /// Run `op` (the load's whole post or sync, resubmits included) under
    /// one root span; every call it makes becomes four children of it.
    /// The codec re-measurements run after the root closes.
    pub fn root<R>(&self, kind: Kind, op: impl FnOnce() -> R) -> R {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        self.state().root = id;
        let t0 = now_ns();
        let out = op();
        let t1 = now_ns();
        let mut st = self.state();
        st.root = 0;
        let phases = st.trace.phases(kind);
        phases.root.push((t1 - t0) as f64);
        if phases.root.len() <= SPAN_CAP {
            let span = Span {
                name: kind.names()[0],
                track: self.track.clone(),
                start_ns: t0,
                dur_ns: t1 - t0,
                id,
                parent: 0,
            };
            st.trace.spans.push(span);
        }
        let pending = std::mem::take(&mut st.pending);
        let codec = &mut st.trace.codec;
        for redo in pending {
            match redo {
                Redo::Post { frame, reports } => {
                    let d0 = now_ns();
                    let decoded = DbRequest::from_frame(&frame);
                    codec.post_decode.push((now_ns() - d0) as f64);
                    debug_assert!(decoded.is_ok());
                    codec.post_bytes += (FRAME_OVERHEAD + frame.payload.len()) as u64;
                    codec.post_reports += reports as u64;
                }
                Redo::Records { resp, wire } => {
                    let e0 = now_ns();
                    let reencoded = resp.to_frame();
                    codec.records_encode.push((now_ns() - e0) as f64);
                    debug_assert_eq!(FRAME_OVERHEAD + reencoded.payload.len(), wire);
                    codec.records_bytes.push(wire as f64);
                }
            }
        }
        out
    }

    fn call(
        &self,
        kind: Kind,
        build: impl FnOnce() -> DbRequest,
    ) -> Result<DbResponse, StoreError> {
        let unavailable = |what| StoreError::Unavailable(what);
        let mut conn = self.conn.lock().expect("connection lock poisoned");
        let (stream, buf) = &mut *conn;
        let t0 = now_ns();
        let req = build();
        let frame = req.to_frame();
        let t1 = now_ns();
        write_frame(stream, &frame).map_err(|_| unavailable("traced write failed"))?;
        let t2 = now_ns();
        let reply = read_frame(stream, buf)
            .map_err(|_| unavailable("traced read failed"))?
            .ok_or(unavailable("server closed the connection"))?;
        let t3 = now_ns();
        let resp = DbResponse::from_frame(&reply);
        let t4 = now_ns();
        drop(conn);

        let mut st = self.state();
        let parent = st.root;
        let phases = st.trace.phases(kind);
        let marks = [t0, t1, t2, t3, t4];
        phases.encode.push((t1 - t0) as f64);
        phases.write.push((t2 - t1) as f64);
        phases.wait.push((t3 - t2) as f64);
        phases.decode.push((t4 - t3) as f64);
        if phases.root.len() < SPAN_CAP {
            for (i, name) in kind.names()[1..].iter().enumerate() {
                let span = Span {
                    name,
                    track: self.track.clone(),
                    start_ns: marks[i],
                    dur_ns: marks[i + 1] - marks[i],
                    id: 0,
                    parent,
                };
                st.trace.spans.push(span);
            }
        }
        match (&req, &resp) {
            (DbRequest::Post { reports, .. }, _) => {
                st.trace.codec.post_encode.push((t1 - t0) as f64);
                let reports = reports.len();
                st.pending.push(Redo::Post { frame, reports });
            }
            (_, Ok(records @ DbResponse::Records(_))) => {
                st.trace.codec.records_decode.push((t4 - t3) as f64);
                st.pending.push(Redo::Records {
                    resp: records.clone(),
                    wire: FRAME_OVERHEAD + reply.payload.len(),
                });
            }
            _ => {}
        }
        resp
    }
}

impl GlobalApi for TracedClient {
    fn register(&self, now: SimTime, risk_score: f64) -> Result<Uuid, RegistrationError> {
        match self.call(Kind::Post, || DbRequest::Register {
            now,
            risk: risk_score,
        }) {
            Ok(DbResponse::Registered(uuid)) => Ok(uuid),
            _ => Err(RegistrationError::Unavailable),
        }
    }

    fn ingest(&self, batch: Batch) -> Result<IngestReceipt, StoreError> {
        let resp = self.call(Kind::Post, || DbRequest::Post {
            client: batch.client,
            posted_at: batch.posted_at,
            reports: batch.reports().to_vec(),
        })?;
        match resp {
            DbResponse::Receipt(receipt) => Ok(receipt),
            DbResponse::Error {
                code,
                detail,
                index,
            } => Err(DbResponse::to_store_error(&code, &detail, index)),
            other => Err(StoreError::Corrupt(format!(
                "unexpected response: {other:?}"
            ))),
        }
    }

    fn blocked_for_as(
        &self,
        asn: Asn,
        filter: &ConfidenceFilter,
    ) -> Result<Vec<GlobalRecord>, StoreError> {
        let resp = self.call(Kind::Sync, || DbRequest::Blocked {
            asn,
            filter: *filter,
        })?;
        match resp {
            DbResponse::Records(records) => Ok(records),
            DbResponse::Error {
                code,
                detail,
                index,
            } => Err(DbResponse::to_store_error(&code, &detail, index)),
            other => Err(StoreError::Corrupt(format!(
                "unexpected response: {other:?}"
            ))),
        }
    }
}

/// Write `spans` as a Chrome trace (`{"traceEvents": [...]}` with one
/// `ph:"X"` slice per span and a named track per `track`), the format
/// `--trace-out` writes and `chrome://tracing` and Perfetto load.
pub fn write_chrome(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut tracks: Vec<&str> = spans.iter().map(|s| s.track.as_str()).collect();
    tracks.sort_unstable();
    tracks.dedup();
    let tid = |t: &str| tracks.binary_search(&t).expect("track listed") + 1;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(out, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
    let mut first = true;
    let mut sep = |out: &mut std::io::BufWriter<std::fs::File>| -> std::io::Result<()> {
        if !first {
            write!(out, ",")?;
        }
        first = false;
        writeln!(out)
    };
    for t in &tracks {
        sep(&mut out)?;
        write!(
            out,
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"{t}\"}}}}",
            tid(t)
        )?;
    }
    for s in spans {
        sep(&mut out)?;
        write!(
            out,
            "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{},\"parent\":{}}}}}",
            s.name,
            s.name.split('.').next().unwrap_or(s.name),
            tid(&s.track),
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
            s.id,
            s.parent
        )?;
    }
    writeln!(out, "\n]}}")?;
    out.flush()
}
