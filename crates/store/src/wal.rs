//! The write-ahead log: a line codec (one compact JSON object per
//! mutating store operation) and the [`Journal`] that writes the lines.
//!
//! A [`Journal`] wraps any [`StorageBackend`]; it is the one place where
//! a mutation is journalled and applied. Only its [`Sink`] differs: a
//! memory journal (`Journal<Vec<String>>`) keeps its lines for
//! [`Journal::lines_from`], which `csaw-replica` ships to read replicas
//! (the `SHIP` op in [`crate::net`]); a file journal (`Journal<FileLog>`)
//! writes them to disk and [`Journal::open`] replays them on restart.
//! Replicas and restarts both replay through [`replay_line`].
//!
//! **Log order is apply order.** One lock is held across the append and
//! the apply of every operation. Ingests need this too: record insert
//! is last-applied-wins, so two ingests of one key at the same
//! `posted_at` do not commute in the live store (only
//! `csaw_replica::StoreState::merge` is order-free).
//!
//! **Acked means written.** The file sink writes `line + '\n'` with one
//! unbuffered `write_all` before the op is applied and its receipt
//! returned, so an acked report survives a process crash (no fsync, so
//! not a machine crash). An unterminated final line was never acked:
//! `open` cuts it off and counts its bytes in `store.wal.torn_tail_bytes`.
//!
//! Client UUIDs are encoded as 16-hex-digit strings — the in-tree JSON
//! number space is f64-backed and raw 64-bit ids do not survive the
//! round-trip. Times are integer microseconds.
//!
//! # Line formats
//!
//! ```text
//! {"op":"ingest","client":"<16hex>","posted_at_us":N,"reports":[...]}
//! {"op":"revoke","client":"<16hex>"}
//! {"op":"remove_reporter","client":"<16hex>"}
//! {"op":"expire","now_us":N,"max_age_us":N}
//! ```
//!
//! # Example
//!
//! Replaying a memory journal's log into a fresh store reproduces it:
//!
//! ```
//! use csaw_store::batch::Batch;
//! use csaw_store::record::{Report, Uuid};
//! use csaw_store::shard::ShardedStore;
//! use csaw_store::wal::{self, Journal};
//! use csaw_store::StorageBackend;
//! use csaw_censor::blocking::BlockingType;
//! use csaw_simnet::time::SimTime;
//! use std::sync::Arc;
//!
//! let batch = Batch::new(
//!     Uuid::from_raw(7),
//!     vec![Report {
//!         url: "http://blocked.example/".into(),
//!         asn: 17557,
//!         measured_at_us: 1_000_000,
//!         stages: vec![BlockingType::HttpDrop],
//!     }],
//!     SimTime::from_secs(2),
//! );
//! let journal = Journal::new(Arc::new(ShardedStore::new(4).unwrap()));
//! journal.ingest(&batch).unwrap();
//! let replica = ShardedStore::new(4).unwrap();
//! for line in journal.lines_from(0, usize::MAX) {
//!     wal::replay_line(&replica, &line).unwrap();
//! }
//! assert_eq!(replica.record_count(), 1);
//! ```

use crate::backend::StorageBackend;
use crate::batch::{Batch, IngestReceipt};
use crate::error::StoreError;
use crate::ledger::{ConfidenceFilter, Tally, VoteLedger};
use crate::record::{GlobalRecord, Report, Uuid};
use csaw_obs::contention::TimedMutex;
use csaw_obs::json::JsonValue;
use csaw_simnet::time::{SimDuration, SimTime};
use csaw_simnet::topology::Asn;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn uuid_to_json(u: Uuid) -> JsonValue {
    JsonValue::from(u.to_string())
}

fn uuid_from_json(v: &JsonValue) -> Result<Uuid, StoreError> {
    v.as_str()
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .map(Uuid::from_raw)
        .ok_or_else(|| StoreError::Corrupt("client must be a 16-hex-digit string".into()))
}

/// Encode one ingested batch as a WAL line (no trailing newline).
pub fn ingest_line(batch: &Batch) -> String {
    let mut v = JsonValue::obj();
    v.set("op", "ingest");
    v.set("client", uuid_to_json(batch.client));
    v.set("posted_at_us", batch.posted_at.as_micros());
    v.set(
        "reports",
        batch
            .reports()
            .iter()
            .map(Report::to_json)
            .collect::<Vec<_>>(),
    );
    v.to_string_compact()
}

fn client_line(op: &str, client: Uuid) -> String {
    let mut v = JsonValue::obj();
    v.set("op", op);
    v.set("client", uuid_to_json(client));
    v.to_string_compact()
}

/// Encode a vote revocation as a WAL line.
pub fn revoke_line(client: Uuid) -> String {
    client_line("revoke", client)
}

/// Encode a reporter-record removal as a WAL line.
pub fn remove_reporter_line(client: Uuid) -> String {
    client_line("remove_reporter", client)
}

/// Encode a record-expiry sweep as a WAL line.
pub fn expire_line(now: SimTime, max_age: SimDuration) -> String {
    let mut v = JsonValue::obj();
    v.set("op", "expire");
    v.set("now_us", now.as_micros());
    v.set("max_age_us", max_age.as_micros());
    v.to_string_compact()
}

/// Apply one WAL line to a backend through the normal mutation paths.
///
/// This is the single replay routine shared by [`Journal::open`]
/// (restart recovery) and the replica side of WAL shipping. A
/// truncated or hand-edited line is [`StoreError::Corrupt`]; the
/// backend is left untouched by a line that fails to parse.
///
/// Note: replaying an `ingest` line bypasses registration checks by
/// design — the leader already gated the original post, and a replica
/// must accept whatever the ordered log says happened.
pub fn replay_line(backend: &dyn StorageBackend, line: &str) -> Result<(), StoreError> {
    let v = JsonValue::parse(line).map_err(|e| StoreError::Corrupt(format!("not JSON: {e}")))?;
    let missing = |key: &str| StoreError::Corrupt(format!("missing {key}"));
    let field = |key: &str| v.get(key).ok_or_else(|| missing(key));
    let micros = |key: &str| field(key)?.as_u64().ok_or_else(|| missing(key));
    let client = || uuid_from_json(field("client")?);
    match field("op")?.as_str() {
        Some("ingest") => {
            let client = client()?;
            let posted_at = SimTime::from_micros(micros("posted_at_us")?);
            let reports = field("reports")?
                .as_arr()
                .ok_or_else(|| missing("reports"))?
                .iter()
                .map(Report::from_json)
                .collect::<Result<Vec<_>, _>>()
                .map_err(StoreError::Wire)?;
            backend.ingest(&Batch::new(client, reports, posted_at))?;
        }
        Some("revoke") => backend.revoke(client()?),
        Some("remove_reporter") => {
            backend.remove_reporter_records(client()?);
        }
        Some("expire") => {
            let now = SimTime::from_micros(micros("now_us")?);
            backend.expire_records(now, SimDuration::from_micros(micros("max_age_us")?));
        }
        other => return Err(StoreError::Corrupt(format!("unknown op {other:?}"))),
    }
    Ok(())
}

/// Where a [`Journal`] puts its lines. A sink only stores; ordering,
/// metrics and applying belong to the journal.
pub trait Sink: Send + 'static {
    /// Append one line (no trailing newline). An error means the line
    /// is not in the log.
    fn append(&mut self, line: String) -> Result<(), StoreError>;
}

/// The memory sink: lines kept for [`Journal::lines_from`].
impl Sink for Vec<String> {
    fn append(&mut self, line: String) -> Result<(), StoreError> {
        self.push(line);
        Ok(())
    }
}

/// The file sink: a log file opened for append by [`Journal::open`].
#[derive(Debug)]
pub struct FileLog {
    path: PathBuf,
    file: File,
}

impl Sink for FileLog {
    fn append(&mut self, mut line: String) -> Result<(), StoreError> {
        line.push('\n');
        // One unbuffered write: when it returns the line is the OS's,
        // so it outlives a crash of this process.
        self.file
            .write_all(line.as_bytes())
            .map_err(|e| StoreError::io(&self.path, e))
    }
}

/// A backend wrapper that journals every mutation to a [`Sink`] and
/// applies it to the wrapped store under one lock, so log order is
/// apply order (see the [module docs](self)).
///
/// An operation whose line cannot be appended is not applied: `ingest`
/// returns the error; revoke, remove-reporter and expire, whose trait
/// methods return no error, do nothing (the counts read 0).
pub struct Journal<S> {
    inner: Arc<dyn StorageBackend>,
    log: TimedMutex<S>,
}

impl<S> fmt::Debug for Journal<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field("inner", &self.inner)
            .finish_non_exhaustive()
    }
}

impl<S: Sink> Journal<S> {
    fn with_sink(inner: Arc<dyn StorageBackend>, sink: S) -> Journal<S> {
        Journal {
            inner,
            log: TimedMutex::new("store.wal.log", sink),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &dyn StorageBackend {
        &*self.inner
    }

    /// Append `line`, then run `op` on the wrapped store, holding the
    /// journal lock across both. `op` runs only if the append
    /// succeeded, so the store never holds a change its log lacks.
    fn apply<R>(
        &self,
        line: String,
        op: impl FnOnce(&dyn StorageBackend) -> R,
    ) -> Result<R, StoreError> {
        let bytes = line.len() as u64 + 1;
        let out = {
            let mut log = self.log.lock();
            log.append(line)?;
            op(&*self.inner)
        };
        csaw_obs::inc("store.wal.appends");
        csaw_obs::add("store.wal.bytes", bytes);
        // Windowed WAL lag signal: appends per window on the timeline.
        let tl = &csaw_obs::current().timeline;
        if tl.enabled() {
            tl.counter("store.wal.appends", &[]).inc();
        }
        Ok(out)
    }
}

impl Journal<Vec<String>> {
    /// Journal `inner`'s mutations in memory; the log starts empty at
    /// sequence 0.
    pub fn new(inner: Arc<dyn StorageBackend>) -> Journal<Vec<String>> {
        Journal::with_sink(inner, Vec::new())
    }

    /// Lines journalled so far (the next line gets this sequence
    /// number).
    pub fn leader_seq(&self) -> u64 {
        self.log.lock().len() as u64
    }

    /// Up to `max` log lines starting at `from_seq`, in log order.
    pub fn lines_from(&self, from_seq: u64, max: usize) -> Vec<String> {
        let log = self.log.lock();
        log.iter()
            .skip(from_seq as usize)
            .take(max)
            .cloned()
            .collect()
    }
}

impl Journal<FileLog> {
    /// Open (or create) the log at `path`, replay it into `inner` (a
    /// fresh, empty store) and journal to it from then on. Replay runs
    /// the normal ingest/revoke/expire paths, and stable FNV shard
    /// placement lands every key on the same shard, so the reopened
    /// store holds what the one that wrote the log held.
    ///
    /// An unterminated final line is cut off (never acknowledged, see
    /// the [module docs](self)); a complete line that fails to replay
    /// is [`StoreError::Corrupt`] with its line number.
    pub fn open(
        path: &Path,
        inner: Arc<dyn StorageBackend>,
    ) -> Result<Journal<FileLog>, StoreError> {
        let io = |e| StoreError::io(path, e);
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(path)
            .map_err(io)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(io)?;
        let complete = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        for (no, line) in bytes[..complete].split(|&b| b == b'\n').enumerate() {
            let corrupt =
                |e: &dyn fmt::Display| StoreError::Corrupt(format!("line {}: {e}", no + 1));
            let line = std::str::from_utf8(line).map_err(|e| corrupt(&e))?;
            if !line.trim().is_empty() {
                replay_line(&*inner, line).map_err(|e| corrupt(&e))?;
            }
        }
        let torn = bytes.len() - complete;
        if torn > 0 {
            file.set_len(complete as u64).map_err(io)?;
            csaw_obs::add("store.wal.torn_tail_bytes", torn as u64);
        }
        let path = path.to_path_buf();
        Ok(Journal::with_sink(inner, FileLog { path, file }))
    }
}

impl<S: Sink> StorageBackend for Journal<S> {
    fn ingest(&self, batch: &Batch) -> Result<IngestReceipt, StoreError> {
        self.apply(ingest_line(batch), |s| s.ingest(batch))?
    }

    fn blocked_for_as(
        &self,
        asn: Asn,
        filter: &ConfidenceFilter,
    ) -> Result<Vec<GlobalRecord>, StoreError> {
        self.inner.blocked_for_as(asn, filter)
    }

    fn tally(&self, url: &str, asn: Asn) -> Tally {
        self.inner.tally(url, asn)
    }

    fn revoke(&self, client: Uuid) {
        let _ = self.apply(revoke_line(client), |s| s.revoke(client));
    }

    fn remove_reporter_records(&self, client: Uuid) -> usize {
        self.apply(remove_reporter_line(client), |s| {
            s.remove_reporter_records(client)
        })
        .unwrap_or(0)
    }

    fn expire_records(&self, now: SimTime, max_age: SimDuration) -> usize {
        self.apply(expire_line(now, max_age), |s| {
            s.expire_records(now, max_age)
        })
        .unwrap_or(0)
    }

    fn record_count(&self) -> usize {
        self.inner.record_count()
    }

    fn for_each_record(&self, f: &mut dyn FnMut(&GlobalRecord)) {
        self.inner.for_each_record(f)
    }

    fn ledger(&self) -> &VoteLedger {
        self.inner.ledger()
    }

    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }

    fn flush(&self) -> Result<(), StoreError> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::ConfidenceFilter;
    use crate::shard::ShardedStore;
    use csaw_censor::blocking::BlockingType;
    use csaw_simnet::topology::Asn;

    fn batch(client: u64, url: &str, t: u64) -> Batch {
        Batch::new(
            Uuid::from_raw(client),
            vec![Report {
                url: url.into(),
                asn: 9,
                measured_at_us: t,
                stages: vec![BlockingType::HttpDrop],
            }],
            SimTime::from_micros(t),
        )
    }

    #[test]
    fn every_op_roundtrips_through_replay() {
        let store = ShardedStore::new(4).unwrap();
        replay_line(&store, &ingest_line(&batch(1, "http://a.com/", 10))).unwrap();
        replay_line(&store, &ingest_line(&batch(2, "http://a.com/", 20))).unwrap();
        replay_line(&store, &ingest_line(&batch(3, "http://b.com/", 30))).unwrap();
        assert_eq!(store.record_count(), 2);
        replay_line(&store, &revoke_line(Uuid::from_raw(3))).unwrap();
        assert_eq!(store.tally("http://b.com/", Asn(9)).n, 0);
        replay_line(&store, &remove_reporter_line(Uuid::from_raw(3))).unwrap();
        assert_eq!(store.record_count(), 1);
        replay_line(
            &store,
            &expire_line(SimTime::from_secs(100), SimDuration::from_secs(1)),
        )
        .unwrap();
        assert_eq!(store.record_count(), 0);
    }

    #[test]
    fn garbage_lines_are_corrupt_not_panics() {
        let store = ShardedStore::new(2).unwrap();
        for bad in [
            "not json",
            "{}",
            "{\"op\":\"nope\"}",
            "{\"op\":\"ingest\"}",
            "{\"op\":\"ingest\",\"client\":\"zz\",\"posted_at_us\":1,\"reports\":[]}",
            "{\"op\":\"expire\",\"now_us\":1}",
        ] {
            assert!(
                matches!(replay_line(&store, bad), Err(StoreError::Corrupt(_))),
                "line {bad:?} should be Corrupt"
            );
        }
        assert_eq!(store.record_count(), 0);
    }

    #[test]
    fn replayed_state_matches_direct_ingest() {
        let direct = ShardedStore::new(4).unwrap();
        let replayed = ShardedStore::new(4).unwrap();
        for c in 0..6u64 {
            let b = batch(c, &format!("http://u{}.com/", c % 3), 100 + c);
            direct.ingest(&b).unwrap();
            replay_line(&replayed, &ingest_line(&b)).unwrap();
        }
        assert_eq!(direct.record_count(), replayed.record_count());
        let filter = ConfidenceFilter::strict(1, 0.0);
        assert_eq!(
            direct.blocked_for_as(Asn(9), &filter).unwrap(),
            replayed.blocked_for_as(Asn(9), &filter).unwrap()
        );
    }
}
