//! The storage backend abstraction.
//!
//! [`StorageBackend`] is the seam the server front-end programs against:
//! the in-memory [`ShardedStore`](crate::shard::ShardedStore) for
//! simulation runs, a file-backed [`Journal`](crate::wal::Journal) around
//! it when the deployment needs the global DB to survive a restart, or
//! anything custom injected through the builder.

use crate::batch::{Batch, IngestReceipt};
use crate::error::StoreError;
use crate::ledger::{ConfidenceFilter, Tally, VoteLedger};
use crate::record::{GlobalRecord, Uuid};
use csaw_simnet::time::{SimDuration, SimTime};
use csaw_simnet::topology::Asn;
use std::fmt;

/// What a global measurement store must provide. Object-safe so the
/// server can hold `Arc<dyn StorageBackend>` and backends can be
/// swapped without touching the front-end.
///
/// Every method takes `&self`: backends are internally synchronized and
/// shared across ingestion threads.
pub trait StorageBackend: Send + Sync + fmt::Debug {
    /// Ingest one client's report batch. Never panics on garbage input;
    /// unsalvageable reports are counted in the receipt's `rejected`.
    fn ingest(&self, batch: &Batch) -> Result<IngestReceipt, StoreError>;

    /// Confidence-filtered snapshot of blocked URLs for one AS, sorted
    /// by URL.
    ///
    /// Fallible by design: backends that can be transiently unreachable
    /// (fault injection, remote stores) surface a failed download as an
    /// error the caller can see — not an empty list that silently wipes
    /// a client's cached view. In-memory backends never fail.
    fn blocked_for_as(
        &self,
        asn: Asn,
        filter: &ConfidenceFilter,
    ) -> Result<Vec<GlobalRecord>, StoreError>;

    /// Vote tally for one (URL, AS) key.
    fn tally(&self, url: &str, asn: Asn) -> Tally;

    /// Retract every vote a client has cast (reputation revocation).
    fn revoke(&self, client: Uuid);

    /// Drop every record a client reported; returns how many.
    fn remove_reporter_records(&self, client: Uuid) -> usize;

    /// Drop records older than `max_age` at time `now`; returns how many.
    fn expire_records(&self, now: SimTime, max_age: SimDuration) -> usize;

    /// Number of live records.
    fn record_count(&self) -> usize;

    /// Visit every live record (shard by shard; no global lock).
    fn for_each_record(&self, f: &mut dyn FnMut(&GlobalRecord));

    /// The vote ledger backing this store.
    fn ledger(&self) -> &VoteLedger;

    /// How many shards the keyspace is striped over.
    fn shard_count(&self) -> usize;

    /// Flush any buffered durable state. No-op for memory backends.
    fn flush(&self) -> Result<(), StoreError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    //! The file-backed journal as a restartable backend: replay on
    //! open, write-through appends and torn-tail recovery.
    use super::*;
    use crate::record::Report;
    use crate::shard::ShardedStore;
    use crate::wal::{self, FileLog, Journal};
    use csaw_censor::blocking::BlockingType;
    use csaw_obs::scope::{self, ObsCtx};
    use std::path::{Path, PathBuf};
    use std::sync::Arc;

    fn open(path: &Path, shards: usize) -> Result<Journal<FileLog>, StoreError> {
        Journal::open(path, Arc::new(ShardedStore::new(shards).unwrap()))
    }

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "csaw-store-test-{}-{name}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn batch(client: u64, url: &str, asn: u32, t: u64) -> Batch {
        Batch::new(
            Uuid::from_raw(client),
            vec![Report {
                url: url.into(),
                asn,
                measured_at_us: t,
                stages: vec![BlockingType::HttpDrop],
            }],
            SimTime::from_micros(t),
        )
    }

    #[test]
    fn replay_restores_records_and_votes() {
        let path = tmp("replay");
        {
            let s = open(&path, 4).unwrap();
            s.ingest(&batch(0xdead_beef_dead_beef, "http://a.com/", 7, 10))
                .unwrap();
            s.ingest(&batch(2, "http://a.com/", 7, 20)).unwrap();
            s.ingest(&batch(3, "http://b.com/", 7, 30)).unwrap();
            s.revoke(Uuid::from_raw(3));
            s.flush().unwrap();
        }
        let s = open(&path, 4).unwrap();
        assert_eq!(s.record_count(), 2);
        let t = s.tally("http://a.com/", Asn(7));
        assert_eq!(t.n, 2);
        assert_eq!(
            s.tally("http://b.com/", Asn(7)).n,
            0,
            "revoked vote replayed"
        );
        // Full-range UUID survives the hex round-trip.
        assert_eq!(
            s.ledger()
                .client_urls(Uuid::from_raw(0xdead_beef_dead_beef))
                .len(),
            1
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn replay_is_shard_count_independent_in_content() {
        let path = tmp("shards");
        {
            let s = open(&path, 16).unwrap();
            for c in 0..20u64 {
                s.ingest(&batch(c, &format!("http://s{}.com/", c % 5), 1, c))
                    .unwrap();
            }
            s.flush().unwrap();
        }
        // Reopen with a different stripe width: same logical state.
        let s = open(&path, 3).unwrap();
        assert_eq!(s.shard_count(), 3);
        assert_eq!(s.record_count(), 5);
        let v = s
            .blocked_for_as(Asn(1), &ConfidenceFilter::strict(2, 0.0))
            .unwrap();
        assert_eq!(v.len(), 5);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_line_is_an_error_with_line_number() {
        let path = tmp("corrupt");
        std::fs::write(&path, "{\"op\":\"ingest\"}\n").unwrap();
        let err = open(&path, 2).unwrap_err();
        match err {
            StoreError::Corrupt(msg) => assert!(msg.contains("line 1"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::write(&path, "not json at all\n").unwrap();
        assert!(open(&path, 2).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn expire_survives_replay() {
        let path = tmp("expire");
        {
            let s = open(&path, 2).unwrap();
            s.ingest(&batch(1, "http://old.com/", 1, 1_000_000))
                .unwrap();
            s.ingest(&batch(2, "http://new.com/", 1, 60_000_000))
                .unwrap();
            assert_eq!(
                s.expire_records(SimTime::from_secs(61), SimDuration::from_secs(30)),
                1
            );
            s.flush().unwrap();
        }
        let s = open(&path, 2).unwrap();
        assert_eq!(s.record_count(), 1);
        let mut urls = Vec::new();
        s.for_each_record(&mut |r| urls.push(r.url.clone()));
        assert_eq!(urls, ["http://new.com/"]);
        let _ = std::fs::remove_file(&path);
    }

    /// Every record, as a sorted list, plus every tally of the keys the
    /// mixed log below touches.
    fn contents(s: &dyn StorageBackend) -> (Vec<String>, Vec<Tally>) {
        let mut records = Vec::new();
        s.for_each_record(&mut |r| records.push(format!("{r:?}")));
        records.sort();
        let tallies = ["http://a.com/", "http://b.com/", "http://c.com/"]
            .iter()
            .map(|u| s.tally(u, Asn(7)))
            .collect();
        (records, tallies)
    }

    #[test]
    fn acked_ingests_are_on_disk_without_flush_or_drop() {
        let path = tmp("write-through");
        let s = open(&path, 4).unwrap();
        for c in 0..3u64 {
            s.ingest(&batch(c, &format!("http://w{c}.com/"), 7, c + 1))
                .unwrap();
        }
        // A process crash: no flush, no drop.
        std::mem::forget(s);
        assert_eq!(open(&path, 4).unwrap().record_count(), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn every_torn_tail_recovers_the_complete_prefix() {
        let path = tmp("torn-full");
        {
            let s = open(&path, 4).unwrap();
            s.ingest(&batch(1, "http://a.com/", 7, 10)).unwrap();
            s.ingest(&batch(2, "http://a.com/", 7, 20)).unwrap();
            s.ingest(&batch(3, "http://b.com/", 7, 5_000_000)).unwrap();
            s.revoke(Uuid::from_raw(2));
            s.remove_reporter_records(Uuid::from_raw(1));
            s.expire_records(SimTime::from_secs(4), SimDuration::from_secs(1));
            s.ingest(&batch(4, "http://c.com/", 7, 6_000_000)).unwrap();
        }
        let log = std::fs::read(&path).unwrap();
        assert_eq!(log.iter().filter(|&&b| b == b'\n').count(), 7);
        let cut = tmp("torn-cut");
        for k in 0..=log.len() {
            std::fs::write(&cut, &log[..k]).unwrap();
            let complete = log[..k]
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |i| i + 1);
            let expected = ShardedStore::new(4).unwrap();
            for line in std::str::from_utf8(&log[..complete]).unwrap().lines() {
                wal::replay_line(&expected, line).unwrap();
            }
            let ctx = Arc::new(ObsCtx::new());
            let _g = scope::install(ctx.clone());
            let s = open(&cut, 4).unwrap_or_else(|e| panic!("offset {k}: {e}"));
            assert_eq!(contents(&s), contents(&expected), "offset {k}");
            assert_eq!(
                ctx.registry.counter("store.wal.torn_tail_bytes").get(),
                (k - complete) as u64,
                "offset {k}"
            );
            assert_eq!(std::fs::metadata(&cut).unwrap().len(), complete as u64);
            s.ingest(&batch(9, "http://after.com/", 7, 9)).unwrap();
            let n = s.record_count();
            drop(s);
            let reopened = open(&cut, 4).unwrap_or_else(|e| panic!("reopen at {k}: {e}"));
            assert_eq!(reopened.record_count(), n, "offset {k}");
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&cut);
    }
}
