//! Load generation: the closed loops of `encore-post` and
//! `client-sync`, the open loop of `replicated`, and the shipper.

use crate::inputs::Schedule;
use crate::stats::{Ack, Round};
use crate::system::Conn;
use crate::timed::now_ns;
use csaw::global::ServerDb;
use csaw_replica::{ReplicatedStore, WalShipper};
use csaw_simnet::time::SimTime;
use csaw_simnet::topology::Asn;
use csaw_store::net::DbRequest;
use csaw_store::{Batch, StoreError};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// One timed operation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When it completed (ns since the run epoch).
    pub at: u64,
    /// Its latency (ns).
    pub ns: f64,
    /// Reports it acknowledged (posts) or 0 (syncs).
    pub reports: u64,
}

/// Latencies of `samples` in completion order.
pub fn in_time_order(samples: &[Sample]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by_key(|s| s.at);
    v.into_iter().map(|s| s.ns).collect()
}

/// What one load thread (or the whole phase, merged) observed.
#[derive(Debug, Default)]
pub struct Observed {
    /// Posts, timed from the send to a fully reconciled receipt.
    pub posts: Vec<Sample>,
    /// Syncs.
    pub syncs: Vec<Sample>,
    /// Reconciled posts, for visibility matching.
    pub acks: Vec<Ack>,
    /// How late the open-loop generator sent each post (ns).
    pub late_ns: Vec<f64>,
    /// Reports accepted over the socket.
    pub accepted: u64,
    /// Reports rejected over the socket.
    pub rejected: u64,
    /// Deferred-report resubmissions.
    pub resubmits: u64,
    /// Operations attempted (posts and syncs).
    pub attempted: u64,
    /// Operations that ended in an error.
    pub errors: u64,
    /// First error seen, for the report.
    pub first_error: Option<String>,
    /// End of the last measured operation (ns).
    pub end_ns: u64,
}

impl Observed {
    /// Fold another thread's observations in.
    pub fn merge(&mut self, o: Observed) {
        self.posts.extend(o.posts);
        self.syncs.extend(o.syncs);
        self.acks.extend(o.acks);
        self.late_ns.extend(o.late_ns);
        self.accepted += o.accepted;
        self.rejected += o.rejected;
        self.resubmits += o.resubmits;
        self.attempted += o.attempted;
        self.errors += o.errors;
        self.first_error = self.first_error.take().or(o.first_error);
        self.end_ns = self.end_ns.max(o.end_ns);
    }

    fn fail(&mut self, e: String) {
        self.errors += 1;
        self.first_error.get_or_insert(e);
    }
}

/// Counts from one fully reconciled post.
pub struct Posted {
    /// Reports accepted.
    pub accepted: usize,
    /// Reports rejected.
    pub rejected: usize,
    /// Resubmissions of deferred reports.
    pub resubmits: usize,
}

/// Post `batch` and resubmit exactly its deferred reports until none
/// remain; every receipt must reconcile `accepted + rejected + deferred
/// == submitted`.
pub fn post_reconciled(
    ingest: impl Fn(Batch) -> Result<csaw_store::IngestReceipt, StoreError>,
    batch: Batch,
) -> Result<Posted, String> {
    let mut out = Posted {
        accepted: 0,
        rejected: 0,
        resubmits: 0,
    };
    let mut pending = batch;
    loop {
        let receipt = ingest(pending.clone()).map_err(|e| format!("post failed: {e}"))?;
        if receipt.accepted + receipt.rejected + receipt.deferred() != pending.len() {
            return Err(format!(
                "receipt does not reconcile: {receipt:?} for {} reports",
                pending.len()
            ));
        }
        out.accepted += receipt.accepted;
        out.rejected += receipt.rejected;
        if receipt.deferred_indices.is_empty() {
            return Ok(out);
        }
        let reports = receipt
            .deferred_indices
            .iter()
            .map(|&i| pending.reports()[i].clone())
            .collect();
        pending = Batch::new(pending.client, reports, pending.posted_at);
        out.resubmits += 1;
    }
}

fn post_timed(conn: &Conn, batch: Batch, sent_ns: u64, obs: &mut Observed) -> Option<u64> {
    obs.attempted += 1;
    match conn.post(batch) {
        Ok(p) => {
            let done = now_ns();
            obs.posts.push(Sample {
                at: done,
                ns: (done - sent_ns) as f64,
                reports: (p.accepted + p.rejected) as u64,
            });
            obs.accepted += p.accepted as u64;
            obs.rejected += p.rejected as u64;
            obs.resubmits += p.resubmits as u64;
            Some(done)
        }
        Err(e) => {
            obs.fail(e);
            None
        }
    }
}

fn sync_timed(conn: &Conn, asn: Asn, obs: &mut Observed) {
    obs.attempted += 1;
    let t0 = now_ns();
    match conn.sync(asn) {
        Ok(records) if records.iter().all(|r| r.asn == asn) => {
            let at = now_ns();
            obs.syncs.push(Sample {
                at,
                ns: (at - t0) as f64,
                reports: 0,
            });
        }
        Ok(_) => obs.fail(format!("sync of {asn:?} returned another AS's records")),
        Err(e) => obs.fail(format!("sync failed: {e}")),
    }
}

/// A shared cursor over the post schedule: batch `k` is generated when
/// a load thread takes it, each is taken once, and it never runs out.
pub struct Cursor<'a> {
    schedule: &'a Schedule,
    next: AtomicUsize,
}

impl<'a> Cursor<'a> {
    /// A cursor at batch 0.
    pub fn new(schedule: &'a Schedule) -> Cursor<'a> {
        Cursor {
            schedule,
            next: AtomicUsize::new(0),
        }
    }

    fn take(&self) -> Batch {
        self.schedule
            .batch(self.next.fetch_add(1, Ordering::Relaxed))
    }

    /// Batches the load threads took.
    pub fn taken(&self) -> usize {
        self.next.load(Ordering::Relaxed)
    }
}

/// A sync cadence: download `asn` every `every_ns`, first after
/// `offset_ns` (so two connections' syncs interleave, not coincide).
#[derive(Debug, Clone, Copy)]
pub struct Cadence {
    /// The AS to download.
    pub asn: Asn,
    /// Period.
    pub every_ns: u64,
    /// Delay of the first sync.
    pub offset_ns: u64,
}

/// A closed-loop poster: post the next batch as soon as the previous
/// one reconciled, until the deadline; with a cadence, also sync between
/// posts on that wall-clock schedule.
pub fn closed_posts(
    conn: &Conn,
    cursor: &Cursor,
    deadline_ns: u64,
    cadence: Option<Cadence>,
) -> Observed {
    let mut obs = Observed::default();
    let mut next_sync = cadence.map(|c| now_ns() + c.offset_ns);
    loop {
        let now = now_ns();
        if now >= deadline_ns {
            break;
        }
        if let (Some(c), Some(due)) = (cadence, next_sync) {
            if now >= due {
                sync_timed(conn, c.asn, &mut obs);
                next_sync = Some(due + c.every_ns);
                continue;
            }
        }
        let batch = cursor.take();
        let t0 = now_ns();
        post_timed(conn, batch, t0, &mut obs);
    }
    obs.end_ns = now_ns();
    obs
}

/// A closed-loop syncer with think time: download `asns` round-robin,
/// starting each sync `period_ns` after the previous one started (or
/// as soon as it returned, if it took longer), until the deadline. Each
/// sync is timed from its send.
pub fn closed_syncs(conn: &Conn, asns: &[Asn], period_ns: u64, deadline_ns: u64) -> Observed {
    let mut obs = Observed::default();
    let mut next = now_ns();
    for asn in asns.iter().cycle() {
        let now = now_ns();
        if now < next {
            std::thread::sleep(Duration::from_nanos(next - now));
        }
        if now_ns() >= deadline_ns {
            break;
        }
        next = now_ns() + period_ns;
        sync_timed(conn, *asn, &mut obs);
    }
    obs.end_ns = now_ns();
    obs
}

/// The open-loop generator: post batch `k` when due at
/// `start + k * interval`, timing each from its send (the due-time view
/// is kept in the acks); after each receipt, read the leader's
/// `leader_seq` for visibility matching.
/// Stops at the deadline, having taken one batch per due time.
pub fn open_posts(
    conn: &Conn,
    cursor: &Cursor,
    journal: &ReplicatedStore,
    start_ns: u64,
    interval_ns: u64,
    deadline_ns: u64,
) -> Observed {
    let mut obs = Observed::default();
    let mut k = 0u64;
    loop {
        let due = start_ns + k * interval_ns;
        if due >= deadline_ns {
            break;
        }
        let batch = cursor.take();
        let now = now_ns();
        if now < due {
            std::thread::sleep(Duration::from_nanos(due - now));
        }
        let sent = now_ns();
        obs.late_ns.push(sent.saturating_sub(due) as f64);
        if let Some(receipt_ns) = post_timed(conn, batch, sent, &mut obs) {
            obs.acks.push(Ack {
                due_ns: due,
                sent_ns: sent,
                receipt_ns,
                seq_after: journal.leader_seq(),
            });
        }
        k += 1;
    }
    obs.end_ns = now_ns();
    obs
}

/// Post batches `range` of the schedule straight into the leader,
/// in-process: the ones the measured phase did not reach below the
/// run's horizon, so every run ingests the same seeded inputs.
pub fn drain_in_process(
    db: &ServerDb,
    schedule: &Schedule,
    range: std::ops::Range<usize>,
) -> Result<(u64, u64), String> {
    let (mut accepted, mut rejected) = (0, 0);
    for k in range {
        let p = post_reconciled(|b| db.ingest(b), schedule.batch(k))?;
        accepted += p.accepted as u64;
        rejected += p.rejected as u64;
    }
    Ok((accepted, rejected))
}

/// What the shipper thread observed.
#[derive(Debug, Default)]
pub struct ShipLog {
    /// Every round, in start order.
    pub rounds: Vec<Round>,
    /// Lines each round found to ship (rounds that found any).
    pub lines: Vec<f64>,
    /// Duration of each round that found lines to ship (ns).
    pub busy_ns: Vec<f64>,
    /// Largest per-link lag any round ended with.
    pub lag_max: u64,
    /// Rounds that ended with a link not caught up.
    pub unsynced: u64,
    /// Traced: `DbRequest::to_frame` per SHIP frame (ns).
    pub encode_ns: Vec<f64>,
    /// Traced: `DbRequest::from_frame` per SHIP frame (ns).
    pub decode_ns: Vec<f64>,
    /// Traced: wire bytes per SHIP frame.
    pub bytes: Vec<f64>,
}

/// SHIP frames carry at most this many lines (the shipper's chunk).
const SHIP_CHUNK: usize = 256;

/// Run `ship_round` back to back, pausing ~1 ms after a round that found
/// nothing new, until `stop` is raised and a round has covered
/// `final_seq` on every link. Traced: each round's chunks are re-encoded
/// and decoded from a copy of the journal, outside the round.
pub fn ship_loop(
    shipper: &mut WalShipper,
    journal: &ReplicatedStore,
    stop: &AtomicBool,
    final_seq: &AtomicU64,
    traced: bool,
) -> ShipLog {
    let mut log = ShipLog::default();
    let mut shipped_to = journal.leader_seq();
    loop {
        let start_ns = now_ns();
        let start_seq = journal.leader_seq();
        let status = shipper.ship_round(SimTime::from_micros(start_ns / 1_000), |_| true);
        let end_ns = now_ns();
        log.rounds.push(Round {
            start_ns,
            start_seq,
            end_ns,
        });
        let mut all_synced = true;
        for s in &status {
            log.lag_max = log.lag_max.max(s.lag);
            all_synced &= s.synced;
        }
        if !all_synced {
            log.unsynced += 1;
        }
        let fresh = start_seq.saturating_sub(shipped_to);
        if fresh > 0 {
            log.lines.push(fresh as f64);
            log.busy_ns.push((end_ns - start_ns) as f64);
            if traced {
                time_ship_codec(journal, shipped_to, fresh as usize, &mut log);
            }
        }
        shipped_to = shipped_to.max(start_seq);
        if stop.load(Ordering::SeqCst)
            && all_synced
            && start_seq >= final_seq.load(Ordering::SeqCst)
        {
            return log;
        }
        if fresh == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

fn time_ship_codec(journal: &ReplicatedStore, from: u64, n: usize, log: &mut ShipLog) {
    let lines = journal.lines_from(from, n);
    for (i, chunk) in lines.chunks(SHIP_CHUNK).enumerate() {
        let req = DbRequest::Ship {
            from_seq: from + (i * SHIP_CHUNK) as u64,
            lines: chunk.to_vec(),
        };
        let t0 = now_ns();
        let frame = req.to_frame();
        let t1 = now_ns();
        let back = DbRequest::from_frame(&frame);
        let t2 = now_ns();
        debug_assert_eq!(back.as_ref().ok(), Some(&req));
        log.encode_ns.push((t1 - t0) as f64);
        log.decode_ns.push((t2 - t1) as f64);
        log.bytes
            .push((crate::traced::FRAME_OVERHEAD + frame.payload.len()) as f64);
    }
}

/// Shared stop signal and final journal position for the shipper.
#[derive(Default)]
pub struct ShipControl {
    /// Raised once the load has stopped.
    pub stop: AtomicBool,
    /// The journal position the last round must cover.
    pub final_seq: AtomicU64,
}
