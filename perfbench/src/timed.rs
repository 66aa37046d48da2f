//! A timing [`StorageBackend`] wrapper and the run's span recorder.
//!
//! The traced run passes [`Timed`] to `ServerDb::builder().backend(..)`
//! (and around and inside a `ReplicatedStore`), so every store call the
//! reactor makes is timed from the benchmark's own code.

use csaw_simnet::time::{SimDuration, SimTime};
use csaw_simnet::topology::Asn;
use csaw_store::ledger::{ConfidenceFilter, Tally, VoteLedger};
use csaw_store::record::{GlobalRecord, Uuid};
use csaw_store::{Batch, IngestReceipt, StorageBackend, StoreError};
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// The run's monotonic epoch; every timestamp is ns since it.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One recorded span: a `ph:"X"` slice of the Chrome trace.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name (`post`, `post.encode`, `store.ingest`, ...).
    pub name: &'static str,
    /// Track the span is drawn on.
    pub track: String,
    /// Start, ns since the run epoch.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
    /// Span id (unique within the run; 0 for spans with no children).
    pub id: u64,
    /// Parent span id, 0 for a root.
    pub parent: u64,
}

/// One timed backend call.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    /// Start, ns since the run epoch.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
    /// Reports in the batch (ingest) or records returned (reads).
    pub items: usize,
}

#[derive(Debug, Default)]
struct Calls {
    /// Whether calls are being recorded (the measured phase).
    on: bool,
    ingest: Vec<Call>,
    blocked: Vec<Call>,
}

/// Times `ingest` and `blocked_for_as` on the wrapped backend while
/// recording is on; every other method delegates untimed.
pub struct Timed {
    label: String,
    inner: Arc<dyn StorageBackend>,
    calls: Mutex<Calls>,
}

impl fmt::Debug for Timed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Timed").field("label", &self.label).finish()
    }
}

impl Timed {
    /// Wrap `inner`; `label` names its track in the trace.
    pub fn new(label: &str, inner: Arc<dyn StorageBackend>) -> Arc<Timed> {
        Arc::new(Timed {
            label: label.to_string(),
            inner,
            calls: Mutex::new(Calls::default()),
        })
    }

    /// Forget every call recorded so far and record from now on (start
    /// of the measured phase).
    pub fn start(&self) {
        let mut c = self.calls.lock().expect("timing lock poisoned");
        c.on = true;
        c.ingest.clear();
        c.blocked.clear();
    }

    /// Stop recording (end of the measured phase): the in-process drain
    /// and the output checks that follow are not the served load.
    pub fn stop(&self) {
        self.calls.lock().expect("timing lock poisoned").on = false;
    }

    /// Ingest calls recorded in the measured phase.
    pub fn ingests(&self) -> Vec<Call> {
        self.calls
            .lock()
            .expect("timing lock poisoned")
            .ingest
            .clone()
    }

    /// `blocked_for_as` calls recorded in the measured phase.
    pub fn reads(&self) -> Vec<Call> {
        self.calls
            .lock()
            .expect("timing lock poisoned")
            .blocked
            .clone()
    }

    /// The first `cap` calls of each kind as spans on this wrapper's track.
    pub fn spans(&self, cap: usize) -> Vec<Span> {
        let c = self.calls.lock().expect("timing lock poisoned");
        let track = format!("store:{}", self.label);
        let mk = |name, call: &Call| Span {
            name,
            track: track.clone(),
            start_ns: call.start_ns,
            dur_ns: call.dur_ns,
            id: 0,
            parent: 0,
        };
        c.ingest
            .iter()
            .take(cap)
            .map(|call| mk("store.ingest", call))
            .chain(
                c.blocked
                    .iter()
                    .take(cap)
                    .map(|call| mk("store.blocked_for_as", call)),
            )
            .collect()
    }
}

impl StorageBackend for Timed {
    fn ingest(&self, batch: &Batch) -> Result<IngestReceipt, StoreError> {
        let start_ns = now_ns();
        let out = self.inner.ingest(batch);
        let dur_ns = now_ns() - start_ns;
        let mut c = self.calls.lock().expect("timing lock poisoned");
        if c.on {
            c.ingest.push(Call {
                start_ns,
                dur_ns,
                items: batch.len(),
            });
        }
        out
    }

    fn blocked_for_as(
        &self,
        asn: Asn,
        filter: &ConfidenceFilter,
    ) -> Result<Vec<GlobalRecord>, StoreError> {
        let start_ns = now_ns();
        let out = self.inner.blocked_for_as(asn, filter);
        let dur_ns = now_ns() - start_ns;
        let items = out.as_ref().map_or(0, Vec::len);
        let mut c = self.calls.lock().expect("timing lock poisoned");
        if c.on {
            c.blocked.push(Call {
                start_ns,
                dur_ns,
                items,
            });
        }
        out
    }

    fn tally(&self, url: &str, asn: Asn) -> Tally {
        self.inner.tally(url, asn)
    }

    fn revoke(&self, client: Uuid) {
        self.inner.revoke(client)
    }

    fn remove_reporter_records(&self, client: Uuid) -> usize {
        self.inner.remove_reporter_records(client)
    }

    fn expire_records(&self, now: SimTime, max_age: SimDuration) -> usize {
        self.inner.expire_records(now, max_age)
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
