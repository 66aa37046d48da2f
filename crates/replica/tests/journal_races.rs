//! Log order is apply order, under concurrency.
//!
//! Two threads meet at a barrier and race one operation each against a
//! fresh leader journal. After every trial the leader's live state must
//! equal a replay of its own log — the state every replica and every
//! restart rebuilds. A journal that appends under its lock but applies
//! after releasing it lets the two orders differ; each pair below is an
//! order-sensitive one, so such a journal shows divergent trials here.

use csaw_censor::blocking::BlockingType;
use csaw_replica::{fingerprint_of, ReplicatedStore};
use csaw_simnet::time::{SimDuration, SimTime};
use csaw_store::{wal, Batch, Report, ShardedStore, StorageBackend, Uuid};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const TRIALS: usize = 2_000;

/// A batch from `client` reporting the same eight URLs from AS 9.
fn batch(client: u64, posted_at: SimTime) -> Batch {
    let reports = (0..8)
        .map(|i| Report {
            url: format!("http://site{i}.example/"),
            asn: 9,
            measured_at_us: 1,
            stages: vec![BlockingType::HttpDrop],
        })
        .collect();
    Batch::new(Uuid::from_raw(client), reports, posted_at)
}

/// Busy-wait `us` microseconds.
fn stagger(us: u64) {
    let until = Instant::now() + Duration::from_micros(us);
    while Instant::now() < until {
        std::hint::spin_loop();
    }
}

/// Run `a ‖ b` on a fresh journal `TRIALS` times; count the trials whose
/// live fingerprint differs from a replay of the journal. Trials
/// stagger one racer's start by 0–63 µs, alternating which one, so the
/// race sweeps every overlap of the two operations rather than only
/// the one a simultaneous start happens to produce.
fn divergent_trials(
    a: impl Fn(&ReplicatedStore) + Sync,
    b: impl Fn(&ReplicatedStore) + Sync,
) -> usize {
    (0..TRIALS as u64)
        .filter(|trial| {
            let offset = (trial / 2) % 64;
            let (delay_a, delay_b) = match trial % 2 {
                0 => (offset, 0),
                _ => (0, offset),
            };
            let leader = ReplicatedStore::new(Arc::new(ShardedStore::new(4).unwrap()));
            let barrier = Barrier::new(2);
            std::thread::scope(|s| {
                s.spawn(|| {
                    barrier.wait();
                    stagger(delay_a);
                    a(&leader)
                });
                s.spawn(|| {
                    barrier.wait();
                    stagger(delay_b);
                    b(&leader)
                });
            });
            let replay = ShardedStore::new(4).unwrap();
            for line in leader.lines_from(0, usize::MAX) {
                wal::replay_line(&replay, &line).unwrap();
            }
            fingerprint_of(leader.inner()) != fingerprint_of(&replay)
        })
        .count()
}

#[test]
fn racing_operations_never_split_log_order_from_apply_order() {
    let t = SimTime::from_secs(10);
    let ingest = |client: u64| {
        move |j: &ReplicatedStore| {
            let _ = j.ingest(&batch(client, t));
        }
    };
    let counts = [
        // Same keys at the same posted_at: the record applied last wins.
        ("ingest | ingest", divergent_trials(ingest(1), ingest(2))),
        (
            "ingest | remove_reporter",
            divergent_trials(ingest(1), |j| {
                j.remove_reporter_records(Uuid::from_raw(1));
            }),
        ),
        (
            "ingest | revoke",
            divergent_trials(ingest(1), |j| j.revoke(Uuid::from_raw(1))),
        ),
        (
            "ingest | expire",
            divergent_trials(ingest(1), |j| {
                j.expire_records(SimTime::from_secs(100), SimDuration::from_secs(1));
            }),
        ),
    ];
    for (pair, n) in &counts {
        eprintln!("{pair}: {n} of {TRIALS} trials divergent");
    }
    assert!(
        counts.iter().all(|(_, n)| *n == 0),
        "live state diverged from its own journal's replay: {counts:?}"
    );
}
