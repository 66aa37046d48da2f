//! Seeded workload inputs: target lists and pre-population batches,
//! built in set-up, and the post schedule, whose batches are pure
//! functions of the seed and their index. The program under test only
//! ever receives generated inputs.

use csaw::encore::{EncoreConfig, EncoreSource};
use csaw_censor::blocking::BlockingType;
use csaw_simnet::rng::DetRng;
use csaw_simnet::time::SimTime;
use csaw_store::{Batch, Report, Uuid};
use std::collections::HashSet;

/// ASes in the pilot deployment; full clients and syncs spread over them.
pub const AS_COUNT: usize = 16;
/// First AS number (private-use range).
const ASN_BASE: u32 = 64_512;
/// Records pre-populated per AS.
pub const PREPOP_PER_AS: usize = 96;
/// Targets per AS that pre-population does not cover, so posts also
/// insert new keys.
const FRESH_PER_AS: usize = 12;
/// Reports per pre-population batch.
const PREPOP_BATCH: usize = 16;
/// Virtual time at which the population registers.
pub const REGISTER_AT: SimTime = SimTime::from_secs(60);
/// Virtual time of the first post; batch `k` is stamped `k` ms later.
const POST_EPOCH_US: u64 = 3_600_000_000;

/// Stages a full client can diagnose.
const STAGES: [BlockingType; 6] = [
    BlockingType::DnsHijack,
    BlockingType::DnsNxdomain,
    BlockingType::IpDrop,
    BlockingType::HttpDrop,
    BlockingType::HttpBlockPageInline,
    BlockingType::SniDrop,
];

/// The AS number of AS index `i`.
pub fn asn(i: usize) -> u32 {
    ASN_BASE + i as u32
}

/// The blocked-URL target list of AS index `a` (pre-populated prefix
/// first, then the fresh tail). Every URL has the same length, so the
/// payload sizes the run depends on do not vary with the seed.
pub fn targets(seed: u64, a: usize, n: usize) -> Vec<String> {
    let mut rng = DetRng::new(seed).fork(&format!("targets{a}"));
    (0..n)
        .map(|i| {
            format!(
                "http://www.site{i:04}.as{}.example/p{:08x}",
                asn(a),
                rng.range_u64(0, 1 << 32)
            )
        })
        .collect()
}

/// A full-client report batch: `n` reports from the client's home AS.
fn client_batch(
    rng: &mut DetRng,
    client: Uuid,
    list: &[String],
    a: usize,
    n: usize,
    posted_at: SimTime,
) -> Batch {
    let reports = (0..n)
        .map(|_| {
            let stage_count = 1 + rng.index(3);
            Report {
                url: list[rng.index(list.len())].clone(),
                asn: asn(a),
                measured_at_us: posted_at.as_micros() - rng.range_u64(1, 30_000_000),
                stages: (0..stage_count)
                    .map(|_| STAGES[rng.index(STAGES.len())])
                    .collect(),
            }
        })
        .collect();
    Batch::new(client, reports, posted_at)
}

fn post_time(k: usize) -> SimTime {
    SimTime::from_micros(POST_EPOCH_US + k as u64 * 1_000)
}

/// Pre-population: every listed `(AS index, targets)` pair gets all its
/// targets, in batches of 16 from unregistered seed reporters (the store
/// itself does not gate on registration).
pub fn prepopulation(seed: u64, lists: &[(usize, &[String])]) -> Vec<Batch> {
    let mut rng = DetRng::new(seed).fork("prepop");
    let mut out = Vec::new();
    for &(a, list) in lists {
        for (j, chunk) in list.chunks(PREPOP_BATCH).enumerate() {
            let reporter = Uuid::from_raw(0xfeed_0000 + (a * 1000 + j) as u64);
            let reports = chunk
                .iter()
                .map(|url| Report {
                    url: url.clone(),
                    asn: asn(a),
                    measured_at_us: 1_000_000 + rng.range_u64(0, 1_000_000_000),
                    stages: vec![STAGES[rng.index(STAGES.len())]],
                })
                .collect();
            out.push(Batch::new(reporter, reports, SimTime::from_secs(3_000)));
        }
    }
    out
}

/// Pre-population of every AS's first [`PREPOP_PER_AS`] targets, then
/// of every `extra` list.
pub fn prepopulation_all(
    seed: u64,
    lists: &[Vec<String>],
    extra: &[(usize, &[String])],
) -> Vec<Batch> {
    let prefixes: Vec<(usize, &[String])> = lists
        .iter()
        .enumerate()
        .map(|(a, l)| (a, &l[..PREPOP_PER_AS]))
        .chain(extra.iter().copied())
        .collect();
    prepopulation(seed, &prefixes)
}

/// Every AS's target list (pre-populated prefix plus fresh tail).
pub fn all_targets(seed: u64) -> Vec<Vec<String>> {
    (0..AS_COUNT)
        .map(|a| targets(seed, a, PREPOP_PER_AS + FRESH_PER_AS))
        .collect()
}

/// The Encore probe population used by a workload.
pub fn encore(
    seed: u64,
    probes: usize,
    rounds: usize,
    targets: Vec<String>,
    asn: u32,
) -> EncoreSource {
    EncoreSource::new(
        seed,
        EncoreConfig {
            probes,
            probes_per_client: rounds,
            targets,
            asn,
        },
    )
}

/// A workload's post schedule: batch `k` is a pure function of the seed
/// and `k`, generated when a load thread takes it, so the supply has no
/// ceiling and holds no memory.
pub enum Schedule {
    /// `encore-post`: every probe's round 0, then round 1, ...
    Encore {
        /// The probe population.
        src: EncoreSource,
        /// Probe identities, in probe order.
        uuids: Vec<Uuid>,
    },
    /// `client-sync`: full clients in turn, each posting `size` reports
    /// from its home AS (client `c` lives in AS `c % 16`).
    Clients {
        /// Forked per batch.
        rng: DetRng,
        /// Every AS's target list.
        lists: Vec<Vec<String>>,
        /// Client identities.
        uuids: Vec<Uuid>,
        /// Reports per batch.
        size: usize,
    },
    /// `replicated`: Encore single-report batches and 4-report client
    /// batches in a 10:1 ratio, in send order.
    Mixed {
        /// The probe population.
        src: EncoreSource,
        /// Probe identities.
        probes: Vec<Uuid>,
        /// Forked per client batch.
        rng: DetRng,
        /// Every full-client AS's target list.
        lists: Vec<Vec<String>>,
        /// Client identities.
        clients: Vec<Uuid>,
    },
}

impl Schedule {
    /// A `client-sync` schedule.
    pub fn clients(seed: u64, lists: Vec<Vec<String>>, uuids: Vec<Uuid>, size: usize) -> Schedule {
        Schedule::Clients {
            rng: DetRng::new(seed).fork("clients"),
            lists,
            uuids,
            size,
        }
    }

    /// A `replicated` schedule.
    pub fn mixed(
        seed: u64,
        src: EncoreSource,
        probes: Vec<Uuid>,
        lists: Vec<Vec<String>>,
        clients: Vec<Uuid>,
    ) -> Schedule {
        Schedule::Mixed {
            src,
            probes,
            rng: DetRng::new(seed).fork("mixed"),
            lists,
            clients,
        }
    }

    /// Batch `k` of the schedule.
    pub fn batch(&self, k: usize) -> Batch {
        let client = |rng: &DetRng, lists: &[Vec<String>], uuids: &[Uuid], j: usize, n| {
            let c = j % uuids.len();
            let a = c % AS_COUNT;
            let mut rng = rng.fork(&j.to_string());
            client_batch(&mut rng, uuids[c], &lists[a], a, n, post_time(k))
        };
        match self {
            Schedule::Encore { src, uuids } => {
                let p = k % uuids.len();
                src.probe_batch(p, k / uuids.len(), uuids[p], post_time(k))
            }
            Schedule::Clients {
                rng,
                lists,
                uuids,
                size,
            } => client(rng, lists, uuids, k, *size),
            Schedule::Mixed {
                src,
                probes,
                rng,
                lists,
                clients,
            } => {
                if k % 11 == 10 {
                    client(rng, lists, clients, k / 11, 4)
                } else {
                    let j = k / 11 * 10 + k % 11;
                    let p = j % probes.len();
                    src.probe_batch(p, j / probes.len(), probes[p], post_time(k))
                }
            }
        }
    }
}

/// Distinct `(url, asn)` keys over every generated batch: the record
/// count the store must end with (every generated report is storable).
pub fn distinct_keys(batches: impl IntoIterator<Item = Batch>) -> usize {
    let mut keys = HashSet::new();
    for b in batches {
        for r in b.reports() {
            keys.insert((r.url.clone(), r.asn));
        }
    }
    keys.len()
}
