//! Report-path benchmark for the socketed, replicated global DB.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload encore-post|client-sync|replicated --seed N --seconds S --trace 0|1
//! ```
//!
//! One run sets the system up several times (reporting the median set-up
//! time), measures the last deployment for `--seconds`, checks the
//! outputs, and prints one JSON line last: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
//! See `perfbench/README.md`.

mod inputs;
mod layers;
mod load;
mod stats;
mod system;
mod timed;
mod traced;

use crate::inputs::Schedule;
use crate::load::{Cursor, Observed, ShipControl, ShipLog};
use crate::stats::{percentile, Ack, Insufficient};
use crate::system::{Clients, Deployment};
use crate::timed::now_ns;
use csaw::global::GlobalApi;
use csaw_dbserver::DbServerStats;
use csaw_replica::{fingerprint_of, WalShipper};
use csaw_simnet::time::SimTime;
use csaw_simnet::topology::Asn;
use csaw_store::{Batch, ConfidenceFilter, GlobalRecord, Uuid};
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Chunks of a run: each end-to-end timing and rate summarises its
/// value over up to this many consecutive chunks of the measured phase.
const TAIL_CHUNKS: usize = 20;
/// `encore-post`: probe identities and shared targets.
const ENCORE_PROBES: usize = 20_000;
const ENCORE_TARGETS: usize = 16;
/// Records of the quiet AS (one nobody reports on) that `encore-post`
/// and `replicated` sync.
const QUIET_TARGETS: usize = 16;
/// `encore-post`: batches per second of the run's horizon (about twice
/// the recorded post rate). The schedule never runs out; the horizon is
/// how far the in-process drain tops it up for a seed-pure end state.
const ENCORE_HORIZON_RATE: f64 = 20_000.0;
/// `encore-post`: each connection syncs a quiet AS (one no probe
/// reports from) this often: about a thousand syncs a 25 s run, for a
/// p90 in each of ten chunks.
const ENCORE_SYNC_EVERY_NS: u64 = 50_000_000;
/// `client-sync` and `replicated`: the sync connection's think time (a
/// sync starts this long after the previous one started). A sync of a
/// 108-record list on `client-sync` takes 10-18 ms, of the quiet AS on
/// `replicated` under 1 ms, so a 25 s run gathers about a thousand,
/// enough for a p90 in each of ten chunks.
const SYNC_PERIOD_NS: u64 = 25_000_000;
/// `client-sync`: full clients, reports per batch, and batches per
/// second of the run's horizon (about twice the recorded rate).
const CLIENTS: usize = 1_024;
const CLIENT_BATCH: usize = 16;
const CLIENT_HORIZON_RATE: f64 = 4_000.0;
/// `replicated`: probes and the size of their AS's target list (all
/// pre-populated), full clients, replica regions, offered rate.
const REPL_PROBES: usize = 2_000;
const REPL_PROBE_TARGETS: usize = 64;
const REPL_CLIENTS: usize = 200;
const REPL_REGIONS: usize = 2;
const REPL_RATE: u64 = 500;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    EncorePost,
    ClientSync,
    Replicated,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "encore-post" => Some(Workload::EncorePost),
            "client-sync" => Some(Workload::ClientSync),
            "replicated" => Some(Workload::Replicated),
            _ => None,
        }
    }

    /// Set-ups per run; `setup_s` is their median. A set-up of a few
    /// hundred milliseconds moves with the host's scheduling, so the
    /// cheap ones are repeated more often.
    fn setups(self) -> usize {
        match self {
            Workload::EncorePost => 3,
            Workload::ClientSync | Workload::Replicated => 9,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::EncorePost => "encore-post",
            Workload::ClientSync => "client-sync",
            Workload::Replicated => "replicated",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload encore-post|client-sync|replicated --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], not {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A deployment with its generated inputs.
pub struct Setup {
    dep: Deployment,
    prepop: Vec<Batch>,
    schedule: Schedule,
    /// Batches every run ingests: the phase posts what it reaches, the
    /// drain the rest (`replicated`: exactly the open loop's schedule).
    horizon: usize,
    /// ASes the measured phase downloads.
    sync_asns: Vec<Asn>,
    /// ASes the output check downloads and compares in-process.
    check_asns: Vec<Asn>,
    secs: f64,
}

fn register(
    api: &dyn GlobalApi,
    n: usize,
    mut one: impl FnMut(&dyn GlobalApi, usize) -> Result<Uuid, String>,
) -> Result<Vec<Uuid>, String> {
    (0..n).map(|i| one(api, i)).collect()
}

/// Build inputs and deployment: spawn the servers, pre-populate the
/// stores and register the population over the socket (sequentially,
/// so UUIDs are seed-pure). Batches are generated as the load takes them.
fn setup(w: Workload, seed: u64, seconds: f64, traced: bool) -> Result<Setup, String> {
    let t0 = Instant::now();
    let salt = seed ^ 0x5eed_c5a7;
    let client_risk = |api: &dyn GlobalApi, _| {
        api.register(inputs::REGISTER_AT, 0.1)
            .map_err(|e| format!("register: {e:?}"))
    };
    let setup = match w {
        Workload::EncorePost => {
            let horizon = (ENCORE_HORIZON_RATE * seconds).ceil() as usize;
            let rounds = horizon.div_ceil(ENCORE_PROBES);
            let targets = inputs::targets(seed, 0, ENCORE_TARGETS);
            let src = inputs::encore(seed, ENCORE_PROBES, rounds, targets, inputs::asn(0));
            let quiet = inputs::targets(seed, 1, QUIET_TARGETS);
            let prepop = inputs::prepopulation(seed, &[(1, &quiet)]);
            let dep = system::plain(salt, &prepop, traced);
            let api = csaw::global::RemoteDb::new(dep.leader.addr());
            let uuids = register(&api, ENCORE_PROBES, |api, i| {
                src.register(api, i, inputs::REGISTER_AT)
                    .map_err(|e| format!("register: {e:?}"))
            })?;
            Setup {
                dep,
                prepop,
                schedule: Schedule::Encore { src, uuids },
                horizon,
                sync_asns: vec![Asn(inputs::asn(1))],
                check_asns: vec![Asn(inputs::asn(0)), Asn(inputs::asn(1))],
                secs: 0.0,
            }
        }
        Workload::ClientSync => {
            let lists = inputs::all_targets(seed);
            let prepop = inputs::prepopulation_all(seed, &lists, &[]);
            let dep = system::plain(salt, &prepop, traced);
            let api = csaw::global::RemoteDb::new(dep.leader.addr());
            let uuids = register(&api, CLIENTS, client_risk)?;
            let all = (0..inputs::AS_COUNT).map(|a| Asn(inputs::asn(a)));
            Setup {
                dep,
                prepop,
                schedule: Schedule::clients(seed, lists, uuids, CLIENT_BATCH),
                horizon: (CLIENT_HORIZON_RATE * seconds).ceil() as usize,
                sync_asns: all.clone().collect(),
                check_asns: all.collect(),
                secs: 0.0,
            }
        }
        Workload::Replicated => {
            let lists = inputs::all_targets(seed);
            // The probes observe from an AS of their own, after the 16
            // full-client ASes, with a short fully pre-populated list;
            // after it, a quiet AS nobody reports on.
            let probe_as = inputs::AS_COUNT;
            let quiet_as = probe_as + 1;
            let probe_targets = inputs::targets(seed, probe_as, REPL_PROBE_TARGETS);
            let quiet = inputs::targets(seed, quiet_as, QUIET_TARGETS);
            let prepop = inputs::prepopulation_all(
                seed,
                &lists,
                &[(probe_as, &probe_targets), (quiet_as, &quiet)],
            );
            let dep = system::replicated(salt, &prepop, REPL_REGIONS, traced);
            let api = csaw::global::RemoteDb::new(dep.leader.addr());
            let count = (REPL_RATE as f64 * seconds).ceil() as usize;
            let rounds = count.div_ceil(REPL_PROBES);
            let src = inputs::encore(
                seed,
                REPL_PROBES,
                rounds,
                probe_targets,
                inputs::asn(probe_as),
            );
            let probes = register(&api, REPL_PROBES, |api, i| {
                src.register(api, i, inputs::REGISTER_AT)
                    .map_err(|e| format!("register: {e:?}"))
            })?;
            let clients = register(&api, REPL_CLIENTS, client_risk)?;
            Setup {
                dep,
                prepop,
                schedule: Schedule::mixed(seed, src, probes, lists, clients),
                horizon: count,
                sync_asns: vec![Asn(inputs::asn(quiet_as))],
                check_asns: (0..=quiet_as).map(|a| Asn(inputs::asn(a))).collect(),
                secs: 0.0,
            }
        }
    };
    Ok(Setup {
        secs: t0.elapsed().as_secs_f64(),
        ..setup
    })
}

/// Everything one measured phase produced. The server stats, registry
/// readings, record count and peak RSS are read when the load ends,
/// before the in-process drain.
pub struct Phase {
    obs: Observed,
    ship: Option<ShipLog>,
    /// Visibility latencies (ns) from the send, one per acknowledged post.
    visible_ns: Vec<f64>,
    /// `replicated`: post and visibility latencies (ns) from the time
    /// each post was due, in send order.
    from_due: Option<(Vec<f64>, Vec<f64>)>,
    start_ns: u64,
    /// Journal position when the phase began (replicated).
    seq_start: u64,
    /// Batches the load posted.
    taken: usize,
    /// Reports the drain accepted and rejected.
    drained: (u64, u64),
    stats_before: Vec<DbServerStats>,
    stats_after: Vec<DbServerStats>,
    /// Leader registry readings at the phase start and end (traced run).
    registry_before: Vec<layers::Reading>,
    registry_after: Vec<layers::Reading>,
    records_after: usize,
    rss_peak_mb: f64,
    traces: Vec<traced::ClientTrace>,
}

impl Phase {
    fn secs(&self) -> f64 {
        (self.obs.end_ns.saturating_sub(self.start_ns)) as f64 / 1e9
    }
}

fn server_stats(dep: &Deployment) -> Vec<DbServerStats> {
    std::iter::once(&dep.leader)
        .chain(&dep.replicas)
        .map(|n| n.stats())
        .collect()
}

/// Run the workload's load against `s` for `seconds`, then drain the
/// rest of the horizon in-process.
fn measure(w: Workload, s: &Setup, seconds: f64, traced: bool) -> Result<Phase, String> {
    let dep = &s.dep;
    let clients = Clients::new(traced);
    for t in dep.timed() {
        t.start();
    }
    let cursor = Cursor::new(&s.schedule);
    let leader = dep.leader.addr();
    let stats_before = server_stats(dep);
    let registry_before = layers::registry_readings(s);
    let seq_start = dep.journal.as_ref().map_or(0, |j| j.leader_seq());
    let start_ns = now_ns();
    let deadline = start_ns + (seconds * 1e9) as u64;
    let mut obs = Observed::default();
    let mut ship = None;
    match w {
        Workload::EncorePost => {
            let conns = [
                clients.connect(leader, "conn0"),
                clients.connect(leader, "conn1"),
            ];
            std::thread::scope(|sc| {
                let hs: Vec<_> = conns
                    .iter()
                    .zip(1u64..)
                    .map(|(conn, i)| {
                        let cadence = load::Cadence {
                            asn: s.sync_asns[0],
                            every_ns: ENCORE_SYNC_EVERY_NS,
                            offset_ns: i * ENCORE_SYNC_EVERY_NS / 2,
                        };
                        let cursor = &cursor;
                        sc.spawn(move || load::closed_posts(conn, cursor, deadline, Some(cadence)))
                    })
                    .collect();
                for h in hs {
                    obs.merge(h.join().expect("load thread panicked"));
                }
            });
        }
        Workload::ClientSync => {
            let poster = clients.connect(leader, "post");
            let syncer = clients.connect(leader, "sync");
            std::thread::scope(|sc| {
                let ps = sc.spawn(|| load::closed_posts(&poster, &cursor, deadline, None));
                let ss = sc
                    .spawn(|| load::closed_syncs(&syncer, &s.sync_asns, SYNC_PERIOD_NS, deadline));
                obs.merge(ps.join().expect("post thread panicked"));
                obs.merge(ss.join().expect("sync thread panicked"));
            });
        }
        Workload::Replicated => {
            let journal = dep
                .journal
                .as_ref()
                .expect("replicated deployment has a journal");
            let mut shipper = WalShipper::new(journal.clone());
            for (r, node) in dep.replicas.iter().enumerate() {
                shipper.add_region(&format!("r{r}"), node.addr(), SimTime::ZERO);
            }
            let poster = clients.connect(leader, "post");
            let syncer = clients.connect(dep.replicas[0].addr(), "sync@r0");
            let ctl = ShipControl::default();
            let interval = 1_000_000_000 / REPL_RATE;
            std::thread::scope(|sc| {
                let sh = sc.spawn(|| {
                    load::ship_loop(&mut shipper, journal, &ctl.stop, &ctl.final_seq, traced)
                });
                let ss = sc
                    .spawn(|| load::closed_syncs(&syncer, &s.sync_asns, SYNC_PERIOD_NS, deadline));
                let gen = load::open_posts(&poster, &cursor, journal, start_ns, interval, deadline);
                obs.merge(gen);
                obs.merge(ss.join().expect("sync thread panicked"));
                ctl.final_seq.store(journal.leader_seq(), Ordering::SeqCst);
                ctl.stop.store(true, Ordering::SeqCst);
                ship = Some(sh.join().expect("shipper thread panicked"));
            });
        }
    }
    for t in dep.timed() {
        t.stop();
    }
    let stats_after = server_stats(dep);
    let registry_after = layers::registry_readings(s);
    let records_after = dep.leader.db.store().record_count();
    let rss_peak_mb = rss_peak_mb();
    let taken = cursor.taken();
    // The open loop of `replicated` posts exactly its horizon, so nothing
    // is drained past the shipper; the replica fingerprint checks would
    // catch it if not.
    let drained = load::drain_in_process(&dep.leader.db, &s.schedule, taken..s.horizon)?;
    let mut from_due = None;
    let visible_ns = match &ship {
        Some(log) => {
            let matched = stats::match_visibility(&obs.acks, &log.rounds);
            let unmatched = matched.iter().filter(|v| v.is_none()).count();
            if unmatched > 0 {
                obs.errors += unmatched as u64;
                obs.first_error
                    .get_or_insert(format!("{unmatched} acks never covered by a ship round"));
            }
            let since = |visible: &[(Ack, u64)], start: fn(&Ack) -> u64| -> Vec<f64> {
                visible
                    .iter()
                    .map(|(a, end)| (end - start(a)) as f64)
                    .collect()
            };
            let visible: Vec<(Ack, u64)> = obs
                .acks
                .iter()
                .zip(matched)
                .filter_map(|(a, end)| Some((*a, end?)))
                .collect();
            let posts = obs
                .acks
                .iter()
                .map(|a| (a.receipt_ns - a.due_ns) as f64)
                .collect();
            from_due = Some((posts, since(&visible, |a| a.due_ns)));
            since(&visible, |a| a.sent_ns)
        }
        // One region: a report is readable everywhere once its receipt
        // is back (the store applies before the receipt is written).
        None => load::in_time_order(&obs.posts),
    };
    if let Some(log) = &ship {
        if log.unsynced > 0 {
            obs.errors += log.unsynced;
            obs.first_error.get_or_insert(format!(
                "{} ship rounds left a replica behind",
                log.unsynced
            ));
        }
    }
    Ok(Phase {
        traces: clients.traces(),
        obs,
        ship,
        visible_ns,
        from_due,
        start_ns,
        seq_start,
        taken,
        drained,
        stats_before,
        stats_after,
        registry_before,
        registry_after,
        records_after,
        rss_peak_mb,
    })
}

/// One output check.
struct Check {
    name: String,
    ok: bool,
    detail: String,
}

fn sorted(mut v: Vec<GlobalRecord>) -> Vec<GlobalRecord> {
    v.sort_by(|a, b| (a.url.as_str(), a.asn.0).cmp(&(b.url.as_str(), b.asn.0)));
    v
}

/// The output checks every run must pass.
fn check(s: &Setup, p: &Phase) -> Vec<Check> {
    let dep = &s.dep;
    let mut out = Vec::new();
    let mut push = |name: &str, ok: bool, detail: String| {
        out.push(Check {
            name: name.to_string(),
            ok,
            detail,
        })
    };
    push(
        "receipts_reconcile",
        p.obs.errors == 0,
        format!(
            "{} errors of {} operations{}",
            p.obs.errors,
            p.obs.attempted,
            p.obs
                .first_error
                .as_ref()
                .map_or(String::new(), |e| format!("; first: {e}"))
        ),
    );
    let leader = dep.leader.stats();
    push(
        "server_counts_match_client",
        leader.reports_accepted == p.obs.accepted && leader.reports_rejected == p.obs.rejected,
        format!(
            "server accepted {} rejected {}, client accepted {} rejected {}",
            leader.reports_accepted, leader.reports_rejected, p.obs.accepted, p.obs.rejected
        ),
    );
    let protocol_errors: u64 = server_stats(dep).iter().map(|st| st.protocol_errors).sum();
    push(
        "protocol_errors_zero",
        protocol_errors == 0,
        format!("{protocol_errors} protocol errors"),
    );
    let records = dep.leader.db.store().record_count();
    let posted = p.taken.max(s.horizon);
    let expected = inputs::distinct_keys(
        s.prepop
            .iter()
            .cloned()
            .chain((0..posted).map(|k| s.schedule.batch(k))),
    );
    push(
        "records_match_seed",
        records == expected,
        format!(
            "leader holds {records} records, the seed's first {posted} batches and \
             pre-population hold {expected} distinct (url, asn) keys"
        ),
    );
    let leader_fp = fingerprint_of(dep.leader.db.store());
    for (r, node) in dep.replicas.iter().enumerate() {
        let fp = fingerprint_of(node.db.store());
        push(
            &format!("replica_r{r}_fingerprint"),
            fp == leader_fp,
            format!("r{r} {fp}, leader {leader_fp}"),
        );
    }
    let read_from = dep.replicas.first().unwrap_or(&dep.leader);
    let api = csaw::global::RemoteDb::new(read_from.addr());
    let filter = ConfidenceFilter::default();
    let mut mismatched = Vec::new();
    for &asn in &s.check_asns {
        let wire = api.blocked_for_as(asn, &filter).map(sorted);
        let local = dep.leader.db.blocked_for_as(asn, &filter).map(sorted);
        match (wire, local) {
            (Ok(a), Ok(b)) if a == b => {}
            _ => mismatched.push(asn.0),
        }
    }
    push(
        "last_sync_matches_in_process",
        mismatched.is_empty(),
        format!(
            "{} ASes synced, mismatched: {mismatched:?}",
            s.check_asns.len()
        ),
    );
    out
}

/// FNV-1a over the seed-pure outcome: accepted and rejected totals, the
/// record count, and the store state's fingerprint where one thread
/// posts (with two concurrent posters, which report overwrites a record
/// last depends on timing, so `encore-post` fingerprints counts only).
/// A phase that posts past the horizon makes the totals depend on speed,
/// and the line says so.
fn fingerprint(w: Workload, s: &Setup, p: &Phase) -> String {
    let store = s.dep.leader.db.store();
    let state = match w {
        Workload::EncorePost => "racy".to_string(),
        Workload::ClientSync | Workload::Replicated => fingerprint_of(store),
    };
    let text = format!(
        "accepted={};rejected={};records={};state={state}",
        p.obs.accepted + p.drained.0,
        p.obs.rejected + p.drained.1,
        store.record_count(),
    );
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    if p.taken > s.horizon {
        format!(
            "{h:016x} ({text}) NOT seed-pure: the phase posted {} batches, past the {}-batch horizon",
            p.taken, s.horizon
        )
    } else {
        format!("{h:016x} ({text})")
    }
}

fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A named metric value with its unit.
pub struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

/// Collects metrics and the notes a run prints about them.
#[derive(Default)]
pub struct Report {
    metrics: Vec<Metric>,
    notes: Vec<String>,
    missing: Vec<String>,
}

impl Report {
    /// Record a value.
    pub fn put(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value: if value.is_finite() { value } else { 0.0 },
        });
    }

    /// Per-layer percentile `q` of `ns` samples, in µs: 0 with a note
    /// when the layer is idle or lacks ten samples beyond `q`.
    pub fn pct_us(&mut self, name: &str, ns: &[f64], q: f64) {
        match percentile(ns, q) {
            Ok(v) => self.put(name, "us", v / 1e3),
            Err(Insufficient { count, needed }) => {
                self.notes.push(format!(
                    "{name}: {count} samples, {needed} needed for ten beyond p{}",
                    (q * 100.0).round()
                ));
                self.put(name, "us", 0.0);
            }
        }
    }

    /// End-to-end percentile `q` of time-ordered `ns` samples, summarised
    /// over up to [`TAIL_CHUNKS`] chunks of the run. Without ten
    /// samples beyond `q` the run reports no result.
    pub fn chunked_pct_us(&mut self, name: &str, ns: &[f64], q: f64) {
        match stats::chunked_percentile(ns, q, TAIL_CHUNKS) {
            Ok(v) => self.put(name, "us", v / 1e3),
            Err(Insufficient { count, needed }) => self.missing.push(format!(
                "{name}: {count} samples, {needed} needed for ten beyond p{}",
                (q * 100.0).round()
            )),
        }
    }

    fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

fn median_of(v: &[f64]) -> f64 {
    stats::median(v).unwrap_or(0.0)
}

/// Reports acknowledged per second, as the interquartile mean over
/// [`TAIL_CHUNKS`] equal time windows of the phase.
fn chunked_rate(posts: &[load::Sample], start_ns: u64, end_ns: u64) -> f64 {
    let width = (end_ns.saturating_sub(start_ns) / TAIL_CHUNKS as u64).max(1);
    let mut acked = [0u64; TAIL_CHUNKS];
    for s in posts {
        let w = ((s.at.saturating_sub(start_ns)) / width).min(TAIL_CHUNKS as u64 - 1);
        acked[w as usize] += s.reports;
    }
    let rates: Vec<f64> = acked
        .iter()
        .map(|&n| n as f64 / (width as f64 / 1e9))
        .collect();
    stats::interquartile_mean(&rates).expect("TAIL_CHUNKS > 0")
}

fn end_to_end(rep: &mut Report, setups: &[f64], p: &Phase) {
    rep.put("setup_s", "s", median_of(setups));
    let posts = load::in_time_order(&p.obs.posts);
    let syncs = load::in_time_order(&p.obs.syncs);
    let posts_end = p
        .obs
        .posts
        .iter()
        .map(|s| s.at)
        .max()
        .unwrap_or(p.obs.end_ns);
    rep.put(
        "post_rate",
        "1/s",
        chunked_rate(&p.obs.posts, p.start_ns, posts_end),
    );
    rep.chunked_pct_us("post_p50_us", &posts, 0.5);
    rep.chunked_pct_us("post_p90_us", &posts, 0.9);
    rep.chunked_pct_us("sync_p50_us", &syncs, 0.5);
    rep.chunked_pct_us("sync_p90_us", &syncs, 0.9);
    rep.chunked_pct_us("visible_p50_us", &p.visible_ns, 0.5);
    rep.chunked_pct_us("visible_p90_us", &p.visible_ns, 0.9);
    // The p99 tails, and the open loop's latencies from the due time,
    // move with the host's scheduling episodes far beyond any bound a
    // gate could use, so they are printed, not gated.
    let mut printed = vec![
        ("post_p99_us", &posts, 0.99),
        ("visible_p99_us", &p.visible_ns, 0.99),
    ];
    if let Some((post, visible)) = &p.from_due {
        printed.extend([
            ("post_from_due_p50_us", post, 0.5),
            ("post_from_due_p90_us", post, 0.9),
            ("post_from_due_p99_us", post, 0.99),
            ("visible_from_due_p50_us", visible, 0.5),
            ("visible_from_due_p90_us", visible, 0.9),
            ("visible_from_due_p99_us", visible, 0.99),
        ]);
    }
    for (name, ns, q) in printed {
        match stats::chunked_percentile(ns, q, TAIL_CHUNKS) {
            Ok(v) => println!("tail {name} {:.3} us ({} samples)", v / 1e3, ns.len()),
            Err(Insufficient { count, needed }) => {
                println!("tail {name}: {count} samples, {needed} needed")
            }
        }
    }
    rep.put("rss_peak_mb", "MB", p.rss_peak_mb);
}

/// Set up `setups` times (keeping the last) and measure it.
fn run_once(
    w: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    setups: usize,
) -> Result<(Setup, Phase, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for i in 0..setups {
        let s = setup(w, seed, seconds, traced)?;
        times.push(s.secs);
        if i + 1 < setups {
            s.dep.shutdown();
        } else {
            kept = Some(s);
        }
    }
    let s = kept.expect("at least one set-up");
    let p = measure(w, &s, seconds, traced)?;
    Ok((s, p, times))
}

fn print_checks(checks: &[Check]) {
    for c in checks {
        println!(
            "check {:<32} {}  {}",
            c.name,
            if c.ok { "ok  " } else { "FAIL" },
            c.detail
        );
    }
}

fn print_counts(p: &Phase) {
    let o = &p.obs;
    println!(
        "samples: posts {} syncs {} visible {} | phase {:.3} s | resubmits {} | batches posted {}, drained in-process {} reports",
        o.posts.len(),
        o.syncs.len(),
        p.visible_ns.len(),
        p.secs(),
        o.resubmits,
        p.taken,
        p.drained.0 + p.drained.1
    );
    let ratio = if o.attempted == 0 {
        0.0
    } else {
        o.errors as f64 / o.attempted as f64
    };
    println!(
        "error_ratio {ratio} ({} of {} operations)",
        o.errors, o.attempted
    );
}

fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    println!(
        "workload {} seed {} seconds {} trace {}",
        w.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    let mut rep = Report::default();
    let (correct, attempted, failed);
    if !args.trace {
        let (s, p, setups) = run_once(w, args.seed, args.seconds, false, w.setups())?;
        let checks = check(&s, &p);
        println!("setup_s samples: {setups:?}");
        print_counts(&p);
        print_checks(&checks);
        println!("fingerprint {}", fingerprint(w, &s, &p));
        end_to_end(&mut rep, &setups, &p);
        correct = checks.iter().all(|c| c.ok);
        attempted = p.obs.attempted;
        failed = p.obs.errors;
        s.dep.shutdown();
    } else {
        // Untraced half first (the overhead baseline), then the traced half.
        let half = args.seconds / 2.0;
        let (s0, p0, _) = run_once(w, args.seed, half, false, 1)?;
        let checks0 = check(&s0, &p0);
        s0.dep.shutdown();
        let (s, p, _) = run_once(w, args.seed, half, true, 1)?;
        // Read the layers before the checks add their own store calls.
        layers::per_layer(&mut rep, &s, &p, &p0);
        let checks = check(&s, &p);
        print_counts(&p);
        print_checks(&checks0);
        print_checks(&checks);
        println!("fingerprint {}", fingerprint(w, &s, &p));
        let path = layers::write_outputs(w.name(), args.seed, &s, &p, &rep)?;
        println!("chrome trace: {}", path.display());
        correct = checks0.iter().chain(&checks).all(|c| c.ok);
        attempted = p0.obs.attempted + p.obs.attempted;
        failed = p0.obs.errors + p.obs.errors;
        s.dep.shutdown();
    }
    for m in &rep.metrics {
        println!("metric {:<44} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for n in &rep.notes {
        println!("note {n}");
    }
    if !rep.missing.is_empty() {
        for m in &rep.missing {
            println!("cannot report {m}");
        }
        return Err("a percentile lacks samples; no result".into());
    }
    println!("{}", rep.json(correct, attempted.max(1), failed));
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("output checks failed");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::from(1)
        }
    }
}
