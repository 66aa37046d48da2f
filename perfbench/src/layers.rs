//! Per-layer metrics of a traced run, the traced-run report and the
//! Chrome trace file.

use crate::stats::{mean, percentile};
use crate::timed::{Call, Span};
use crate::traced::{write_chrome, Phases};
use crate::{Phase, Report, Setup};
use csaw_dbserver::DbServerStats;
use std::path::PathBuf;

fn durs(calls: &[Call]) -> Vec<f64> {
    calls.iter().map(|c| c.dur_ns as f64).collect()
}

fn sum_ns(calls: &[Call]) -> f64 {
    calls.iter().map(|c| c.dur_ns as f64).sum()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn delta(p: &Phase, i: usize, f: impl Fn(&DbServerStats) -> u64) -> u64 {
    f(&p.stats_after[i]).saturating_sub(f(&p.stats_before[i]))
}

fn delta_all(p: &Phase, f: impl Fn(&DbServerStats) -> u64 + Copy) -> u64 {
    (0..p.stats_after.len()).map(|i| delta(p, i, f)).sum()
}

fn merged(p: &Phase, pick: impl Fn(&crate::traced::ClientTrace) -> &Phases) -> Phases {
    let mut out = Phases::default();
    for t in &p.traces {
        let ph = pick(t);
        out.root.extend(&ph.root);
        out.encode.extend(&ph.encode);
        out.write.extend(&ph.write);
        out.wait.extend(&ph.wait);
        out.decode.extend(&ph.decode);
    }
    out
}

/// Share of the root spans' time their four children cover.
fn attributed(ph: &Phases) -> f64 {
    let children: f64 = [&ph.encode, &ph.write, &ph.wait, &ph.decode]
        .iter()
        .map(|v| v.iter().sum::<f64>())
        .sum();
    ratio(children, ph.root.iter().sum())
}

/// One registry reading: a metric's name, count, and sum in µs (0 for
/// a counter).
pub type Reading = (String, u64, u64);

/// Lock families read from the leader's perf-attributing scope.
const LOCK_METRICS: [&str; 12] = [
    "lock.store.shard.records.read.wait_us",
    "lock.store.shard.records.read.hold_us",
    "lock.store.shard.records.read.contended",
    "lock.store.shard.records.write.wait_us",
    "lock.store.shard.records.write.hold_us",
    "lock.store.shard.records.write.contended",
    "lock.store.ledger.keys.write.wait_us",
    "lock.store.ledger.keys.write.hold_us",
    "lock.store.ledger.keys.write.contended",
    "lock.store.ledger.clients.write.wait_us",
    "lock.store.ledger.clients.write.hold_us",
    "lock.store.ledger.clients.write.contended",
];

const CACHE_METRICS: [&str; 2] = ["store.cache.hits", "store.cache.misses"];

/// Readings of the lock families and cache counters, taken at the
/// start and at the end of the measured phase so the reported figures
/// cover the served load only. Empty when untraced.
pub fn registry_readings(s: &Setup) -> Vec<Reading> {
    let Some(ctx) = &s.dep.leader_ctx else {
        return Vec::new();
    };
    LOCK_METRICS
        .iter()
        .chain(&CACHE_METRICS)
        .map(|&n| {
            let (count, sum) = if n.starts_with("lock.") && !n.ends_with(".contended") {
                let h = ctx.registry.histogram(n);
                (h.count(), h.sum_us())
            } else {
                (ctx.registry.counter(n).get(), 0)
            };
            (n.to_string(), count, sum)
        })
        .collect()
}

/// `(Δcount, Δsum)` of `name` over the measured phase.
fn registry_delta(p: &Phase, name: &str) -> (u64, u64) {
    let find = |v: &[Reading]| {
        v.iter()
            .find(|(n, _, _)| n == name)
            .map_or((0, 0), |(_, c, s)| (*c, *s))
    };
    let (c0, s0) = find(&p.registry_before);
    let (c1, s1) = find(&p.registry_after);
    (c1.saturating_sub(c0), s1.saturating_sub(s0))
}

/// Every per-layer metric of the traced phase `p` (`p0` is the
/// untraced half, for the tracing overhead).
pub fn per_layer(rep: &mut Report, s: &Setup, p: &Phase, p0: &Phase) {
    let dep = &s.dep;
    let post = merged(p, |t| &t.post);
    let sync = merged(p, |t| &t.sync);
    let mut codec = crate::traced::Codec::default();
    for t in &p.traces {
        codec.post_encode.extend(&t.codec.post_encode);
        codec.post_decode.extend(&t.codec.post_decode);
        codec.post_bytes += t.codec.post_bytes;
        codec.post_reports += t.codec.post_reports;
        codec.records_encode.extend(&t.codec.records_encode);
        codec.records_decode.extend(&t.codec.records_decode);
        codec.records_bytes.extend(&t.codec.records_bytes);
    }
    let empty = crate::load::ShipLog::default();
    let ship = p.ship.as_ref().unwrap_or(&empty);

    // codec
    rep.pct_us("codec.post_encode_us", &codec.post_encode, 0.5);
    rep.pct_us("codec.post_decode_us", &codec.post_decode, 0.5);
    rep.put(
        "codec.post_bytes_per_report",
        "B",
        ratio(codec.post_bytes as f64, codec.post_reports as f64),
    );
    rep.pct_us("codec.records_encode_us", &codec.records_encode, 0.5);
    rep.pct_us("codec.records_decode_us", &codec.records_decode, 0.5);
    rep.put(
        "codec.records_bytes",
        "B",
        mean(&codec.records_bytes).unwrap_or(0.0),
    );
    rep.pct_us("codec.ship_encode_us", &ship.encode_ns, 0.5);
    rep.pct_us("codec.ship_decode_us", &ship.decode_ns, 0.5);
    rep.put("codec.ship_bytes", "B", mean(&ship.bytes).unwrap_or(0.0));

    // remote
    for (op, ph) in [("post", &post), ("sync", &sync)] {
        rep.pct_us(&format!("remote.{op}.encode_us"), &ph.encode, 0.5);
        rep.pct_us(&format!("remote.{op}.write_us"), &ph.write, 0.5);
        rep.pct_us(&format!("remote.{op}.wait_us"), &ph.wait, 0.5);
        rep.pct_us(&format!("remote.{op}.decode_us"), &ph.decode, 0.5);
    }
    rep.put(
        "remote.connects",
        "count",
        delta_all(p, |st| st.connections_accepted) as f64,
    );

    // dbserver (the leader: every post lands there)
    let passes = delta(p, 0, |st| st.passes) as f64;
    let frames = delta(p, 0, |st| st.frames_in) as f64;
    let busy = delta(p, 0, |st| st.passes_with_requests) as f64;
    rep.put(
        "dbserver.passes_per_request",
        "ratio",
        ratio(passes, frames),
    );
    rep.put("dbserver.busy_pass_ratio", "ratio", ratio(busy, passes));
    rep.put("dbserver.coalesce_mean", "ratio", ratio(frames, busy));
    rep.put(
        "dbserver.coalesce_max",
        "count",
        p.stats_after[0].max_requests_per_pass as f64,
    );
    let deferred = delta(p, 0, |st| st.reports_deferred) as f64;
    let acked = delta(p, 0, |st| st.reports_accepted + st.reports_rejected) as f64;
    rep.put(
        "dbserver.deferred_ratio",
        "ratio",
        ratio(deferred, deferred + acked),
    );
    rep.put(
        "dbserver.protocol_errors",
        "count",
        delta_all(p, |st| st.protocol_errors) as f64,
    );

    // store: the sharded store (inside the journal when replicated)
    let store_timed = dep.inner_timed.as_ref().or(dep.leader.timed.as_ref());
    let ingests = store_timed.map(|t| t.ingests()).unwrap_or_default();
    let reads = dep
        .leader
        .timed
        .as_ref()
        .map(|t| t.reads())
        .unwrap_or_default();
    let outer_ingests = dep
        .leader
        .timed
        .as_ref()
        .map(|t| t.ingests())
        .unwrap_or_default();
    rep.put(
        "dbserver.non_store_us",
        "us",
        (mean(&post.wait).unwrap_or(0.0) - mean(&durs(&outer_ingests)).unwrap_or(0.0)) / 1e3,
    );
    rep.pct_us("store.ingest_us.p50", &durs(&ingests), 0.5);
    rep.pct_us("store.ingest_us.p99", &durs(&ingests), 0.99);
    let reports: usize = ingests.iter().map(|c| c.items).sum();
    rep.put(
        "store.ingest_us_per_report",
        "us",
        ratio(sum_ns(&ingests), reports as f64) / 1e3,
    );
    rep.pct_us("store.blocked_for_as_us", &durs(&reads), 0.5);
    let (hits, _) = registry_delta(p, "store.cache.hits");
    let (misses, _) = registry_delta(p, "store.cache.misses");
    rep.put(
        "store.cache_hit_ratio",
        "ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    for name in LOCK_METRICS {
        let (count, sum_us) = registry_delta(p, name);
        if name.ends_with(".contended") {
            rep.put(name, "count", count as f64);
        } else {
            rep.put(name, "us", ratio(sum_us as f64, count as f64));
        }
    }
    rep.put("store.records", "count", p.records_after as f64);

    // replica
    let journal_us = match &dep.inner_timed {
        Some(_) => {
            ratio(
                sum_ns(&outer_ingests) - sum_ns(&ingests),
                outer_ingests.len() as f64,
            ) / 1e3
        }
        None => 0.0,
    };
    rep.put("journal.append_us", "us", journal_us);
    let (lines, bytes) = match &dep.journal {
        Some(j) => {
            let l = j.lines_from(p.seq_start, usize::MAX);
            (l.len(), l.iter().map(|x| x.len() + 1).sum::<usize>())
        }
        None => (0, 0),
    };
    rep.put("journal.lines", "count", lines as f64);
    rep.put("journal.bytes", "B", bytes as f64);
    rep.pct_us("ship.round_us.p50", &ship.busy_ns, 0.5);
    rep.pct_us("ship.round_us.p99", &ship.busy_ns, 0.99);
    rep.put(
        "ship.lines_per_round",
        "lines",
        mean(&ship.lines).unwrap_or(0.0),
    );
    rep.put("ship.lag_max", "lines", ship.lag_max as f64);
    let replica_apply: f64 = dep
        .replicas
        .iter()
        .filter_map(|r| r.timed.as_ref())
        .map(|t| sum_ns(&t.ingests()))
        .sum();
    let applied = (1..p.stats_after.len())
        .map(|i| delta(p, i, |st| st.wal_lines_applied))
        .sum::<u64>();
    rep.put(
        "replica.apply_us_per_line",
        "us",
        ratio(replica_apply, applied as f64) / 1e3,
    );
    let r0_reads = dep
        .replicas
        .first()
        .and_then(|r| r.timed.as_ref())
        .map(|t| t.reads())
        .unwrap_or_default();
    rep.pct_us("replica.blocked_for_as_us", &durs(&r0_reads), 0.5);
    rep.put(
        "replica.ship_requests",
        "count",
        (1..p.stats_after.len())
            .map(|i| delta(p, i, |st| st.ship_requests))
            .sum::<u64>() as f64,
    );
    rep.put("replica.wal_lines_applied", "count", applied as f64);

    // loadgen
    rep.pct_us("loadgen.late_p99_us", &p.obs.late_ns, 0.99);

    // trace
    rep.put("trace.attributed_share.post", "ratio", attributed(&post));
    rep.put("trace.attributed_share.sync", "ratio", attributed(&sync));
    let p50 = |ph: &Phase| percentile(&crate::load::in_time_order(&ph.obs.posts), 0.5);
    let overhead = match (p50(p), p50(p0)) {
        (Ok(t), Ok(u)) => t / u,
        _ => 0.0,
    };
    rep.put("trace.overhead", "ratio", overhead);
}

/// Where the traced run writes its report and Chrome trace.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Write the traced-run report and Chrome trace; returns the trace path.
pub fn write_outputs(
    workload: &str,
    seed: u64,
    s: &Setup,
    p: &Phase,
    rep: &Report,
) -> Result<PathBuf, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut spans: Vec<Span> = p
        .traces
        .iter()
        .flat_map(|t| t.spans.iter().cloned())
        .collect();
    for t in s.dep.timed() {
        spans.extend(t.spans(crate::traced::SPAN_CAP));
    }
    if let Some(log) = &p.ship {
        spans.extend(
            log.rounds
                .iter()
                .take(crate::traced::SPAN_CAP)
                .map(|r| Span {
                    name: "ship.round",
                    track: "shipper".into(),
                    start_ns: r.start_ns,
                    dur_ns: r.end_ns - r.start_ns,
                    id: 0,
                    parent: 0,
                }),
        );
    }
    spans.sort_by_key(|s| s.start_ns);
    let trace = dir.join(format!("{workload}-seed{seed}.trace.json"));
    write_chrome(&trace, &spans).map_err(|e| format!("write {}: {e}", trace.display()))?;
    let table: String = rep
        .metrics
        .iter()
        .map(|m| format!("{:<44} {:>16.4} {}\n", m.name, m.value, m.unit))
        .collect();
    let report = dir.join(format!("{workload}-seed{seed}.layers.txt"));
    std::fs::write(&report, table).map_err(|e| format!("write {}: {e}", report.display()))?;
    Ok(trace)
}
