//! Micro-benchmarks for the hot paths of the reproduction: URL parsing,
//! local-DB longest-prefix matching, the phase-1 block-page classifier,
//! vote tallying, the Fig. 4 detector, the TCP transfer model, the
//! simnet event loop, and the encode and decode of a per-AS list
//! download. These are the operations a deployed C-Saw proxy runs on
//! every request.
//!
//! Hand-rolled harness (`harness = false`): each benchmark is calibrated
//! to a target wall time, then timed over a fixed iteration count and
//! reported as ns/iter with a best-of-runs summary.
//!
//! ```sh
//! cargo bench -p csaw-bench
//! # filter: cargo bench -p csaw-bench -- event_loop
//! ```

use csaw::global::{Uuid, VoteLedger};
use csaw::local::{LocalDb, Status};
use csaw::measure::{measure_direct, DetectConfig};
use csaw_blockpage::{phase1_html, Phase1Config};
use csaw_censor::blocking::BlockingType;
use csaw_simnet::event::Scheduler;
use csaw_simnet::rng::DetRng;
use csaw_simnet::tcp::{transfer_time, TcpConfig};
use csaw_simnet::time::{SimDuration, SimTime};
use csaw_simnet::topology::Asn;
use csaw_store::{DbResponse, GlobalRecord};
use csaw_webproto::url::Url;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Time `f` adaptively: calibrate the iteration count to ~10ms batches,
/// then report the fastest batch (ns per iteration) over ~300ms of
/// timed batches.
///
/// Minimum-of-many-small-batches instead of an average over a few long
/// runs: the CI hosts are shared VMs whose throughput drifts by tens of
/// percent over hundreds of milliseconds (hypervisor steal), and an
/// average folds that interference into the result. The fastest batch
/// is still a full-batch average — never a single-iteration time — so
/// it estimates steady-state cost, not a lucky cache hit.
fn bench<R>(
    name: &str,
    filter: Option<&str>,
    out: &mut Vec<(String, u64)>,
    mut f: impl FnMut() -> R,
) {
    if let Some(pat) = filter {
        if !name.contains(pat) {
            return;
        }
    }
    // Calibrate: start at 1 iter, double until the batch takes ≥ 10ms.
    let mut iters: u64 = 1;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let dt = t0.elapsed();
        if dt >= Duration::from_millis(10) || iters >= 1 << 30 {
            // Scale to ~10ms per timed batch.
            let per_iter = dt.as_nanos().max(1) / iters as u128;
            iters = (10_000_000 / per_iter).max(1) as u64;
            break;
        }
        iters *= 2;
    }
    let mut best = u128::MAX;
    for _ in 0..30 {
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        best = best.min(t0.elapsed().as_nanos() / iters as u128);
    }
    println!("{name:<32} {best:>12} ns/iter  ({iters} iters/batch)");
    out.push((name.to_string(), best as u64));
}

fn bench_url_parse(filter: Option<&str>, out: &mut Vec<(String, u64)>) {
    bench("url_parse", filter, out, || {
        Url::parse(black_box(
            "https://video.cdn.example.com:8443/watch/v/abc123?t=42&list=x",
        ))
        .unwrap()
    });
}

fn bench_local_db_lpm(filter: Option<&str>, out: &mut Vec<(String, u64)>) {
    let mut db = LocalDb::new(SimDuration::from_secs(3600));
    for i in 0..500 {
        let url = Url::parse(&format!(
            "http://site{}.example/sec{}/page{}",
            i % 50,
            i % 7,
            i
        ))
        .unwrap();
        let status = if i % 3 == 0 {
            Status::Blocked
        } else {
            Status::NotBlocked
        };
        let stages = if status == Status::Blocked {
            vec![BlockingType::HttpDrop]
        } else {
            vec![]
        };
        db.record_measurement(&url, Asn(1), SimTime::ZERO, status, stages);
    }
    let probe = Url::parse("http://site7.example/sec3/page17/deeper/path").unwrap();
    bench("local_db_lookup_lpm", filter, out, || {
        db.lookup(black_box(&probe), SimTime::ZERO)
    });
}

fn bench_phase1(filter: Option<&str>, out: &mut Vec<(String, u64)>) {
    let cfg = Phase1Config::default();
    let block_page = &csaw_blockpage::corpus_47()[0].html;
    let real_page = csaw_webproto::synth_html("News", 95_000);
    bench("phase1_block_page", filter, out, || {
        phase1_html(black_box(block_page), &cfg)
    });
    bench("phase1_real_95kb", filter, out, || {
        phase1_html(black_box(&real_page), &cfg)
    });
}

fn bench_vote_tally(filter: Option<&str>, out: &mut Vec<(String, u64)>) {
    let ledger = VoteLedger::new();
    for client in 0..200u64 {
        let urls: Vec<(String, Asn)> = (0..20)
            .map(|i| {
                (
                    format!("http://blocked{}.example/", (client + i) % 300),
                    Asn(1),
                )
            })
            .collect();
        ledger.set_client_report(Uuid::from_raw(client), urls);
    }
    bench("vote_tally", filter, out, || {
        ledger.tally(black_box("http://blocked42.example/"), Asn(1))
    });
}

fn bench_detector(filter: Option<&str>, out: &mut Vec<(String, u64)>) {
    let world =
        csaw_bench::worlds::single_isp_world(csaw_censor::ISP_A_ASN, "ISP-A", csaw_censor::isp_a());
    let provider = world.access.providers()[0].clone();
    let url = Url::parse("http://www.youtube.com/").unwrap();
    let mut rng = DetRng::new(1);
    bench("detector_blocked_page", filter, out, || {
        measure_direct(
            black_box(&world),
            &provider,
            &url,
            Some(360_000),
            &DetectConfig::default(),
            &mut rng,
        )
    });
}

fn bench_transfer_model(filter: Option<&str>, out: &mut Vec<(String, u64)>) {
    let cfg = TcpConfig::default();
    bench("transfer_time_360kb", filter, out, || {
        transfer_time(
            black_box(360_000),
            SimDuration::from_millis(186),
            20_000_000,
            &cfg,
        )
    });
}

fn bench_local_db_insert(filter: Option<&str>, out: &mut Vec<(String, u64)>) {
    let mut db = LocalDb::new(SimDuration::from_secs(3600));
    let urls: Vec<Url> = (0..64)
        .map(|i| Url::parse(&format!("http://s{}.example/p/{i}", i % 8)).unwrap())
        .collect();
    let mut i = 0usize;
    bench("local_db_record_aggregated", filter, out, || {
        let u = &urls[i % urls.len()];
        i += 1;
        let blocked = i.is_multiple_of(3);
        let (status, stages) = if blocked {
            (Status::Blocked, vec![BlockingType::HttpDrop])
        } else {
            (Status::NotBlocked, vec![])
        };
        db.record_measurement(black_box(u), Asn(1), SimTime::ZERO, status, stages);
    });
}

fn bench_redundancy_parallel(filter: Option<&str>, out: &mut Vec<(String, u64)>) {
    use csaw::config::RedundancyMode;
    use csaw::measure::fetch_with_redundancy;
    use csaw_circumvent::transports::FetchCtx;
    let world =
        csaw_bench::worlds::single_isp_world(csaw_censor::ISP_A_ASN, "ISP-A", csaw_censor::isp_a());
    let provider = world.access.providers()[0].clone();
    let url = Url::parse("http://www.youtube.com/").unwrap();
    let mut rng = DetRng::new(2);
    let mut tor = csaw_circumvent::tor::TorClient::new();
    let ctx = FetchCtx {
        now: SimTime::ZERO,
        provider: provider.clone(),
    };
    bench("redundant_fetch_parallel", filter, out, || {
        fetch_with_redundancy(
            black_box(&world),
            &ctx,
            &url,
            RedundancyMode::Parallel,
            &mut tor,
            &DetectConfig::default(),
            &csaw_simnet::load::LoadModel::default(),
            &mut rng,
        )
    });
}

/// The simnet event loop with the default (null-sink) observability
/// context: 10k events dispatched through `run_until`, including a
/// re-schedule per event. This is the workload behind the csaw-obs
/// "≤ 5% overhead with the null sink" acceptance criterion.
fn bench_event_loop(filter: Option<&str>, out: &mut Vec<(String, u64)>) {
    bench("simnet_event_loop_10k", filter, out, || {
        let mut s: Scheduler<u64> = Scheduler::new();
        let mut rng = DetRng::new(42);
        for i in 0..10_000u64 {
            s.schedule(SimTime::from_micros(rng.range_u64(0, 1_000_000)), i);
        }
        let mut acc = 0u64;
        s.run_until(SimTime::from_secs(2), |_, e, sched| {
            acc = acc.wrapping_add(e);
            if e % 64 == 0 {
                sched.schedule(SimTime::from_secs(3), e); // past horizon: stays queued
            }
        });
        acc
    });
}

/// A seeded RECORDS frame of `n` records, shaped like a per-AS list
/// download: one AS, 45-byte URLs, one to three blocking stages each.
fn records_frame(n: usize) -> csaw_webproto::codec::Frame {
    const STAGES: [BlockingType; 4] = [
        BlockingType::DnsHijack,
        BlockingType::IpDrop,
        BlockingType::HttpBlockPageInline,
        BlockingType::SniDrop,
    ];
    let mut rng = DetRng::new(108);
    let records = (0..n)
        .map(|i| GlobalRecord {
            url: format!(
                "http://www.site{i:04}.as64512.example/p{:08x}",
                rng.range_u64(0, 1 << 32)
            ),
            asn: Asn(64_512),
            measured_at: SimTime::from_micros(rng.range_u64(1 << 32, 1 << 33)),
            stages: (0..1 + rng.index(3))
                .map(|_| STAGES[rng.index(STAGES.len())])
                .collect(),
            posted_at: SimTime::from_micros(rng.range_u64(1 << 33, 1 << 34)),
            reporter: Uuid::from_raw(rng.range_u64(0, u64::MAX)),
        })
        .collect();
    DbResponse::Records(records).to_frame()
}

/// Encode and client-side decode (`DbResponse::from_frame`) of a per-AS
/// list download at the benchmark's list size and at about ten times
/// it: the ratio of the two sizes shows how each scales with payload.
fn bench_wire_records(filter: Option<&str>, out: &mut Vec<(String, u64)>) {
    for n in [108, 1024] {
        let frame = records_frame(n);
        let resp = DbResponse::from_frame(&frame).unwrap();
        bench(&format!("wire_records_encode_{n}"), filter, out, || {
            black_box(&resp).to_frame()
        });
        bench(&format!("wire_records_decode_{n}"), filter, out, || {
            DbResponse::from_frame(black_box(&frame)).unwrap()
        });
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // cargo bench passes --bench; any bare argument is a name filter;
    // `--json PATH` merges the results into a scorecard's timing.micro
    // section (creating the file if needed) for the CI perf gate.
    let mut json_out: Option<std::path::PathBuf> = None;
    let mut filter: Option<String> = None;
    let mut it = args.iter().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => match it.next() {
                Some(path) => json_out = Some(std::path::PathBuf::from(path)),
                None => {
                    eprintln!("microbench: --json needs a path");
                    std::process::exit(2);
                }
            },
            a if a.starts_with('-') => {} // cargo's own bench plumbing
            a => filter = Some(a.to_string()),
        }
    }
    let filter = filter.as_deref();
    let mut results: Vec<(String, u64)> = Vec::new();
    let out = &mut results;
    println!("{:<32} {:>12}", "benchmark", "time");
    bench_url_parse(filter, out);
    bench_local_db_lpm(filter, out);
    bench_phase1(filter, out);
    bench_vote_tally(filter, out);
    bench_detector(filter, out);
    bench_transfer_model(filter, out);
    bench_local_db_insert(filter, out);
    bench_redundancy_parallel(filter, out);
    bench_event_loop(filter, out);
    bench_wire_records(filter, out);
    if let Some(path) = json_out {
        if let Err(e) =
            csaw_bench::scorecard::Scorecard::merge_micro_file(&path, "microbench", 1, &results)
        {
            eprintln!("microbench: {e}");
            std::process::exit(1);
        }
        eprintln!("microbench: micro results merged -> {}", path.display());
    }
}
