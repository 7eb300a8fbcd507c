//! `service-grid`: the simulation service on loopback.
//!
//! An in-process daemon (one worker, sequential replications, a
//! journal-backed result store in a fresh directory) and one client that
//! keeps two points outstanding: submit the next, then fetch the oldest.
//! The grid is the 12 protocol specs × {interval=400, interval=2000} ×
//! loads 5..50 at one replication, small enough that the service layers
//! are a large share of each point. Each round is a cold pass (every
//! point simulates, then is inserted and journaled: the write path)
//! followed by a warm replay of the same jobs (every point a cache hit:
//! the read path).

use crate::layers::{digest_points, Layers};
use crate::report::{percentile, set_end_to_end, timed_setup, Report, Round};
use crate::{round_seed, Args, REFERENCE_SEED};
use dtn_epidemic::protocols::ALL_SPECS;
use dtn_experiments::{Mobility, PointJob, SweepConfig, TraceCache};
use dtn_service::json::Value;
use dtn_service::{Client, Daemon, DaemonConfig, RetryPolicy};
use dtn_sim::Threads;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

const MOBILITIES: [Mobility; 2] = [Mobility::Interval(400), Mobility::Interval(2000)];
const OUTSTANDING: usize = 2;

fn jobs(seed: u64) -> Vec<PointJob> {
    let cfg = SweepConfig {
        replications: 1,
        base_seed: seed,
        ..SweepConfig::default()
    };
    let mut jobs = Vec::new();
    for mobility in MOBILITIES {
        for spec in ALL_SPECS {
            for &load in &cfg.loads {
                jobs.push(PointJob::from_sweep(spec, mobility, load, &cfg));
            }
        }
    }
    jobs
}

/// A daemon with its own fresh cache directory, and a connected client.
/// Dropping it shuts the daemon down, joins its threads and removes the
/// directory.
struct Service {
    daemon: Option<Daemon>,
    client: Client,
    dir: PathBuf,
}

impl Service {
    fn start(dir: PathBuf) -> Service {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the daemon's cache directory");
        let daemon = Daemon::spawn(DaemonConfig {
            workers: 1,
            job_threads: Threads::Sequential,
            cache_path: Some(dir.join("cache.jsonl")),
            ..DaemonConfig::default()
        })
        .expect("daemon binds a loopback port");
        let client = Client::connect(&daemon.local_addr().to_string()).expect("client connects");
        Service {
            daemon: Some(daemon),
            client,
            dir,
        }
    }

    fn stats(&mut self) -> Value {
        let raw = self.client.stats_raw().expect("stats RPC answers");
        Value::parse(&raw).expect("stats document parses")
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        if let Some(daemon) = self.daemon.take() {
            daemon.request_shutdown();
            let _ = daemon.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// What one pass over a job list returned.
#[derive(Default)]
struct Pass {
    fragments: Vec<Option<String>>,
    cached: Vec<bool>,
    latency_ms: Vec<f64>,
    submit_us: Vec<f64>,
    fetch_us: Vec<f64>,
    errors: u64,
    secs: f64,
}

/// Submit every job with `OUTSTANDING` in flight; `poll_stats` also
/// calls the daemon's `stats` RPC after every point (the traced rounds).
fn pass(service: &mut Service, jobs: &[PointJob], poll_stats: bool) -> Pass {
    let policy = RetryPolicy::default();
    let mut out = Pass {
        fragments: vec![None; jobs.len()],
        cached: vec![false; jobs.len()],
        ..Pass::default()
    };
    let mut pending: VecDeque<(usize, String, Instant)> = VecDeque::new();
    let started = Instant::now();
    for i in 0..=jobs.len() {
        if let Some(job) = jobs.get(i) {
            let submitted = Instant::now();
            match service.client.submit_with_policy(job, &policy) {
                Ok(ticket) => {
                    out.submit_us.push(submitted.elapsed().as_secs_f64() * 1e6);
                    pending.push_back((i, ticket.job_id, submitted));
                }
                Err(e) => {
                    eprintln!("perfbench: submit failed: {e}");
                    out.errors += 1;
                }
            }
        }
        let drain = i == jobs.len();
        while pending.len() >= OUTSTANDING || (drain && !pending.is_empty()) {
            let (idx, job_id, submitted) = pending.pop_front().expect("non-empty");
            let fetching = Instant::now();
            match service.client.fetch_fragment_checked(&job_id) {
                Ok((fragment, cached)) => {
                    out.fetch_us.push(fetching.elapsed().as_secs_f64() * 1e6);
                    out.latency_ms.push(submitted.elapsed().as_secs_f64() * 1e3);
                    out.fragments[idx] = Some(fragment);
                    out.cached[idx] = cached;
                }
                Err(e) => {
                    eprintln!("perfbench: fetch failed: {e}");
                    out.errors += 1;
                }
            }
            if poll_stats {
                std::hint::black_box(service.stats());
            }
        }
    }
    out.secs = started.elapsed().as_secs_f64();
    out
}

/// Points whose fragment is missing or differs from the reference, byte
/// for byte.
pub fn mismatches(got: &[Option<String>], want: &[String]) -> u64 {
    got.iter()
        .zip(want)
        .filter(|(g, w)| g.as_deref() != Some(w.as_str()))
        .count() as u64
        + got.len().abs_diff(want.len()) as u64
}

/// The in-process reference: `PointJob::run` rendered as wire JSON.
fn in_process(jobs: &[PointJob]) -> Vec<String> {
    let cache = Arc::new(TraceCache::new());
    jobs.iter()
        .map(|job| match job.run(Threads::Sequential, &cache) {
            Ok(outcome) => outcome.to_wire_json(),
            Err(e) => format!("in-process run failed: {e}"),
        })
        .collect()
}

/// Set-up: a fresh daemon directory, the daemon, a connected client and
/// an untimed warm-up of every fifth grid point.
fn setup(dir: PathBuf, warmup: &[PointJob]) -> Service {
    let mut service = Service::start(dir);
    for job in warmup {
        let ticket = service.client.submit(job).expect("warm-up submit");
        service
            .client
            .fetch_fragment(&ticket.job_id)
            .expect("warm-up fetch");
    }
    service
}

fn stat(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

fn latency(v: &Value, phase: &str, field: &str) -> f64 {
    v.get("latency")
        .and_then(|l| l.get(phase))
        .map_or(0.0, |h| stat(h, field))
}

pub fn run(args: &Args, report: &mut Report) {
    let warmup: Vec<PointJob> = jobs(round_seed(args.seed, u64::MAX))
        .into_iter()
        .step_by(5)
        .collect();
    let dir = |name: &str| args.tmp.join(format!("service-grid-{name}"));
    let (service, setup_s) = timed_setup(|| setup(dir("setup"), &warmup));
    drop(service);
    report.set("setup_s", setup_s);

    let (mut submit_us, mut fetch_us) = (Vec::new(), Vec::new());
    let mut rounds = Vec::new();
    let mut layers = Layers::default();
    let mut round0 = None;
    let mut stats = None;
    let window = Instant::now();
    // Traced runs alternate traced and untraced rounds, so they come in
    // pairs.
    while rounds.len() < 2
        || (args.trace && rounds.len() % 2 == 1)
        || window.elapsed().as_secs_f64() < args.seconds
    {
        let index = rounds.len() as u64;
        let jobs = jobs(round_seed(args.seed, index));
        let traced = args.trace && index.is_multiple_of(2);
        // A fresh daemon per round keeps the cache and job table, and so
        // memory, the same size whatever the throughput.
        let mut service = Service::start(dir(&index.to_string()));
        let before = service.stats();
        let cold = pass(&mut service, &jobs, traced);
        let warm = pass(&mut service, &jobs, traced);
        let after = service.stats();
        drop(service);
        stats.get_or_insert((before, after));

        report.attempted += 2 * jobs.len() as u64;
        report.fail(cold.errors + warm.errors, "submit or fetch failed");
        report.fail(
            cold.cached.iter().filter(|&&c| c).count() as u64,
            "cold point was served from the cache",
        );
        report.fail(
            warm.cached.iter().filter(|&&c| !c).count() as u64,
            "warm point was simulated again",
        );
        let cold_fragments: Vec<String> = cold
            .fragments
            .iter()
            .map(|f| f.clone().unwrap_or_default())
            .collect();
        report.fail(
            mismatches(&warm.fragments, &cold_fragments),
            "warm fragment differs from cold fragment",
        );
        if traced {
            layers.traced_s += cold.secs;
        } else if args.trace {
            layers.untraced_s += cold.secs;
        }
        rounds.push(Round {
            cold_points: cold.latency_ms.len() as u64,
            cold_s: cold.secs,
            warm_points: warm.latency_ms.len() as u64,
            warm_s: warm.secs,
            cold_ms: cold.latency_ms,
        });
        submit_us.extend(cold.submit_us.iter().chain(&warm.submit_us));
        fetch_us.extend(cold.fetch_us.iter().chain(&warm.fetch_us));
        round0
            .get_or_insert_with(|| digest_points(cold_fragments.iter().map(String::as_str)).hex());

        // Output check, outside the timed passes: every cold fragment
        // byte-identical to the in-process run of its job.
        let want = in_process(&jobs);
        report.fail(
            mismatches(&cold.fragments, &want),
            "daemon fragment differs from in-process PointJob::run",
        );
        if args.trace && index == 0 {
            let store = crate::layers::fresh_store(&args.tmp, "service-grid-store.jsonl");
            for (job, fragment) in jobs.iter().zip(&want) {
                let outcome = dtn_experiments::PointOutcome::from_wire_json(fragment)
                    .expect("own fragment parses");
                layers.time_codecs(&outcome, crate::layers::key_of(job), &store, report);
            }
        }
    }
    report.info("rounds", rounds.len());
    report.info("round0_digest", round0.expect("at least one round"));

    let reference = in_process(&jobs(REFERENCE_SEED));
    crate::check_reference(
        report,
        "service-grid",
        &digest_points(reference.iter().map(String::as_str)),
    );

    if args.trace {
        // Counts are round 0's; latency histograms are the process-wide
        // ones every daemon of this run shares.
        let (before, end) = stats.expect("round 0 ran");
        let delta = |key| stat(&end, key) - stat(&before, key);
        report.set("service.submit_p50_us", percentile(&mut submit_us, 0.5));
        report.set("service.submit_p90_us", percentile(&mut submit_us, 0.9));
        report.set("service.fetch_p50_us", percentile(&mut fetch_us, 0.5));
        report.set("service.fetch_p90_us", percentile(&mut fetch_us, 0.9));
        report.set(
            "service.queue_wait_p50_us",
            latency(&end, "queue_wait", "p50") * 1e6,
        );
        report.set(
            "service.queue_wait_p90_us",
            latency(&end, "queue_wait", "p90") * 1e6,
        );
        report.set("service.sim_us", latency(&end, "sim", "mean") * 1e6);
        for (name, phase) in [
            ("service.frame_decode_us", "frame_decode"),
            ("service.cache_probe_us", "cache_probe"),
            ("service.serialize_us", "serialize"),
            ("service.write_us", "write"),
        ] {
            report.set(name, latency(&end, phase, "mean") * 1e6);
        }
        report.set(
            "service.worker_utilization",
            stat(&end, "worker_utilization"),
        );
        report.set("service.cache_hits", delta("cache_hits"));
        report.set("service.cache_misses", delta("cache_misses"));
        report.set("service.rejected", delta("rejected"));
        layers.report(report);
    } else {
        set_end_to_end(report, &rounds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_flipped_byte_is_one_mismatch() {
        let want = in_process(&jobs(7)[..4]);
        let mut got: Vec<Option<String>> = want.iter().cloned().map(Some).collect();
        assert_eq!(mismatches(&got, &want), 0);
        let mut bytes = got[2].take().unwrap().into_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        got[2] = Some(String::from_utf8_lossy(&bytes).into_owned());
        assert_eq!(mismatches(&got, &want), 1);
        got[3] = None;
        assert_eq!(mismatches(&got, &want), 2);
    }
}
