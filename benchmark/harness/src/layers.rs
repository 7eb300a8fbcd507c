//! Per-layer measurement from outside: a benchmark-owned [`Probe`], and
//! timed calls into each layer's public functions.

use crate::report::{percentile, ratio, Digest, Report};
use dtn_epidemic::{
    simulate_probed, AuditMode, AuditProbe, Event, FanoutProbe, Probe, RunMetrics, SimConfig,
    Workload,
};
use dtn_experiments::jobs::{PointOutcome, RunOutcome};
use dtn_mobility::{Contact, ContactTrace, TraceCache, TraceKey};
use dtn_service::{job_key, wire, ResultStore};
use dtn_sim::{EventQueue, SimRng};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Host time spent inside contact sessions (ContactBegin → ContactEnd)
/// and event counts by kind.
#[derive(Default)]
pub struct BenchProbe {
    open: Option<Instant>,
    session_ns: u128,
    sessions: u64,
    idle_sessions: u64,
    transmits: u64,
    delivers: u64,
    events: u64,
}

impl Probe for BenchProbe {
    fn record(&mut self, event: &Event) {
        self.events += 1;
        match *event {
            Event::ContactBegin { .. } => self.open = Some(Instant::now()),
            Event::ContactEnd { slots_used, .. } => {
                if let Some(begun) = self.open.take() {
                    self.session_ns += begun.elapsed().as_nanos();
                }
                self.sessions += 1;
                self.idle_sessions += u64::from(slots_used == 0);
            }
            Event::Transmit { .. } => self.transmits += 1,
            Event::Deliver { .. } => self.delivers += 1,
            _ => {}
        }
    }
}

/// What the traced runs of one round (or of every round) added up to.
#[derive(Clone, Default)]
pub struct Counts {
    pub builds: u64,
    pub contacts_built: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub runs: u64,
    pub contacts: u64,
    pub transmissions: u64,
    pub deliveries: u64,
    pub evictions: u64,
    pub expirations: u64,
    pub rejections: u64,
    pub immunity_purges: u64,
    pub ack_records: u64,
    pub signaling_bytes: u64,
    pub false_positive_tx: u64,
    pub probe_events: u64,
    pub sessions: u64,
    pub idle_sessions: u64,
}

impl Counts {
    fn add_run(&mut self, m: &RunMetrics, probe: &BenchProbe) {
        self.runs += 1;
        self.contacts += m.contacts_processed;
        self.transmissions += m.bundle_transmissions;
        self.deliveries += u64::from(m.delivered);
        self.evictions += m.evictions;
        self.expirations += m.expirations;
        self.rejections += m.rejections;
        self.immunity_purges += m.immunity_purges;
        self.ack_records += m.ack_records_sent;
        self.signaling_bytes += m.signaling_bytes;
        self.false_positive_tx += m.false_positive_transmissions;
        self.probe_events += probe.events;
        self.sessions += probe.sessions;
        self.idle_sessions += probe.idle_sessions;
    }
}

/// Per-layer accumulator for the traced passes of one run. Exact counts
/// are kept for the first traced round only (`first`), so they depend on
/// the seed and never on how many rounds fit in the window; times and
/// rates cover every traced round.
#[derive(Default)]
pub struct Layers {
    pub first: Option<Counts>,
    pub round: Counts,
    pub all_contacts: u64,
    pub all_contacts_built: u64,
    pub build_s: f64,
    pub build_miss_s: f64,
    pub cache_probe_ns: Vec<f64>,
    pub queue_ns: f64,
    pub queue_events: u64,
    pub simulate_us: Vec<f64>,
    pub session_s: f64,
    pub violations: u64,
    pub mismatches: u64,
    pub aggregate_us: Vec<f64>,
    pub report_s: f64,
    pub wire_json_us: Vec<f64>,
    pub wire_frame_us: Vec<f64>,
    pub store_insert_us: Vec<f64>,
    pub store_lookup_us: Vec<f64>,
    pub traced_s: f64,
    pub untraced_s: f64,
}

impl Layers {
    /// Fetch a trace through the cache, timing the mobility layer.
    pub fn build_cached<F>(
        &mut self,
        cache: &TraceCache,
        key: TraceKey,
        build: F,
    ) -> std::sync::Arc<ContactTrace>
    where
        F: FnOnce() -> ContactTrace,
    {
        let (_, misses) = cache.stats();
        let started = Instant::now();
        let trace = cache.get_or_build(key, build);
        let took = started.elapsed().as_secs_f64();
        self.build_s += took;
        if cache.stats().1 > misses {
            self.build_miss_s += took;
            self.round.builds += 1;
            self.round.contacts_built += trace.len() as u64;
            self.round.cache_misses += 1;
        } else {
            self.round.cache_hits += 1;
        }
        trace
    }

    /// One replication under the benchmark probe fanned out with the
    /// auditor in `Record` mode. Probes never perturb the simulation, so
    /// the metrics equal the untraced run's.
    pub fn simulate(
        &mut self,
        trace: &ContactTrace,
        workload: &Workload,
        config: &SimConfig,
        rng: SimRng,
    ) -> RunMetrics {
        let audit = AuditProbe::new(workload, config, trace.node_count(), AuditMode::Record);
        let mut probe = FanoutProbe::new(BenchProbe::default(), audit);
        let started = Instant::now();
        let metrics = simulate_probed(trace, workload, config, rng, &mut probe);
        self.simulate_us.push(started.elapsed().as_secs_f64() * 1e6);
        let (bench, audit) = probe.into_parts();
        self.session_s += bench.session_ns as f64 * 1e-9;
        self.violations += audit.total_violations();
        // The event stream and the metrics must tell the same story.
        self.mismatches += u64::from(bench.transmits != metrics.bundle_transmissions)
            + u64::from(bench.delivers != u64::from(metrics.delivered));
        self.round.add_run(&metrics, &bench);
        metrics
    }

    /// Close a traced round: keep its counts if it was the first, and
    /// add its contacts to the all-rounds totals.
    pub fn end_round(&mut self) {
        let round = std::mem::take(&mut self.round);
        if self.first.is_none() {
            self.first = Some(round.clone());
        }
        self.all_contacts += round.contacts;
        self.all_contacts_built += round.contacts_built;
    }

    /// Batched cache probes: `n` hits on a key the cache already holds.
    pub fn time_cache_probes(&mut self, cache: &TraceCache, key: TraceKey, n: u32) {
        let started = Instant::now();
        for _ in 0..n {
            black_box(cache.get_or_build(black_box(key), || unreachable!("key is cached")));
        }
        self.cache_probe_ns
            .push(started.elapsed().as_secs_f64() * 1e9 / f64::from(n));
    }

    /// Schedule every contact start of `trace` through the engine's
    /// event queue and pop them all back, in time order.
    pub fn time_event_queue(&mut self, trace: &ContactTrace, report: &mut Report) {
        let started = Instant::now();
        let mut queue = EventQueue::with_capacity(trace.len());
        for (i, c) in trace.contacts().iter().enumerate() {
            queue.schedule(c.start, i as u32);
        }
        let mut last = None;
        let mut popped = 0u64;
        while let Some((t, i)) = queue.pop() {
            if last.is_some_and(|l| t < l) {
                report.fail(1, "event queue popped out of time order");
            }
            last = Some(t);
            black_box(i);
            popped += 1;
        }
        self.queue_ns += started.elapsed().as_secs_f64() * 1e9;
        self.queue_events += popped;
        report.fail(
            (trace.len() as u64).abs_diff(popped),
            "event queue lost or invented events",
        );
    }

    /// Round-trip one point through the wire JSON codec, the frame codec
    /// and a journal-backed result store, checking each returns what it
    /// was given. `store` must be fresh for each distinct key set.
    pub fn time_codecs(
        &mut self,
        outcome: &PointOutcome,
        key: String,
        store: &ResultStore,
        report: &mut Report,
    ) {
        let started = Instant::now();
        let fragment = outcome.to_wire_json();
        let decoded = PointOutcome::from_wire_json(&fragment);
        self.wire_json_us
            .push(started.elapsed().as_secs_f64() * 1e6);
        if decoded.as_ref() != Ok(outcome) {
            report.fail(1, "PointOutcome wire JSON did not round-trip");
        }

        let started = Instant::now();
        let mut buf = Vec::with_capacity(fragment.len() + 8);
        let framed = wire::write_frame(&mut buf, &fragment)
            .and_then(|()| wire::read_frame(&mut buf.as_slice()));
        self.wire_frame_us
            .push(started.elapsed().as_secs_f64() * 1e6);
        if framed.ok().flatten().as_deref() != Some(fragment.as_str()) {
            report.fail(1, "wire frame did not round-trip");
        }

        let started = Instant::now();
        store.insert(key.clone(), fragment.clone());
        self.store_insert_us
            .push(started.elapsed().as_secs_f64() * 1e6);
        let started = Instant::now();
        let found = store.lookup(&key);
        self.store_lookup_us
            .push(started.elapsed().as_secs_f64() * 1e6);
        if found.as_deref() != Some(fragment.as_str()) {
            report.fail(
                1,
                "result store lookup did not return the inserted fragment",
            );
        }
    }

    /// Set every per-layer metric the simulator-side layers produce.
    pub fn report(mut self, report: &mut Report) {
        report.fail(self.violations, "audit violations in traced runs");
        report.fail(
            self.mismatches,
            "probe transmit or deliver events disagree with RunMetrics",
        );
        let first = self.first.clone().unwrap_or_default();
        let simulate_s: f64 = self.simulate_us.iter().sum::<f64>() * 1e-6;
        report.set("mobility.build_s", self.build_s);
        report.set("mobility.builds", first.builds as f64);
        report.set("mobility.contacts_built", first.contacts_built as f64);
        report.set(
            "mobility.build_contacts_per_s",
            ratio(self.all_contacts_built as f64, self.build_miss_s),
        );
        report.set(
            "mobility.trace_mb",
            (first.contacts_built * std::mem::size_of::<Contact>() as u64) as f64 / 1e6,
        );
        report.set("mobility.cache_hits", first.cache_hits as f64);
        report.set("mobility.cache_misses", first.cache_misses as f64);
        report.set(
            "mobility.cache_hit_ratio",
            ratio(
                first.cache_hits as f64,
                (first.cache_hits + first.cache_misses) as f64,
            ),
        );
        report.set(
            "mobility.cache_probe_ns",
            crate::report::median(&mut self.cache_probe_ns),
        );
        report.set(
            "sim.queue_ns_per_event",
            ratio(self.queue_ns, self.queue_events as f64),
        );
        report.set("core.simulate_s", simulate_s);
        report.set(
            "core.simulate_p50_us",
            percentile(&mut self.simulate_us, 0.5),
        );
        report.set(
            "core.simulate_p90_us",
            percentile(&mut self.simulate_us, 0.9),
        );
        report.set("core.runs", first.runs as f64);
        report.set("core.contacts", first.contacts as f64);
        report.set(
            "core.ns_per_contact",
            ratio(simulate_s * 1e9, self.all_contacts as f64),
        );
        report.set("core.session_s", self.session_s);
        report.set("core.engine_s", simulate_s - self.session_s);
        report.set("core.transmissions", first.transmissions as f64);
        report.set("core.deliveries", first.deliveries as f64);
        report.set("core.evictions", first.evictions as f64);
        report.set("core.expirations", first.expirations as f64);
        report.set("core.rejections", first.rejections as f64);
        report.set("core.immunity_purges", first.immunity_purges as f64);
        report.set("core.ack_records", first.ack_records as f64);
        report.set("core.signaling_bytes", first.signaling_bytes as f64);
        report.set("core.false_positive_tx", first.false_positive_tx as f64);
        report.set("core.probe_events", first.probe_events as f64);
        report.set(
            "core.useful_tx_ratio",
            ratio(first.deliveries as f64, first.transmissions as f64),
        );
        report.set(
            "core.idle_session_ratio",
            ratio(first.idle_sessions as f64, first.sessions as f64),
        );
        report.set("experiments.aggregate_us", mean(&self.aggregate_us));
        report.set("experiments.report_s", self.report_s);
        report.set("experiments.wire_json_us", mean(&self.wire_json_us));
        report.set("service.wire_frame_us", mean(&self.wire_frame_us));
        report.set("service.store_insert_us", mean(&self.store_insert_us));
        report.set("service.store_lookup_us", mean(&self.store_lookup_us));
        report.set("bench.traced_s", self.traced_s);
        report.set(
            "bench.trace_overhead_pct",
            (ratio(self.traced_s, self.untraced_s) - 1.0) * 100.0,
        );
    }
}

pub fn mean(xs: &[f64]) -> f64 {
    ratio(xs.iter().sum(), xs.len() as f64)
}

/// A sweep point's replications as the service wire format carries them.
pub fn point_outcome(runs: &[RunMetrics]) -> PointOutcome {
    PointOutcome {
        outcomes: runs.iter().map(|m| RunOutcome::Ok(*m)).collect(),
        attempts: vec![1; runs.len()],
        violations: Vec::new(),
        slow: 0,
    }
}

/// Digest of a sequence of points: each point's wire fragment, in order.
/// The fragment holds every `RunMetrics` field, f64s as bit patterns.
pub fn digest_points<'a>(fragments: impl IntoIterator<Item = &'a str>) -> Digest {
    let mut d = Digest::default();
    for f in fragments {
        d.add(f.as_bytes());
    }
    d
}

/// A fresh journal-backed result store under `dir` (the old journal, if
/// any, is removed first so lookups see only this round's inserts).
pub fn fresh_store(dir: &Path, name: &str) -> ResultStore {
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    ResultStore::open(&path)
}

/// The content address the service layer would file `job` under.
pub fn key_of(job: &dtn_experiments::PointJob) -> String {
    job_key(&job.to_canonical_json())
}

/// Service-layer metrics that only a daemon produces: 0 on workloads
/// that drive no daemon.
pub fn no_daemon(report: &mut Report) {
    for name in [
        "service.submit_p50_us",
        "service.submit_p90_us",
        "service.fetch_p50_us",
        "service.fetch_p90_us",
        "service.queue_wait_p50_us",
        "service.queue_wait_p90_us",
        "service.sim_us",
        "service.frame_decode_us",
        "service.cache_probe_us",
        "service.serialize_us",
        "service.write_us",
        "service.worker_utilization",
        "service.cache_hits",
        "service.cache_misses",
        "service.rejected",
    ] {
        report.set(name, 0.0);
    }
}
