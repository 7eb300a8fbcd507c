//! Metric names, units and the result record.
//!
//! Every metric the harness can print is declared once here, with its
//! unit. A workload sets metrics by name only, so one name can never
//! carry two units (or two meanings) across workloads.

use std::time::Instant;

/// End-to-end metrics, printed by every untraced run of every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("points_per_s", "1/s"),
    ("point_p50_ms", "ms"),
    ("point_p90_ms", "ms"),
    ("warm_points_per_s", "1/s"),
];

/// Per-layer metrics, printed by every traced run of every workload. A
/// layer a workload does not drive reports 0 (no samples); see
/// `benchmark/README.md` for which workload drives which layer.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("mobility.build_s", "s"),
    ("mobility.builds", "count"),
    ("mobility.contacts_built", "count"),
    ("mobility.build_contacts_per_s", "1/s"),
    ("mobility.trace_mb", "MB"),
    ("mobility.cache_hits", "count"),
    ("mobility.cache_misses", "count"),
    ("mobility.cache_hit_ratio", "ratio"),
    ("mobility.cache_probe_ns", "ns"),
    ("sim.queue_ns_per_event", "ns"),
    ("core.simulate_s", "s"),
    ("core.simulate_p50_us", "us"),
    ("core.simulate_p90_us", "us"),
    ("core.runs", "count"),
    ("core.contacts", "count"),
    ("core.ns_per_contact", "ns"),
    ("core.session_s", "s"),
    ("core.engine_s", "s"),
    ("core.transmissions", "count"),
    ("core.deliveries", "count"),
    ("core.evictions", "count"),
    ("core.expirations", "count"),
    ("core.rejections", "count"),
    ("core.immunity_purges", "count"),
    ("core.ack_records", "count"),
    ("core.signaling_bytes", "count"),
    ("core.false_positive_tx", "count"),
    ("core.probe_events", "count"),
    ("core.useful_tx_ratio", "ratio"),
    ("core.idle_session_ratio", "ratio"),
    ("experiments.aggregate_us", "us"),
    ("experiments.report_s", "s"),
    ("experiments.wire_json_us", "us"),
    ("service.submit_p50_us", "us"),
    ("service.submit_p90_us", "us"),
    ("service.fetch_p50_us", "us"),
    ("service.fetch_p90_us", "us"),
    ("service.queue_wait_p50_us", "us"),
    ("service.queue_wait_p90_us", "us"),
    ("service.sim_us", "us"),
    ("service.frame_decode_us", "us"),
    ("service.cache_probe_us", "us"),
    ("service.serialize_us", "us"),
    ("service.write_us", "us"),
    ("service.wire_frame_us", "us"),
    ("service.store_insert_us", "us"),
    ("service.store_lookup_us", "us"),
    ("service.worker_utilization", "ratio"),
    ("service.cache_hits", "count"),
    ("service.cache_misses", "count"),
    ("service.rejected", "count"),
    ("bench.traced_s", "s"),
    ("bench.trace_overhead_pct", "%"),
];

/// What one workload run produced: metrics by name, the failure
/// accounting, and free-form facts for the info line.
pub struct Report {
    trace: bool,
    metrics: Vec<(&'static str, f64)>,
    /// Points attempted (cold and warm passes, every round).
    pub attempted: u64,
    /// Points that failed, were refused, panicked, or whose output did
    /// not match its reference; plus audit violations and reference
    /// digest mismatches.
    pub failed: u64,
    info: Vec<(String, String)>,
}

impl Report {
    pub fn new(trace: bool) -> Report {
        Report {
            trace,
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            info: Vec::new(),
        }
    }

    fn table(&self) -> &'static [(&'static str, &'static str)] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Set a metric of this run's kind (end-to-end when untraced,
    /// per-layer when traced). Setting a name of the other kind is a
    /// no-op, so shared code may set both.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let known = END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name);
        assert!(known, "metric {name} is not declared in report.rs");
        if !self.table().iter().any(|(n, _)| *n == name) {
            return;
        }
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    /// Record a fact for the info line (digests, sample counts, rounds).
    pub fn info(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_string(), value.to_string()));
    }

    /// Count `n` failures, noting why on stderr.
    pub fn fail(&mut self, n: u64, why: &str) {
        if n > 0 {
            eprintln!("perfbench: {n} failure(s): {why}");
            self.failed += n;
        }
    }

    /// Print the info line and then the result line (always last).
    pub fn print(mut self, workload: &str, seed: u64) {
        // A metric the workload forgot is a harness bug, not a zero.
        for (name, _) in self.table() {
            assert!(
                self.metrics.iter().any(|(n, _)| n == name),
                "workload {workload} did not set metric {name}"
            );
        }
        self.info("workload", workload);
        self.info("seed", seed);
        let info: Vec<String> = self
            .info
            .iter()
            .map(|(k, v)| format!("\"{k}\":\"{v}\""))
            .collect();
        println!("{{\"info\":{{{}}}}}", info.join(","));
        let metrics: Vec<String> = self
            .table()
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.iter().find(|(n, _)| n == name).unwrap().1;
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        );
    }
}

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 25;

/// Run a workload's set-up `SETUP_REPS` times, each from scratch (the
/// previous result is dropped first), and return the last result with
/// the median set-up time.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let started = Instant::now();
        kept = Some(setup());
        times.push(started.elapsed().as_secs_f64());
    }
    (kept.expect("SETUP_REPS > 0"), median(&mut times))
}

/// The timed passes of one round.
#[derive(Clone, Default)]
pub struct Round {
    pub cold_points: u64,
    pub cold_s: f64,
    pub warm_points: u64,
    pub warm_s: f64,
    /// Host time of each cold point, in input order.
    pub cold_ms: Vec<f64>,
}

/// Set the end-to-end metrics other than `setup_s`.
///
/// Other tenants of a shared host change its speed in phases of seconds:
/// mostly a steady pace, with bursts of a third or more faster that can
/// cover much of a run. So each figure is taken at the slower quartile
/// over the run's rounds, which such bursts move only once they cover
/// three quarters of the run. Throughputs are the lower quartile of the
/// rounds' rates. For latency, each point of the grid (its position in
/// the round) takes the upper quartile of its times over the rounds, and
/// the percentiles are over those.
pub fn set_end_to_end(report: &mut Report, rounds: &[Round]) {
    let mut cold: Vec<f64> = rounds
        .iter()
        .map(|r| ratio(r.cold_points as f64, r.cold_s))
        .collect();
    let mut warm: Vec<f64> = rounds
        .iter()
        .map(|r| ratio(r.warm_points as f64, r.warm_s))
        .collect();
    report.set("points_per_s", percentile(&mut cold, 0.25));
    report.set("warm_points_per_s", percentile(&mut warm, 0.25));
    let positions = rounds.iter().map(|r| r.cold_ms.len()).min().unwrap_or(0);
    let mut point_ms: Vec<f64> = (0..positions)
        .map(|i| {
            let mut times: Vec<f64> = rounds.iter().map(|r| r.cold_ms[i]).collect();
            percentile(&mut times, 0.75)
        })
        .collect();
    report.info("point_samples", point_ms.len());
    report.set("point_p50_ms", percentile(&mut point_ms, 0.5));
    report.set("point_p90_ms", percentile(&mut point_ms, 0.9));
    report.set(
        "peak_rss_mb",
        dtn_experiments::peak_rss_bytes().unwrap_or(0) as f64 / 1e6,
    );
}

/// Percentile of `samples` (which it sorts), interpolating linearly
/// between the two nearest ranks; 0 when empty.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let h = q * (samples.len() - 1) as f64;
    let (lo, hi) = (h.floor() as usize, h.ceil() as usize);
    samples[lo] + (samples[hi] - samples[lo]) * (h - lo as f64)
}

/// The median of `samples`; 0 when empty.
pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 0.5)
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// FNV-1a 64 over a sequence of byte strings, each terminated so that
/// `["ab", "c"]` and `["a", "bc"]` differ.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(&[0xff]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The digest pinned for `workload` at the reference seed.
pub fn pinned_digest(workload: &str) -> Option<&'static str> {
    include_str!("../../pinned_digests.txt")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .find(|(w, _)| *w == workload)
        .map(|(_, d)| d.trim())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_declared_once_with_one_unit() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is declared twice");
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let mut xs: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut xs, 0.5), 50.0);
        assert_eq!(percentile(&mut xs, 0.9), 90.0);
        assert_eq!(percentile(&mut [1.0, 2.0], 0.5), 1.5);
        assert_eq!(percentile(&mut [], 0.9), 0.0);
    }

    #[test]
    fn end_to_end_figures_are_the_slower_quartile_over_rounds() {
        let round = |secs: f64| Round {
            cold_points: 10,
            cold_s: secs,
            warm_points: 20,
            warm_s: secs,
            cold_ms: vec![secs, 4.0 * secs],
        };
        // One round of five ran at twice the pace: a burst.
        let rounds = [round(1.0), round(1.0), round(0.5), round(1.0), round(1.0)];
        let mut report = Report::new(false);
        set_end_to_end(&mut report, &rounds);
        let metric = |name| report.metrics.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(metric("points_per_s"), 10.0);
        assert_eq!(metric("warm_points_per_s"), 20.0);
        assert_eq!(metric("point_p50_ms"), 2.5);
        assert_eq!(metric("point_p90_ms"), 3.7);
    }

    #[test]
    fn digest_separates_fields() {
        let mut a = Digest::default();
        a.add(b"ab");
        a.add(b"c");
        let mut b = Digest::default();
        b.add(b"a");
        b.add(b"bc");
        assert_ne!(a, b);
    }
}
