//! `paper-grid`: the paper's evaluation as `repro` runs it.
//!
//! 12 protocols (the paper's eight plus the Bloom family) × {trace, rwp}
//! × loads 5..50 × 10 replications, sequential, one fresh `TraceCache`
//! per round seed shared across protocols as `build_figure` shares it.
//! Sessions, buffers and immunity do nearly all the work; trace builds
//! are a few percent, so an engine or session change shows here while
//! trace generation stays almost unused.

use crate::layers::{self, digest_points, point_outcome, Layers};
use crate::report::{set_end_to_end, timed_setup, Report, Round};
use crate::{round_seed, Args, REFERENCE_SEED};
use dtn_epidemic::{protocols, ProtocolConfig, RunMetrics, Workload};
use dtn_experiments::{
    aggregate_point, point_sim_config, run_point_raw_cached, Mobility, PointJob, PointOutcome,
    SweepConfig, SweepReport, TraceCache,
};
use dtn_sim::{SimRng, Threads};
use std::time::Instant;

const MOBILITIES: [Mobility; 2] = [Mobility::Trace, Mobility::Rwp];

struct Grid {
    protocols: Vec<ProtocolConfig>,
    specs: [&'static str; 12],
}

impl Grid {
    fn new() -> Grid {
        Grid {
            protocols: protocols::spec_protocols(),
            specs: protocols::ALL_SPECS,
        }
    }

    /// Every (protocol index, mobility, load) of one round, in the order
    /// a figure regeneration visits them.
    fn points(&self, cfg: &SweepConfig) -> Vec<(usize, Mobility, u32)> {
        let mut points = Vec::new();
        for mobility in MOBILITIES {
            for p in 0..self.protocols.len() {
                for &load in &cfg.loads {
                    points.push((p, mobility, load));
                }
            }
        }
        points
    }
}

fn sweep_config(base_seed: u64) -> SweepConfig {
    SweepConfig {
        base_seed,
        threads: Threads::Sequential,
        ..SweepConfig::default()
    }
}

/// One untraced pass over a round's points through the sweep runner;
/// returns each point's replications and appends per-point host times.
fn pass(
    grid: &Grid,
    cfg: &SweepConfig,
    cache: &TraceCache,
    latencies_ms: &mut Vec<f64>,
) -> Vec<Vec<RunMetrics>> {
    let mut results = Vec::new();
    for (p, mobility, load) in grid.points(cfg) {
        let started = Instant::now();
        let runs = run_point_raw_cached(&grid.protocols[p], mobility, load, cfg, cache);
        latencies_ms.push(started.elapsed().as_secs_f64() * 1e3);
        results.push(runs);
    }
    results
}

/// Each point's wire fragment, the form outputs are compared in.
fn fragments(results: &[Vec<RunMetrics>]) -> Vec<String> {
    results
        .iter()
        .map(|runs| point_outcome(runs).to_wire_json())
        .collect()
}

/// One traced pass: the runner's replication loop with the trace build,
/// each simulation, aggregation and reporting timed separately. Seeding
/// follows `run_point_raw_cached`, so the fragments must equal `pass`'s.
fn traced_pass(grid: &Grid, cfg: &SweepConfig, layers: &mut Layers) -> Vec<String> {
    let cache = TraceCache::new();
    let mut results: Vec<Vec<RunMetrics>> = Vec::new();
    let mut aggregate_us = Vec::new();
    let started = Instant::now();
    for (p, mobility, load) in grid.points(cfg) {
        let sim_config = point_sim_config(&grid.protocols[p], mobility, cfg);
        let root = SimRng::new(cfg.base_seed ^ (load as u64) << 32);
        let mut runs = Vec::with_capacity(cfg.replications);
        for rep in 0..cfg.replications as u64 {
            let mut wl_rng = root.derive(rep * 2 + 1);
            let key = dtn_experiments::TraceKey {
                scenario: mobility.cache_key(),
                seed: cfg.base_seed,
                replication: if mobility == Mobility::Trace { 0 } else { rep },
            };
            let trace = layers.build_cached(&cache, key, || mobility.build(cfg.base_seed, rep));
            let workload = Workload::single_random_flow(load, trace.node_count(), &mut wl_rng);
            runs.push(layers.simulate(&trace, &workload, &sim_config, root.derive(rep * 2)));
        }
        let t = Instant::now();
        std::hint::black_box(aggregate_point(load, &runs));
        aggregate_us.push(t.elapsed().as_secs_f64() * 1e6);
        results.push(runs);
    }
    // The untraced runner neither aggregates nor reports, so the paired
    // overhead compares the passes without that work.
    layers.traced_s += started.elapsed().as_secs_f64() - aggregate_us.iter().sum::<f64>() * 1e-6;
    let t = Instant::now();
    let mut sweep_report = SweepReport::new("paper-grid");
    for ((p, mobility, load), runs) in grid.points(cfg).into_iter().zip(&results) {
        sweep_report.record_point(grid.protocols[p].name, &mobility.label(), load, runs);
    }
    sweep_report.record_cache(cache.stats());
    std::hint::black_box(sweep_report.to_json());
    layers.report_s += t.elapsed().as_secs_f64();
    layers.aggregate_us.extend(aggregate_us);
    layers.end_round();

    // Micro-measurements on this round's real data, outside the pass.
    let rwp0 = dtn_experiments::TraceKey {
        scenario: Mobility::Rwp.cache_key(),
        seed: cfg.base_seed,
        replication: 0,
    };
    layers.time_cache_probes(&cache, rwp0, 100_000);
    fragments(&results)
}

/// Set-up: protocol table, sweep config, a fresh trace cache, and one
/// untimed warm-up point per mobility (which builds a seed's traces).
fn setup(seed: u64) -> Grid {
    let grid = Grid::new();
    let cfg = sweep_config(seed);
    let cache = TraceCache::new();
    for mobility in MOBILITIES {
        std::hint::black_box(run_point_raw_cached(
            &grid.protocols[0],
            mobility,
            cfg.loads[0],
            &cfg,
            &cache,
        ));
    }
    grid
}

pub fn run(args: &Args, report: &mut Report) {
    let (grid, setup_s) = timed_setup(|| setup(round_seed(args.seed, u64::MAX)));
    report.set("setup_s", setup_s);
    let points_per_round = grid.points(&sweep_config(0)).len() as u64;

    let mut rounds = Vec::new();
    let mut layers = Layers::default();
    let mut round0 = None;
    let window = Instant::now();
    while rounds.len() < 2 || window.elapsed().as_secs_f64() < args.seconds {
        let index = rounds.len() as u64;
        let cfg = sweep_config(round_seed(args.seed, index));
        // Traced and untraced passes over the same inputs, in alternating
        // order, give a paired overhead measurement.
        let traced_first = args.trace && index % 2 == 1;
        let traced_before = traced_first.then(|| traced_pass(&grid, &cfg, &mut layers));
        let mut round = Round {
            cold_points: points_per_round,
            ..Round::default()
        };
        let cache = TraceCache::new();
        let started = Instant::now();
        let cold = pass(&grid, &cfg, &cache, &mut round.cold_ms);
        round.cold_s = started.elapsed().as_secs_f64();
        let cold = fragments(&cold);
        let (second, what) = if args.trace {
            layers.untraced_s += round.cold_s;
            let traced = traced_before.unwrap_or_else(|| traced_pass(&grid, &cfg, &mut layers));
            (traced, "traced point differs from untraced point")
        } else {
            let started = Instant::now();
            let warm = pass(&grid, &cfg, &cache, &mut Vec::new());
            round.warm_s = started.elapsed().as_secs_f64();
            round.warm_points = points_per_round;
            (fragments(&warm), "warm point differs from cold point")
        };
        report.attempted += 2 * points_per_round;
        let mismatched = cold.iter().zip(&second).filter(|(a, b)| a != b).count();
        report.fail(mismatched as u64, what);
        round0.get_or_insert_with(|| digest_points(cold.iter().map(String::as_str)).hex());
        rounds.push(round);
    }
    report.info("rounds", rounds.len());
    report.info("round0_digest", round0.expect("at least one round"));

    // Output check: the reference seed's round against its pinned digest.
    let cfg = sweep_config(REFERENCE_SEED);
    let cache = TraceCache::new();
    let reference = fragments(&pass(&grid, &cfg, &cache, &mut Vec::new()));
    crate::check_reference(
        report,
        "paper-grid",
        &digest_points(reference.iter().map(String::as_str)),
    );

    if args.trace {
        codec_and_queue_layers(&grid, &cfg, &cache, &reference, &mut layers, args, report);
        layers.report(report);
        layers::no_daemon(report);
    } else {
        set_end_to_end(report, &rounds);
    }
}

/// Codec, store and event-queue layers, timed on the reference round's
/// real points and traces.
fn codec_and_queue_layers(
    grid: &Grid,
    cfg: &SweepConfig,
    cache: &TraceCache,
    fragments: &[String],
    layers: &mut Layers,
    args: &Args,
    report: &mut Report,
) {
    let store = layers::fresh_store(&args.tmp, "paper-grid-store.jsonl");
    for ((p, mobility, load), fragment) in grid.points(cfg).into_iter().zip(fragments) {
        let outcome = PointOutcome::from_wire_json(fragment).expect("own fragment parses");
        let job = PointJob::from_sweep(grid.specs[p], mobility, load, cfg);
        layers.time_codecs(&outcome, layers::key_of(&job), &store, report);
    }
    for mobility in MOBILITIES {
        let trace = mobility.build_cached(cfg.base_seed, 1, cache);
        layers.time_event_queue(&trace, report);
    }
}
