//! `geom-rwp-1k`: a cold 1000-node geometric random-waypoint trace per
//! round seed, simulated under pure, immunity and cumulative-immunity
//! epidemic at k = 50.
//!
//! The all-pairs range-crossing loop of the RWP generator does most of
//! the work here, so a change to mobility or trace memory shows on this
//! workload and should leave `paper-grid` flat.

use crate::layers::{self, digest_points, point_outcome, Layers};
use crate::report::{set_end_to_end, timed_setup, Report, Round};
use crate::{round_seed, Args, REFERENCE_SEED};
use dtn_epidemic::{protocols, simulate, RunMetrics, SimConfig, Workload};
use dtn_experiments::{point_sim_config, Mobility, PointJob, SweepConfig, TraceCache, TraceKey};
use dtn_mobility::{ContactTrace, RwpParams};
use dtn_sim::{SimRng, SimTime};
use std::time::Instant;

const NODES: usize = 1000;
const LOAD: u32 = 50;
/// The set-up warm-up trace: big enough that set-up takes tens of
/// milliseconds rather than a sub-millisecond figure noise dominates.
const SETUP_NODES: usize = 150;
/// Cache discriminant for the benchmark's own scenario.
const SCENARIO: u64 = 0x6e0_1000;
const SPECS: [&str; 3] = ["pure", "immunity", "cumulative"];

fn params(nodes: usize) -> RwpParams {
    RwpParams {
        nodes,
        horizon: SimTime::from_secs(20_000),
        ..RwpParams::default()
    }
}

/// One `SimConfig` per protocol, as the sweep runner would set it up.
fn configs() -> Vec<SimConfig> {
    let sweep = SweepConfig::default();
    SPECS
        .iter()
        .map(|spec| {
            let protocol = protocols::from_spec(spec).expect("built-in spec");
            point_sim_config(&protocol, Mobility::GeometricRwp, &sweep)
        })
        .collect()
}

/// The flow and the simulator stream of a round: the same for every
/// protocol, as the sweep runner gives every protocol of a point the same
/// replications.
fn flow_and_rng(seed: u64, node_count: usize) -> (Workload, SimRng) {
    let root = SimRng::new(seed);
    let workload = Workload::single_random_flow(LOAD, node_count, &mut root.derive(1));
    (workload, root.derive(0))
}

fn key(seed: u64, nodes: usize) -> TraceKey {
    TraceKey {
        scenario: SCENARIO ^ nodes as u64,
        seed,
        replication: 0,
    }
}

fn build(seed: u64, nodes: usize) -> ContactTrace {
    params(nodes).generate(&mut SimRng::new(seed))
}

/// One untraced pass: each protocol is a point; the first point of a
/// cold cache pays for the trace build.
fn pass(
    configs: &[SimConfig],
    seed: u64,
    nodes: usize,
    cache: &TraceCache,
    latencies_ms: &mut Vec<f64>,
) -> Vec<RunMetrics> {
    let mut results = Vec::new();
    for config in configs {
        let started = Instant::now();
        let trace = cache.get_or_build(key(seed, nodes), || build(seed, nodes));
        let (workload, rng) = flow_and_rng(seed, trace.node_count());
        results.push(simulate(&trace, &workload, config, rng));
        latencies_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    results
}

fn traced_pass(configs: &[SimConfig], seed: u64, layers: &mut Layers) -> Vec<RunMetrics> {
    let cache = TraceCache::new();
    let mut results = Vec::new();
    let started = Instant::now();
    for config in configs {
        let trace = layers.build_cached(&cache, key(seed, NODES), || build(seed, NODES));
        let (workload, rng) = flow_and_rng(seed, trace.node_count());
        results.push(layers.simulate(&trace, &workload, config, rng));
    }
    layers.traced_s += started.elapsed().as_secs_f64();
    layers.end_round();
    layers.time_cache_probes(&cache, key(seed, NODES), 100_000);
    results
}

fn fragments(results: &[RunMetrics]) -> Vec<String> {
    results
        .iter()
        .map(|m| point_outcome(std::slice::from_ref(m)).to_wire_json())
        .collect()
}

pub fn run(args: &Args, report: &mut Report) {
    // Set-up: protocol configs and a warm-up pass on a smaller trace.
    let warmup_seed = round_seed(args.seed, u64::MAX);
    let (configs, setup_s) = timed_setup(|| {
        let configs = configs();
        let warmup = pass(
            &configs,
            warmup_seed,
            SETUP_NODES,
            &TraceCache::new(),
            &mut Vec::new(),
        );
        std::hint::black_box(warmup);
        configs
    });
    report.set("setup_s", setup_s);
    let points = configs.len() as u64;

    let mut rounds = Vec::new();
    let mut layers = Layers::default();
    let mut round0 = None;
    let window = Instant::now();
    while rounds.len() < 2 || window.elapsed().as_secs_f64() < args.seconds {
        let index = rounds.len() as u64;
        let seed = round_seed(args.seed, index);
        let traced_first = args.trace && index % 2 == 1;
        let traced_before = traced_first.then(|| traced_pass(&configs, seed, &mut layers));
        let mut round = Round {
            cold_points: points,
            ..Round::default()
        };
        let cache = TraceCache::new();
        let started = Instant::now();
        let cold = pass(&configs, seed, NODES, &cache, &mut round.cold_ms);
        round.cold_s = started.elapsed().as_secs_f64();
        let cold = fragments(&cold);
        let (second, what) = if args.trace {
            drop(cache);
            layers.untraced_s += round.cold_s;
            let traced = traced_before.unwrap_or_else(|| traced_pass(&configs, seed, &mut layers));
            (
                fragments(&traced),
                "traced point differs from untraced point",
            )
        } else {
            let started = Instant::now();
            let warm = pass(&configs, seed, NODES, &cache, &mut Vec::new());
            round.warm_s = started.elapsed().as_secs_f64();
            round.warm_points = points;
            (fragments(&warm), "warm point differs from cold point")
        };
        report.attempted += 2 * points;
        let mismatched = cold.iter().zip(&second).filter(|(a, b)| a != b).count();
        report.fail(mismatched as u64, what);
        round0.get_or_insert_with(|| digest_points(cold.iter().map(String::as_str)).hex());
        rounds.push(round);
    }
    report.info("rounds", rounds.len());
    report.info("round0_digest", round0.expect("at least one round"));

    // Output check: the reference seed's round against its pinned digest.
    let cache = TraceCache::new();
    let reference = fragments(&pass(
        &configs,
        REFERENCE_SEED,
        NODES,
        &cache,
        &mut Vec::new(),
    ));
    crate::check_reference(
        report,
        "geom-rwp-1k",
        &digest_points(reference.iter().map(String::as_str)),
    );

    if args.trace {
        let store = layers::fresh_store(&args.tmp, "geom-rwp-1k-store.jsonl");
        let sweep = SweepConfig {
            base_seed: REFERENCE_SEED,
            replications: 1,
            ..SweepConfig::default()
        };
        for (spec, fragment) in SPECS.iter().zip(&reference) {
            let outcome =
                dtn_experiments::PointOutcome::from_wire_json(fragment).expect("own fragment");
            let job = PointJob::from_sweep(*spec, Mobility::GeometricRwp, LOAD, &sweep);
            layers.time_codecs(&outcome, layers::key_of(&job), &store, report);
        }
        let trace = cache.get_or_build(key(REFERENCE_SEED, NODES), || unreachable!("built"));
        layers.time_event_queue(&trace, report);
        layers.report(report);
        layers::no_daemon(report);
    } else {
        set_end_to_end(report, &rounds);
    }
}
