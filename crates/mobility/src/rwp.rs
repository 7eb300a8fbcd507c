//! Classic geometric Random Way Point (RWP) mobility with analytic contact
//! detection.
//!
//! The paper's second evaluation scenario moves nodes by RWP (Bai et al.,
//! its reference \[9\]). This module implements the textbook model: each node
//! repeatedly (i) picks a uniform waypoint in a square area, (ii) travels to
//! it in a straight line at a uniformly drawn speed, and (iii) pauses for a
//! uniformly drawn time. Two nodes are in contact while their distance is
//! at most the transmission range.
//!
//! Trajectories are piecewise linear, so the squared pairwise distance on
//! any pair of overlapping legs is a quadratic in time: range crossings are
//! found by solving `|Δp + Δv·τ|² = R²` exactly rather than by time
//! stepping — no missed short contacts, no tunable step size, and the
//! output is bit-deterministic for a given seed.
//!
//! The paper also notes two classic RWP pathologies (speed decay to zero,
//! odd movement patterns) and works around them with a "subscriber point"
//! variant; that variant lives in [`crate::subscriber`]. The classic model
//! here avoids speed decay by drawing speeds with a strictly positive lower
//! bound (Resta & Santi's fix, the paper's reference \[19\]).

use crate::contact::{Contact, ContactTrace, NodeId};
use dtn_sim::{SimRng, SimTime};

/// A 2-D vector/point in meters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Vec2 {
    /// x-coordinate (m).
    pub x: f64,
    /// y-coordinate (m).
    pub y: f64,
}

impl std::ops::Sub for Vec2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, o: Vec2) -> Vec2 {
        Vec2 {
            x: self.x - o.x,
            y: self.y - o.y,
        }
    }
}

impl Vec2 {
    /// Dot product.
    #[inline]
    pub fn dot(self, o: Vec2) -> f64 {
        self.x * o.x + self.y * o.y
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }
}

/// One constant-velocity leg of a trajectory: position at time `t` (seconds,
/// within `[t0, t1]`) is `p0 + v·(t − t0)`. A pause is a leg with `v = 0`.
#[derive(Clone, Copy, Debug)]
pub struct Leg {
    /// Leg start time (s).
    pub t0: f64,
    /// Leg end time (s).
    pub t1: f64,
    /// Position at `t0`.
    pub p0: Vec2,
    /// Constant velocity (m/s).
    pub v: Vec2,
}

impl Leg {
    /// Position at absolute time `t` (clamped to the leg's interval).
    pub fn position(&self, t: f64) -> Vec2 {
        let tau = (t.clamp(self.t0, self.t1)) - self.t0;
        Vec2 {
            x: self.p0.x + self.v.x * tau,
            y: self.p0.y + self.v.y * tau,
        }
    }
}

/// Parameters of the classic RWP model.
#[derive(Clone, Debug)]
pub struct RwpParams {
    /// Number of nodes.
    pub nodes: usize,
    /// Simulation horizon.
    pub horizon: SimTime,
    /// Side length of the square area (m).
    pub area_side_m: f64,
    /// Transmission range (m); the unified parameter table bounds this by
    /// 300 m.
    pub range_m: f64,
    /// Minimum travel speed (m/s); strictly positive to avoid the
    /// speed-decay pathology.
    pub speed_min_mps: f64,
    /// Maximum travel speed (m/s).
    pub speed_max_mps: f64,
    /// Maximum pause at a waypoint (s); pauses are uniform in `[0, max]`.
    pub pause_max_s: f64,
}

impl Default for RwpParams {
    fn default() -> Self {
        RwpParams {
            nodes: 12,
            horizon: SimTime::from_secs(600_000),
            area_side_m: 1_000.0,
            range_m: 100.0,
            speed_min_mps: 1.0,
            speed_max_mps: 10.0,
            pause_max_s: 1_000.0,
        }
    }
}

impl RwpParams {
    fn validate(&self) {
        assert!(self.nodes >= 2);
        assert!(
            self.nodes <= usize::from(u16::MAX) + 1,
            "{} nodes do not fit 16-bit node ids",
            self.nodes
        );
        assert!(self.area_side_m > 0.0);
        assert!(self.range_m > 0.0 && self.range_m < self.area_side_m);
        assert!(
            self.speed_min_mps > 0.0,
            "zero min speed causes RWP speed decay"
        );
        assert!(self.speed_max_mps >= self.speed_min_mps);
        assert!(self.pause_max_s >= 0.0);
    }

    /// Generate one node's trajectory out to the horizon.
    fn trajectory(&self, rng: &mut SimRng, horizon_s: f64) -> Vec<Leg> {
        let mut legs = Vec::new();
        let mut t = 0.0;
        let mut pos = Vec2 {
            x: rng.range_f64(0.0, self.area_side_m),
            y: rng.range_f64(0.0, self.area_side_m),
        };
        while t < horizon_s {
            // Pause phase (possibly zero-length).
            if self.pause_max_s > 0.0 {
                let pause = rng.range_f64(0.0, self.pause_max_s);
                if pause > 0.0 {
                    legs.push(Leg {
                        t0: t,
                        t1: (t + pause).min(horizon_s),
                        p0: pos,
                        v: Vec2 { x: 0.0, y: 0.0 },
                    });
                    t += pause;
                    if t >= horizon_s {
                        break;
                    }
                }
            }
            // Travel phase.
            let target = Vec2 {
                x: rng.range_f64(0.0, self.area_side_m),
                y: rng.range_f64(0.0, self.area_side_m),
            };
            let delta = target - pos;
            let dist = delta.norm();
            if dist < 1e-9 {
                continue; // degenerate waypoint; redraw
            }
            let speed = rng.range_f64(self.speed_min_mps, self.speed_max_mps);
            let travel = dist / speed;
            legs.push(Leg {
                t0: t,
                t1: (t + travel).min(horizon_s),
                p0: pos,
                v: Vec2 {
                    x: delta.x / travel,
                    y: delta.y / travel,
                },
            });
            t += travel;
            pos = target;
        }
        legs
    }

    /// Generate the full contact trace.
    ///
    /// Every node pair is walked leg window by leg window, as
    /// [`contact_intervals`] does, and produces exactly its intervals: the
    /// walk only adds a bounding-box test that skips leg pairs too far
    /// apart for the quadratic solve to find a crossing, and merges each
    /// window into the pair's open interval as it comes (windows arrive
    /// in time order, so this is [`merge_intervals`] without its sort).
    pub fn generate(&self, rng: &mut SimRng) -> ContactTrace {
        self.validate();
        let horizon_s = self.horizon.as_secs_f64();
        let paths: Vec<Path> = (0..self.nodes)
            .map(|_| Path::new(self.trajectory(rng, horizon_s)))
            .collect();

        let mut contacts = Vec::new();
        for (a, pa) in paths.iter().enumerate() {
            for (b, pb) in paths.iter().enumerate().skip(a + 1) {
                pa.contact_intervals(pb, self.range_m, horizon_s, |start, end| {
                    // Sub-millisecond grazes round to empty; skip them.
                    let s = SimTime::from_secs_f64(start);
                    let e = SimTime::from_secs_f64(end.min(horizon_s));
                    if e > s {
                        contacts.push(Contact::new(NodeId(a as u16), NodeId(b as u16), s, e));
                    }
                });
            }
        }
        // One pair's intervals are disjoint, so `(start, a, b)` is unique
        // and this equals `ContactTrace::new`'s stable sort, which then
        // finds the list already ordered.
        contacts.sort_unstable_by_key(|c| (c.start, c.a, c.b, c.end));
        ContactTrace::new(self.nodes, self.horizon, contacts)
            .expect("generator upholds trace invariants")
    }
}

/// One node's trajectory laid out for the pairwise walk: the leg end
/// times the walk steps on, and each leg's bounding box, next to the legs.
struct Path {
    ends: Vec<f64>,
    boxes: Vec<Bounds>,
    legs: Vec<Leg>,
}

impl Path {
    fn new(legs: Vec<Leg>) -> Path {
        Path {
            ends: legs.iter().map(|l| l.t1).collect(),
            boxes: legs.iter().map(Bounds::of).collect(),
            legs,
        }
    }

    /// Pass [`contact_intervals`]`(self, other, range, horizon_s)` to
    /// `emit`, interval by interval.
    fn contact_intervals(
        &self,
        other: &Path,
        range: f64,
        horizon_s: f64,
        mut emit: impl FnMut(f64, f64),
    ) {
        // Boxes farther apart than this keep the pair out of range with
        // a margin far above the solve's rounding error.
        let reach = range * (1.0 + 1e-9) + 1e-6;
        let mut open: Option<(f64, f64)> = None;
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.ends.len() && j < other.ends.len() {
            let (ea, eb) = (self.ends[i], other.ends[j]);
            if self.boxes[i].near(&other.boxes[j], reach) {
                let (la, lb) = (&self.legs[i], &other.legs[j]);
                let lo = la.t0.max(lb.t0);
                let hi = ea.min(eb).min(horizon_s);
                if hi > lo {
                    if let Some((s, e)) = in_range_window(la, lb, range, lo, hi) {
                        match &mut open {
                            Some((_, oe)) if s <= *oe + JOIN_EPS => *oe = oe.max(e),
                            _ => {
                                if let Some((os, oe)) = open.replace((s, e)) {
                                    emit(os, oe);
                                }
                            }
                        }
                    }
                }
            }
            // Advance whichever leg ends first.
            let step_a = ea <= eb;
            i += usize::from(step_a);
            j += usize::from(!step_a);
        }
        if let Some((os, oe)) = open {
            emit(os, oe);
        }
    }
}

/// The axis-aligned box a leg sweeps over `[t0, t1]`.
#[derive(Clone, Copy)]
struct Bounds {
    min: Vec2,
    max: Vec2,
}

impl Bounds {
    fn of(leg: &Leg) -> Bounds {
        // `position` rounds monotonically in `t`, so every position the
        // solve evaluates lies between these two corners.
        let (p, q) = (leg.p0, leg.position(leg.t1));
        Bounds {
            min: Vec2 {
                x: p.x.min(q.x),
                y: p.y.min(q.y),
            },
            max: Vec2 {
                x: p.x.max(q.x),
                y: p.y.max(q.y),
            },
        }
    }

    /// False when the boxes are more than `reach` apart along an axis.
    #[inline]
    fn near(&self, other: &Bounds, reach: f64) -> bool {
        let gap_x = (self.min.x - other.max.x).max(other.min.x - self.max.x);
        let gap_y = (self.min.y - other.max.y).max(other.min.y - self.max.y);
        gap_x <= reach && gap_y <= reach
    }
}

/// Sub-intervals of `[0, horizon]` during which two piecewise-linear
/// trajectories stay within `range` of each other, found analytically and
/// merged. This is the straightforward walk [`RwpParams::generate`] must
/// reproduce exactly.
pub fn contact_intervals(ta: &[Leg], tb: &[Leg], range: f64, horizon_s: f64) -> Vec<(f64, f64)> {
    let mut raw: Vec<(f64, f64)> = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < ta.len() && j < tb.len() {
        let la = &ta[i];
        let lb = &tb[j];
        let lo = la.t0.max(lb.t0);
        let hi = la.t1.min(lb.t1).min(horizon_s);
        if hi > lo {
            if let Some((s, e)) = in_range_window(la, lb, range, lo, hi) {
                raw.push((s, e));
            }
        }
        // Advance whichever leg ends first.
        if la.t1 <= lb.t1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    merge_intervals(raw)
}

/// Solve for the in-range sub-interval of `[lo, hi]` on a single pair of
/// legs. Within one window the in-range set of a quadratic `≤ 0` condition
/// is a single interval (possibly empty).
fn in_range_window(la: &Leg, lb: &Leg, range: f64, lo: f64, hi: f64) -> Option<(f64, f64)> {
    // Relative state at `lo`.
    let dp = la.position(lo) - lb.position(lo);
    let dv = la.v - lb.v;
    let a = dv.dot(dv);
    let b = 2.0 * dp.dot(dv);
    let c = dp.dot(dp) - range * range;

    if a < 1e-12 {
        // Constant relative distance over the window.
        return if c <= 0.0 { Some((lo, hi)) } else { None };
    }
    let disc = b * b - 4.0 * a * c;
    if disc < 0.0 {
        // Never within range (the parabola in τ stays positive).
        return None;
    }
    let sqrt_disc = disc.sqrt();
    let tau_in = (-b - sqrt_disc) / (2.0 * a);
    let tau_out = (-b + sqrt_disc) / (2.0 * a);
    let s = (lo + tau_in.max(0.0)).min(hi);
    let e = (lo + tau_out).min(hi);
    if e > s {
        Some((s, e))
    } else {
        None
    }
}

/// Contact intervals closer than this (s) are joined.
const JOIN_EPS: f64 = 1e-3;

/// Merge touching/overlapping `(start, end)` intervals (input need not be
/// sorted). Intervals separated by less than 1 ms are joined — that is the
/// clock's resolution, so the simulator could not distinguish them anyway.
pub fn merge_intervals(mut xs: Vec<(f64, f64)>) -> Vec<(f64, f64)> {
    xs.sort_by(|p, q| p.0.total_cmp(&q.0));
    let mut out: Vec<(f64, f64)> = Vec::with_capacity(xs.len());
    for (s, e) in xs {
        match out.last_mut() {
            Some(last) if s <= last.1 + JOIN_EPS => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn leg(t0: f64, t1: f64, p0: (f64, f64), v: (f64, f64)) -> Leg {
        Leg {
            t0,
            t1,
            p0: Vec2 { x: p0.0, y: p0.1 },
            v: Vec2 { x: v.0, y: v.1 },
        }
    }

    #[test]
    fn head_on_pass_creates_one_contact() {
        // A at x=0 moving +1 m/s; B at x=1000 moving −1 m/s; range 100 m.
        // Distance 1000−2t ≤ 100 ⟺ t ∈ [450, 550].
        let ta = vec![leg(0.0, 1_000.0, (0.0, 0.0), (1.0, 0.0))];
        let tb = vec![leg(0.0, 1_000.0, (1_000.0, 0.0), (-1.0, 0.0))];
        let iv = contact_intervals(&ta, &tb, 100.0, 1_000.0);
        assert_eq!(iv.len(), 1);
        assert!((iv[0].0 - 450.0).abs() < 1e-6, "{iv:?}");
        assert!((iv[0].1 - 550.0).abs() < 1e-6, "{iv:?}");
    }

    #[test]
    fn parallel_distant_nodes_never_meet() {
        let ta = vec![leg(0.0, 1_000.0, (0.0, 0.0), (1.0, 0.0))];
        let tb = vec![leg(0.0, 1_000.0, (0.0, 500.0), (1.0, 0.0))];
        assert!(contact_intervals(&ta, &tb, 100.0, 1_000.0).is_empty());
    }

    #[test]
    fn stationary_nodes_in_range_contact_for_whole_window() {
        let ta = vec![leg(0.0, 300.0, (0.0, 0.0), (0.0, 0.0))];
        let tb = vec![leg(100.0, 200.0, (50.0, 0.0), (0.0, 0.0))];
        let iv = contact_intervals(&ta, &tb, 100.0, 1_000.0);
        assert_eq!(iv, vec![(100.0, 200.0)]);
    }

    #[test]
    fn contact_spanning_leg_boundary_is_merged() {
        // B stationary at origin. A walks through: its path is split into
        // two legs at t=500 mid-approach; the contact must come out as one
        // interval, not two.
        let ta = vec![
            leg(0.0, 500.0, (-600.0, 0.0), (1.0, 0.0)),
            leg(500.0, 1_200.0, (-100.0, 0.0), (1.0, 0.0)),
        ];
        let tb = vec![leg(0.0, 1_200.0, (0.0, 0.0), (0.0, 0.0))];
        let iv = contact_intervals(&ta, &tb, 100.0, 2_000.0);
        assert_eq!(iv.len(), 1, "{iv:?}");
        assert!((iv[0].0 - 500.0).abs() < 1e-6);
        assert!((iv[0].1 - 700.0).abs() < 1e-6);
    }

    #[test]
    fn grazing_pass_outside_range_is_empty() {
        // Closest approach 150 m > 100 m range.
        let ta = vec![leg(0.0, 1_000.0, (0.0, 150.0), (1.0, 0.0))];
        let tb = vec![leg(0.0, 1_000.0, (1_000.0, 0.0), (-1.0, 0.0))];
        assert!(contact_intervals(&ta, &tb, 100.0, 1_000.0).is_empty());
    }

    #[test]
    fn merge_intervals_joins_and_sorts() {
        let merged = merge_intervals(vec![(10.0, 20.0), (5.0, 8.0), (19.9999, 30.0)]);
        assert_eq!(merged, vec![(5.0, 8.0), (10.0, 30.0)]);
    }

    #[test]
    fn rwp_generates_valid_trace() {
        let params = RwpParams {
            horizon: SimTime::from_secs(50_000),
            ..RwpParams::default()
        };
        let trace = params.generate(&mut SimRng::new(2));
        assert_eq!(trace.node_count(), 12);
        assert!(
            !trace.is_empty(),
            "12 nodes in 1 km² for 50 000 s must meet"
        );
        for c in trace.contacts() {
            assert!(c.start < c.end && c.end <= trace.horizon());
        }
    }

    /// FNV-1a 64 over every contact's `(a, b, start_ms, end_ms)`, little
    /// endian, in trace order.
    fn contacts_digest(trace: &ContactTrace) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for c in trace.contacts() {
            let fields = [
                u64::from(c.a.0),
                u64::from(c.b.0),
                c.start.as_millis(),
                c.end.as_millis(),
            ];
            for byte in fields.iter().flat_map(|f| f.to_le_bytes()) {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn geometric_rwp_output_is_pinned() {
        // Digests recorded from the straightforward all-pairs generator;
        // any change to the contact kernel must reproduce them exactly.
        let params = RwpParams {
            nodes: 200,
            horizon: SimTime::from_secs(20_000),
            ..RwpParams::default()
        };
        for (seed, len, digest) in [
            (1u64, 126_494usize, 0xcea7_7763_6832_9510u64),
            (2, 125_832, 0xf4b9_08f3_eed7_a832),
        ] {
            let trace = params.generate(&mut SimRng::new(seed));
            assert_eq!(trace.len(), len, "seed {seed}");
            assert_eq!(contacts_digest(&trace), digest, "seed {seed}");
        }
    }

    #[test]
    fn rwp_is_deterministic() {
        let params = RwpParams {
            horizon: SimTime::from_secs(20_000),
            ..RwpParams::default()
        };
        let t1 = params.generate(&mut SimRng::new(4));
        let t2 = params.generate(&mut SimRng::new(4));
        assert_eq!(t1.contacts(), t2.contacts());
    }

    #[test]
    fn trajectory_covers_horizon_without_gaps() {
        let params = RwpParams::default();
        let mut rng = SimRng::new(6);
        let legs = params.trajectory(&mut rng, 10_000.0);
        assert!(!legs.is_empty());
        assert!(legs[0].t0 == 0.0);
        for w in legs.windows(2) {
            assert!(
                (w[0].t1 - w[1].t0).abs() < 1e-9,
                "gap between legs: {} vs {}",
                w[0].t1,
                w[1].t0
            );
        }
        assert!(legs.last().unwrap().t1 >= 10_000.0 - 1e-9);
    }

    #[test]
    fn trajectory_stays_inside_area() {
        let params = RwpParams::default();
        let mut rng = SimRng::new(8);
        let legs = params.trajectory(&mut rng, 20_000.0);
        for l in &legs {
            for t in [l.t0, (l.t0 + l.t1) / 2.0, l.t1] {
                let p = l.position(t);
                assert!((-1e-6..=params.area_side_m + 1e-6).contains(&p.x));
                assert!((-1e-6..=params.area_side_m + 1e-6).contains(&p.y));
            }
        }
    }

    #[test]
    #[should_panic(expected = "do not fit 16-bit node ids")]
    fn node_count_beyond_16_bit_ids_is_rejected() {
        // Rejected before any trajectory is drawn, so nothing large is
        // allocated.
        let params = RwpParams {
            nodes: usize::from(u16::MAX) + 2,
            ..RwpParams::default()
        };
        params.generate(&mut SimRng::new(0));
    }

    /// The straightforward generator: the same trajectories, every pair
    /// walked through `contact_intervals`, sorted by `ContactTrace::new`.
    fn reference_generate(params: &RwpParams, rng: &mut SimRng) -> ContactTrace {
        let horizon_s = params.horizon.as_secs_f64();
        let trajectories: Vec<Vec<Leg>> = (0..params.nodes)
            .map(|_| params.trajectory(rng, horizon_s))
            .collect();
        let mut contacts = Vec::new();
        for a in 0..params.nodes {
            for b in (a + 1)..params.nodes {
                let intervals = contact_intervals(
                    &trajectories[a],
                    &trajectories[b],
                    params.range_m,
                    horizon_s,
                );
                for (start, end) in intervals {
                    let s = SimTime::from_secs_f64(start);
                    let e = SimTime::from_secs_f64(end.min(horizon_s));
                    if e > s {
                        contacts.push(Contact::new(NodeId(a as u16), NodeId(b as u16), s, e));
                    }
                }
            }
        }
        ContactTrace::new(params.nodes, params.horizon, contacts).unwrap()
    }

    proptest! {
        /// The generator emits exactly the reference walk's contacts, in
        /// the same order, on dense, sparse, pause-free and
        /// near-full-range scenarios.
        #[test]
        fn generator_equals_the_reference_walk(
            seed in any::<u64>(),
            nodes in 2usize..60,
            area_side_m in 50.0f64..2_000.0,
            range_frac in prop_oneof![
                Just(0.999),
                0.01f64..0.999,
            ],
            speed_min_mps in 0.1f64..10.0,
            speed_span in 0.0f64..20.0,
            pause_max_s in prop_oneof![
                Just(0.0),
                0.0f64..2_000.0,
            ],
            horizon_s in 1u64..5_000,
        ) {
            let params = RwpParams {
                nodes,
                horizon: SimTime::from_secs(horizon_s),
                area_side_m,
                range_m: area_side_m * range_frac,
                speed_min_mps,
                speed_max_mps: speed_min_mps + speed_span,
                pause_max_s,
            };
            let fast = params.generate(&mut SimRng::new(seed));
            let reference = reference_generate(&params, &mut SimRng::new(seed));
            prop_assert_eq!(fast.contacts(), reference.contacts());
        }
    }

    #[test]
    #[should_panic(expected = "speed decay")]
    fn zero_min_speed_is_rejected() {
        let params = RwpParams {
            speed_min_mps: 0.0,
            ..RwpParams::default()
        };
        params.generate(&mut SimRng::new(0));
    }

    #[test]
    fn denser_network_means_more_contacts() {
        let base = RwpParams {
            horizon: SimTime::from_secs(30_000),
            ..RwpParams::default()
        };
        let sparse = RwpParams {
            area_side_m: 3_000.0,
            ..base.clone()
        };
        let dense_n = base.generate(&mut SimRng::new(10)).len();
        let sparse_n = sparse.generate(&mut SimRng::new(10)).len();
        assert!(
            dense_n > sparse_n,
            "dense {dense_n} should exceed sparse {sparse_n}"
        );
    }
}
