//! The repository benchmark harness: runs one named workload for a timed
//! window and prints its metrics, then a result line, on stdout.
//!
//! ```text
//! perfbench --workload paper-grid|geom-rwp-1k|service-grid --seed N
//!           --seconds S --trace 0|1 --tmp DIR
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the traced
//! passes and prints the per-layer metrics instead. `benchmark/run.py`
//! builds this binary, runs it, and adds the host fingerprint; see
//! `benchmark/README.md` for the workloads and what each metric means.

mod geom_rwp;
mod layers;
mod paper_grid;
mod report;
mod service_grid;

use report::{Digest, Report};
use std::path::PathBuf;

/// The sweep runner's default seed; the pinned digests are taken at it.
pub const REFERENCE_SEED: u64 = 0xD7_2012;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for daemon journals and result stores.
    pub tmp: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut tmp = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value == "1",
            "--tmp" => tmp = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        tmp: tmp.ok_or("--tmp is required")?,
    })
}

/// The seed of round `round` of a run seeded with `seed` (splitmix64).
pub fn round_seed(seed: u64, round: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(round.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Compare the reference seed's digest with the pinned one; a mismatch
/// (or a missing pin) is one failure.
pub fn check_reference(report: &mut Report, workload: &str, digest: &Digest) {
    let pinned = report::pinned_digest(workload);
    report.info("reference_digest", digest.hex());
    if pinned != Some(digest.hex().as_str()) {
        report.fail(
            1,
            &format!(
                "reference digest {} does not match the pinned {pinned:?}",
                digest.hex()
            ),
        );
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    std::fs::create_dir_all(&args.tmp).expect("create the scratch directory");
    let mut report = Report::new(args.trace);
    match args.workload.as_str() {
        "paper-grid" => paper_grid::run(&args, &mut report),
        "geom-rwp-1k" => geom_rwp::run(&args, &mut report),
        "service-grid" => service_grid::run(&args, &mut report),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    }
    report.print(&args.workload, args.seed);
}
