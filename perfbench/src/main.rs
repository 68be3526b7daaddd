//! The repository benchmark. One run measures one workload:
//!
//! ```text
//! perfbench --workload <pc-diabetes|hc-munin1|serve-alarm> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of stdout is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` — every end-to-end metric with `--trace 0`,
//! every per-layer metric with `--trace 1`. `BENCHMARK.json` at the
//! repository root lists both sets and says why each workload is there.

mod learn;
mod probes;
mod report;
mod serve;

use report::{median, Report};
use std::time::Instant;

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Every run learns the same replica networks, generated from the bench
/// binaries' default seed; `--seed` draws only the samples.
/// `fastbn_bench::load_workload` ties the replica to the sample seed, and
/// replicas from different seeds differ up to 5x in learn time.
const REPLICA_SEED: u64 = 7;

/// The named Table II replica.
pub fn replica(name: &str) -> fastbn_network::BayesNet {
    fastbn_network::zoo::by_name(name, REPLICA_SEED).expect("a Table II network name")
}

/// Seed of the `k`-th extra sample a run draws (`k ≥ 1`; the set-up
/// sample uses the run seed itself).
pub fn sample_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9).wrapping_add(k as u64)
}

/// Parsed command line.
pub struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

/// Build the set-up `SETUP_REPS` times, timing each build. Keeps the last,
/// hands the others to `dispose` outside the timer, and returns the median
/// build time in seconds.
pub fn setup<T>(mut make: impl FnMut() -> T, mut dispose: impl FnMut(T)) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let made = make();
        times.push(t.elapsed().as_secs_f64());
        if let Some(old) = kept.replace(made) {
            dispose(old);
        }
    }
    (kept.expect("SETUP_REPS > 0"), median(&times))
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let mut rep = Report::default();
    match args.workload.as_str() {
        "pc-diabetes" => learn::run(learn::Family::Pc, &args, &mut rep),
        "hc-munin1" => learn::run(learn::Family::Hc, &args, &mut rep),
        "serve-alarm" => serve::run(&args, &mut rep),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    }
    rep.set("peak_rss_mb", report::peak_rss_mb());
    println!("{}", rep.into_json(args.trace));
}
