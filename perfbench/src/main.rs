//! One-thread benchmark of the repository's three user workflows.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload matrix|serve_sampled|fuzz --seed N --seconds S --trace 0|1
//! ```
//!
//! One workload runs per process. Set-up (building the inputs plus one
//! untimed warm-up operation) is repeated at least five times and for at
//! least a second, and reported as its median. The timed phase then runs whole rounds of the same
//! operations until `--seconds` is reached. With `--trace 0` the last
//! line of standard output carries the end-to-end metrics; with
//! `--trace 1` each round without instrumentation is followed by one
//! instrumented round, and the last line carries the per-layer metrics.
//! Outputs are checked after the timed phase. See README.md.

mod fuzz;
mod layers;
mod matrix;
mod probe;
mod report;
mod serve;
mod spans;

use report::{median, Metrics};
use spans::Tracer;
use std::path::PathBuf;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: probe::Counting = probe::Counting;

/// Set-up repeats at least this often and for at least this long per
/// run; `setup_s` is the median. Host noise at the millisecond scale
/// needs many repeats of a short set-up.
const SETUPS: usize = 5;
const SETUP_MIN: Duration = Duration::from_secs(1);

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload matrix|serve_sampled|fuzz --seed N --seconds S --trace 0|1";

const WORKLOADS: [&str; 3] = ["matrix", "serve_sampled", "fuzz"];

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad value `{value}` for {flag}"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload `{value}`")),
            "--seed" => seed = Some(num()?),
            "--seconds" if num()? > 0 => seconds = Some(num()?),
            "--seconds" => return Err("--seconds must be > 0".into()),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("bad value `{value}` for --trace (0 or 1)")),
            },
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What the output checks found.
#[derive(Debug, Default)]
pub struct Check {
    /// Operations whose outputs failed a check.
    pub failed: u64,
    /// Descriptions of every failure, operation-level or workload-level.
    pub problems: Vec<String>,
}

/// One benchmark workload: whole rounds of the same operations.
pub trait Workload {
    /// Operations per round.
    fn ops(&self) -> u64;
    /// Instructions the round simulates (for the KIPS reference line).
    fn insts(&self) -> u64;
    /// Runs one round; with a tracer, the instrumented variant.
    fn round(&mut self, tracer: Option<&mut Tracer>);
    /// Checks every round's outputs, after the timed phase.
    fn check(&mut self) -> Check;
    /// Per-layer metrics from the instrumented rounds and the probes.
    /// Returns the seconds per instrumented round that the per-layer
    /// self times cover.
    fn layers(&mut self, tracer: &Tracer, m: &mut Metrics) -> f64;
}

/// Host readings over the rounds run without instrumentation.
#[derive(Default)]
struct Host {
    rounds: u64,
    sys_s: f64,
    minor_faults: u64,
    first: Option<probe::Heap>,
    peak_live: u64,
}

/// Runs one workload and prints its result line; returns whether every
/// check held.
fn run<W: Workload>(args: &Args, setup: impl Fn(u64) -> W) -> bool {
    let mut setup_s = Vec::new();
    let mut w = None;
    let first = Instant::now();
    while setup_s.len() < SETUPS || first.elapsed() < SETUP_MIN {
        drop(w.take());
        let t = Instant::now();
        w = Some(setup(args.seed));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut w = w.expect("at least one set-up");

    let budget = Duration::from_secs(args.seconds);
    let mut tracer = Tracer::new();
    let mut host = Host::default();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    loop {
        let (stat, heap) = (probe::stat(), probe::heap());
        probe::reset_peak();
        let t = Instant::now();
        w.round(None);
        plain.push(t.elapsed());
        let (stat2, heap2) = (probe::stat(), probe::heap());
        host.rounds += 1;
        host.sys_s += stat2.sys_s - stat.sys_s;
        host.minor_faults += stat2.minor_faults - stat.minor_faults;
        host.first.get_or_insert(probe::Heap {
            allocs: heap2.allocs - heap.allocs,
            bytes: heap2.bytes - heap.bytes,
            peak_live: heap2.peak_live,
        });
        host.peak_live = host.peak_live.max(heap2.peak_live);
        if args.trace {
            let t = Instant::now();
            w.round(Some(&mut tracer));
            traced.push(t.elapsed());
        }
        // Stop at the round boundary nearest the budget.
        let rounds = plain.len() as u32;
        if start.elapsed() + start.elapsed() / (2 * rounds) >= budget {
            break;
        }
    }
    let peak_rss = probe::peak_rss_mib();
    let plain_s: f64 = plain.iter().map(Duration::as_secs_f64).sum();
    let rounds = plain.len() as u64;
    let attempted = w.ops() * (rounds + traced.len() as u64);

    let check = w.check();
    for p in &check.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    let ops_per_s = (w.ops() * rounds) as f64 / plain_s;
    // Reference figures, not gated: raw wall time and KIPS are
    // proportional to ops_per_s on a fixed workload.
    let round_s: Vec<String> = plain
        .iter()
        .map(|d| format!("{:.3}", d.as_secs_f64()))
        .collect();
    let kips = match w.insts() {
        0 => String::new(),
        insts => format!(" kips {:.1}", (insts * rounds) as f64 / plain_s / 1e3),
    };
    println!(
        "perfbench {}: seed {} rounds {rounds} ops {} wall_s {plain_s:.3} round_s [{}]{kips}",
        args.workload,
        args.seed,
        w.ops() * rounds,
        round_s.join(" "),
    );

    let mut m = Metrics::default();
    if args.trace {
        let traced_s: f64 = traced.iter().map(Duration::as_secs_f64).sum();
        let covered = w.layers(&tracer, &mut m);
        let n = host.rounds as f64;
        m.set("host.sys_s", host.sys_s / n, "s");
        m.set("host.minor_faults", host.minor_faults as f64 / n, "count");
        let first = host.first.unwrap_or_default();
        m.set("alloc.count", first.allocs as f64, "count");
        m.set("alloc.mb", first.bytes as f64 / (1 << 20) as f64, "MiB");
        m.set(
            "alloc.peak_mb",
            host.peak_live as f64 / (1 << 20) as f64,
            "MiB",
        );
        m.set("trace.overhead", traced_s / plain_s - 1.0, "ratio");
        m.set(
            "trace.coverage",
            covered / (traced_s / traced.len() as f64),
            "ratio",
        );
        write_spans(args, &tracer);
        m.complete(report::PER_LAYER);
    } else {
        m.set("setup_s", median(&setup_s), "s");
        m.set("ops_per_s", ops_per_s, "1/s");
        m.set("peak_rss_mb", peak_rss, "MiB");
        m.complete(report::END_TO_END);
    }
    let correct = check.problems.is_empty();
    println!("{}", m.result_line(correct, attempted, check.failed));
    correct
}

/// Where run artifacts go: under the build directory, inside the
/// checkout the benchmark runs from.
pub fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    target.join("perfbench-out")
}

fn write_spans(args: &Args, tracer: &Tracer) {
    let dir = out_dir();
    let path = dir.join(format!("{}-{}.spans.json", args.workload, args.seed));
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_json()))
    {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

fn main() -> std::process::ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return std::process::ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "matrix" => run(&args, matrix::Matrix::setup),
        "serve_sampled" => run(&args, serve::ServeSampled::setup),
        _ => run(&args, fuzz::Fuzz::setup),
    };
    if outcome {
        std::process::ExitCode::SUCCESS
    } else {
        std::process::ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_documented_command_line() {
        let a = parse_args(&argv("--workload fuzz --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: "fuzz".into(),
                seed: 7,
                seconds: 10,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload fuzz --seed x --seconds 1 --trace 0",
            "--workload fuzz --seed 1 --seconds 0 --trace 0",
            "--workload fuzz --seed 1 --seconds 1 --trace 2",
            "--workload fuzz --seed 1 --seconds 1",
            "--workload fuzz --seed 1 --seconds 1 --trace",
            "--bogus 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
