//! End-to-end benchmark of the TranAD workspace: the paper's offline
//! pipeline on SMD and two serving regimes. See README.md.
//!
//! ```text
//! perfbench <workload> --seed N --seconds S --trace 0|1 [--state-dir DIR]
//! perfbench <workload> --seed N --setup-only 1 [--state-dir DIR]
//! perfbench prepare-serve --seed N [--state-dir DIR]
//! ```
//!
//! The last line of a workload run is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics untraced,
//! the per-layer metrics traced). `perfbench/run.py` builds this program,
//! prepares the serving checkpoint and sets `TRANAD_THREADS`.

mod clock;
mod host;
mod loadgen;
mod offline;
mod probes;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::exit;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where per-seed checkpoints and quality records live between runs.
    pub state_dir: PathBuf,
    /// Time one set-up in this process, print it and stop.
    pub setup_only: bool,
}

/// Fresh processes whose set-up times make `setup_s`. Identical set-up work
/// took 10 ms in one process and 18 ms in the next on the benchmark host,
/// while repeating within 3% inside a process, so the median is taken over
/// processes.
const SETUP_PROCESSES: usize = 7;

/// Runs the workload's set-up once in each of `SETUP_PROCESSES` fresh
/// processes, one after another, and returns their times in seconds.
pub fn fresh_setups(args: &Args, out: &mut report::Outcome) -> Vec<f64> {
    let exe = std::env::current_exe().expect("own executable path");
    let mut times = Vec::with_capacity(SETUP_PROCESSES);
    for _ in 0..SETUP_PROCESSES {
        let child = std::process::Command::new(&exe)
            .arg(&args.workload)
            .args(["--seed", &args.seed.to_string(), "--setup-only", "1"])
            .arg("--state-dir")
            .arg(&args.state_dir)
            .output();
        let time = child.ok().and_then(|o| {
            let text = String::from_utf8_lossy(&o.stdout).into_owned();
            text.lines()
                .find_map(|l| l.strip_prefix("setup_s ")?.parse::<f64>().ok())
        });
        out.check("set-up in a fresh process", time.is_some());
        times.extend(time);
    }
    times
}

/// F1 and ROC-AUC of one seed must repeat exactly across runs: the first
/// run of a workload and seed records them under the state directory,
/// later runs compare.
pub fn check_quality_repeats(args: &Args, f1: f64, auc: f64, out: &mut report::Outcome) {
    let path = args
        .state_dir
        .join(format!("{}-{}.quality", args.workload, args.seed));
    let line = format!("{:016x} {:016x}\n", f1.to_bits(), auc.to_bits());
    match std::fs::read_to_string(&path) {
        Ok(prev) => out.check("F1 and AUC repeat across runs of one seed", prev == line),
        Err(_) => {
            if let Err(e) = std::fs::write(&path, &line) {
                println!("cannot record {}: {e}", path.display());
            }
        }
    }
}

/// The line `fresh_setups` reads from a set-up process.
pub fn report_setup(seconds: f64) {
    println!("setup_s {seconds:e}");
}

/// Threads each workload's pool must run with (`TRANAD_THREADS`).
fn threads_for(workload: &str) -> Option<usize> {
    match workload {
        "offline-smd" => Some(2),
        "serve-burst" | "serve-long" => Some(1),
        _ => None,
    }
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let workload = argv.first().ok_or("missing workload")?.clone();
    let mut args = Args {
        workload,
        seed: 1,
        seconds: 10.0,
        trace: false,
        state_dir: PathBuf::from(".bench_build/perfbench-state"),
        setup_only: false,
    };
    let mut rest = argv[1..].iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            "--state-dir" => args.state_dir = PathBuf::from(value),
            "--setup-only" => args.setup_only = value.parse::<u8>().map_err(|_| bad())? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() {
    clock::start();
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        exit(2);
    });
    if let Err(e) = std::fs::create_dir_all(&args.state_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.state_dir.display());
        exit(2);
    }
    if args.workload == "prepare-serve" {
        if let Err(e) = serve::prepare(&args) {
            eprintln!("perfbench: preparing the serving checkpoint failed: {e}");
            exit(1);
        }
        return;
    }
    let Some(threads) = threads_for(&args.workload) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        exit(2);
    };
    let pool = tranad_tensor::pool::current_threads();
    if pool != threads || threads > host::nproc() {
        eprintln!(
            "perfbench: {} runs with TRANAD_THREADS={threads} on at most nproc threads; \
             got a pool of {pool} with nproc {}",
            args.workload,
            host::nproc()
        );
        exit(2);
    }
    let cpu = host::cpu_times();
    let outcome = match args.workload.as_str() {
        "offline-smd" => offline::run(&args),
        "serve-burst" => serve::run(&args, serve::BURST),
        _ => serve::run(&args, serve::LONG),
    };
    if args.setup_only {
        return;
    }
    println!(
        "host: nproc {} TRANAD_THREADS {threads} steal {:.2}% seed {} trace {} failure ratio {:.6}",
        host::nproc(),
        host::steal_pct(cpu, host::cpu_times()),
        args.seed,
        u8::from(args.trace),
        stats::failure_ratio(outcome.attempted, outcome.failed)
    );
    println!("{}", outcome.to_json());
}
