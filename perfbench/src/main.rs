//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <train-ciao|serve-ciao|serve-scale> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's inputs from the seed, measures for the given
//! number of seconds, checks every output it can, and prints as its last
//! line one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! `--trace 0` reports the end-to-end metrics with all telemetry off;
//! `--trace 1` reports the per-layer metrics of a traced run, preceded by
//! a one-screen attribution report. Every run also prints the host
//! fingerprint. `METRICS.md` next to this crate defines each metric and
//! which per-layer metric should move which end-to-end metric.
//!
//! Fixtures (the trained ciao-s checkpoint, the segmented scale store, and
//! the scale reference answers) are built by a child process
//! (`perfbench fixture …`) so the peak RSS of the measured process counts
//! only what a deployment holds.

mod serve;
mod train;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use perfbench::{Plant, RunResult, END_TO_END, PER_LAYER};

/// ROADMAP's attribution target: traced layer times should cover at least
/// this share of the blocking path's wall time.
pub const ATTRIBUTION_TARGET: f64 = 0.95;

/// Parsed command line of a measuring run.
#[derive(Debug)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub plant: Plant,
    /// Scratch directory for this run's fixtures (inside the checkout).
    pub work: PathBuf,
}

/// One line of the attribution report: a per-layer metric, its value, and
/// its share of the blocking path's wall time (`None` for counts).
/// Nested rows lie inside a top-level row and are not added again.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    pub name: &'static str,
    pub value: f64,
    pub share: Option<f64>,
    pub nested: bool,
}

impl Row {
    pub fn top(name: &'static str, value: f64, share: Option<f64>) -> Self {
        Self {
            name,
            value,
            share,
            nested: false,
        }
    }

    pub fn nested(name: &'static str, value: f64, share: Option<f64>) -> Self {
        Self {
            name,
            value,
            share,
            nested: true,
        }
    }

    pub fn count(name: &'static str, value: f64) -> Self {
        Self {
            name,
            value,
            share: None,
            nested: true,
        }
    }
}

/// What a workload hands back: its counts, its metric values, and the
/// attribution rows of a traced run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    pub attribution: Vec<Row>,
    /// Wall time of one unit of the blocking path, for the report header.
    pub blocking_ms: f64,
    pub blocking_what: &'static str,
    pub notes: Vec<String>,
}

fn usage() -> String {
    "usage: perfbench --workload <train-ciao|serve-ciao|serve-scale> --seed <n> --seconds <s> \
     --trace <0|1>\n       perfbench fixture --workload <w> --seed <n> --clients <c> --dir <path>"
        .to_string()
}

fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("missing {name}\n{}", usage()))
}

fn parse_num<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    let raw = flag(args, name)?;
    raw.parse()
        .map_err(|_| format!("{name}: cannot parse {raw:?}"))
}

/// Host fingerprint printed with every result, so a comparison across
/// hosts is visible rather than silent.
fn host_fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let mmap = if dgnn_serve::MapMode::from_env().resolves_to_map() {
        "map"
    } else {
        "pread"
    };
    format!(
        "host: nproc={nproc} cpu=\"{cpu}\" gemm={} pool_threads={} dgnn_mmap={mmap}",
        dgnn_tensor::gemm::backend().name(),
        dgnn_tensor::parallel::current_threads(),
    )
}

/// Peak RSS of this process in MiB: the kernel's high-water mark
/// (`VmHWM`), which sees transient peaks a sampler would miss; where
/// procfs has no such line, the highest reading `dgnn_obs::procstat` took.
fn peak_rss_mb() -> f64 {
    let hwm_kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        });
    match hwm_kb {
        Some(kb) => kb / 1024.0,
        None => {
            let _ = dgnn_obs::procstat::rss_bytes();
            dgnn_obs::procstat::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0)
        }
    }
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Builds the workload's fixtures in a child process and waits for it.
fn build_fixtures(opts: &Opts) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
    let status = std::process::Command::new(exe)
        .args([
            "fixture",
            "--workload",
            &opts.workload,
            "--seed",
            &opts.seed.to_string(),
        ])
        .args(["--clients", &serve::clients().to_string(), "--dir"])
        .arg(&opts.work)
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("spawning the fixture process: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("fixture process failed: {status}"))
    }
}

fn run(args: &[String]) -> Result<RunResult, String> {
    let workload = flag(args, "--workload")?.to_string();
    if !["train-ciao", "serve-ciao", "serve-scale"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}\n{}", usage()));
    }
    let seed: u64 = parse_num(args, "--seed")?;
    let seconds: f64 = parse_num(args, "--seconds")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match flag(args, "--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let plant = Plant::from_env()?;
    let work =
        Path::new(".perfbench_work").join(format!("{workload}-{seed}-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let _cleanup = WorkDir(work.clone());
    let opts = Opts {
        workload,
        seed,
        seconds,
        trace,
        plant,
        work,
    };

    println!("{}", host_fingerprint());
    println!(
        "workload: {} seed={} seconds={} trace={}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(trace)
    );
    if opts.workload != "train-ciao" {
        build_fixtures(&opts)?;
    }

    // Untraced runs measure with every instrument off, the server's live
    // telemetry included; traced runs switch it on where they need it.
    dgnn_obs::set_live_telemetry(false);
    let ballast: Vec<u8> = vec![1u8; (opts.plant.rss_ballast_mb * 1024.0 * 1024.0) as usize];
    let mut outcome = match opts.workload.as_str() {
        "train-ciao" => train::run(&opts)?,
        "serve-ciao" => serve::run(&opts, serve::Kind::Ciao)?,
        _ => serve::run(&opts, serve::Kind::Scale)?,
    };
    std::hint::black_box(&ballast);
    outcome.metrics.insert("peak_rss_mb", peak_rss_mb());
    outcome.metrics.insert(
        "success_share",
        1.0 - outcome.failed as f64 / outcome.attempted.max(1) as f64,
    );
    for note in &outcome.notes {
        println!("note: {note}");
    }

    let mut result = RunResult {
        correct: outcome.failed == 0,
        attempted: outcome.attempted.max(1),
        failed: outcome.failed,
        metrics: BTreeMap::new(),
    };
    if trace {
        print_attribution(&opts.workload, &outcome);
        for &(name, unit) in PER_LAYER {
            let v = outcome.metrics.get(name).copied().unwrap_or(0.0);
            result
                .metrics
                .insert(name.to_string(), (v, unit.to_string()));
        }
    } else {
        for b in END_TO_END {
            let v = outcome
                .metrics
                .get(b.name)
                .copied()
                .ok_or_else(|| format!("workload did not measure {}", b.name))?;
            println!("metric {:<16} {v:>14.6} {}", b.name, b.unit);
            result
                .metrics
                .insert(b.name.to_string(), (v, b.unit.to_string()));
        }
    }
    println!(
        "checks: {} attempted, {} failed",
        result.attempted, result.failed
    );
    Ok(result)
}

/// The one-screen attribution report of a traced run.
fn print_attribution(workload: &str, o: &Outcome) {
    println!(
        "--- attribution: {workload} (blocking path: {} = {:.3} ms) ---",
        o.blocking_what, o.blocking_ms
    );
    let mut covered = 0.0;
    for row in &o.attribution {
        let indent = if row.nested { "    " } else { "  " };
        let name = format!("{indent}{}", row.name);
        match row.share {
            Some(s) => {
                if !row.nested {
                    covered += s;
                }
                println!("{name:<40} {:>12.4}  {:>6.1}%", row.value, 100.0 * s);
            }
            None => println!("{name:<40} {:>12.1}", row.value),
        }
    }
    println!(
        "  {:<38} {:>12}  {:>6.1}%",
        "(unattributed remainder)",
        "",
        100.0 * (1.0 - covered).max(0.0)
    );
    let share = o
        .metrics
        .get("bench.attributed_share")
        .copied()
        .unwrap_or(0.0);
    let flag = if share < ATTRIBUTION_TARGET {
        "  BELOW TARGET"
    } else {
        ""
    };
    println!("  bench.attributed_share = {share:.3} (target {ATTRIBUTION_TARGET}){flag}");
    let overhead = o
        .metrics
        .get("bench.trace_overhead_ratio")
        .copied()
        .unwrap_or(0.0);
    println!("  bench.trace_overhead_ratio = {overhead:.3}");
}

fn fixture(args: &[String]) -> Result<(), String> {
    let workload = flag(args, "--workload")?;
    let seed: u64 = parse_num(args, "--seed")?;
    let clients: usize = parse_num(args, "--clients")?;
    let dir = PathBuf::from(flag(args, "--dir")?);
    match workload {
        "serve-ciao" => serve::build_ciao_fixture(seed, &dir),
        "serve-scale" => serve::build_scale_fixture(seed, clients, &dir),
        other => Err(format!("no fixture for workload {other:?}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("fixture") {
        return match fixture(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench fixture: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args) {
        Ok(result) => {
            println!("{}", result.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
