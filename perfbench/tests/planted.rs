//! Planted-regression self-test: the benchmark must report a regression
//! planted at the size of each end-to-end bound, and must not report one
//! between two sets of runs of unchanged code.
//!
//! Runs the release binary several times per workload, so it takes a few
//! minutes and is ignored by default:
//!
//! ```bash
//! cargo test --release --manifest-path perfbench/Cargo.toml -- --include-ignored
//! ```

use std::process::Command;

use perfbench::{bound_of, median, regressed, Better, RunResult, END_TO_END};

const SEEDS: [u64; 3] = [101, 102, 103];
const SECONDS: &str = "6";
/// Planted regressions are this many times the bound they target, so run
/// noise cannot hide them.
const PLANT_FACTOR: f64 = 1.5;

fn run(workload: &str, seed: u64, plant: &str) -> RunResult {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            SECONDS,
            "--trace",
            "0",
        ])
        .env("PERFBENCH_PLANT", plant)
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload} seed {seed} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    RunResult::parse(last).unwrap_or_else(|| panic!("unparsable result line {last:?}"))
}

fn runs(workload: &str, plant: &str) -> Vec<RunResult> {
    SEEDS.iter().map(|&s| run(workload, s, plant)).collect()
}

fn values(rs: &[RunResult], metric: &str) -> Vec<f64> {
    rs.iter()
        .map(|r| {
            r.value(metric)
                .unwrap_or_else(|| panic!("{metric} missing"))
        })
        .collect()
}

/// The regression verdict for every end-to-end metric but `hr_at_10`,
/// which no delay can move.
fn verdicts(base: &[RunResult], cand: &[RunResult]) -> Vec<(&'static str, bool)> {
    END_TO_END
        .iter()
        .filter(|b| b.name != "hr_at_10")
        .map(|b| {
            (
                b.name,
                regressed(*b, &values(base, b.name), &values(cand, b.name)),
            )
        })
        .collect()
}

/// Sizes each plant from the baseline medians so it worsens its metric by
/// `PLANT_FACTOR` times that metric's bound.
fn plant_for(workload: &str, base: &[RunResult]) -> String {
    let med = |m: &str| median(&values(base, m));
    let b = |m: &str| bound_of(m).expect("declared metric").bound * PLANT_FACTOR;
    // A delay added to every operation moves its median by the same amount.
    let delay_key = if workload == "train-ciao" {
        "step_delay_ms"
    } else {
        "request_delay_ms"
    };
    format!(
        "{delay_key}={},setup_delay_ms={},rss_ballast_mb={},corrupt_every={}",
        b("latency_p50_ms") * med("latency_p50_ms"),
        b("setup_s") * med("setup_s") * 1e3,
        b("peak_rss_mb") * med("peak_rss_mb"),
        (1.0 / b("success_share")).floor().max(1.0),
    )
}

/// The benchmark measures time: runs of two tests must never overlap.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn check(workload: &str) {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let base = runs(workload, "");
    let again = runs(workload, "");
    for (name, bad) in verdicts(&base, &again) {
        assert!(
            !bad,
            "{workload}: unchanged code reported as a regression on {name}"
        );
    }
    let plant = plant_for(workload, &base);
    let planted = runs(workload, &plant);
    for (name, bad) in verdicts(&base, &planted) {
        if workload == "train-ciao" && name == "success_share" {
            continue; // no served answers to corrupt in training
        }
        assert!(
            bad,
            "{workload}: planted regression ({plant}) not reported on {name}"
        );
    }
}

#[test]
#[ignore = "minutes long; run in release with --include-ignored"]
fn train_ciao_catches_planted_regressions() {
    check("train-ciao");
}

#[test]
#[ignore = "minutes long; run in release with --include-ignored"]
fn serve_ciao_catches_planted_regressions() {
    check("serve-ciao");
}

#[test]
fn every_metric_direction_is_declared() {
    for b in END_TO_END {
        let worse = match b.better {
            Better::Lower => 1.0 + 2.0 * b.bound,
            Better::Higher => 1.0 - 2.0 * b.bound,
        };
        assert!(regressed(b, &[1.0], &[worse]), "{}", b.name);
        assert!(!regressed(b, &[1.0], &[1.0]), "{}", b.name);
    }
}

/// `BENCHMARK.json` declares exactly the metrics, units, directions and
/// bounds the binary reports and judges by.
#[test]
fn manifest_matches_the_binary() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let entries = |section: &str| -> Vec<String> {
        let start = json
            .find(&format!("\"{section}\": ["))
            .expect("section present");
        let body = &json[start..start + json[start..].find(']').expect("section closes")];
        body.lines()
            .filter(|l| l.contains("\"name\""))
            .map(|l| l.trim().trim_end_matches(',').to_string())
            .collect()
    };
    let declared = entries("end_to_end");
    assert_eq!(declared.len(), END_TO_END.len());
    for (line, b) in declared.iter().zip(END_TO_END) {
        let better = match b.better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        };
        let want = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {}}}",
            b.name, b.unit, b.bound
        );
        assert_eq!(line, &want);
    }
    let declared = entries("per_layer");
    assert_eq!(declared.len(), perfbench::PER_LAYER.len());
    for (line, (name, unit)) in declared.iter().zip(perfbench::PER_LAYER) {
        assert!(
            line.starts_with(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{line}"
        );
    }
}
