//! **Serving load harness**: train → checkpoint → serve → measure.
//!
//! Trains a quick DGNN on the tiny dataset, saves a checkpoint, boots the
//! `dgnn-serve` HTTP server on a loopback port, and drives closed-loop
//! concurrent clients (each fires its next request as soon as the previous
//! one answers). A malformed-request smoke runs alongside: garbage bytes,
//! unknown routes, bad parameters and unknown users must all come back as
//! well-formed JSON 4xx — never a dropped worker. The harness also
//! micro-measures the heap-based partial top-K kernel against a full
//! per-row sort (the selection strategy `dgnn-eval` used to pay for), and
//! cross-checks one served response against a direct engine query.
//!
//! Metrics flow through `dgnn-obs`: latency histograms plus
//! `serve/latency_ms_{p50,p95,p99}`, `serve/qps`, `serve/batch_size_mean`
//! gauges, serialized by the same `snapshot_to_json` path as
//! `BENCH_profile.json`. On top of that the harness validates the live
//! telemetry endpoints mid-load (`/metrics` must parse as Prometheus
//! text, `/stats` as the JSON snapshot, `/debug/flight` as JSONL), folds
//! a **phase-attribution report** into the snapshot (p50/p99 per serving
//! phase plus each phase group's share of summed p99 —
//! `serve/attribution/{queue,compute,write}_share_p99`), and measures the
//! overhead of live telemetry by replaying load against a fresh server
//! with the process-shared instruments toggled on/off in round-robin
//! (rotating start, best-of — the same drift defense as the profile
//! gates), published as `serve/obs_overhead_ratio`.
//!
//! Clients draw users from a seeded Zipf(θ) distribution
//! ([`dgnn_bench::zipf`]) — head-heavy like real recommendation traffic —
//! instead of striding uniformly over the user space.
//!
//! ```text
//! loadgen                   run and write BENCH_serve.json + results/dgnn.ckpt
//! loadgen --check PATH      no artifacts; exit 1 on zero successful
//!                           requests, >25% qps regression vs. PATH, or
//!                           obs-enabled qps < 0.9x obs-disabled qps
//! loadgen --scale           run the scale tier instead: sharded store,
//!                           lazy load, 64 Zipf clients -> BENCH_scale.json
//! loadgen --scale --check PATH   scale tier with its regression gates
//! ```
//!
//! qps is machine- and load-dependent; the 25% budget (matching the
//! profile gate) only catches large regressions, not scheduler noise.

use std::io::{Read, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::process::ExitCode;
use std::time::Instant;

use dgnn_bench::zipf::Zipf;
use dgnn_bench::ServeWindow;
use dgnn_core::{Dgnn, DgnnConfig};
use dgnn_data::tiny;
use dgnn_eval::Trainable;
use dgnn_obs::export::snapshot_to_json;
use dgnn_obs::procstat;
use dgnn_serve::{Engine, Query, ServeConfig, Server};
use dgnn_tensor::{top_k_rows, Matrix};

/// Seed shared with the rest of the experiment harness.
const SEED: u64 = 2023;
/// Allowed relative qps drop before `--check` fails.
const REGRESSION_BUDGET: f64 = 0.25;
/// Closed-loop client threads.
const CLIENTS: usize = 6;
/// Requests each client fires.
const REQUESTS_PER_CLIENT: usize = 150;
/// Minimum obs-enabled/obs-disabled qps ratio before `--check` fails:
/// live telemetry may cost at most 10% throughput.
const OBS_OVERHEAD_FLOOR: f64 = 0.9;
/// Interleaved measurement rounds per telemetry configuration.
const OVERHEAD_ROUNDS: usize = 3;
/// Requests per client in each overhead round (shorter than the main
/// run — six rounds must stay cheap).
const OVERHEAD_REQUESTS: usize = 60;
/// The serving phases traced per request, in pipeline order.
const PHASES: [&str; 5] = ["parse", "queue_wait", "batch_assembly", "engine", "write"];
/// Zipf exponent of the serve tier's request distribution: mildly
/// head-heavy, so the tiny user space still gets broad coverage while the
/// hot users repeat (the scale tier uses a steeper θ; see
/// `dgnn_bench::scale_tier`).
const ZIPF_THETA: f64 = 1.1;

fn quick_dgnn() -> DgnnConfig {
    DgnnConfig {
        dim: 8,
        layers: 2,
        memory_units: 4,
        epochs: 4,
        batch_size: 256,
        ..Default::default()
    }
}

/// One blocking HTTP exchange; returns (status, body).
fn http_get(addr: SocketAddr, target: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(format!("GET {target} HTTP/1.1\r\nHost: loadgen\r\n\r\n").as_bytes())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no status line"))?;
    let body = raw.split_once("\r\n\r\n").map_or("", |(_, b)| b).to_string();
    Ok((status, body))
}

/// Sends raw bytes and returns whatever comes back (malformed smoke).
fn http_raw(addr: SocketAddr, payload: &[u8]) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(payload)?;
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    Ok(raw)
}

/// Closed-loop client load; returns (ok, err, elapsed_secs).
fn drive_load(addr: SocketAddr, num_users: usize, requests_per_client: usize) -> (u64, u64, f64) {
    let started = Instant::now();
    let base = Zipf::new(num_users, ZIPF_THETA, SEED);
    let mut handles = Vec::new();
    for c in 0..CLIENTS {
        let mut z = base.fork(c as u64);
        // PAR: benchmark client threads generating socket load against the
        // server under test — not kernel work.
        handles.push(std::thread::spawn(move || {
            let (mut ok, mut err) = (0u64, 0u64);
            for r in 0..requests_per_client {
                let user = z.sample();
                let k = 5 + (r % 3) * 5;
                match http_get(addr, &format!("/recommend?user={user}&k={k}")) {
                    Ok((200, _)) => ok += 1,
                    _ => err += 1,
                }
            }
            (ok, err)
        }));
    }
    let (mut ok, mut err) = (0u64, 0u64);
    for h in handles {
        match h.join() {
            Ok((o, e)) => {
                ok += o;
                err += e;
            }
            Err(_) => err += requests_per_client as u64,
        }
    }
    (ok, err, started.elapsed().as_secs_f64())
}

/// Scrapes the live telemetry endpoints while the server is under load
/// and validates each one parses: `/metrics` through the Prometheus
/// text parser, `/stats` as the snapshot JSON, `/debug/flight` as
/// event-per-line JSONL, `/health` with its enriched fields. Returns the
/// number of failed expectations.
fn validate_scrapes(addr: SocketAddr) -> usize {
    let mut failures = 0;
    match http_get(addr, "/metrics") {
        Ok((200, body)) => match dgnn_obs::export::parse_prometheus_text(&body) {
            Ok(samples) => {
                let sample = |name: &str| samples.iter().find(|s| s.name == name);
                let served = sample("serve_latency_ms_count").map_or(0.0, |s| s.value);
                if served <= 0.0 {
                    eprintln!("scrape: /metrics shows no served requests: {samples:?}");
                    failures += 1;
                }
                if sample("serve_phase_queue_wait_ms_count").is_none() {
                    eprintln!("scrape: /metrics is missing the phase histograms");
                    failures += 1;
                }
                let buckets: Vec<f64> = samples
                    .iter()
                    .filter(|s| s.name == "serve_latency_ms_bucket")
                    .map(|s| s.value)
                    .collect();
                if buckets.is_empty() || buckets.windows(2).any(|w| w[0] > w[1]) {
                    eprintln!("scrape: /metrics latency buckets not cumulative: {buckets:?}");
                    failures += 1;
                }
            }
            Err(e) => {
                eprintln!("scrape: /metrics does not parse: {e}");
                failures += 1;
            }
        },
        other => {
            eprintln!("scrape: /metrics -> {other:?}");
            failures += 1;
        }
    }
    match http_get(addr, "/stats") {
        Ok((200, body))
            if body.contains("\"histograms\"") && body.contains("\"serve/latency_ms\"") => {}
        other => {
            eprintln!("scrape: /stats missing snapshot sections: {other:?}");
            failures += 1;
        }
    }
    match http_get(addr, "/debug/flight") {
        Ok((200, body)) => {
            let lines: Vec<&str> = body.lines().filter(|l| !l.is_empty()).collect();
            if lines.is_empty()
                || lines.iter().any(|l| !l.starts_with("{\"t_ns\":") || !l.contains("\"kind\":"))
            {
                eprintln!("scrape: /debug/flight is not event-per-line JSONL");
                failures += 1;
            }
        }
        other => {
            eprintln!("scrape: /debug/flight -> {other:?}");
            failures += 1;
        }
    }
    match http_get(addr, "/health") {
        Ok((200, body)) if body.contains("\"uptime_secs\":") && body.contains("\"ready\":true") => {
        }
        other => {
            eprintln!("scrape: /health missing enriched fields: {other:?}");
            failures += 1;
        }
    }
    failures
}

/// Measures what live telemetry costs: drives identical load at a fresh
/// server with the process-shared instruments on vs. off, interleaved
/// with a rotating start and scored best-of-[`OVERHEAD_ROUNDS`] per
/// configuration (machine drift hits both alike). Returns
/// `qps_enabled / qps_disabled`; ≥ [`OBS_OVERHEAD_FLOOR`] passes.
fn obs_overhead_ratio(addr: SocketAddr, num_users: usize) -> f64 {
    let mut best = [0.0f64; 2]; // [disabled, enabled]
    for round in 0..OVERHEAD_ROUNDS {
        for leg in 0..2 {
            let enabled = (round + leg) % 2 == 1;
            dgnn_obs::set_live_telemetry(enabled);
            let (ok, err, secs) = drive_load(addr, num_users, OVERHEAD_REQUESTS);
            let qps = (ok + err) as f64 / secs.max(1e-9);
            let slot = usize::from(enabled);
            if qps > best[slot] {
                best[slot] = qps;
            }
        }
    }
    dgnn_obs::set_live_telemetry(true);
    best[1] / best[0].max(1e-9)
}

/// Malformed-request smoke: every probe must yield a well-formed JSON
/// error response (correct 4xx status, `"error"` key) with the server
/// still healthy afterwards. Returns the number of failed expectations.
fn malformed_smoke(addr: SocketAddr) -> usize {
    let mut failures = 0;
    let expect_status = |target: &str, want: u16, failures: &mut usize| match http_get(addr, target)
    {
        Ok((status, body)) if status == want && body.contains("\"error\"") => {}
        Ok((status, body)) => {
            eprintln!("smoke: {target} -> {status} {body:?}, wanted {want} with an error key");
            *failures += 1;
        }
        Err(e) => {
            eprintln!("smoke: {target} -> transport error {e}");
            *failures += 1;
        }
    };
    expect_status("/recommend", 400, &mut failures); // missing user
    expect_status("/recommend?user=abc", 400, &mut failures);
    expect_status("/recommend?user=0&k=0", 400, &mut failures);
    expect_status("/recommend?user=999999", 404, &mut failures); // unknown user
    expect_status("/recommend?user=0&frob=1", 400, &mut failures);
    expect_status("/nope", 404, &mut failures);
    // Raw garbage: not even an HTTP request line.
    match http_raw(addr, b"\x00\x01\x02 garbage \xff\xfe\r\n\r\n") {
        Ok(raw) if raw.starts_with("HTTP/1.1 400") => {}
        Ok(raw) => {
            eprintln!("smoke: garbage bytes -> {raw:?}, wanted a 400");
            failures += 1;
        }
        Err(e) => {
            eprintln!("smoke: garbage bytes -> transport error {e}");
            failures += 1;
        }
    }
    // POST is unsupported and must be rejected cleanly.
    match http_raw(addr, b"POST /recommend HTTP/1.1\r\n\r\n") {
        Ok(raw) if raw.starts_with("HTTP/1.1 400") => {}
        Ok(raw) => {
            eprintln!("smoke: POST -> {raw:?}, wanted a 400");
            failures += 1;
        }
        Err(e) => {
            eprintln!("smoke: POST -> transport error {e}");
            failures += 1;
        }
    }
    // The server must still answer after all of the above.
    match http_get(addr, "/health") {
        Ok((200, _)) => {}
        other => {
            eprintln!("smoke: /health after abuse -> {other:?}");
            failures += 1;
        }
    }
    failures
}

/// Times the heap-based partial top-K against a full per-row sort with the
/// same total order — the selection strategy the eval loop replaced.
/// Returns (topk_secs, sort_secs) over an identical random score matrix.
fn topk_vs_sort(rows: usize, cols: usize, k: usize) -> (f64, f64) {
    let mut state = 0x5EED_0BAD_u64;
    let mut data = Vec::with_capacity(rows * cols);
    for _ in 0..rows * cols {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        data.push(((state >> 33) as f32) / (u32::MAX as f32));
    }
    let m = Matrix::from_vec(rows, cols, data);
    let t0 = Instant::now();
    let top = top_k_rows(&m, k);
    let topk_secs = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let mut sorted_first = Vec::new();
    for r in 0..rows {
        let row = m.row(r);
        let mut order: Vec<u32> = (0..cols as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            row[b as usize].total_cmp(&row[a as usize]).then(a.cmp(&b))
        });
        sorted_first.push(order[0]);
    }
    let sort_secs = t1.elapsed().as_secs_f64();
    // Keep the sort honest (no dead-code elimination) and cross-check the
    // kernel: both strategies must agree on every row's best entry.
    for (r, &first) in sorted_first.iter().enumerate() {
        assert_eq!(top.indices(r)[0], first, "top-K vs sort disagree on row {r}");
    }
    (topk_secs, sort_secs)
}

/// Pulls the `serve/qps` gauge out of a baseline snapshot file with the
/// same targeted scan the profile check uses.
fn baseline_qps(json: &str) -> Option<f64> {
    let key = "\"serve/qps\"";
    let tail = &json[json.find(key)? + key.len()..];
    let number: String = tail
        .chars()
        .skip_while(|c| !c.is_ascii_digit())
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect();
    number.parse().ok()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check_path = args.iter().position(|a| a == "--check").map(|i| {
        // PANICS: a trailing --check with no path is an operator error on
        // the command line; there is nothing to recover.
        args.get(i + 1).unwrap_or_else(|| panic!("loadgen: --check requires a path argument"))
    });

    if args.iter().any(|a| a == "--scale") {
        return match dgnn_bench::scale_tier::run(check_path.map(String::as_str)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("{msg}");
                ExitCode::FAILURE
            }
        };
    }

    println!("=== Serving load harness (tiny dataset, quick DGNN) ===");
    let data = tiny(SEED);
    let mut model = Dgnn::new(quick_dgnn());
    model.fit(&data, SEED);

    std::fs::create_dir_all("results").expect("loadgen: creating results dir");
    let ckpt_path = std::path::Path::new("results/dgnn.ckpt");
    model.save_checkpoint(&data.name, ckpt_path).expect("loadgen: writing checkpoint");
    let ckpt_bytes = std::fs::metadata(ckpt_path).map(|m| m.len()).unwrap_or(0);

    let engine = Engine::load(ckpt_path).expect("loadgen: loading checkpoint");
    let num_users = engine.num_users();
    // Cross-check one query against the server later.
    let reference = engine
        .recommend(Query { user: 0, k: 10, exclude_seen: false })
        .expect("loadgen: reference query");

    let server = Server::start(engine, ServeConfig::default()).expect("loadgen: binding server");
    let addr = server.addr();
    println!(
        "serving {} users from {} ({ckpt_bytes} bytes) at http://{addr}",
        num_users,
        ckpt_path.display()
    );

    let smoke_failures = malformed_smoke(addr);
    // The shared registry is process-wide: scope it to the main load so
    // the smoke probes above and the scrapes and overhead legs below stay
    // out of the measured stats.
    dgnn_obs::shared::reset();
    let (ok, err, elapsed) = drive_load(addr, num_users, REQUESTS_PER_CLIENT);
    let window = ServeWindow::capture();
    println!(
        "load: {CLIENTS} clients x {REQUESTS_PER_CLIENT} requests -> {ok} ok / {err} err \
         in {elapsed:.2}s ({:.0} qps)",
        (ok + err) as f64 / elapsed.max(1e-9)
    );

    // Telemetry endpoints must serve and parse while the process is warm.
    let scrape_failures = validate_scrapes(addr);

    // Served result == direct engine result for the same query.
    let mut consistency_failures = 0;
    match http_get(addr, "/recommend?user=0&k=10") {
        Ok((200, body)) => {
            let expect_items: Vec<String> = reference.iter().map(|s| s.item.to_string()).collect();
            let needle = format!("\"items\":[{}]", expect_items.join(","));
            if !body.contains(&needle) {
                eprintln!("consistency: served {body:?} does not contain {needle:?}");
                consistency_failures += 1;
            }
        }
        other => {
            eprintln!("consistency: reference request failed: {other:?}");
            consistency_failures += 1;
        }
    }

    server.shutdown();

    // Overhead measurement runs against a *fresh* server, after the main
    // run's window was captured, so its traffic cannot pollute the main
    // run's stats (qps, percentiles, phase attribution).
    let overhead_engine = Engine::load(ckpt_path).expect("loadgen: reloading checkpoint");
    let overhead_server =
        Server::start(overhead_engine, ServeConfig::default()).expect("loadgen: overhead server");
    let obs_overhead = obs_overhead_ratio(overhead_server.addr(), num_users);
    overhead_server.shutdown();
    println!(
        "obs overhead: enabled/disabled qps ratio {obs_overhead:.3} \
         (best of {OVERHEAD_ROUNDS} interleaved rounds per config)"
    );

    let (topk_secs, sort_secs) = topk_vs_sort(256, 4096, 20);
    let speedup = sort_secs / topk_secs.max(1e-9);
    println!(
        "top-K kernel: {:.1} ms vs full sort {:.1} ms on 256x4096 @ k=20 ({speedup:.1}x)",
        topk_secs * 1e3,
        sort_secs * 1e3
    );

    // Fold everything into one obs snapshot (enablement is thread-local,
    // so publishing happens here on the main thread).
    dgnn_obs::reset();
    dgnn_obs::enable();
    dgnn_obs::gauge_set("serve/clients", CLIENTS as f64);
    dgnn_obs::gauge_set("serve/requests_per_client", REQUESTS_PER_CLIENT as f64);
    dgnn_obs::gauge_set("serve/checkpoint_bytes", ckpt_bytes as f64);
    dgnn_obs::gauge_set("serve/topk_speedup_vs_sort", speedup);
    dgnn_obs::gauge_set("serve/obs_overhead_ratio", obs_overhead);
    dgnn_obs::gauge_set("serve/zipf_theta", ZIPF_THETA);
    if let (Some(rss), Some(peak)) = (procstat::rss_bytes(), procstat::peak_rss_bytes()) {
        dgnn_obs::gauge_set(procstat::RSS_GAUGE, rss as f64);
        dgnn_obs::gauge_set(procstat::PEAK_RSS_GAUGE, peak as f64);
    }
    dgnn_obs::counter_add("serve/smoke_failures", smoke_failures as u64);
    dgnn_obs::counter_add("serve/scrape_failures", scrape_failures as u64);
    dgnn_obs::counter_add("serve/consistency_failures", consistency_failures);

    // Phase attribution: per-phase p50/p99 from the main load's shared
    // histograms plus each phase group's share of the summed p99 — "is
    // tail latency queueing or compute?" answered from the benchmark
    // artifact alone.
    let mut phase_p99: std::collections::BTreeMap<&str, f64> = std::collections::BTreeMap::new();
    println!("phase attribution (p50 / p99 ms):");
    for phase in PHASES {
        if let Some(h) = window.hists.get(&format!("serve/phase/{phase}_ms")) {
            let (q50, q99) = (h.quantile(0.50), h.quantile(0.99));
            dgnn_obs::gauge_set(&format!("serve/phase/{phase}_p50_ms"), q50);
            dgnn_obs::gauge_set(&format!("serve/phase/{phase}_p99_ms"), q99);
            phase_p99.insert(phase, q99);
            println!("  {phase:<15} {q50:>8.3} / {q99:>8.3}");
        }
    }
    let p99_total: f64 = phase_p99.values().sum();
    if p99_total > 0.0 {
        let share = |keys: &[&str]| {
            keys.iter().filter_map(|k| phase_p99.get(k)).sum::<f64>() / p99_total
        };
        let queue = share(&["queue_wait", "batch_assembly"]);
        let compute = share(&["parse", "engine"]);
        let write = share(&["write"]);
        dgnn_obs::gauge_set("serve/attribution/queue_share_p99", queue);
        dgnn_obs::gauge_set("serve/attribution/compute_share_p99", compute);
        dgnn_obs::gauge_set("serve/attribution/write_share_p99", write);
        println!(
            "p99 share: queue {:.0}% / compute {:.0}% / write {:.0}%",
            queue * 100.0,
            compute * 100.0,
            write * 100.0
        );
    }

    let mut snapshot = dgnn_obs::snapshot();
    dgnn_obs::disable();
    dgnn_obs::reset();
    window.publish(elapsed, &mut snapshot);
    let gauge = |name: &str| snapshot.gauges.get(name).copied().unwrap_or(0.0);
    println!(
        "latency p50/p95/p99: {:.2}/{:.2}/{:.2} ms, mean batch {:.2} over {} dispatches",
        gauge("serve/latency_ms_p50"),
        gauge("serve/latency_ms_p95"),
        gauge("serve/latency_ms_p99"),
        gauge("serve/batch_size_mean"),
        snapshot.histograms.get("serve/batch_size").map_or(0, |h| h.count)
    );

    if smoke_failures > 0 || consistency_failures > 0 || scrape_failures > 0 {
        eprintln!(
            "FAIL: {smoke_failures} malformed-request smoke failure(s), \
             {consistency_failures} consistency failure(s), \
             {scrape_failures} telemetry scrape failure(s)"
        );
        return ExitCode::FAILURE;
    }

    if let Some(path) = check_path {
        if ok == 0 {
            eprintln!("REGRESSION serve: zero successful requests");
            return ExitCode::FAILURE;
        }
        if obs_overhead < OBS_OVERHEAD_FLOOR {
            eprintln!(
                "REGRESSION serve: live telemetry costs too much — obs-enabled qps is \
                 {obs_overhead:.3}x obs-disabled (floor {OBS_OVERHEAD_FLOOR})"
            );
            return ExitCode::FAILURE;
        }
        let json = std::fs::read_to_string(path).expect("loadgen: reading baseline file");
        let Some(base) = baseline_qps(&json) else {
            eprintln!("REGRESSION serve: serve/qps missing from baseline {path}");
            return ExitCode::FAILURE;
        };
        let qps = (ok + err) as f64 / elapsed.max(1e-9);
        let floor = base * (1.0 - REGRESSION_BUDGET);
        if qps < floor {
            eprintln!(
                "REGRESSION serve: {qps:.0} qps is more than {:.0}% below baseline {base:.0} \
                 (floor {floor:.0})",
                100.0 * REGRESSION_BUDGET
            );
            return ExitCode::FAILURE;
        }
        println!("qps check passed against {path} ({qps:.0} vs baseline {base:.0})");
        return ExitCode::SUCCESS;
    }

    let mut out = String::from("{\n  \"models\": {\n");
    out.push_str(&format!("    \"DGNN-serve\": {}\n", snapshot_to_json(&snapshot, 4).trim_start()));
    out.push_str("  }\n}\n");
    std::fs::write("BENCH_serve.json", out).expect("loadgen: writing BENCH_serve.json");
    println!("\nwrote BENCH_serve.json and results/dgnn.ckpt");
    ExitCode::SUCCESS
}
