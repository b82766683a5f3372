//! `serve-ciao` and `serve-scale`: a DGNN engine behind
//! `Server::start(ServeConfig::default())`, driven by `nproc` closed-loop
//! HTTP clients (one connection per request; the server answers
//! `Connection: close`).
//!
//! * `serve-ciao` — a dense `Engine::load` of a checkpoint trained (model
//!   seeded by the run seed) on ciao-s (300 users × 1,500 items, d=16);
//!   users Zipf θ=1.1.
//! * `serve-scale` — the `scale_bench` preset (131,072 users × 16,384
//!   items, d=64, 128 user shards) written with `SegmentedWriter` and
//!   opened lazily with `Engine::open_segmented`; users Zipf θ=1.4.
//!
//! Both draw `k` from {5, 10, 20} with `exclude_seen` on. Every client
//! replays a fixed cycle of its stream's first [`CYCLE_PER_CLIENT`]
//! requests; a fixed untimed warm-up (the cycle's first
//! [`WARMUP_PER_CLIENT`]) precedes the timed phase. Every answer is
//! compared (items and score bits): serve-ciao's with a direct
//! `Engine::recommend` on the same checkpoint, serve-scale's with a dense
//! engine built from `SegmentedCheckpoint::reassemble`.

use std::collections::HashMap;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use dgnn_core::{Dgnn, DgnnConfig};
use dgnn_data::{ciao_small, scale_bench, TestInstance};
use dgnn_eval::{evaluate, Recommender, Trainable};
use dgnn_serve::{Engine, Query, SegmentedCheckpoint, SegmentedWriter, ServeConfig, Server};
use dgnn_tensor::{top_k_rows, Init, Matrix};
use perfbench::{
    median, more_setups, percentile, settled, sorted, Plant, Request, RequestStream, DATA_SEED,
    K_CHOICES, WINDOWS,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{Opts, Outcome, Row};

/// Which serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Ciao,
    Scale,
}

impl Kind {
    fn theta(self) -> f64 {
        match self {
            Kind::Ciao => 1.1,
            Kind::Scale => 1.4,
        }
    }
}

/// Epochs the serve-ciao checkpoint is trained for.
const FIXTURE_EPOCHS: usize = 40;
/// Untimed requests per client before the timed phase.
pub const WARMUP_PER_CLIENT: usize = 150;
/// Requests in a client's cycle: each client replays the first this many
/// requests of its seeded stream in a loop, so the users (and so the
/// shards) a run touches are fixed by the seed, not by how many requests
/// the program answers in the time. The scale fixture answers all of them.
const CYCLE_PER_CLIENT: usize = 1_500;
/// Engine calls and kernel calls timed by the traced replay.
const REPLAY_CALLS: usize = 200;
/// Whether window `w` of a traced run's timed phase is traced: pairs
/// alternate untraced-traced and traced-untraced, so a drift such as
/// shards faulting in cancels out of the overhead ratio.
fn traced_window(w: usize) -> bool {
    matches!(w % 4, 1 | 2)
}

/// Closed-loop client threads (and so connections open at once): one per
/// available core.
pub fn clients() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

type Answer = Vec<(u32, u32)>;

fn answer_of(items: &[dgnn_serve::ScoredItem]) -> Answer {
    items.iter().map(|s| (s.item, s.score.to_bits())).collect()
}

fn query(r: Request) -> Query {
    Query {
        user: r.user,
        k: r.k,
        exclude_seen: true,
    }
}

fn target(r: Request) -> String {
    format!("/recommend?user={}&k={}&exclude_seen=true", r.user, r.k)
}

/// One blocking HTTP/1.1 exchange; returns (status, body).
fn http_get(addr: SocketAddr, target: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.write_all(format!("GET {target} HTTP/1.1\r\nHost: perfbench\r\n\r\n").as_bytes())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no status line"))?;
    let body = raw
        .split_once("\r\n\r\n")
        .map_or("", |(_, b)| b)
        .to_string();
    Ok((status, body))
}

/// Items and score bits of a `/recommend` body.
fn parse_answer(body: &str) -> Option<Answer> {
    let list = |key: &str| -> Option<&str> {
        let start = body.find(key)? + key.len();
        let len = body[start..].find(']')?;
        Some(&body[start..start + len])
    };
    let split = |s: &str| -> Vec<String> {
        s.split(',')
            .filter(|t| !t.is_empty())
            .map(str::to_string)
            .collect()
    };
    let items = split(list("\"items\":[")?);
    let scores = split(list("\"scores\":[")?);
    if items.len() != scores.len() {
        return None;
    }
    items
        .iter()
        .zip(&scores)
        .map(|(i, s)| Some((i.parse().ok()?, (s.parse::<f64>().ok()? as f32).to_bits())))
        .collect()
}

// ---------------------------------------------------------------- fixtures

fn write(path: &Path, text: String) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))
}

/// Trains DGNN on ciao-s at the paper config, saves the checkpoint, and
/// writes the test split the served engine is scored on.
pub fn build_ciao_fixture(seed: u64, dir: &Path) -> Result<(), String> {
    let data = ciao_small(DATA_SEED);
    let mut model = Dgnn::new(DgnnConfig {
        epochs: FIXTURE_EPOCHS,
        ..DgnnConfig::default()
    });
    model.fit(&data, seed);
    model
        .save_checkpoint(&data.name, &dir.join("model.ckpt"))
        .map_err(|e| format!("saving checkpoint: {e}"))?;
    let mut text = String::new();
    for t in &data.test {
        let negs: Vec<String> = t.negatives.iter().map(u32::to_string).collect();
        text.push_str(&format!("{} {} {}\n", t.user, t.pos_item, negs.join(" ")));
    }
    write(&dir.join("test.txt"), text)
}

/// Streams the `scale_bench` preset into a segmented store, then answers
/// every client's cycle with a dense engine built from the reassembled
/// store.
pub fn build_scale_fixture(seed: u64, clients: usize, dir: &Path) -> Result<(), String> {
    let spec = scale_bench();
    let store = dir.join("store");
    let mut w = SegmentedWriter::create(&store).map_err(|e| format!("writer: {e}"))?;
    w.set_meta("model", "scale-world");
    w.set_meta("dataset", spec.name);
    w.set_meta("seed", &seed.to_string());
    for shard in spec.user_shards(seed) {
        w.push_user_shard(&shard.emb, &shard.seen_indptr, &shard.seen_items)
            .map_err(|e| format!("user shard {}: {e}", shard.index))?;
    }
    for shard in spec.item_shards(seed) {
        w.push_item_shard(&shard.emb)
            .map_err(|e| format!("item shard {}: {e}", shard.index))?;
    }
    w.finish().map_err(|e| format!("manifest: {e}"))?;

    let seg = SegmentedCheckpoint::open(&store).map_err(|e| format!("reopening store: {e}"))?;
    let ckpt = seg
        .reassemble()
        .map_err(|e| format!("reassembling store: {e}"))?;
    let dense =
        Engine::from_checkpoint(&ckpt).map_err(|e| format!("dense reference engine: {e}"))?;
    let table = RequestStream::table(spec.num_users, Kind::Scale.theta());
    let mut wanted: Vec<Request> = (0..clients)
        .flat_map(|c| client_cycle(&table, seed, c))
        .collect();
    wanted.sort();
    wanted.dedup();
    let mut text = String::new();
    for chunk in wanted.chunks(64) {
        let queries: Vec<Query> = chunk.iter().map(|&r| query(r)).collect();
        for (r, res) in chunk.iter().zip(dense.recommend_batch(&queries)) {
            let items = res.map_err(|e| format!("reference answer for {r:?}: {e}"))?;
            let cells: Vec<String> = answer_of(&items)
                .iter()
                .map(|(i, b)| format!("{i}:{b}"))
                .collect();
            text.push_str(&format!("{} {} {}\n", r.user, r.k, cells.join(" ")));
        }
    }
    write(&dir.join("reference.txt"), text)
}

/// Client `client`'s cycle: the first [`CYCLE_PER_CLIENT`] requests of its
/// seeded stream.
fn client_cycle(table: &Arc<[f64]>, seed: u64, client: usize) -> Vec<Request> {
    let mut s = RequestStream::new(table.clone(), seed, client);
    (0..CYCLE_PER_CLIENT).map(|_| s.next_request()).collect()
}

fn load_reference(path: &Path) -> Result<HashMap<Request, Answer>, String> {
    let mut map = HashMap::new();
    for line in read(path)?.lines() {
        let mut parts = line.split_whitespace();
        let bad = || format!("bad reference line {line:?}");
        let user = parts.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
        let k = parts.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
        let answer = parts
            .map(|cell| {
                let (i, b) = cell.split_once(':')?;
                Some((i.parse().ok()?, b.parse().ok()?))
            })
            .collect::<Option<Answer>>()
            .ok_or_else(bad)?;
        map.insert(Request { user, k }, answer);
    }
    Ok(map)
}

fn load_test(path: &Path) -> Result<Vec<TestInstance>, String> {
    read(path)?
        .lines()
        .map(|line| {
            let nums: Vec<u32> = line
                .split_whitespace()
                .filter_map(|s| s.parse().ok())
                .collect();
            match nums.as_slice() {
                [user, pos, negs @ ..] => Ok(TestInstance {
                    user: *user,
                    pos_item: *pos,
                    negatives: negs.to_vec(),
                }),
                _ => Err(format!("bad test line {line:?}")),
            }
        })
        .collect()
}

/// Scores through the serving engine, so HR@10 measures the served model.
struct Served<'a>(&'a Engine);

impl Recommender for Served<'_> {
    fn name(&self) -> &str {
        "served"
    }

    fn score(&self, user: usize, items: &[usize]) -> Vec<f32> {
        match self.0.scores_for(user as u32) {
            Ok(row) => items.iter().map(|&i| row[i]).collect(),
            Err(_) => vec![f32::NEG_INFINITY; items.len()],
        }
    }
}

/// Quantile of a server histogram, interpolated linearly by rank inside
/// the log2 bucket that holds it and clamped to the exact min and max (the
/// estimator Prometheus' `histogram_quantile` uses). The sketch's own
/// `quantile` returns the bucket's midpoint, which repeats exactly from run
/// to run.
fn hist_quantile(h: &dgnn_obs::StreamHist, q: f64) -> f64 {
    use dgnn_obs::streamhist::{bucket_hi, bucket_lo, BUCKETS};
    let stat = h.stat();
    if stat.count == 0 {
        return 0.0;
    }
    let rank = q * stat.count as f64;
    let mut below = 0u64;
    for idx in 0..BUCKETS {
        let c = h.bucket_count(idx);
        if c > 0 && (below + c) as f64 >= rank {
            let frac = ((rank - below as f64) / c as f64).clamp(0.0, 1.0);
            let v = bucket_lo(idx) + frac * (bucket_hi(idx) - bucket_lo(idx));
            return v.clamp(stat.min, stat.max);
        }
        below += c;
    }
    stat.max
}

// ----------------------------------------------------------------- the run

/// The engine under test, opened the way a deployment opens it.
fn open_engine(kind: Kind, work: &Path) -> Result<(Engine, f64), String> {
    let t0 = Instant::now();
    let engine = match kind {
        Kind::Ciao => Engine::load(&work.join("model.ckpt")),
        Kind::Scale => Engine::open_segmented(&work.join("store")),
    }
    .map_err(|e| format!("opening engine: {e}"))?;
    Ok((engine, t0.elapsed().as_secs_f64() * 1e3))
}

/// One timed set-up: engine load or open, `Server::start`, and the first
/// answered request. Returns the running server, set-up seconds, and the
/// load/open milliseconds inside it.
fn setup(kind: Kind, work: &Path, plant: &Plant) -> Result<(Server, f64, f64), String> {
    let t0 = Instant::now();
    let (engine, open_ms) = open_engine(kind, work)?;
    let server =
        Server::start(engine, ServeConfig::default()).map_err(|e| format!("server: {e}"))?;
    match http_get(server.addr(), &target(Request { user: 0, k: 10 })) {
        Ok((200, _)) => {}
        other => return Err(format!("first request failed: {other:?}")),
    }
    Plant::delay(plant.setup_delay_ms);
    Ok((server, t0.elapsed().as_secs_f64(), open_ms))
}

/// Shared telemetry as it stood when the warm-up ended (traced runs).
type SharedBefore = (
    dgnn_obs::Snapshot,
    std::collections::BTreeMap<String, dgnn_obs::StreamHist>,
);

/// What the clients saw.
#[derive(Default)]
struct Load {
    /// Traced runs: the shared telemetry at the end of the warm-up, before
    /// it was zeroed for the timed phase.
    before: Option<SharedBefore>,
    /// (window, latency ms) of every successful timed request.
    samples: Vec<(usize, f64)>,
    attempted: u64,
    failed: u64,
    /// Answers compared with a reference, and how many differed.
    checked: u64,
    mismatched: u64,
    notes: Vec<String>,
}

/// Runs warm-up then the timed phase. `traced` lists, in order, whether
/// each equal window of the timed phase runs traced (live telemetry on);
/// a traced run also records the warm-up and snapshots it.
fn drive(
    addr: SocketAddr,
    opts: &Opts,
    table: &Arc<[f64]>,
    traced: &[bool],
    reference: &HashMap<Request, Answer>,
) -> Load {
    let (seed, seconds, plant) = (opts.seed, opts.seconds, &opts.plant);
    let n = clients();
    let barrier = Barrier::new(n + 1);
    let window = AtomicUsize::new(0);
    let deadline = Mutex::new(None::<Instant>);
    let load = Mutex::new(Load::default());
    let checked = std::sync::atomic::AtomicU64::new(0);
    let mut before = None;
    std::thread::scope(|scope| {
        for c in 0..n {
            let (barrier, window, deadline, load, checked) =
                (&barrier, &window, &deadline, &load, &checked);
            let cycle = client_cycle(table, seed, c);
            scope.spawn(move || {
                let mut stream = cycle.iter().copied().cycle();
                let mut local = Load::default();
                let exchange = |r: Request, local: &mut Load| -> bool {
                    local.attempted += 1;
                    let ok = match http_get(addr, &target(r)) {
                        Ok((200, body)) => match (parse_answer(&body), reference.get(&r)) {
                            (Some(got), Some(want)) => {
                                let nth = checked.fetch_add(1, Ordering::Relaxed) + 1;
                                let corrupt =
                                    plant.corrupt_every > 0 && nth % plant.corrupt_every == 0;
                                local.checked += 1;
                                if &got != want || corrupt {
                                    local.mismatched += 1;
                                    if local.notes.len() < 3 {
                                        local.notes.push(format!(
                                            "answer for {r:?} differs from the reference"
                                        ));
                                    }
                                    false
                                } else {
                                    true
                                }
                            }
                            (Some(_), None) => true,
                            (None, _) => false,
                        },
                        other => {
                            if local.notes.len() < 3 {
                                local.notes.push(format!("request {r:?} failed: {other:?}"));
                            }
                            false
                        }
                    };
                    if !ok {
                        local.failed += 1;
                    }
                    ok
                };
                for _ in 0..WARMUP_PER_CLIENT {
                    let r = stream.next().expect("a non-empty cycle");
                    exchange(r, &mut local);
                }
                barrier.wait();
                barrier.wait();
                let end = deadline
                    .lock()
                    .expect("deadline lock")
                    .expect("deadline set before release");
                while Instant::now() < end {
                    let r = stream.next().expect("a non-empty cycle");
                    let w = window.load(Ordering::Relaxed);
                    let t0 = Instant::now();
                    Plant::delay(plant.request_delay_ms);
                    let ok = exchange(r, &mut local);
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    if ok {
                        local.samples.push((w, ms));
                    }
                }
                let mut all = load.lock().expect("load lock");
                all.samples.extend(local.samples);
                all.attempted += local.attempted;
                all.failed += local.failed;
                all.checked += local.checked;
                all.mismatched += local.mismatched;
                all.notes.extend(local.notes);
            });
        }
        // Warm-up done on every client: snapshot and reset the shared
        // telemetry so the traced windows hold only timed requests, then
        // release the clients.
        barrier.wait();
        if opts.trace {
            before = Some((
                dgnn_obs::shared::snapshot(),
                dgnn_obs::shared::hist_snapshots(),
            ));
            dgnn_obs::shared::reset();
        }
        let slice = seconds / traced.len() as f64;
        let start = Instant::now();
        *deadline.lock().expect("deadline lock") = Some(start + Duration::from_secs_f64(seconds));
        dgnn_obs::set_live_telemetry(traced[0]);
        barrier.wait();
        for (i, &on) in traced.iter().enumerate().skip(1) {
            std::thread::sleep(
                (start + Duration::from_secs_f64(slice * i as f64))
                    .saturating_duration_since(Instant::now()),
            );
            dgnn_obs::set_live_telemetry(on);
            window.store(i, Ordering::Relaxed);
        }
    });
    let mut l = load.into_inner().expect("load lock");
    l.before = before;
    l
}

pub fn run(opts: &Opts, kind: Kind) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let work = opts.work.as_path();

    // Reference answers, and (serve-ciao) the test split.
    let (reference, num_users) = match kind {
        Kind::Ciao => {
            let (engine, _) = open_engine(kind, work)?;
            let mut map = HashMap::new();
            for user in 0..engine.num_users() as u32 {
                for k in K_CHOICES {
                    let r = Request { user, k };
                    let items = engine
                        .recommend(query(r))
                        .map_err(|e| format!("reference {r:?}: {e}"))?;
                    map.insert(r, answer_of(&items));
                }
            }
            let test = load_test(&work.join("test.txt"))?;
            let hr = evaluate(&Served(&engine), &test)[1].hr;
            out.metrics.insert("hr_at_10", hr);
            (map, engine.num_users())
        }
        Kind::Scale => (
            load_reference(&work.join("reference.txt"))?,
            scale_bench().num_users,
        ),
    };
    let table = RequestStream::table(num_users, kind.theta());

    // Set-up, repeated; the last server stays up for the load.
    dgnn_obs::set_live_telemetry(opts.trace);
    let (mut setups, mut opens) = (Vec::new(), Vec::new());
    let mut server = None;
    let started = Instant::now();
    while more_setups(setups.len(), started.elapsed().as_secs_f64()) {
        if let Some(s) = server.take() {
            Server::shutdown(s);
        }
        let (s, secs, open_ms) = setup(kind, work, &opts.plant)?;
        setups.push(secs);
        opens.push(open_ms);
        server = Some(s);
    }
    let server = server.ok_or("no set-up ran")?;
    let addr = server.addr();

    let traced_windows: Vec<bool> = (0..WINDOWS)
        .map(|w| opts.trace && traced_window(w))
        .collect();
    let mut load = drive(addr, opts, &table, &traced_windows, &reference);
    dgnn_obs::set_live_telemetry(opts.trace);
    out.attempted += load.attempted;
    out.failed += load.failed;
    out.notes.extend(load.notes.iter().cloned());
    if load.samples.is_empty() {
        return Err(format!(
            "no request succeeded in the timed phase ({} failed)",
            load.failed
        ));
    }

    // A window's throughput and median are its own: the run reports the
    // median throughput and the lower quartile of the latency medians
    // (`settled`), so a slow spell of the host moves windows, not the run.
    let window = |w: usize| -> Vec<f64> {
        sorted(
            &load
                .samples
                .iter()
                .filter(|(s, _)| *s == w)
                .map(|&(_, ms)| ms)
                .collect::<Vec<_>>(),
        )
    };
    let windows: Vec<Vec<f64>> = (0..WINDOWS).map(window).collect();
    let per_window = |f: &dyn Fn(&[f64]) -> f64| windows.iter().map(|w| f(w)).collect::<Vec<_>>();
    let window_secs = opts.seconds / WINDOWS as f64;
    out.metrics.insert("setup_s", median(&setups));
    out.metrics.insert(
        "bench.ops_per_s",
        median(&per_window(&|w| w.len() as f64 / window_secs)),
    );
    out.metrics.insert(
        "latency_p50_ms",
        settled(&per_window(&|w| percentile(w, 0.5))),
    );
    let lat: Vec<f64> = load.samples.iter().map(|&(_, ms)| ms).collect();
    out.metrics
        .insert("bench.latency_p99_ms", percentile(&sorted(&lat), 0.99));
    if kind == Kind::Scale {
        // No held-out interactions exist in the synthetic scale world: the
        // quality a user sees is agreement with exact dense scoring.
        out.metrics.insert(
            "hr_at_10",
            1.0 - load.mismatched as f64 / load.checked.max(1) as f64,
        );
    }
    out.notes.push(format!(
        "{} timed requests from {} clients ({:.1}/s), p99 {:.3} ms with {} beyond it; window p50/p99 ms: {}",
        lat.len(),
        clients(),
        out.metrics["bench.ops_per_s"],
        out.metrics["bench.latency_p99_ms"],
        lat.len() / 100,
        windows
            .iter()
            .map(|w| format!("{:.2}/{:.2}", percentile(w, 0.5), percentile(w, 0.99)))
            .collect::<Vec<_>>()
            .join(" ")
    ));

    if let Some(before) = load.before.take() {
        traced(
            opts, kind, addr, &load, &reference, &before, &opens, &table, &mut out,
        )?;
    }
    server.shutdown();
    Ok(out)
}

/// Per-layer numbers of a traced run: the server's phase histograms (read
/// after `/stats` answers), shard counters, and direct replays of the
/// engine and its kernels at the workload's shape.
#[allow(clippy::too_many_arguments)]
fn traced(
    opts: &Opts,
    kind: Kind,
    addr: SocketAddr,
    load: &Load,
    reference: &HashMap<Request, Answer>,
    (snap_before, hists_before): &SharedBefore,
    opens: &[f64],
    table: &Arc<[f64]>,
    out: &mut Outcome,
) -> Result<(), String> {
    out.attempted += 1;
    match http_get(addr, "/stats") {
        Ok((200, body)) if body.contains("serve/latency_ms") => {}
        other => {
            out.failed += 1;
            out.notes.push(format!(
                "/stats did not answer with the latency histogram: {other:?}"
            ));
        }
    }
    let hists = dgnn_obs::shared::hist_snapshots();
    let snap = dgnn_obs::shared::snapshot();
    let hist = |name: &str| hists.get(name).cloned().unwrap_or_default();
    let mean_of = |name: &str| hist(name).stat().mean();

    let by_seg = |traced: bool| -> Vec<f64> {
        load.samples
            .iter()
            .filter(|(w, _)| traced_window(*w) == traced)
            .map(|&(_, ms)| ms)
            .collect()
    };
    let (on, off) = (by_seg(true), by_seg(false));
    let mean_latency = on.iter().sum::<f64>() / on.len().max(1) as f64;

    let m = &mut out.metrics;
    let phase_names: [(&str, &str, &str); 5] = [
        (
            "serve/phase/parse_ms",
            "serve.http.parse_ms_p50",
            "serve.http.parse_ms_p99",
        ),
        (
            "serve/phase/queue_wait_ms",
            "serve.http.queue_wait_ms_p50",
            "serve.http.queue_wait_ms_p99",
        ),
        (
            "serve/phase/batch_assembly_ms",
            "serve.http.batch_assembly_ms_p50",
            "serve.http.batch_assembly_ms_p99",
        ),
        (
            "serve/phase/engine_ms",
            "serve.http.engine_ms_p50",
            "serve.http.engine_ms_p99",
        ),
        (
            "serve/phase/write_ms",
            "serve.http.write_ms_p50",
            "serve.http.write_ms_p99",
        ),
    ];
    let mut attributed = 0.0;
    let mut rows = Vec::new();
    for (src, p50, p99) in phase_names {
        let h = hist(src);
        m.insert(p50, hist_quantile(&h, 0.5));
        m.insert(p99, hist_quantile(&h, 0.99));
        let share = mean_of(src) / mean_latency;
        attributed += share;
        rows.push(Row::top(p50, hist_quantile(&h, 0.5), Some(share)));
    }
    let batch_mean = mean_of("serve/batch_size");
    m.insert("serve.http.batch_size_mean", batch_mean);

    let mut load_hist = hists_before
        .get("serve/shard/load_ms")
        .cloned()
        .unwrap_or_default();
    load_hist.merge(&hist("serve/shard/load_ms"));
    m.insert(
        "serve.shard.loads",
        snap.counters.get("serve/shard/loads").copied().unwrap_or(0) as f64,
    );
    m.insert("serve.shard.load_ms_p50", hist_quantile(&load_hist, 0.5));
    let resident = |s: &dgnn_obs::Snapshot| {
        s.gauges
            .get("serve/shard/user_resident_bytes")
            .copied()
            .unwrap_or(0.0)
    };
    let resident_bytes = if resident(&snap) > 0.0 {
        resident(&snap)
    } else {
        resident(snap_before)
    };
    m.insert(
        "serve.shard.resident_mb",
        resident_bytes / (1024.0 * 1024.0),
    );
    match kind {
        Kind::Ciao => m.insert("serve.checkpoint.load_ms", median(opens)),
        Kind::Scale => m.insert("serve.segment.open_ms", median(opens)),
    };
    m.insert("bench.attributed_share", attributed);
    m.insert("bench.trace_overhead_ratio", median(&on) / median(&off));
    m.insert("bench.latency_samples", on.len() as f64);

    // Replay the workload's query stream straight into a second engine at
    // the observed batch size; then the two kernels at that shape.
    dgnn_obs::set_live_telemetry(false);
    let (engine, _) = open_engine(kind, &opts.work)?;
    let batch = (batch_mean.round() as usize).max(1);
    let mut stream = RequestStream::new(table.clone(), opts.seed, 0);
    let warm: Vec<Query> = (0..WARMUP_PER_CLIENT * clients())
        .map(|_| query(stream.next_request()))
        .collect();
    for chunk in warm.chunks(64) {
        std::hint::black_box(engine.recommend_batch(chunk));
    }
    let mut engine_us = Vec::with_capacity(REPLAY_CALLS);
    for _ in 0..REPLAY_CALLS {
        let reqs: Vec<Request> = (0..batch).map(|_| stream.next_request()).collect();
        let queries: Vec<Query> = reqs.iter().map(|&r| query(r)).collect();
        let t0 = Instant::now();
        let answers = engine.recommend_batch(&queries);
        engine_us.push(t0.elapsed().as_secs_f64() * 1e6);
        for (r, a) in reqs.iter().zip(answers) {
            out.attempted += 1;
            let same = match (a, reference.get(r)) {
                (Ok(items), Some(want)) => &answer_of(&items) == want,
                (Ok(_), None) => true,
                (Err(_), _) => false,
            };
            if !same {
                out.failed += 1;
            }
        }
    }
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let users = Init::Uniform(0.1).build(batch, engine.dim(), &mut rng);
    let items = Init::Uniform(0.1).build(engine.num_items(), engine.dim(), &mut rng);
    let idx: Vec<usize> = (0..batch).collect();
    let (mut gemm_us, mut topk_us) = (Vec::new(), Vec::new());
    dgnn_tensor::gemm::reset_counters();
    for _ in 0..REPLAY_CALLS {
        let t0 = Instant::now();
        let scores: Matrix = users.gather_matmul_nt(&idx, &items);
        let t1 = Instant::now();
        std::hint::black_box(top_k_rows(&scores, K_CHOICES[K_CHOICES.len() - 1]));
        gemm_us.push((t1 - t0).as_secs_f64() * 1e6);
        topk_us.push(t1.elapsed().as_secs_f64() * 1e6);
    }
    let macs = dgnn_tensor::gemm::counters().macs as f64 / REPLAY_CALLS as f64;
    let m = &mut out.metrics;
    m.insert("tensor.gemm_macs", macs);
    let (e_us, g_us, k_us) = (median(&engine_us), median(&gemm_us), median(&topk_us));
    m.insert("serve.engine.recommend_batch_us", e_us);
    m.insert("tensor.gather_matmul_nt_us", g_us);
    m.insert("tensor.top_k_rows_us", k_us);

    let share = |us: f64| Some(us / 1e3 / mean_latency);
    rows.insert(
        4,
        Row::nested("serve.engine.recommend_batch_us", e_us, share(e_us)),
    );
    rows.insert(
        5,
        Row::nested("tensor.gather_matmul_nt_us", g_us, share(g_us)),
    );
    rows.insert(6, Row::nested("tensor.top_k_rows_us", k_us, share(k_us)));
    rows.push(Row::count("serve.http.batch_size_mean", batch_mean));
    rows.push(Row::count("serve.shard.loads", m["serve.shard.loads"]));
    out.attribution = rows;
    out.blocking_ms = mean_latency;
    out.blocking_what = "one request, client-side mean over traced windows";
    out.notes.push(
        "phase shares use phase means over the client-side mean latency; the remainder is \
         connect/accept/hand-off time outside the server's phases"
            .to_string(),
    );
    Ok(())
}
