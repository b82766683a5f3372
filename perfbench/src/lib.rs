//! Shared pieces of the repository benchmark: sample statistics, the
//! regression verdict, the result line, the seeded request stream, and the
//! planted-regression knobs its self-test drives.
//!
//! The workloads themselves live in the `perfbench` binary; this library
//! holds what the binary and its tests must agree on.

use std::collections::BTreeMap;

/// Nearest-rank percentile of an ascending slice (`q` in `0..=1`); 0 for
/// an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Sorted copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Equal time windows a timed phase is cut into. Each window's median is
/// its own, so a slow spell of the host moves the windows it covers.
pub const WINDOWS: usize = 15;

/// A serving run's latency from its per-window medians: their lower
/// quartile (nearest rank). A change to the program moves every window
/// alike and so moves this figure; a burst of scheduling delay on a shared
/// host moves it only once the burst covers three quarters of the run.
pub fn settled(per_window: &[f64]) -> f64 {
    percentile(&sorted(per_window), 0.25)
}

/// Window of a sample taken `elapsed_s` into a timed phase of `seconds`;
/// samples past the end fall into the last window.
pub fn window_of(elapsed_s: f64, seconds: f64) -> usize {
    ((elapsed_s / seconds * WINDOWS as f64) as usize).min(WINDOWS - 1)
}

/// Seed of the ciao-s dataset train-ciao trains on and serve-ciao's
/// checkpoint is trained on. The dataset is a fixed corpus: with the batch
/// size at 2048, a freshly drawn ciao-s has either two or three batches per
/// epoch depending on its seed, which would swamp any code change. `--seed`
/// drives everything else: model initialisation, negative sampling, the
/// scale world, and the request streams.
pub const DATA_SEED: u64 = 2023;

/// Whether a run should time another set-up: at least 5, then more while
/// the set-ups so far took under a second, at most 31. `setup_s` is the
/// median of them.
pub fn more_setups(done: usize, elapsed_s: f64) -> bool {
    done < 5 || (done < 31 && elapsed_s < 1.0)
}

/// Which direction of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (throughput, quality).
    Higher,
}

/// An end-to-end metric with its regression bound, as `BENCHMARK.json`
/// declares it.
#[derive(Debug, Clone, Copy)]
pub struct Bound {
    /// Metric name.
    pub name: &'static str,
    /// Unit printed with every value.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen.
    pub bound: f64,
}

/// The end-to-end metrics every workload reports (mirrors
/// `BENCHMARK.json`).
pub const END_TO_END: [Bound; 5] = [
    Bound {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    Bound {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.2,
    },
    Bound {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.24,
    },
    Bound {
        name: "hr_at_10",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.15,
    },
    Bound {
        name: "success_share",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.01,
    },
];

/// Per-layer metrics every traced run reports, with their units. A layer
/// a workload never calls reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("data.sampler_ms", "ms"),
    ("core.record_step_ms", "ms"),
    ("autograd.backward_ms", "ms"),
    ("autograd.optim_ms", "ms"),
    ("core.finalize_ms", "ms"),
    ("tensor.matmul_ms", "ms"),
    ("tensor.spmm_ms", "ms"),
    ("tensor.encoder_slice_mul_ms", "ms"),
    ("tensor.layer_norm_ms", "ms"),
    ("tensor.gemm_macs", "count"),
    ("autograd.tape_nodes", "count"),
    ("tensor.alloc_pool_hit_ratio", "ratio"),
    ("serve.http.parse_ms_p50", "ms"),
    ("serve.http.parse_ms_p99", "ms"),
    ("serve.http.queue_wait_ms_p50", "ms"),
    ("serve.http.queue_wait_ms_p99", "ms"),
    ("serve.http.batch_assembly_ms_p50", "ms"),
    ("serve.http.batch_assembly_ms_p99", "ms"),
    ("serve.http.engine_ms_p50", "ms"),
    ("serve.http.engine_ms_p99", "ms"),
    ("serve.http.write_ms_p50", "ms"),
    ("serve.http.write_ms_p99", "ms"),
    ("serve.http.batch_size_mean", "count"),
    ("serve.engine.recommend_batch_us", "us"),
    ("tensor.gather_matmul_nt_us", "us"),
    ("tensor.top_k_rows_us", "us"),
    ("serve.checkpoint.load_ms", "ms"),
    ("serve.segment.open_ms", "ms"),
    ("serve.shard.loads", "count"),
    ("serve.shard.load_ms_p50", "ms"),
    ("serve.shard.resident_mb", "MiB"),
    ("bench.attributed_share", "ratio"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.latency_samples", "count"),
    ("bench.latency_p99_ms", "ms"),
    ("bench.ops_per_s", "1/s"),
];

/// Looks up an end-to-end bound by name.
pub fn bound_of(name: &str) -> Option<Bound> {
    END_TO_END.iter().copied().find(|b| b.name == name)
}

/// True when the median of `candidate` is worse than the median of
/// `baseline` by more than `bound.bound` of the baseline median — the
/// rule a change's runs are judged by against its parent's.
pub fn regressed(bound: Bound, baseline: &[f64], candidate: &[f64]) -> bool {
    let base = median(baseline);
    let cand = median(candidate);
    let limit = bound.bound * base.abs();
    match bound.better {
        Better::Lower => cand - base > limit,
        Better::Higher => base - cand > limit,
    }
}

/// One benchmark result line: the last line a run prints.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunResult {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted (epochs and checks, or requests).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metric name → (value, unit).
    pub metrics: BTreeMap<String, (f64, String)>,
}

impl RunResult {
    /// Serializes to the one-line JSON object the benchmark prints last.
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(k, (v, u))| {
                format!(
                    "\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_number(*v)
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct, self.attempted, self.failed
        )
    }

    /// Parses a line produced by [`RunResult::to_json`].
    pub fn parse(line: &str) -> Option<Self> {
        let field = |key: &str| -> Option<&str> {
            let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
            let rest = &line[at..];
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            Some(rest[..end].trim())
        };
        let mut out = RunResult {
            correct: field("correct")? == "true",
            attempted: field("attempted")?.parse().ok()?,
            failed: field("failed")?.parse().ok()?,
            metrics: BTreeMap::new(),
        };
        let body = &line[line.find("\"metrics\": {")? + 12..];
        for entry in body.split("}, ") {
            let (name, rest) = entry.trim_start_matches('{').split_once(": {\"value\": ")?;
            let (value, rest) = rest.split_once(", \"unit\": \"")?;
            let unit = rest.split('"').next()?;
            out.metrics.insert(
                name.trim().trim_matches('"').to_string(),
                (value.parse().ok()?, unit.to_string()),
            );
        }
        Some(out)
    }

    /// The value of metric `name`, if reported.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|(v, _)| *v)
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives (non-finite values become 0, which JSON cannot carry
/// otherwise).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// SplitMix64 step: the benchmark's own generator, independent of the
/// workspace RNG so a change there cannot move the benchmark's inputs.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` from a SplitMix64 state.
fn unit(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// One top-K request of a serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Request {
    /// User id.
    pub user: u32,
    /// Items asked for.
    pub k: usize,
}

/// The `k` values a serving client draws from, uniformly.
pub const K_CHOICES: [usize; 3] = [5, 10, 20];

/// A client's deterministic request stream: users from a Zipf(θ)
/// distribution over `0..n` (rank 0 most requested), `k` uniform over
/// [`K_CHOICES`]. Client `c` of a run seeded `seed` always replays the same
/// stream.
#[derive(Debug, Clone)]
pub struct RequestStream {
    cdf: std::sync::Arc<[f64]>,
    state: u64,
}

impl RequestStream {
    /// The shared Zipf table for `n` users at exponent `theta`.
    pub fn table(n: usize, theta: f64) -> std::sync::Arc<[f64]> {
        assert!(
            n > 0 && theta.is_finite(),
            "Zipf needs users and a finite exponent"
        );
        let mut acc = 0.0f64;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(theta);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        cdf.into()
    }

    /// Client `client`'s stream over `table`, seeded by the run seed.
    pub fn new(table: std::sync::Arc<[f64]>, seed: u64, client: usize) -> Self {
        let mut state = seed ^ 0x5EED_0FC1_1EA7_u64.wrapping_mul(client as u64 + 1);
        splitmix(&mut state);
        Self { cdf: table, state }
    }

    /// The next request.
    pub fn next_request(&mut self) -> Request {
        let u = unit(&mut self.state);
        let user = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1) as u32;
        let k = K_CHOICES[(splitmix(&mut self.state) % K_CHOICES.len() as u64) as usize];
        Request { user, k }
    }
}

/// Regressions a test can plant through the `PERFBENCH_PLANT` environment
/// variable, as `key=value` pairs separated by commas. Unset means none.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Plant {
    /// Extra milliseconds slept in every training epoch's loop.
    pub step_delay_ms: f64,
    /// Extra milliseconds a serving client waits inside each timed request.
    pub request_delay_ms: f64,
    /// Extra milliseconds slept inside every timed set-up.
    pub setup_delay_ms: f64,
    /// MiB allocated and touched before the workload starts.
    pub rss_ballast_mb: f64,
    /// Every n-th checked answer is treated as wrong (0 = never).
    pub corrupt_every: u64,
}

impl Plant {
    /// Reads `PERFBENCH_PLANT`.
    pub fn from_env() -> Result<Self, String> {
        match std::env::var("PERFBENCH_PLANT") {
            Ok(spec) => Self::parse(&spec),
            Err(_) => Ok(Self::default()),
        }
    }

    /// Parses `key=value[,key=value…]`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut p = Self::default();
        for pair in spec.split(',').filter(|s| !s.trim().is_empty()) {
            let (k, v) = pair
                .split_once('=')
                .ok_or_else(|| format!("plant {pair:?}: want key=value"))?;
            let num: f64 = v
                .trim()
                .parse()
                .map_err(|_| format!("plant {pair:?}: not a number"))?;
            match k.trim() {
                "step_delay_ms" => p.step_delay_ms = num,
                "request_delay_ms" => p.request_delay_ms = num,
                "setup_delay_ms" => p.setup_delay_ms = num,
                "rss_ballast_mb" => p.rss_ballast_mb = num,
                "corrupt_every" => p.corrupt_every = num as u64,
                other => return Err(format!("unknown plant {other:?}")),
            }
        }
        Ok(p)
    }

    /// Sleeps for `ms` milliseconds when positive.
    pub fn delay(ms: f64) {
        if ms > 0.0 {
            std::thread::sleep(std::time::Duration::from_secs_f64(ms / 1e3));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn verdict_respects_direction_and_bound() {
        let lat = Bound {
            name: "x",
            unit: "ms",
            better: Better::Lower,
            bound: 0.1,
        };
        assert!(!regressed(lat, &[10.0, 10.0, 10.0], &[10.9, 11.0, 10.5]));
        assert!(regressed(lat, &[10.0, 10.0, 10.0], &[11.2, 11.3, 11.1]));
        assert!(!regressed(lat, &[10.0], &[5.0]));
        let tput = Bound {
            name: "y",
            unit: "1/s",
            better: Better::Higher,
            bound: 0.1,
        };
        assert!(regressed(tput, &[100.0], &[85.0]));
        assert!(!regressed(tput, &[100.0], &[95.0]));
        assert!(!regressed(tput, &[100.0], &[150.0]));
    }

    #[test]
    fn result_line_round_trips() {
        let mut r = RunResult {
            correct: true,
            attempted: 12,
            failed: 1,
            ..Default::default()
        };
        r.metrics
            .insert("latency_p50_ms".into(), (2.5, "ms".into()));
        r.metrics
            .insert("ops_per_s".into(), (1234.5678, "1/s".into()));
        let line = r.to_json();
        assert_eq!(RunResult::parse(&line), Some(r));
    }

    #[test]
    fn request_streams_replay_and_differ_per_client() {
        let t = RequestStream::table(1000, 1.1);
        let a: Vec<Request> = {
            let mut s = RequestStream::new(t.clone(), 7, 0);
            (0..50).map(|_| s.next_request()).collect()
        };
        let b: Vec<Request> = {
            let mut s = RequestStream::new(t.clone(), 7, 0);
            (0..50).map(|_| s.next_request()).collect()
        };
        let c: Vec<Request> = {
            let mut s = RequestStream::new(t, 7, 1);
            (0..50).map(|_| s.next_request()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|r| r.user < 1000 && K_CHOICES.contains(&r.k)));
    }

    #[test]
    fn plants_parse() {
        let p = Plant::parse("step_delay_ms=2.5, corrupt_every=10").expect("valid plant");
        assert_eq!(p.step_delay_ms, 2.5);
        assert_eq!(p.corrupt_every, 10);
        assert!(Plant::parse("nope=1").is_err());
    }
}
