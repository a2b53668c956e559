//! Wire-to-verdict benchmark of the PP serving stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path wirebench/Cargo.toml -- \
//!     --workload traf20_mem --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Each run sets the workload up (corpus, PP training, segment files,
//! server, warm-up) [`SETUP_REPS`] times, checks the fixed verification
//! query set against the generator's ground truth, then drives the
//! server through the wire codec from a closed loop of clients for
//! `--seconds`. With `--trace 0` it prints the end-to-end metrics; with
//! `--trace 1` it also replays the workload layer by layer and prints the
//! per-layer metrics instead. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod adhoc;
mod client;
mod load;
mod oracle;
mod setup;
mod stats;
mod traced;
mod verify;
mod workload;

use std::path::{Path, PathBuf};
use std::time::Instant;

use stats::{median, sorted, tail, Metric};
use traced::{mean_of, median_of, LayerSample};
use workload::{Env, Workload};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Requests the traced run replays.
pub const TRACE_REQUESTS: usize = 60;
/// Where segment files are written, relative to the working directory.
const DATA_DIR: &str = ".wirebench-data";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: wirebench --workload <traf20_mem|traf20_disk|adhoc_shared> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = args;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be > 0")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("wirebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let data = DataDir(Path::new(DATA_DIR).join(std::process::id().to_string()));
    let outcome = run(&args, &data.0);
    drop(data);
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("wirebench: {e}");
            std::process::exit(1);
        }
    }
}

/// Removes this run's segment directory (and the shared parent, once
/// empty) however the run ends.
struct DataDir(PathBuf);

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(DATA_DIR);
    }
}

/// One run; `Ok(correct)` after printing the result line.
fn run(args: &Args, data_dir: &Path) -> Result<bool, String> {
    let mut setup_s = Vec::new();
    let mut train_s = Vec::new();
    let mut write_s = Vec::new();
    let mut env = None;
    for rep in 0..SETUP_REPS {
        drop(env.take());
        let started = Instant::now();
        let built = Env::build(args.workload, args.seed, &data_dir.join(rep.to_string()))?;
        setup_s.push(started.elapsed().as_secs_f64());
        train_s.push(built.corpus.train_s);
        write_s.push(built.segments.as_ref().map_or(0.0, |s| s.write_s));
        env = Some(built);
    }
    let env = env.expect("at least one set-up");
    let verified = verify::verify(&env).map_err(|e| format!("verification failed: {e}"))?;

    let cache_before = env.server.cache_stats();
    let shared_before = SharedCounters::read(&env);
    let logs = load::closed_loop(&env, &verified, args.seconds);
    let cache = env.server.cache_stats();
    let shared = SharedCounters::read(&env).since(&shared_before);
    let peak_rss_mb = peak_rss_mb()?;

    let attempted: u64 = logs.iter().map(|l| l.attempted).sum();
    let failed: u64 = logs.iter().map(|l| l.failed).sum();
    let wrong: Vec<&String> = logs.iter().flat_map(|l| &l.wrong).collect();
    let latencies = sorted(
        logs.iter()
            .flat_map(|l| l.latency_ms.iter().copied())
            .collect(),
    );
    let qps: f64 = logs
        .iter()
        .map(|l| (l.attempted - l.failed) as f64 / l.active_s)
        .sum();
    let p50 = median(&latencies).ok_or("no request completed")?;
    let stage_p50 = |i: usize| {
        let values = sorted(
            logs.iter()
                .flat_map(|l| l.stages_ms.iter().map(|s| s[i]))
                .collect(),
        );
        median(&values).unwrap_or(0.0)
    };

    let m = |name, unit, value| Metric { name, unit, value };
    let mut metrics = vec![
        m("qps", "1/s", qps),
        m("latency_p50_ms", "ms", p50),
        m(
            "cluster_s_per_query",
            "cluster_s",
            verified.cluster_s_per_query,
        ),
        m("recall_mean", "ratio", verified.recall_mean),
        m("setup_s", "s", median_f(&setup_s)),
        m("peak_rss_mb", "MiB", peak_rss_mb),
    ];
    eprintln!(
        "{} seed {}: {} requests ({} failed, {} wrong) in {:.1} s over {} clients",
        args.workload.name(),
        args.seed,
        attempted,
        failed,
        wrong.len(),
        logs.iter().map(|l| l.active_s).fold(0.0, f64::max),
        logs.len()
    );
    for w in &wrong {
        eprintln!("  wrong verdicts: {w}");
    }

    if args.trace {
        let p99 = tail(&latencies, 0.99).ok_or(format!(
            "{} completions are too few for p99",
            latencies.len()
        ))?;
        let replayed = traced::replay(&env, &trace_requests(&env))?;
        let layer_sum = median_of(&replayed, |s| s.layer_sum_ms);
        let decode_s: f64 = replayed.iter().map(|s| s.read_group_ms / 1e3).sum();
        let decoded_mib: f64 =
            replayed.iter().map(|s| s.group_bytes).sum::<f64>() / (1024.0 * 1024.0);
        let med = |f: fn(&LayerSample) -> f64| median_of(&replayed, f);
        let avg = |f: fn(&LayerSample) -> f64| mean_of(&replayed, f);
        let stage_names = [
            "server.admission_ms",
            "server.queue_ms",
            "server.window_ms",
            "server.cache_ms",
            "server.execute_ms",
            "server.respond_ms",
            "server.outside_ms",
        ];
        let mut layers = vec![
            m("wire.request_codec_us", "us", med(|s| s.request_codec_us)),
            m("wire.response_encode_ms", "ms", med(|s| s.encode_ms)),
            m("wire.response_decode_ms", "ms", med(|s| s.decode_ms)),
            m("wire.response_kib", "KiB", avg(|s| s.response_kib)),
        ];
        layers.extend(
            stage_names
                .iter()
                .enumerate()
                .map(|(i, name)| m(name, "ms", stage_p50(i))),
        );
        layers.extend([
            m(
                "cache.hits",
                "count",
                (cache.hits - cache_before.hits) as f64,
            ),
            m(
                "cache.builds",
                "count",
                (cache.builds - cache_before.builds) as f64,
            ),
            m(
                "cache.evictions",
                "count",
                (cache.evicted - cache_before.evicted) as f64,
            ),
            m("planner.optimize_ms", "ms", med(|s| s.optimize_ms)),
            m("engine.run_ms", "ms", med(|s| s.run_ms)),
            m("engine.pp_ms", "ms", med(|s| s.pp_ms)),
            m("engine.scan_ms", "ms", med(|s| s.scan_ms)),
            m("engine.udf_ms", "ms", med(|s| s.udf_ms)),
            m("engine.select_ms", "ms", med(|s| s.select_ms)),
            m("engine.rows_scanned", "count", avg(|s| s.rows_scanned)),
            m("engine.rows_after_pp", "count", avg(|s| s.rows_after_pp)),
            m(
                "engine.udf_invocations",
                "count",
                avg(|s| s.udf_invocations),
            ),
            m("store.read_group_ms", "ms", med(|s| s.read_group_ms)),
            m("store.groups_read", "count", avg(|s| s.groups_read)),
            m(
                "store.decode_mib_per_s",
                "MiB/s",
                if decode_s > 0.0 {
                    decoded_mib / decode_s
                } else {
                    0.0
                },
            ),
            m("store.write_s", "s", median_f(&write_s)),
            m("sharedscan.windows", "count", shared.windows),
            m(
                "sharedscan.queries_per_window",
                "ratio",
                ratio(shared.window_queries, shared.windows),
            ),
            m("sharedscan.udf_invocations", "count", shared.invoked),
            m(
                "sharedscan.udf_saved_ratio",
                "ratio",
                ratio(shared.saved, shared.saved + shared.invoked),
            ),
            m("train.catalog_s", "s", median_f(&train_s)),
            m("trace.layer_sum_ms", "ms", layer_sum),
            m("trace.untraced_p50_ms", "ms", p50),
            m("trace.untraced_p99_ms", "ms", p99),
            m("trace.gap_ms", "ms", p50 - layer_sum),
        ]);
        metrics = layers;
    }

    for metric in &metrics {
        eprintln!(
            "  {:<32} {:>14.4} {}",
            metric.name, metric.value, metric.unit
        );
    }
    let correct = wrong.is_empty();
    println!(
        "{}",
        stats::result_line(correct, attempted, failed, &metrics)
    );
    Ok(correct)
}

/// The requests the traced run replays: the first client's sequence
/// (whole TRAF-20 passes, or the next ad-hoc predicates of the stream).
fn trace_requests(env: &Env) -> Vec<(pp_engine::predicate::Predicate, f64)> {
    (0..TRACE_REQUESTS)
        .map(|k| {
            let r = env.requests.request(0, k);
            (r.predicate, r.target)
        })
        .collect()
}

fn median_f(values: &[f64]) -> f64 {
    median(&sorted(values.to_vec())).unwrap_or(0.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The server's shared-scan counters.
#[derive(Debug, Clone, Copy)]
struct SharedCounters {
    windows: f64,
    window_queries: f64,
    invoked: f64,
    saved: f64,
}

impl SharedCounters {
    fn read(env: &Env) -> Self {
        let get = |name: &str| env.server.metrics().counter(name).get() as f64;
        SharedCounters {
            windows: get("server.sharedscan.windows_total"),
            window_queries: get("server.sharedscan.window_queries_total"),
            invoked: get("server.sharedscan.udf_invocations_total"),
            saved: get("server.sharedscan.udf_invocations_saved_total"),
        }
    }

    fn since(self, before: &Self) -> Self {
        SharedCounters {
            windows: self.windows - before.windows,
            window_queries: self.window_queries - before.window_queries,
            invoked: self.invoked - before.invoked,
            saved: self.saved - before.saved,
        }
    }
}

/// Peak resident memory of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}
