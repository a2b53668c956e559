//! The timed closed loop: [`CLIENTS`] clients, each sending its next
//! request only after the previous reply is decoded.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use crate::client::exchange;
use crate::oracle;
use crate::setup::CLIENTS;
use crate::stats::samples_for_tail;
use crate::verify::Verified;
use crate::workload::{wire_request, Env};

/// Requests per client round. Clients stop only at a round boundary, so
/// every TRAF-20 client completes whole passes over the 20 queries.
pub const ROUND: usize = 20;
/// A run keeps going past `--seconds` until p99 has enough samples, but
/// never past this.
pub const MAX_LOOP_S: f64 = 120.0;
/// The server stages of a request timeline, in waterfall order.
pub const STAGES: [&str; 6] = [
    "admission",
    "queue",
    "window",
    "cache",
    "execute",
    "respond",
];

/// What one client saw.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// Seconds from the loop start to this client's last reply.
    pub active_s: f64,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that ended in an error frame or a wire error.
    pub failed: u64,
    /// Completed requests whose verdicts were wrong.
    pub wrong: Vec<String>,
    /// Latency of each completed request, ms.
    pub latency_ms: Vec<f64>,
    /// Per completed request: the six stage durations, then the time
    /// outside the server's stages, ms.
    pub stages_ms: Vec<[f64; 7]>,
}

/// Runs the loop for `seconds` (rounded up to whole rounds).
pub fn closed_loop(env: &Env, verified: &Verified, seconds: f64) -> Vec<ClientLog> {
    let start = Instant::now();
    let completed = AtomicUsize::new(0);
    let needed = samples_for_tail(0.99);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let completed = &completed;
                scope.spawn(move || {
                    let mut log = ClientLog::default();
                    let mut buf = Vec::new();
                    let mut k = 0;
                    loop {
                        for _ in 0..ROUND {
                            let request = env.requests.request(client, k);
                            k += 1;
                            log.attempted += 1;
                            let wire = wire_request(
                                request.predicate.clone(),
                                request.target,
                                env.workload.shared(),
                            );
                            let answer = exchange(&env.server, wire, &mut buf);
                            let verdicts = match answer.outcome {
                                Ok(v) => v,
                                Err(_) => {
                                    log.failed += 1;
                                    continue;
                                }
                            };
                            completed.fetch_add(1, Ordering::Relaxed);
                            let latency_ms = answer.latency_s * 1e3;
                            log.latency_ms.push(latency_ms);
                            if let Some(trace) = &answer.trace {
                                let mut row = [0.0; 7];
                                for (slot, stage) in row.iter_mut().zip(STAGES) {
                                    *slot = trace.stage_nanos(stage).unwrap_or(0) as f64 / 1e6;
                                }
                                row[6] = latency_ms - trace.total_nanos as f64 / 1e6;
                                log.stages_ms.push(row);
                            }
                            let check = match request.verified_as {
                                Some(i) => verdicts
                                    .frame_ids()
                                    .map(|ids| ids == verified.frames[i])
                                    .map_err(|e| e.to_string()),
                                None => all_hold(&verdicts, &request.predicate, env),
                            };
                            if check != Ok(true) && log.wrong.len() < 3 {
                                log.wrong
                                    .push(format!("`{}`: {check:?}", request.predicate));
                            }
                        }
                        let elapsed = start.elapsed().as_secs_f64();
                        let enough = completed.load(Ordering::Relaxed) >= needed;
                        if (elapsed >= seconds && enough) || elapsed >= MAX_LOOP_S {
                            log.active_s = elapsed;
                            return log;
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| ClientLog {
                    wrong: vec!["client thread panicked".into()],
                    ..Default::default()
                })
            })
            .collect()
    })
}

/// Whether every returned frame satisfies `predicate` on ground truth.
fn all_hold(
    verdicts: &crate::client::Verdicts,
    predicate: &pp_engine::predicate::Predicate,
    env: &Env,
) -> Result<bool, String> {
    for id in verdicts.frame_ids()? {
        let frame = usize::try_from(id).map_err(|_| format!("frame id {id}"))?;
        if !crate::setup::eval_frames().contains(&frame)
            || !oracle::holds(predicate, env.corpus.dataset.truth(frame))?
        {
            return Ok(false);
        }
    }
    Ok(true)
}
