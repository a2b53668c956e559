//! The ground-truth checks every workload runs on its fixed verification
//! query set before timing. Any mismatch aborts the run.

use std::collections::BTreeSet;

use pp_engine::exec::ExecutionContext;
use pp_server::{PpServer, QueryRequest};

use crate::client::{exchange, rows_digest, Digest, Verdicts};
use crate::oracle::{self, same_charge, OpRows};
use crate::setup::{self, eval_frames, CLIENTS, SOURCE};
use crate::workload::{passes, warm_up, wire_request, Env, Workload, TRAF_WARMUP_PASSES};

/// What verification measured.
#[derive(Debug)]
pub struct Verified {
    /// Mean cost-meter charge per verification query.
    pub cluster_s_per_query: f64,
    /// Mean recall over the queries with a non-empty true answer.
    pub recall_mean: f64,
    /// Returned frame ids per verification query, in stream order.
    pub frames: Vec<Vec<i64>>,
}

/// Runs every check; `Err` names the first mismatch.
pub fn verify(env: &Env) -> Result<Verified, String> {
    let units = setup::unit_costs();
    let spec = setup::sources(&env.corpus.dataset);
    let spec = spec.get(SOURCE).expect("registered source");
    let n = eval_frames().len();
    let mut charges = Vec::new();
    let mut recalls = Vec::new();
    let mut frames = Vec::new();
    let mut solo = Vec::new();
    let mut buf = Vec::new();
    for (predicate, target) in &env.verify_set {
        let ctx = |what: &str| format!("`{predicate}` at a={target}: {what}");
        let truth = oracle::true_set(predicate, &env.corpus.dataset, eval_frames())?;

        // Over the wire, solo.
        let wire = exchange(
            &env.server,
            wire_request(predicate.clone(), *target, false),
            &mut buf,
        )
        .outcome
        .map_err(|e| ctx(&e))?;
        let returned = wire.frame_set().map_err(|e| ctx(&e))?;
        if let Some(extra) = returned.difference(&truth).next() {
            return Err(ctx(&format!(
                "frame {extra} does not satisfy the predicate"
            )));
        }
        if let Some(r) = oracle::recall(&returned, &truth) {
            recalls.push(r);
        }

        // In process: the same verdicts, and a charge that recomputes.
        let response = env
            .server
            .submit(QueryRequest::new(SOURCE, predicate.clone(), *target))
            .map_err(|e| ctx(&format!("rejected: {e}")))?
            .wait();
        let success = response
            .outcome
            .success()
            .ok_or_else(|| ctx(&format!("in-process run ended {:?}", response.outcome)))?;
        let local: Vec<_> = success
            .rows
            .rows()
            .iter()
            .map(|r| r.values().to_vec())
            .collect();
        if rows_digest(local) != wire.digest() {
            return Err(ctx("wire verdicts differ from the in-process verdicts"));
        }
        let spans = &success.telemetry.spans;
        let charge: f64 = spans.iter().map(|s| s.seconds).sum();
        let pp = success
            .report
            .chosen
            .as_ref()
            .map(|c| (c.filter_op(), c.estimate.cost));
        let rows: Vec<OpRows<'_>> = spans.iter().map(OpRows::from).collect();
        let recomputed = units.recompute(&rows, pp.as_ref().map(|(op, c)| (op.as_str(), *c)))?;
        if !same_charge(charge, recomputed) {
            return Err(ctx(&format!(
                "charge {charge} != Σ rows × unit cost {recomputed}"
            )));
        }
        charges.push(charge);

        // The PP-free plan returns exactly the truth, at the closed-form charge.
        let mut exec = ExecutionContext::builder(&env.catalog).build();
        let nop_rows = exec
            .run(&spec.nop_plan(predicate))
            .map_err(|e| ctx(&format!("PP-free plan failed: {e}")))?;
        let nop = Verdicts {
            columns: nop_rows
                .schema()
                .columns()
                .iter()
                .map(|c| c.name.clone())
                .collect(),
            rows: nop_rows
                .rows()
                .iter()
                .map(|r| r.values().to_vec())
                .collect(),
        };
        if nop.frame_set()? != truth {
            return Err(ctx("the PP-free plan does not return exactly the true set"));
        }
        let used = predicate.columns();
        let udfs: Vec<String> = setup::UDF_COLUMNS
            .iter()
            .filter(|column| used.contains(**column))
            .filter_map(|column| env.corpus.dataset.udf(column))
            .map(|udf| udf.name().to_string())
            .collect();
        let closed = units.nop_charge(n, &udfs)?;
        let nop_charge = exec.meter().cluster_seconds();
        if !same_charge(nop_charge, closed) {
            return Err(ctx(&format!(
                "PP-free charge {nop_charge} != N·(scan+Σudf+select) {closed}"
            )));
        }
        frames.push(wire.frame_ids()?);
        solo.push(wire.digest());
    }

    match env.workload {
        Workload::Traf20Disk => same_as_memory(env, &solo)?,
        Workload::AdhocShared => shared_same_as_solo(env, &solo)?,
        Workload::Traf20Mem => {}
    }
    Ok(Verified {
        cluster_s_per_query: crate::stats::mean(&charges),
        recall_mean: crate::stats::mean(&recalls),
        frames,
    })
}

/// `traf20_disk` verdicts must be byte-identical to `traf20_mem`: an
/// in-memory twin server, warmed the same way, answers the same set.
fn same_as_memory(env: &Env, disk: &[Digest]) -> Result<(), String> {
    let mem = setup::server(setup::memory_catalog(&env.corpus.dataset), &env.corpus);
    warm_up(&mem, &passes(&env.verify_set, TRAF_WARMUP_PASSES), false)?;
    let mut buf = Vec::new();
    for ((predicate, target), disk) in env.verify_set.iter().zip(disk) {
        let answer = exchange(
            &mem,
            wire_request(predicate.clone(), *target, false),
            &mut buf,
        );
        let verdicts = answer
            .outcome
            .map_err(|e| format!("`{predicate}` in memory: {e}"))?;
        if verdicts.digest() != *disk {
            return Err(format!(
                "`{predicate}`: disk verdicts differ from in-memory verdicts"
            ));
        }
    }
    Ok(())
}

/// `adhoc_shared` verdicts must be byte-identical to the same predicates
/// run solo: the set is resent with the shared flag from concurrent
/// clients so that windows batch.
fn shared_same_as_solo(env: &Env, solo: &[Digest]) -> Result<(), String> {
    let server: &PpServer = &env.server;
    let results: Vec<Result<(usize, Digest), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                scope.spawn(move || {
                    let mut buf = Vec::new();
                    let mut out = Vec::new();
                    for (i, (predicate, target)) in env.verify_set.iter().enumerate() {
                        if i % CLIENTS != client {
                            continue;
                        }
                        let answer = exchange(
                            server,
                            wire_request(predicate.clone(), *target, true),
                            &mut buf,
                        );
                        out.push(
                            answer
                                .outcome
                                .map(|v| (i, v.digest()))
                                .map_err(|e| format!("`{predicate}` shared: {e}")),
                        );
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .unwrap_or_else(|_| vec![Err("client panicked".into())])
            })
            .collect()
    });
    let mut seen = BTreeSet::new();
    for result in results {
        let (i, digest) = result?;
        if digest != solo[i] {
            return Err(format!(
                "`{}`: shared verdicts differ from solo verdicts",
                env.verify_set[i].0
            ));
        }
        seen.insert(i);
    }
    if seen.len() != solo.len() {
        return Err("a shared verification request went unanswered".into());
    }
    Ok(())
}
