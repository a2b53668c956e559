//! The traced run: replays a workload's requests one at a time and calls
//! each layer in pipeline order, timing it from outside:
//!
//! 1. request codec (`encode_frame` + `read_frame`);
//! 2. planner (`optimize_with_monitor`, as a plan-cache miss runs it);
//! 3. store (`TableProvider::read_group`, through [`TimedProvider`]);
//! 4. engine (`ExecutionContext::run`, split by operator spans);
//! 5. response encode (the frames `serve_connection` writes);
//! 6. response decode (`read_response`).

use std::sync::Arc;
use std::time::Instant;

use pp_core::planner::{PpQueryOptimizer, QoConfig};
use pp_engine::exec::ExecutionContext;
use pp_engine::predicate::Predicate;
use pp_engine::Catalog;
use pp_server::wire::{
    encode_frame, read_frame, read_response, Frame, WireOutcome, VERDICT_CHUNK_ROWS,
};
use pp_server::RequestTimeline;
use pp_store::SegmentScan;

use crate::setup::{self, provider_catalog, TimedProvider, SOURCE};
use crate::stats::{mean, median, sorted};
use crate::workload::{wire_request, Env, Workload};

/// Layer measurements of one replayed request.
#[derive(Debug, Default, Clone)]
pub struct LayerSample {
    /// Request frame encode + decode, µs.
    pub request_codec_us: f64,
    /// `optimize_with_monitor`, ms.
    pub optimize_ms: f64,
    /// `ExecutionContext::run`, ms.
    pub run_ms: f64,
    /// Operator wall time by kind, ms: PP filters, scan, UDFs, select.
    pub pp_ms: f64,
    /// Scan operator wall time (includes the store reads), ms.
    pub scan_ms: f64,
    /// UDF operators' wall time, ms.
    pub udf_ms: f64,
    /// Residual select wall time, ms.
    pub select_ms: f64,
    /// Rows the scan emitted.
    pub rows_scanned: f64,
    /// Rows left after the PP filter (all scanned rows without one).
    pub rows_after_pp: f64,
    /// UDF calls made.
    pub udf_invocations: f64,
    /// Time inside `read_group`, ms.
    pub read_group_ms: f64,
    /// Row groups read.
    pub groups_read: f64,
    /// Encoded bytes of the groups read.
    pub group_bytes: f64,
    /// Response frames encode, ms.
    pub encode_ms: f64,
    /// `read_response` over the encoded frames, ms.
    pub decode_ms: f64,
    /// Encoded response size, KiB.
    pub response_kib: f64,
    /// The layers the untraced path runs for this request, summed, ms.
    pub layer_sum_ms: f64,
}

/// Replays `requests` through the layers of `env`'s workload.
pub fn replay(env: &Env, requests: &[(Predicate, f64)]) -> Result<Vec<LayerSample>, String> {
    let timed: Option<Arc<TimedProvider<SegmentScan>>> = match &env.segments {
        Some(segments) => Some(Arc::new(TimedProvider::new(segments.open()?))),
        None => None,
    };
    let catalog: Catalog = match &timed {
        Some(p) => provider_catalog(Arc::clone(p) as _),
        None => env.catalog.clone(),
    };
    let sources = setup::sources(&env.corpus.dataset);
    let spec = sources.get(SOURCE).expect("registered source");
    let plans_on_miss = env.workload == Workload::AdhocShared;
    let mut out = Vec::with_capacity(requests.len());
    for (request_id, (predicate, target)) in requests.iter().enumerate() {
        let mut s = LayerSample::default();

        let t = Instant::now();
        let bytes = encode_frame(&Frame::Request(wire_request(
            predicate.clone(),
            *target,
            env.workload.shared(),
        )));
        let decoded = read_frame(&mut bytes.as_slice()).map_err(|e| e.to_string())?;
        s.request_codec_us = t.elapsed().as_secs_f64() * 1e6;
        let Some(Frame::Request(request)) = decoded else {
            return Err("request frame did not round-trip".into());
        };

        let optimizer = PpQueryOptimizer::new(
            env.corpus.pps.clone(),
            env.corpus.domains.clone(),
            QoConfig {
                accuracy_target: request.accuracy_target,
                ..Default::default()
            },
        );
        let nop = spec.nop_plan(&request.predicate);
        let t = Instant::now();
        let optimized = optimizer
            .optimize_with_monitor(&nop, &catalog, Some(env.server.monitor()))
            .map_err(|e| format!("planning `{predicate}`: {e}"))?;
        s.optimize_ms = t.elapsed().as_secs_f64() * 1e3;

        if let Some(p) = &timed {
            p.take();
        }
        let mut ctx = ExecutionContext::builder(&catalog).build();
        let t = Instant::now();
        let rows = ctx
            .run(&optimized.plan)
            .map_err(|e| format!("running `{predicate}`: {e}"))?;
        s.run_ms = t.elapsed().as_secs_f64() * 1e3;
        if let Some(p) = &timed {
            let reads = p.take();
            s.read_group_ms = reads.nanos as f64 / 1e6;
            s.groups_read = reads.groups as f64;
            s.group_bytes = reads.bytes as f64;
        }
        let spans = &ctx.telemetry().ok_or("a run left no telemetry")?.spans;
        for span in spans {
            let ms = span.wall_nanos as f64 / 1e6;
            if span.op.starts_with("Scan[") {
                s.scan_ms += ms;
                s.rows_scanned += span.rows_out as f64;
                s.rows_after_pp = span.rows_out as f64;
            } else if span.op.starts_with("Process[") {
                s.udf_ms += ms;
                s.udf_invocations += span.attempts as f64;
            } else if span.op.starts_with("Select[") {
                s.select_ms += ms;
            } else if span.op.starts_with("PP") {
                s.pp_ms += ms;
                s.rows_after_pp = span.rows_out as f64;
            }
        }

        let t = Instant::now();
        let columns: Vec<String> = rows
            .schema()
            .columns()
            .iter()
            .map(|c| c.name.clone())
            .collect();
        let request_id = request_id as u64;
        let mut response = encode_frame(&Frame::Trace(RequestTimeline::empty(request_id)));
        response.extend(encode_frame(&Frame::ResultHeader {
            request_id,
            epoch: 1,
            cache_hit: !plans_on_miss,
            columns,
        }));
        for chunk in rows.rows().chunks(VERDICT_CHUNK_ROWS) {
            response.extend(encode_frame(&Frame::VerdictBatch {
                request_id,
                rows: chunk.iter().map(|r| r.values().to_vec()).collect(),
            }));
        }
        response.extend(encode_frame(&Frame::Complete {
            request_id,
            total_rows: rows.len() as u64,
        }));
        s.encode_ms = t.elapsed().as_secs_f64() * 1e3;
        s.response_kib = response.len() as f64 / 1024.0;

        let t = Instant::now();
        let decoded = read_response(&mut response.as_slice()).map_err(|e| e.to_string())?;
        s.decode_ms = t.elapsed().as_secs_f64() * 1e3;
        match decoded.outcome {
            WireOutcome::Complete { rows: got, .. } if got.len() == rows.len() => {}
            other => {
                return Err(format!(
                    "`{predicate}`: traced response decoded as {other:?}"
                ))
            }
        }

        s.layer_sum_ms = s.request_codec_us / 1e3
            + if plans_on_miss { s.optimize_ms } else { 0.0 }
            + s.run_ms
            + s.encode_ms
            + s.decode_ms;
        out.push(s);
    }
    Ok(out)
}

/// Median of one field over the replayed requests.
pub fn median_of(samples: &[LayerSample], field: impl Fn(&LayerSample) -> f64) -> f64 {
    median(&sorted(samples.iter().map(field).collect())).unwrap_or(0.0)
}

/// Mean of one field over the replayed requests.
pub fn mean_of(samples: &[LayerSample], field: impl Fn(&LayerSample) -> f64) -> f64 {
    mean(&samples.iter().map(field).collect::<Vec<_>>())
}
