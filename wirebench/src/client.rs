//! The client side of one request: encode a `Request` frame, serve it
//! with `serve_connection` over in-memory byte buffers, decode the
//! response with `read_response`.

use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::time::Instant;

use pp_engine::value::Value;
use pp_server::wire::{encode_frame, read_response, serve_connection, Frame, WireOutcome};
use pp_server::{PpServer, RequestTimeline, WireRequest};

/// One answered request.
#[derive(Debug)]
pub struct Answer {
    /// Wall time from the start of request encoding to the decoded
    /// terminal frame, in seconds.
    pub latency_s: f64,
    /// The decoded verdict rows, or the error the wire reported.
    pub outcome: Result<Verdicts, String>,
    /// The server's stage waterfall, when it sent one.
    pub trace: Option<RequestTimeline>,
}

/// A completed verdict stream.
#[derive(Debug, Clone)]
pub struct Verdicts {
    /// Output column names.
    pub columns: Vec<String>,
    /// Verdict rows in stream order.
    pub rows: Vec<Vec<Value>>,
}

impl Verdicts {
    /// The `frameID` of every verdict row, in stream order.
    pub fn frame_ids(&self) -> Result<Vec<i64>, String> {
        let idx = self
            .columns
            .iter()
            .position(|c| c == "frameID")
            .ok_or("verdict rows carry no frameID column")?;
        self.rows
            .iter()
            .map(|row| match row.get(idx) {
                Some(Value::Int(id)) => Ok(*id),
                other => Err(format!("frameID cell is {other:?}")),
            })
            .collect()
    }

    /// The frame ids as a set, rejecting duplicates.
    pub fn frame_set(&self) -> Result<BTreeSet<i64>, String> {
        let ids = self.frame_ids()?;
        let set: BTreeSet<i64> = ids.iter().copied().collect();
        if set.len() != ids.len() {
            return Err("a frame was returned twice".into());
        }
        Ok(set)
    }

    /// Digest of the rows' wire encoding: the form two answers are
    /// compared in.
    pub fn digest(&self) -> Digest {
        rows_digest(self.rows.clone())
    }
}

/// Length and hash of an encoding: equal digests mean byte-identical
/// encodings (up to a 64-bit hash collision).
pub type Digest = (usize, u64);

/// Digest of `rows` encoded as one verdict-batch frame with request id 0.
pub fn rows_digest(rows: Vec<Vec<Value>>) -> Digest {
    let bytes = encode_frame(&Frame::VerdictBatch {
        request_id: 0,
        rows,
    });
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    bytes.hash(&mut hasher);
    (bytes.len(), hasher.finish())
}

/// Sends `request` to `server` the way one wire connection would, reusing
/// `buf` for the response bytes.
pub fn exchange(server: &PpServer, request: WireRequest, buf: &mut Vec<u8>) -> Answer {
    let started = Instant::now();
    let frame = encode_frame(&Frame::Request(request));
    buf.clear();
    let served = serve_connection(server, frame.as_slice(), &mut *buf);
    let decoded = served.and_then(|_| read_response(&mut buf.as_slice()));
    let latency_s = started.elapsed().as_secs_f64();
    match decoded {
        Ok(response) => Answer {
            latency_s,
            outcome: match response.outcome {
                WireOutcome::Complete { columns, rows, .. } => Ok(Verdicts { columns, rows }),
                WireOutcome::Error { kind, detail, .. } => Err(format!("{kind:?}: {detail}")),
            },
            trace: response.trace,
        },
        Err(e) => Answer {
            latency_s,
            outcome: Err(format!("wire error: {e}")),
            trace: None,
        },
    }
}
