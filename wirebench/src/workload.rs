//! The three workloads and the set-up each one times.

use std::path::Path;
use std::sync::Mutex;

use pp_data::traf20::traf20_queries;
use pp_engine::predicate::Predicate;
use pp_engine::Catalog;
use pp_server::{PpServer, WireRequest};

use crate::adhoc::AdhocStream;
use crate::client::exchange;
use crate::setup::{self, Corpus, Segments, SOURCE};

/// Accuracy target of every TRAF-20 request.
pub const TRAF_TARGET: f64 = 0.95;
/// Warm-up passes over the TRAF-20 queries.
pub const TRAF_WARMUP_PASSES: usize = 2;
/// Ad-hoc predicates in the fixed verification set.
pub const ADHOC_VERIFY: usize = 48;
/// Seed of the ad-hoc verification set. The set is the same for every
/// `--seed` (only the corpus changes under it), so the deterministic
/// metrics taken from it compare across seeds; the warm-up and timed
/// requests that follow are drawn from `--seed`.
pub const ADHOC_VERIFY_SEED: u64 = 0x5E7;
/// Ad-hoc requests sent as warm-up.
pub const ADHOC_WARMUP: usize = 40;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// TRAF-20 round-robin over in-memory frames, warm plan cache.
    Traf20Mem,
    /// The same stream over sharded segment files under a memory budget.
    Traf20Disk,
    /// Never-repeating ad-hoc predicates, all sent with the shared flag.
    AdhocShared,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Traf20Mem,
        Workload::Traf20Disk,
        Workload::AdhocShared,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Traf20Mem => "traf20_mem",
            Workload::Traf20Disk => "traf20_disk",
            Workload::AdhocShared => "adhoc_shared",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether requests carry the wire `shared` flag.
    pub fn shared(self) -> bool {
        self == Workload::AdhocShared
    }
}

/// Where the workload's requests come from.
pub enum Requests {
    /// The 20 TRAF-20 predicates, round-robin.
    Traf20(Vec<Predicate>),
    /// The seeded ad-hoc stream (shared by the clients).
    Adhoc(Mutex<AdhocStream>),
}

/// One request of the timed phase.
pub struct Request {
    /// The WHERE predicate.
    pub predicate: Predicate,
    /// Accuracy target.
    pub target: f64,
    /// For TRAF-20, the verification-set index whose verdicts this
    /// request must reproduce.
    pub verified_as: Option<usize>,
}

impl Requests {
    /// Request `k` of client `client`. TRAF-20 clients start half a round
    /// apart; ad-hoc requests come off the stream in the order they are
    /// asked for.
    pub fn request(&self, client: usize, k: usize) -> Request {
        match self {
            Requests::Traf20(queries) => {
                let i = (client * queries.len() / 2 + k) % queries.len();
                Request {
                    predicate: queries[i].clone(),
                    target: TRAF_TARGET,
                    verified_as: Some(i),
                }
            }
            Requests::Adhoc(stream) => {
                let (predicate, target) = stream
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .next_request();
                Request {
                    predicate,
                    target,
                    verified_as: None,
                }
            }
        }
    }
}

/// Everything one set-up builds.
pub struct Env {
    /// Which workload this is.
    pub workload: Workload,
    /// Frames, truth and PPs.
    pub corpus: Corpus,
    /// The segment files (disk workload only).
    pub segments: Option<Segments>,
    /// The catalog the server executes over.
    pub catalog: Catalog,
    /// The server under test, warmed up.
    pub server: PpServer,
    /// The fixed verification query set.
    pub verify_set: Vec<(Predicate, f64)>,
    /// The request source of the timed phase.
    pub requests: Requests,
}

impl Env {
    /// Set-up: corpus generation, PP training, segment writing (disk),
    /// server start and the warm-up pass. `data_dir` receives the
    /// segment files.
    pub fn build(workload: Workload, seed: u64, data_dir: &Path) -> Result<Env, String> {
        let corpus = setup::corpus(seed)?;
        let segments = match workload {
            Workload::Traf20Disk => Some(Segments::write(&corpus.dataset, data_dir)?),
            _ => None,
        };
        let catalog = match &segments {
            Some(s) => s.catalog()?,
            None => setup::memory_catalog(&corpus.dataset),
        };
        let server = setup::server(catalog.clone(), &corpus);
        let (verify_set, warmup, requests) = match workload {
            Workload::AdhocShared => {
                let mut stream = AdhocStream::new(ADHOC_VERIFY_SEED);
                let verify: Vec<_> = (0..ADHOC_VERIFY).map(|_| stream.next_request()).collect();
                stream.reseed(seed);
                let warmup: Vec<_> = (0..ADHOC_WARMUP).map(|_| stream.next_request()).collect();
                (verify, warmup, Requests::Adhoc(Mutex::new(stream)))
            }
            _ => {
                let queries: Vec<Predicate> =
                    traf20_queries().into_iter().map(|q| q.predicate).collect();
                let verify: Vec<_> = queries.iter().map(|p| (p.clone(), TRAF_TARGET)).collect();
                let warmup = passes(&verify, TRAF_WARMUP_PASSES);
                (verify, warmup, Requests::Traf20(queries))
            }
        };
        warm_up(&server, &warmup, workload.shared())?;
        Ok(Env {
            workload,
            corpus,
            segments,
            catalog,
            server,
            verify_set,
            requests,
        })
    }
}

/// Sends `requests` one at a time; any failure aborts the run.
pub fn warm_up(
    server: &PpServer,
    requests: &[(Predicate, f64)],
    shared: bool,
) -> Result<(), String> {
    let mut buf = Vec::new();
    for (predicate, target) in requests {
        let answer = exchange(
            server,
            wire_request(predicate.clone(), *target, shared),
            &mut buf,
        );
        answer
            .outcome
            .map_err(|e| format!("warm-up request `{predicate}` failed: {e}"))?;
    }
    Ok(())
}

/// The wire request for one predicate.
pub fn wire_request(predicate: Predicate, target: f64, shared: bool) -> WireRequest {
    WireRequest {
        shared,
        ..WireRequest::new(SOURCE, predicate, target)
    }
}

/// `set` repeated `n` times.
pub fn passes(set: &[(Predicate, f64)], n: usize) -> Vec<(Predicate, f64)> {
    (0..n).flat_map(|_| set.iter().cloned()).collect()
}
