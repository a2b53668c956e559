//! Corpus, PP training, segment files and the server under test.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use pp_core::train::{PpTrainer, TrainerConfig};
use pp_core::wrangle::Domains;
use pp_core::PpCatalog;
use pp_data::traffic::{TrafficConfig, TrafficDataset, UdfCosts};
use pp_engine::cost::CostModel;
use pp_engine::row::{Row, Rowset};
use pp_engine::schema::Schema;
use pp_engine::{Catalog, RowGroupMeta, TableProvider};
use pp_ml::pipeline::{Approach, ModelSpec};
use pp_ml::reduction::ReducerSpec;
use pp_ml::svm::SvmParams;
use pp_server::{PpServer, ServerConfig, SourceRegistry, SourceSpec};
use pp_store::{SegmentScan, SegmentWriter, SegmentWriterConfig};

use crate::oracle::UnitCosts;

/// Frames generated per corpus.
pub const FRAMES: usize = 12_000;
/// The first frames train the PPs; the rest are the queried table.
pub const TRAIN_FRAMES: usize = 6_000;
/// Dimension of each frame's dense feature blob.
pub const BLOB_DIM: usize = 64;
/// Segment files the disk table is split into.
pub const SHARDS: usize = 4;
/// Rows per segment row group.
pub const ROWS_PER_GROUP: usize = 256;
/// The disk scan's memory budget is the encoded table size divided by
/// this, so every scan streams in several waves.
pub const BUDGET_DIVISOR: u64 = 4;
/// Server worker threads.
pub const WORKERS: usize = 2;
/// Closed-loop clients, each waiting for its reply before sending again.
pub const CLIENTS: usize = 2;
/// Simulated per-blob cost of one PP, charged by the cost meter.
pub const PP_COST_PER_ROW: f64 = 2.5e-3;
/// Name of the queried source and table.
pub const SOURCE: &str = "traffic";
/// The UDF columns every source exposes, in plan order.
pub const UDF_COLUMNS: [&str; 5] = ["vehType", "vehColor", "speed", "fromI", "toI"];

/// The frames registered as the queried table.
pub fn eval_frames() -> std::ops::Range<usize> {
    TRAIN_FRAMES..FRAMES
}

/// A generated corpus with its trained PP catalog.
pub struct Corpus {
    /// Frames plus their ground truth.
    pub dataset: TrafficDataset,
    /// PPs trained on the first [`TRAIN_FRAMES`] frames.
    pub pps: PpCatalog,
    /// Declared categorical column domains.
    pub domains: Domains,
    /// Seconds spent in `PpTrainer::train_catalog`.
    pub train_s: f64,
}

/// Generates the corpus for `seed` and trains its PPs (linear SVMs on
/// raw blobs, 80/20 train/validation, negations included).
pub fn corpus(seed: u64) -> Result<Corpus, String> {
    let dataset = TrafficDataset::generate(TrafficConfig {
        n_frames: FRAMES,
        blob_dim: BLOB_DIM,
        seed,
        ..Default::default()
    });
    let trainer = PpTrainer::new(TrainerConfig {
        train_frac: 0.8,
        val_frac: 0.2,
        approach_override: Some(Approach {
            reducer: ReducerSpec::Identity,
            model: ModelSpec::Svm(SvmParams::default()),
        }),
        cost_per_row: Some(PP_COST_PER_ROW),
        train_negations: true,
        seed,
        ..Default::default()
    });
    let clauses = TrafficDataset::pp_corpus_clauses();
    let labeled: Vec<_> = clauses
        .iter()
        .map(|c| dataset.labeled_for_clause_range(c, 0..TRAIN_FRAMES))
        .collect();
    let started = Instant::now();
    let pps = trainer
        .train_catalog(&clauses, &labeled)
        .map_err(|e| format!("PP training: {e}"))?;
    let train_s = started.elapsed().as_secs_f64();
    let mut domains = Domains::new();
    for (column, values) in TrafficDataset::column_domains() {
        domains.declare(column, values);
    }
    Ok(Corpus {
        dataset,
        pps,
        domains,
        train_s,
    })
}

/// The queried frames as one in-memory table.
pub fn eval_table(dataset: &TrafficDataset) -> Rowset {
    let all = dataset.table();
    Rowset::new(all.schema().clone(), all.rows()[eval_frames()].to_vec())
        .expect("a slice keeps the schema")
}

/// A catalog holding the queried frames in memory.
pub fn memory_catalog(dataset: &TrafficDataset) -> Catalog {
    let mut catalog = Catalog::new();
    catalog.register(SOURCE, eval_table(dataset));
    catalog
}

/// The source registry: the table plus its five UDFs.
pub fn sources(dataset: &TrafficDataset) -> SourceRegistry {
    let mut spec = SourceSpec::new(SOURCE);
    for column in UDF_COLUMNS {
        spec = spec.with_udf(column, dataset.udf(column).expect("known UDF column"));
    }
    let mut sources = SourceRegistry::new();
    sources.register(SOURCE, spec);
    sources
}

/// A server with [`WORKERS`] workers and every other knob at its default.
pub fn server(catalog: Catalog, corpus: &Corpus) -> PpServer {
    PpServer::new(
        ServerConfig {
            workers: WORKERS,
            ..Default::default()
        },
        catalog,
        sources(&corpus.dataset),
        corpus.pps.clone(),
        corpus.domains.clone(),
    )
}

/// Per-row unit costs of the TRAF plans: the engine's default cost model
/// for scan and select, the generator's UDF costs.
pub fn unit_costs() -> UnitCosts {
    let model = CostModel::default();
    let udf = UdfCosts::default();
    UnitCosts {
        scan: model.scan,
        select: model.select,
        udfs: vec![
            ("VehTypeClassifier".into(), udf.veh_type),
            ("VehColorClassifier".into(), udf.color),
            ("SpeedEstimator".into(), udf.speed),
            ("EntryTracker".into(), udf.from),
            ("ExitTracker".into(), udf.to),
        ],
    }
}

/// The queried frames written as sharded segment files. The directory is
/// removed on drop.
#[derive(Debug)]
pub struct Segments {
    /// Directory holding the shard files.
    pub dir: PathBuf,
    /// Shard files in shard order.
    pub paths: Vec<PathBuf>,
    /// Encoded bytes of all row groups.
    pub encoded_bytes: u64,
    /// Seconds spent in `SegmentWriter::write_shards`.
    pub write_s: f64,
}

impl Segments {
    /// Writes the queried frames of `dataset` under `dir`.
    pub fn write(dataset: &TrafficDataset, dir: &Path) -> Result<Segments, String> {
        let table = eval_table(dataset);
        let writer = SegmentWriter::new(SegmentWriterConfig {
            rows_per_group: ROWS_PER_GROUP,
        });
        let started = Instant::now();
        let paths = writer
            .write_shards(dir, SOURCE, &table, SHARDS)
            .map_err(|e| format!("writing segments: {e}"))?;
        let write_s = started.elapsed().as_secs_f64();
        let scan = SegmentScan::open(&paths).map_err(|e| format!("opening segments: {e}"))?;
        let encoded_bytes = (0..scan.group_count())
            .map(|g| scan.group_meta(g).bytes)
            .sum();
        Ok(Segments {
            dir: dir.to_path_buf(),
            paths,
            encoded_bytes,
            write_s,
        })
    }

    /// The memory budget the disk scans run under.
    pub fn budget(&self) -> u64 {
        self.encoded_bytes / BUDGET_DIVISOR
    }

    /// The shards opened as one table under the memory budget.
    pub fn open(&self) -> Result<SegmentScan, String> {
        SegmentScan::open(&self.paths)
            .map(|scan| scan.with_memory_budget(self.budget()))
            .map_err(|e| format!("opening segments: {e}"))
    }

    /// A catalog serving the queried table from the segment files.
    pub fn catalog(&self) -> Result<Catalog, String> {
        Ok(provider_catalog(Arc::new(self.open()?)))
    }
}

impl Drop for Segments {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A catalog whose queried table is served by `provider`.
pub fn provider_catalog(provider: Arc<dyn TableProvider>) -> Catalog {
    let mut catalog = Catalog::new();
    catalog.register_provider(SOURCE, provider);
    catalog
}

/// A provider that times every `read_group` call of the provider it
/// wraps; the traced run reads the store layer through it.
#[derive(Debug)]
pub struct TimedProvider<P> {
    inner: P,
    nanos: AtomicU64,
    groups: AtomicU64,
    bytes: AtomicU64,
}

/// What a [`TimedProvider`] has counted since its last reset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadStats {
    /// Wall-clock nanoseconds inside `read_group`.
    pub nanos: u64,
    /// Groups read.
    pub groups: u64,
    /// Encoded bytes of the groups read.
    pub bytes: u64,
}

impl<P: TableProvider> TimedProvider<P> {
    /// Wraps `inner`.
    pub fn new(inner: P) -> Self {
        TimedProvider {
            inner,
            nanos: AtomicU64::new(0),
            groups: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// The counts so far, then zeroes them.
    pub fn take(&self) -> ReadStats {
        ReadStats {
            nanos: self.nanos.swap(0, Ordering::Relaxed),
            groups: self.groups.swap(0, Ordering::Relaxed),
            bytes: self.bytes.swap(0, Ordering::Relaxed),
        }
    }
}

impl<P: TableProvider> TableProvider for TimedProvider<P> {
    fn schema(&self) -> Arc<Schema> {
        self.inner.schema()
    }

    fn row_count(&self) -> usize {
        self.inner.row_count()
    }

    fn group_count(&self) -> usize {
        self.inner.group_count()
    }

    fn group_meta(&self, index: usize) -> &RowGroupMeta {
        self.inner.group_meta(index)
    }

    fn read_group(&self, index: usize) -> pp_engine::Result<Vec<Row>> {
        let started = Instant::now();
        let rows = self.inner.read_group(index);
        self.nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.groups.fetch_add(1, Ordering::Relaxed);
        self.bytes
            .fetch_add(self.inner.group_meta(index).bytes, Ordering::Relaxed);
        rows
    }

    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }

    fn memory_budget(&self) -> Option<u64> {
        self.inner.memory_budget()
    }
}
