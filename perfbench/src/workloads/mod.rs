//! The four workloads and what they share: seeded inputs, the batched
//! loader, closed-loop clients, per-client tallies and the collection-layer
//! replay used by every traced run that ends in a `Collection`.

pub mod ann;
pub mod cluster;
pub mod ingest;
pub mod rest;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use milvus_core::{Collection, MilvusError, SearchHit};
use milvus_exec::Executor;
use milvus_index::registry::IndexRegistry;
use milvus_index::traits::SearchParams;
use milvus_index::BuildParams;
use milvus_index::{distance, Metric, Neighbor, VectorSet};
use milvus_obs as obs;
use milvus_storage::segment::{merge_segment_results, Segment};
use milvus_storage::{InsertBatch, Schema};

use crate::check::{self, Hit};
use crate::report::{Metric as M, Outcome};
use crate::span::{self, self_ns, Span, Tracer};
use crate::stats;

/// Vector dimensionality of every workload.
pub const DIM: usize = 128;
/// Top-k of every search.
pub const K: usize = 10;
/// Rows per insert call.
pub const BATCH_ROWS: usize = 500;
/// Distinct queries per workload (ground truth is computed for each).
pub const QUERIES: usize = 500;
/// Client threads or connections of the two-client workloads (the host's
/// core count in the reference setup).
pub const CLIENTS: usize = 2;
/// Vector field name.
pub const FIELD: &str = "vector";
/// Attribute field name.
pub const ATTR: &str = "attr";

/// The seed of round `round`'s request stream.
pub fn round_seed(seed: u64, round: usize) -> u64 {
    seed ^ ((round as u64) << 32)
}

/// Run parameters from the command line.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of a timed run.
    pub trace: bool,
    /// Directory for scratch files and span dumps.
    pub out_dir: PathBuf,
}

/// SplitMix64: a small seeded generator for request streams.
pub struct Rng(u64);

impl Rng {
    /// A generator for `(seed, stream)`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F) ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }
}

/// Generated rows (id `i` is row `i`), one uniform attribute in `[0, 1)`,
/// and the query set.
pub struct Dataset {
    /// Row vectors.
    pub vectors: VectorSet,
    /// Attribute value per row.
    pub attrs: Vec<f64>,
    /// Queries: perturbed copies of rows.
    pub queries: VectorSet,
}

impl Dataset {
    /// `n` clustered 128-d rows: 1024 Gaussian clusters, so IVF bucket
    /// selection misses some true neighbours and recall stays below 1.
    pub fn generate(n: usize, seed: u64) -> Self {
        let vectors = milvus_datagen::clustered(n, DIM, 1024, 0.0, 100.0, 25.0, seed);
        let attrs = milvus_datagen::attributes_uniform(n, 0.0, 1.0, seed);
        let queries = milvus_datagen::queries_from(&vectors, QUERIES, 10.0, seed ^ 0x0123_4567);
        Self {
            vectors,
            attrs,
            queries,
        }
    }

    /// Rows `range` as an insert batch with the attribute column.
    pub fn batch(&self, range: std::ops::Range<usize>) -> InsertBatch {
        let mut vs = VectorSet::with_capacity(DIM, range.len());
        for i in range.clone() {
            vs.push(self.vectors.get(i));
        }
        InsertBatch {
            ids: range.clone().map(|i| i as i64).collect(),
            vectors: vec![vs],
            attributes: vec![self.attrs[range].to_vec()],
        }
    }

    /// Exact top-k of every query over the first `visible` rows.
    pub fn ground_truth(&self, visible: usize) -> Vec<Vec<i64>> {
        Executor::global().scoped_map(self.queries.len(), |qi| {
            check::exact_topk(&self.vectors, visible, self.queries.get(qi), K)
        })
    }
}

/// One request of the stream.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// Query index.
    pub qi: usize,
    /// Attribute range and its selectivity bucket, for filtered requests.
    pub filter: Option<(f64, f64, usize)>,
}

/// Filter selectivities.
pub const SELECTIVITIES: [f64; 3] = [0.01, 0.10, 0.50];

impl Request {
    /// Draw the next request; a share `filtered` of them is filtered.
    pub fn draw(rng: &mut Rng, filtered: f64) -> Self {
        let qi = rng.below(QUERIES);
        if rng.unit() < filtered {
            let b = rng.below(SELECTIVITIES.len());
            let s = SELECTIVITIES[b];
            let lo = rng.unit() * (1.0 - s);
            Request {
                qi,
                filter: Some((lo, lo + s, b)),
            }
        } else {
            Request { qi, filter: None }
        }
    }
}

/// Search parameters of every workload.
pub fn params(nprobe: usize) -> SearchParams {
    SearchParams::top_k(K).with_nprobe(nprobe)
}

/// Neighbours as checked hits.
pub fn hits_of(list: &[Neighbor]) -> Vec<Hit> {
    list.iter()
        .map(|n| Hit {
            id: n.id,
            dist: n.dist,
        })
        .collect()
}

/// The hits of a `Collection` search, or `None` after counting a shed
/// (`Overloaded`) or an error in `t`.
pub fn collection_hits(
    res: milvus_core::Result<Vec<SearchHit>>,
    t: &mut Tally,
) -> Option<Vec<Hit>> {
    match res {
        Ok(hits) => Some(
            hits.iter()
                .map(|h| Hit {
                    id: h.id,
                    dist: h.distance,
                })
                .collect(),
        ),
        Err(MilvusError::Overloaded { .. }) => {
            t.shed();
            None
        }
        Err(e) => {
            t.violation(format!("search: {e}"));
            None
        }
    }
}

/// What one client (or the whole run, once merged) observed.
#[derive(Debug, Default)]
pub struct Tally {
    /// Unfiltered search latencies.
    pub search_us: Vec<f64>,
    /// Filtered search latencies.
    pub filtered_us: Vec<f64>,
    /// Sum and count of per-answer recall@10.
    pub recall_sum: f64,
    pub recall_n: usize,
    /// Operations attempted and failed (shed, errored or wrong).
    pub attempted: u64,
    pub failed: u64,
    /// Output-check violations and errors (first few kept verbatim).
    pub violations: u64,
    pub messages: Vec<String>,
}

impl Tally {
    /// Count a shed operation.
    pub fn shed(&mut self) {
        self.failed += 1;
    }

    /// Count a failed check or an error.
    pub fn violation(&mut self, msg: String) {
        self.failed += 1;
        self.violations += 1;
        if self.messages.len() < 5 {
            self.messages.push(msg);
        }
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, o: Tally) {
        self.search_us.extend(o.search_us);
        self.filtered_us.extend(o.filtered_us);
        self.recall_sum += o.recall_sum;
        self.recall_n += o.recall_n;
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.violations += o.violations;
        for m in o.messages {
            if self.messages.len() < 5 {
                self.messages.push(m);
            }
        }
    }

    /// Record a checked answer's recall.
    pub fn recall(&mut self, truth: &[i64], hits: &[Hit]) {
        let ids: Vec<i64> = hits.iter().map(|h| h.id).collect();
        self.recall_sum += check::recall(truth, &ids);
        self.recall_n += 1;
    }
}

/// Run `clients` closed-loop clients until `seconds` pass: each calls
/// `step` again only after the previous call returned. Returns the merged
/// tally and the window's wall time.
pub fn closed_loop<C: Send>(
    clients: usize,
    seconds: f64,
    make: impl Fn(usize) -> C + Sync,
    step: impl Fn(&mut C, &mut Rng, &mut Tally) + Sync,
    seed: u64,
) -> (Tally, Duration, Vec<C>) {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let clients: Vec<(C, Tally)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (make, step) = (&make, &step);
                s.spawn(move || {
                    let mut state = make(c);
                    let mut rng = Rng::new(seed, c as u64 + 1);
                    let mut t = Tally::default();
                    while Instant::now() < deadline {
                        step(&mut state, &mut rng, &mut t);
                    }
                    (state, t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client panicked"))
            .collect()
    });
    let wall = start.elapsed();
    let mut all = Tally::default();
    let mut states = Vec::with_capacity(clients.len());
    for (state, t) in clients {
        all.merge(t);
        states.push(state);
    }
    (all, wall, states)
}

/// Insert-side observations of a writer.
#[derive(Debug, Default)]
pub struct LoadStats {
    /// Acknowledgement latency of each insert call.
    pub ack_us: Vec<f64>,
    /// Duration of each flush call.
    pub flush_ms: Vec<f64>,
    /// Rows acknowledged.
    pub rows: usize,
    /// Writer wall time, flush calls included.
    pub wall: Duration,
    /// Insert or flush failures.
    pub errors: Vec<String>,
}

/// Insert `(rows, batch)` pairs one call at a time and flush after every
/// `flush_every` rows and once at the end.
pub fn load<B, E: std::fmt::Display>(
    batches: impl IntoIterator<Item = (usize, B)>,
    flush_every: usize,
    mut insert: impl FnMut(B) -> Result<(), E>,
    mut flush: impl FnMut() -> Result<(), E>,
) -> LoadStats {
    let mut st = LoadStats::default();
    let start = Instant::now();
    let mut since_flush = 0;
    let mut timed_flush = |st: &mut LoadStats| {
        let t = Instant::now();
        if let Err(e) = flush() {
            st.errors.push(format!("flush: {e}"));
        }
        st.flush_ms.push(t.elapsed().as_secs_f64() * 1e3);
    };
    for (rows, b) in batches {
        let t = Instant::now();
        match insert(b) {
            Ok(()) => {
                st.ack_us.push(t.elapsed().as_secs_f64() * 1e6);
                st.rows += rows;
            }
            Err(e) => st.errors.push(format!("insert: {e}")),
        }
        since_flush += rows;
        if since_flush >= flush_every {
            timed_flush(&mut st);
            since_flush = 0;
        }
    }
    if since_flush > 0 {
        timed_flush(&mut st);
    }
    st.wall = start.elapsed();
    st
}

/// Split `0..n` into insert-sized ranges.
pub fn batch_ranges(n: usize) -> Vec<std::ops::Range<usize>> {
    (0..n)
        .step_by(BATCH_ROWS)
        .map(|s| s..(s + BATCH_ROWS).min(n))
        .collect()
}

/// One round of a timed run: a fresh set-up, then a measured window.
///
/// A timed run splits its window into a few rounds (each workload sets how
/// many) and reports every end-to-end figure as the median over rounds, so
/// one slow instance (memory layout, thread placement) cannot move it.
#[derive(Debug, Default)]
pub struct Round {
    /// Set-up duration.
    pub setup: Duration,
    /// The writer's run: the set-up load, or the writer beside the reader.
    pub load: LoadStats,
    /// What the clients observed.
    pub searches: Tally,
    /// Wall time of the measured window.
    pub window: Duration,
    /// Segment bytes per live row at the end of the round.
    pub mem_bytes_per_row: f64,
}

/// Median over rounds of `f`.
fn per_round(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    stats::median(&rounds.iter().map(f).collect::<Vec<_>>())
}

/// The end-to-end metrics every workload reports: each the median of its
/// per-round values, with the sample count summed over rounds.
pub fn e2e_metrics(out: &mut Outcome, rounds: &[Round]) {
    let note = format!("median of {} rounds", rounds.len());
    let m = |name, value, unit, n| M::new(name, value, unit, n).note(note.clone());
    out.push(m(
        "setup_s",
        per_round(rounds, |r| r.setup.as_secs_f64()),
        "s",
        rounds.len(),
    ));
    let searches: usize = rounds.iter().map(|r| r.searches.search_us.len()).sum();
    let qps = per_round(rounds, |r| {
        r.searches.search_us.len() as f64 / r.window.as_secs_f64()
    });
    out.push(m("search_qps", qps, "1/s", searches));
    let summaries: Option<Vec<stats::Summary>> = rounds
        .iter()
        .map(|r| stats::summarize(&r.searches.search_us))
        .collect();
    match summaries {
        Some(s) => {
            let p50: Vec<f64> = s.iter().map(|s| s.p50).collect();
            let tail: Vec<f64> = s.iter().map(|s| s.tail).collect();
            out.push(m("search_p50_us", stats::median(&p50), "us", searches));
            let pct = s.iter().map(|s| s.tail_pct).fold(99.0, f64::min);
            let mut tail = m("search_p99_us", stats::median(&tail), "us", searches);
            if pct < 99.0 {
                tail.note = format!("{note}, p{pct} by the sample rule");
            }
            out.push(tail);
        }
        None => out.violation(format!("too few searches in a round ({searches} in all)")),
    }
    let filtered: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.searches.filtered_us.iter().copied())
        .collect();
    if !filtered.is_empty() {
        out.push_summary("filtered", &filtered, "us");
    }
    let (sum, n) = rounds.iter().fold((0.0, 0), |(s, n), r| {
        (s + r.searches.recall_sum, n + r.searches.recall_n)
    });
    out.push(M::new("recall_at_10", sum / n.max(1) as f64, "ratio", n));
    let acks: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.load.ack_us.iter().copied())
        .collect();
    let rate = per_round(rounds, |r| r.load.rows as f64 / r.load.wall.as_secs_f64());
    out.push(m("insert_rows_per_s", rate, "rows/s", acks.len()));
    out.push(m(
        "insert_p50_us",
        per_round(rounds, |r| stats::median(&r.load.ack_us)),
        "us",
        acks.len(),
    ));
    if let Some(s) = stats::summarize(&acks) {
        let tail = M::new("insert_p99_us", s.tail, "us", s.n);
        out.push(if s.tail_pct < 99.0 {
            tail.note(format!("p{} by the sample rule", s.tail_pct))
        } else {
            tail
        });
    }
    out.push(m(
        "mem_bytes_per_row",
        per_round(rounds, |r| r.mem_bytes_per_row),
        "B/row",
        rounds.len(),
    ));
    out.push(M::new("peak_rss_mb", crate::report::peak_rss_mb(), "MB", 1));
    for r in rounds {
        out.absorb(&r.searches);
        out.attempted += (r.load.ack_us.len() + r.load.errors.len()) as u64;
        out.failed += r.load.errors.len() as u64;
        for e in &r.load.errors {
            out.violation(e.clone());
        }
    }
    let frac = out.failed as f64 / out.attempted.max(1) as f64;
    out.push(M::new("failed_frac", frac, "ratio", out.attempted as usize));
}

/// `distance::distances_into` over `rows` of the workload's own data:
/// median nanoseconds per row over repeated sweeps.
pub fn kernel_ns_per_row(data: &VectorSet, rows: usize, queries: &VectorSet) -> f64 {
    let rows = rows.min(data.len());
    let flat: Vec<f32> = (0..rows)
        .flat_map(|i| data.get(i).iter().copied())
        .collect();
    let mut out = vec![0f32; rows];
    let samples: Vec<f64> = (0..15)
        .map(|r| {
            let q = queries.get(r % queries.len());
            let t = Instant::now();
            distance::distances_into(Metric::L2, q, std::hint::black_box(&flat), DIM, &mut out);
            std::hint::black_box(&out);
            t.elapsed().as_nanos() as f64 / rows as f64
        })
        .collect();
    stats::median(&samples)
}

/// `Wal::append_insert` of the workload's own 500-row batch into a scratch
/// log: median microseconds per append, and bytes per row.
pub fn wal_append(cfg: &RunCfg, data: &Dataset) -> (f64, f64) {
    let path = cfg
        .out_dir
        .join(format!("wal-probe-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut wal = milvus_storage::wal::Wal::open(&path).expect("scratch WAL opens");
    let mut us = Vec::new();
    for i in 0..10 {
        let b = data.batch(i * BATCH_ROWS..(i + 1) * BATCH_ROWS);
        let t = Instant::now();
        wal.append_insert(b).expect("scratch WAL append");
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(wal);
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    let _ = std::fs::remove_file(&path);
    (stats::median(&us), bytes as f64 / (10 * BATCH_ROWS) as f64)
}

/// Replay `sample` in passes, one pass at least, until `more()` is false.
/// Each request's entry call runs inside a root span named `name`, and its
/// tally is folded into `out`; then `layers(tr, req, root, r)` drives the
/// same request through the next layer's functions under that root.
/// Returns the entry calls' latencies in microseconds.
pub fn replay<R: Copy>(
    tr: &mut Tracer,
    out: &mut Outcome,
    name: &'static str,
    sample: &[R],
    mut more: impl FnMut() -> bool,
    mut entry: impl FnMut(R, &mut Tally),
    mut layers: impl FnMut(&mut Tracer, u64, usize, R),
) -> Vec<f64> {
    let mut entry_us = Vec::new();
    let mut first = true;
    while std::mem::take(&mut first) || more() {
        for &r in sample {
            let req = tr.next_request();
            let mut t = Tally::default();
            let ((), root) = tr.span(name, req, None, || entry(r, &mut t));
            out.absorb(&t);
            entry_us.push(tr.spans()[root].dur_ns() as f64 / 1e3);
            layers(tr, req, root, r);
        }
    }
    entry_us
}

/// Spans and counts of the collection layers, accumulated over a traced
/// replay.
#[derive(Debug, Default)]
pub struct CollectionLayers {
    /// `Collection::search_traced` with tracing disabled, per request.
    pub serial_us: Vec<f64>,
    /// `search_traced` minus the time the segment spans cover.
    pub self_us: Vec<f64>,
    /// Time the replay's child spans cover, per request.
    pub covered_us: Vec<f64>,
    /// Segments per snapshot.
    pub fanout: Vec<f64>,
    /// `ScanStats::rows_scanned` summed per request.
    pub rows: Vec<f64>,
}

/// Drive one query through the layers under `Collection::search`:
/// `search_traced` with a disabled trace, then a replay of `snapshot()`,
/// `Segment::search_field_stats` per segment on the global executor (the
/// program fans segments out the same way) and `merge_segment_results`,
/// then `VectorIndex::search` per indexed segment. Spans go under `root`.
pub fn replay_collection(
    col: &Collection,
    query: &[f32],
    p: &SearchParams,
    tr: &mut Tracer,
    req: u64,
    root: usize,
    layers: &mut CollectionLayers,
) {
    let ((), serial) = tr.span("collection.search_traced", req, Some(root), || {
        let _ = col.search_traced(FIELD, query, p, &mut milvus_obs::Trace::disabled());
    });
    let serial_us = tr.spans()[serial].dur_ns() as f64 / 1e3;
    layers.serial_us.push(serial_us);

    let now = Instant::now();
    let layer = tr.record("collection.replay", req, Some(root), now, now);
    let (snap, _) = tr.span("collection.snapshot", req, Some(layer), || col.snapshot());
    let schema = col.schema();
    let scans = Executor::global().scoped_map(snap.segments.len(), |si| {
        let start = Instant::now();
        let out = snap.segments[si].search_field_stats(schema, FIELD, query, p, None);
        (start, Instant::now(), out)
    });
    let mut lists = Vec::with_capacity(scans.len());
    let mut rows = 0;
    let mut seg_spans = Vec::with_capacity(scans.len());
    for (start, end, out) in scans {
        seg_spans.push(tr.record("segment.search", req, Some(layer), start, end));
        if let Ok((list, st)) = out {
            rows += st.rows_scanned;
            lists.push(list);
        }
    }
    tr.span("segment.merge_results", req, Some(layer), || {
        merge_segment_results(&lists, p.k)
    });
    tr.close(layer);
    for seg in &snap.segments {
        if let Some(ix) = seg.index(FIELD) {
            let _ = tr.span("index.search", req, Some(root), || ix.search(query, p));
        }
    }

    let rs = &tr.spans()[layer];
    let kids: Vec<&Span> = tr.children(layer).collect();
    layers
        .covered_us
        .push((rs.dur_ns() - self_ns(rs, &kids)) as f64 / 1e3);
    let segs: Vec<&Span> = seg_spans.iter().map(|&i| &tr.spans()[i]).collect();
    let seg_cover_us = (rs.dur_ns() - self_ns(rs, &segs)) as f64 / 1e3;
    layers.self_us.push((serial_us - seg_cover_us).max(0.0));
    layers.fanout.push(snap.segments.len() as f64);
    layers.rows.push(rows as f64);
}

/// Growth of a counter family (all labels) since `before`.
pub fn counter_delta(before: &obs::MetricsSnapshot, name: &str) -> f64 {
    let now = obs::registry().snapshot();
    now.counter_total(name)
        .saturating_sub(before.counter_total(name)) as f64
}

/// Growth of a latency histogram family's total (all labels) since
/// `before`, in milliseconds.
fn histogram_sum_ms(before: &obs::MetricsSnapshot, name: &str) -> f64 {
    let sum = |s: &obs::MetricsSnapshot| -> u64 {
        s.histograms
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, h)| h.sum_us)
            .sum()
    };
    sum(&obs::registry().snapshot()).saturating_sub(sum(before)) as f64 / 1e3
}

/// Flush, merge, index-build and object-store figures of a load phase.
pub fn storage_metrics(out: &mut Outcome, before: &obs::MetricsSnapshot, load: &LoadStats) {
    let flushes = load.flush_ms.len();
    out.push(M::new(
        "lsm.flush_ms",
        stats::median(&load.flush_ms),
        "ms",
        flushes,
    ));
    let max = load.flush_ms.iter().copied().fold(f64::NAN, f64::max);
    out.push(M::new("lsm.flush_ms_max", max, "ms", flushes));
    out.push(M::new(
        "lsm.memtable_flushes",
        counter_delta(before, obs::MEMTABLE_FLUSHES),
        "count",
        1,
    ));
    out.push(M::new(
        "lsm.compactions",
        counter_delta(before, obs::COMPACTIONS),
        "count",
        1,
    ));
    out.push(M::new(
        "lsm.compaction_ms",
        histogram_sum_ms(before, obs::COMPACTION_LATENCY),
        "ms",
        1,
    ));
    out.push(M::new(
        "lsm.index_builds",
        counter_delta(before, obs::INDEX_BUILDS),
        "count",
        1,
    ));
    let put = counter_delta(before, obs::OBJECT_PUT_BYTES);
    out.push(M::new(
        "lsm.store_put_bytes_per_row",
        put / load.rows.max(1) as f64,
        "B/row",
        load.rows,
    ));
}

/// Deltas of the scheduler's counters since `before`.
pub fn scheduler_metrics(out: &mut Outcome, before: &obs::MetricsSnapshot, queries: u64) {
    let now = obs::registry().snapshot();
    let d = |name: &str| {
        now.counter_total(name)
            .saturating_sub(before.counter_total(name)) as f64
    };
    let (batches, coalesced) = (
        d(obs::SCHED_COALESCED_BATCHES),
        d(obs::SCHED_COALESCED_QUERIES),
    );
    let passthrough = d(obs::SCHED_PASSTHROUGH);
    let n = queries as usize;
    out.push(M::new(
        "scheduler.batch_mean",
        coalesced / batches.max(1.0),
        "queries",
        n,
    ));
    out.push(M::new(
        "scheduler.passthrough_frac",
        passthrough / (passthrough + coalesced).max(1.0),
        "ratio",
        n,
    ));
    out.push(M::new("scheduler.shed", d(obs::SCHED_SHED), "count", n));
}

/// Executor tasks and steals per query since `before`.
pub fn exec_metrics(out: &mut Outcome, before: &obs::MetricsSnapshot, queries: usize) {
    let n = queries.max(1) as f64;
    out.push(M::new(
        "exec.tasks_per_query",
        counter_delta(before, obs::EXEC_TASKS) / n,
        "count",
        queries,
    ));
    out.push(M::new(
        "exec.steals_per_query",
        counter_delta(before, obs::EXEC_STEALS) / n,
        "count",
        queries,
    ));
}

/// The trace figures every workload reports: the entry call, how much of
/// it the next layer's spans cover, its self time, and what the span
/// bookkeeping adds to a request (spans per request times the cost of one
/// span) as a share of the entry call.
pub fn layer_metrics(out: &mut Outcome, tr: &Tracer, entry_us: &[f64], covered_us: &[f64]) {
    let n = entry_us.len();
    let entry = stats::median(entry_us);
    out.push(M::new("trace.entry_us", entry, "us", n));
    let coverage = covered_us.iter().sum::<f64>() / entry_us.iter().sum::<f64>();
    out.push(M::new("trace.coverage_frac", coverage, "ratio", n));
    let self_us: Vec<f64> = entry_us
        .iter()
        .zip(covered_us)
        .map(|(e, c)| (e - c).max(0.0))
        .collect();
    out.push(M::new(
        "trace.entry_self_us",
        stats::median(&self_us),
        "us",
        n,
    ));
    let spans_per_request = tr.spans().len() as f64 / tr.requests() as f64;
    out.push(M::new(
        "trace.overhead_frac",
        spans_per_request * span::span_cost_ns() / (entry * 1e3),
        "ratio",
        n,
    ));
}

/// Per-layer figures of a [`replay_collection`] run.
pub fn collection_metrics(out: &mut Outcome, tr: &Tracer, layers: &CollectionLayers) {
    let n = layers.serial_us.len();
    out.push(M::new(
        "collection.search_us",
        stats::median(&layers.serial_us),
        "us",
        n,
    ));
    out.push(M::new(
        "collection.self_us",
        stats::median(&layers.self_us),
        "us",
        n,
    ));
    out.push(M::new(
        "segment.fanout",
        stats::mean(&layers.fanout),
        "count",
        n,
    ));
    for (metric, span) in [
        ("segment.search_us", "segment.search"),
        ("segment.merge_results_us", "segment.merge_results"),
        ("index.search_us", "index.search"),
    ] {
        let d = tr.durations_us(span);
        if !d.is_empty() {
            out.push(M::new(metric, stats::median(&d), "us", d.len()));
        }
    }
    out.push(M::new(
        "kernel.rows_per_query",
        stats::mean(&layers.rows),
        "rows",
        n,
    ));
}

/// `Segment::build_index` (IVF_FLAT, default build parameters, as the
/// auto-index policy builds it) on one of the workload's sealed segments.
pub fn index_build_metric(out: &mut Outcome, seg: &Segment, schema: &Schema) {
    let t = Instant::now();
    let built = seg.build_index(
        schema,
        FIELD,
        "IVF_FLAT",
        &IndexRegistry::with_builtins(),
        &BuildParams::default(),
    );
    out.push(M::new(
        "index.build_ms",
        t.elapsed().as_secs_f64() * 1e3,
        "ms",
        1,
    ));
    if let Err(e) = built {
        out.violation(format!("index build: {e}"));
    }
}

/// Layer figures measured on the workload's own rows rather than inside a
/// request: the L2 kernel and a WAL append.
pub fn common_layer_metrics(cfg: &RunCfg, out: &mut Outcome, data: &Dataset) {
    let rows = data.vectors.len().min(20_000);
    out.push(M::new(
        "kernel.l2_ns_per_row",
        kernel_ns_per_row(&data.vectors, rows, &data.queries),
        "ns",
        15,
    ));
    let (append_us, bytes_per_row) = wal_append(cfg, data);
    out.push(M::new("wal.append_us", append_us, "us", 10));
    out.push(M::new(
        "wal.bytes_per_row",
        bytes_per_row,
        "B/row",
        10 * BATCH_ROWS,
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_makes_one_pass_at_least_and_nests_layers_under_roots() {
        let mut tr = Tracer::new();
        let mut out = Outcome::new("test", String::new());
        let mut seen = Vec::new();
        let entry_us = replay(
            &mut tr,
            &mut out,
            "entry",
            &[3usize, 5],
            || false,
            |r, t| {
                t.attempted += 1;
                if r == 5 {
                    t.violation("wrong".into());
                }
            },
            |tr, req, root, r| {
                tr.span("layer", req, Some(root), || ());
                seen.push((req, r));
            },
        );
        assert_eq!(entry_us.len(), 2);
        assert_eq!(seen, vec![(1, 3), (2, 5)]);
        assert_eq!((out.attempted, out.failed, out.violations), (2, 1, 1));
        assert_eq!(tr.requests(), 2);
        for s in tr.spans().iter().filter(|s| s.name == "layer") {
            let root = &tr.spans()[s.parent.unwrap()];
            assert_eq!((root.name, root.req), ("entry", s.req));
        }

        let mut passes = 0;
        let n = replay(
            &mut Tracer::new(),
            &mut out,
            "entry",
            &[0usize],
            || {
                passes += 1;
                passes < 3
            },
            |_, _| {},
            |_, _, _, _| {},
        )
        .len();
        assert_eq!(n, 3);
    }
}
