//! Collections: the user-facing unit of data management (§2.1).
//!
//! A collection holds entities (one or more vectors + numeric attributes),
//! supports dynamic inserts/deletes through the asynchronous LSM pipeline,
//! and answers the paper's three primitive query types: vector query,
//! attribute filtering, and multi-vector query.

use std::sync::Arc;
use std::time::{Duration, Instant};

use milvus_exec::coalesce::Submitted;
use milvus_exec::Executor;
use milvus_index::batch::{cache_aware_search_exec_hetk, BatchOptions};
use milvus_index::registry::IndexRegistry;
use milvus_obs as obs;
use milvus_index::traits::SearchParams;
use milvus_index::{Metric, Neighbor, VectorSet};
use milvus_query::filtering::RangePredicate;
use milvus_query::multivector::MultiVectorEngine;
use milvus_storage::object_store::ObjectStore;
use milvus_storage::segment::{merge_segment_results, Segment};
use milvus_storage::snapshot::Snapshot;
use milvus_storage::{InsertBatch, LsmEngine, Schema};
use parking_lot::{Condvar, Mutex};

use crate::config::CollectionConfig;
use crate::error::{MilvusError, Result};
use crate::ingest::AsyncIngest;
use crate::scheduler::{group_batch, QueryScheduler, SearchRequest};

/// One search result with the user-facing score (similarities un-negated).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchHit {
    /// Entity id.
    pub id: i64,
    /// Raw metric value: distance for L2/Hamming…, similarity for IP/cosine.
    pub score: f32,
    /// Internal distance (smaller = better), useful for merging.
    pub distance: f32,
}

/// A fully materialized entity (for point lookups).
#[derive(Debug, Clone, PartialEq)]
pub struct EntityView {
    /// Entity id.
    pub id: i64,
    /// One vector per schema vector field.
    pub vectors: Vec<Vec<f32>>,
    /// One value per schema attribute field.
    pub attributes: Vec<f64>,
}

/// Summary statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectionStats {
    /// Flushed segments in the current snapshot.
    pub segments: usize,
    /// Live (non-tombstoned) rows across segments.
    pub live_rows: usize,
    /// Rows buffered in the memtable.
    pub pending_rows: usize,
    /// Segments carrying an index on at least one vector field.
    pub indexed_segments: usize,
    /// Approximate resident bytes of all segments.
    pub memory_bytes: usize,
}

/// A named collection of entities.
pub struct Collection {
    name: String,
    /// Collection name as a shared `Arc<str>` so per-query traces can carry
    /// the label without allocating on admission.
    trace_label: Arc<str>,
    schema: Schema,
    config: CollectionConfig,
    engine: Arc<LsmEngine>,
    registry: IndexRegistry,
    ingest: AsyncIngest,
    inflight_builds: Arc<(Mutex<usize>, Condvar)>,
    scheduler: QueryScheduler,
}

impl Collection {
    /// Open (or recover, when a WAL path exists) a collection.
    pub fn open(
        name: String,
        schema: Schema,
        config: CollectionConfig,
        store: Arc<dyn ObjectStore>,
        registry: IndexRegistry,
    ) -> Result<Self> {
        schema.validate()?;
        let mut config = config;
        config.lsm.metrics_label = name.clone();
        let engine = match &config.wal_path {
            Some(path) if path.exists() => Arc::new(LsmEngine::recover(
                schema.clone(),
                config.lsm.clone(),
                store,
                path,
            )?),
            Some(path) => {
                Arc::new(LsmEngine::new(schema.clone(), config.lsm.clone(), store, Some(path))?)
            }
            None => Arc::new(LsmEngine::new(schema.clone(), config.lsm.clone(), store, None)?),
        };
        let ingest = AsyncIngest::start(Arc::clone(&engine), config.flush_interval);
        let scheduler = QueryScheduler::new(&name, config.scheduler.clone());
        Ok(Self {
            trace_label: Arc::from(name.as_str()),
            name,
            scheduler,
            schema,
            config,
            engine,
            registry,
            ingest,
            inflight_builds: Arc::new((Mutex::new(0), Condvar::new())),
        })
    }

    /// Collection name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The underlying engine (used by the distributed layer).
    pub fn engine(&self) -> &Arc<LsmEngine> {
        &self.engine
    }

    /// Insert entities (asynchronous: acknowledged after the WAL append;
    /// visible to search after the next flush, §5.1).
    pub fn insert(&self, batch: InsertBatch) -> Result<()> {
        let _span = obs::span(obs::INGEST_LATENCY, &self.name);
        obs::counter(obs::INGEST_BATCHES, &self.name).inc();
        obs::counter(obs::INGEST_ROWS, &self.name).add(batch.ids.len() as u64);
        self.ingest.insert(batch)
    }

    /// Delete entities by id (out-of-place tombstones, §2.3).
    pub fn delete(&self, ids: Vec<i64>) -> Result<()> {
        self.ingest.delete(ids)
    }

    /// Block until all pending operations are applied and flushed (§5.1),
    /// then run the auto-index policy.
    pub fn flush(&self) -> Result<()> {
        let _span = obs::span(obs::FLUSH_LATENCY, &self.name);
        self.ingest.flush()?;
        if self.config.auto_index_type.is_some() {
            self.ensure_indexes()?;
        }
        Ok(())
    }

    /// Pin the current snapshot (§5.2).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.engine.snapshot()
    }

    /// Live entities visible to search.
    pub fn num_entities(&self) -> usize {
        self.engine.snapshot().live_rows()
    }

    /// Collection statistics.
    pub fn stats(&self) -> CollectionStats {
        let snap = self.engine.snapshot();
        let indexed = snap
            .segments
            .iter()
            .filter(|s| self.schema.vector_fields.iter().any(|f| s.index(&f.name).is_some()))
            .count();
        CollectionStats {
            segments: snap.segments.len(),
            live_rows: snap.live_rows(),
            pending_rows: self.engine.pending_rows(),
            indexed_segments: indexed,
            memory_bytes: snap.segments.iter().map(|s| s.memory_bytes()).sum(),
        }
    }

    fn metric_of(&self, field: &str) -> Result<Metric> {
        self.schema
            .vector_fields
            .iter()
            .find(|f| f.name == field)
            .map(|f| f.metric)
            .ok_or_else(|| MilvusError::NoSuchField(field.to_string()))
    }

    fn to_hits(&self, metric: Metric, neighbors: Vec<Neighbor>) -> Vec<SearchHit> {
        neighbors
            .into_iter()
            .map(|n| SearchHit { id: n.id, score: metric.display_score(n.dist), distance: n.dist })
            .collect()
    }

    /// Vector query (§2.1): top-k over `field` across all segments of the
    /// query's snapshot, merged.
    ///
    /// Every query first passes the scheduler's admission controller: when
    /// the collection's in-flight budget (sized from flight-recorder
    /// signals) is exhausted the query is shed with
    /// [`MilvusError::Overloaded`] instead of queueing behind a backlog it
    /// would only deepen. Admitted queries on an idle scheduler pass
    /// straight to the serial path; queries arriving while another is
    /// running are coalesced — queued until it finishes, then run as one
    /// batched segment sweep whose results are bit-identical to the
    /// serial path (the batch engines share each segment's data rows across
    /// a ×4 query tile instead of re-streaming them per query).
    pub fn search(&self, field: &str, query: &[f32], params: &SearchParams) -> Result<Vec<SearchHit>> {
        let _slot = self.scheduler.admit()?;
        if !self.scheduler.coalescing() || !self.dim_matches(field, query.len()) {
            // Mismatched dims (and unknown fields) take the serial path so
            // the caller sees the exact legacy error.
            return self.search_serial(field, query, params);
        }
        let started = Instant::now();
        let req = SearchRequest::Vector {
            field: field.to_string(),
            query: query.to_vec(),
            params: params.clone(),
        };
        match self.scheduler.submit(req, |batch| self.run_coalesced(batch)) {
            Submitted::Pass(guard) => {
                // Idle scheduler: run serially while the guard holds the
                // rendezvous open, so concurrent arrivals coalesce behind us.
                self.scheduler.note_passthrough();
                let out = self.search_serial(field, query, params);
                drop(guard);
                out
            }
            Submitted::Coalesced { result, batch, led, waited } => {
                if led {
                    self.scheduler.note_batch(batch);
                }
                self.account_coalesced("search", started, waited, Some(params), &result);
                result
            }
        }
    }

    /// The serial (non-coalesced) path: one traced fan-out of per-segment
    /// scans. Admits a trace through the sampler; queries slower than the
    /// configured threshold land in the slow-query log.
    ///
    /// Each fanned-out segment task prepares the query once per index
    /// (cosine normalization, hoisted kernels, fused SQ8 state or the PQ ADC
    /// table — `IvfIndex::prepare`) and reuses it across every probed
    /// bucket; with no tombstones and no filter, the segment takes the
    /// unfiltered scan path with zero per-row predicate dispatch.
    fn search_serial(
        &self,
        field: &str,
        query: &[f32],
        params: &SearchParams,
    ) -> Result<Vec<SearchHit>> {
        let mut trace = obs::Trace::start("search", &self.trace_label);
        let result = self.search_traced(field, query, params, &mut trace);
        trace.finish();
        result
    }

    /// [`Self::search`]'s serial path recording into a caller-supplied trace
    /// (the sampler is bypassed; pass [`obs::Trace::disabled`] for none).
    pub fn search_traced(
        &self,
        field: &str,
        query: &[f32],
        params: &SearchParams,
        trace: &mut obs::Trace,
    ) -> Result<Vec<SearchHit>> {
        let _span = obs::span(obs::QUERY_LATENCY, &self.name);
        obs::counter(obs::QUERY_TOTAL, &self.name).inc();
        obs::counter(obs::QUERY_NPROBE_EFFECTIVE, &self.name).add(params.nprobe as u64);
        obs::counter(obs::QUERY_EF_EFFECTIVE, &self.name).add(params.ef as u64);
        let result = self.search_core(field, query, params, trace);
        if result.is_err() {
            obs::counter(obs::QUERY_ERRORS, &self.name).inc();
        }
        result
    }

    /// The uncounted search core: all the work, none of the query metrics —
    /// so the coalesced path (which accounts per *caller*, not per
    /// execution) can reuse it without double counting.
    fn search_core(
        &self,
        field: &str,
        query: &[f32],
        params: &SearchParams,
        trace: &mut obs::Trace,
    ) -> Result<Vec<SearchHit>> {
        {
            let t = trace.begin();
            let metric = self.metric_of(field)?;
            trace.record(obs::SpanKind::Parse, t);

            let t = trace.begin();
            let snap = self.engine.snapshot();
            let nsegs = snap.segments.len();
            trace.record_with(obs::SpanKind::Route, t, |sp| sp.rows_scanned = nsegs as u64);

            // Fan segment scans out across the global pool. `&mut Trace`
            // stays on this thread: the timed fan-out captures per-task
            // executor milestones (only when the trace is live) and spans
            // are recorded after the join, in segment order — queue wait
            // separate from scan run time, so the profiler can tell
            // saturation from slow scans.
            let scans = traced_fan_out(nsegs, trace.enabled(), |si| {
                let seg = &snap.segments[si];
                let out = seg.search_field_stats(&self.schema, field, query, params, None);
                (seg.id, out)
            });
            let mut lists = Vec::with_capacity(nsegs);
            for ((seg_id, out), timing) in scans {
                let (list, stats) = out?;
                if let Some(t) = timing {
                    trace.record_window(obs::SpanKind::QueueWait, t.enqueued, t.started, |sp| {
                        sp.segment_id = seg_id as i64;
                    });
                    trace.record_window(obs::SpanKind::SegmentScan, t.started, t.finished, |sp| {
                        sp.segment_id = seg_id as i64;
                        sp.rows_scanned = stats.rows_scanned;
                    });
                }
                lists.push(list);
            }

            let t = trace.begin();
            let merged = merge_segment_results(&lists, params.k);
            trace.record(obs::SpanKind::HeapMerge, t);
            Ok(self.to_hits(metric, merged))
        }
    }

    /// Batch vector query: one result list per query, the queries themselves
    /// fanned out across the global executor (each query's segment scans
    /// nest inside — the pool's help-while-waiting scopes make that safe).
    /// Concurrent per-query calls rendezvous in the scheduler like any other
    /// search; [`Self::search_many`] goes straight to the batch engines.
    pub fn search_batch(
        &self,
        field: &str,
        queries: &VectorSet,
        params: &SearchParams,
    ) -> Result<Vec<Vec<SearchHit>>> {
        Executor::global()
            .scoped_map(queries.len(), |i| self.search(field, queries.get(i), params))
            .into_iter()
            .collect()
    }

    /// Explicit batch entry (the REST `search_batch` endpoint): the queries
    /// are already a batch, so skip the coalescing queue entirely and go
    /// straight into the grouped batch execution. One admission slot covers
    /// the whole call.
    pub fn search_many(
        &self,
        field: &str,
        queries: &VectorSet,
        params: &SearchParams,
    ) -> Result<Vec<Vec<SearchHit>>> {
        let _slot = self.scheduler.admit()?;
        let started = Instant::now();
        let m = queries.len();
        let reqs: Vec<SearchRequest> = (0..m)
            .map(|i| SearchRequest::Vector {
                field: field.to_string(),
                query: queries.get(i).to_vec(),
                params: params.clone(),
            })
            .collect();
        let out: Result<Vec<Vec<SearchHit>>> = self.run_coalesced(reqs).into_iter().collect();
        obs::histogram(obs::QUERY_LATENCY, &self.name)
            .observe_us(started.elapsed().as_micros() as u64);
        obs::counter(obs::QUERY_TOTAL, &self.name).add(m as u64);
        obs::counter(obs::QUERY_NPROBE_EFFECTIVE, &self.name).add((params.nprobe * m) as u64);
        obs::counter(obs::QUERY_EF_EFFECTIVE, &self.name).add((params.ef * m) as u64);
        if out.is_err() {
            obs::counter(obs::QUERY_ERRORS, &self.name).inc();
        }
        out
    }

    /// Attribute filtering (§2.1, §4.1): top-k under `attr ∈ [lo, hi]`.
    ///
    /// Per segment this picks between the attribute-first exact scan
    /// (strategy A) and the bitmap-filtered index search (strategy B) with a
    /// simple cost rule; the full strategy suite incl. partition-based E
    /// lives in `milvus-query` and is exercised by the benchmarks.
    #[allow(clippy::too_many_arguments)]
    pub fn filtered_search(
        &self,
        field: &str,
        query: &[f32],
        attr: &str,
        lo: f64,
        hi: f64,
        params: &SearchParams,
    ) -> Result<Vec<SearchHit>> {
        let _slot = self.scheduler.admit()?;
        if !self.scheduler.coalescing() || !self.dim_matches(field, query.len()) {
            return self.filtered_search_serial(field, query, attr, lo, hi, params);
        }
        let started = Instant::now();
        let req = SearchRequest::Filtered {
            field: field.to_string(),
            query: query.to_vec(),
            attr: attr.to_string(),
            lo,
            hi,
            params: params.clone(),
        };
        match self.scheduler.submit(req, |batch| self.run_coalesced(batch)) {
            Submitted::Pass(guard) => {
                self.scheduler.note_passthrough();
                let out = self.filtered_search_serial(field, query, attr, lo, hi, params);
                drop(guard);
                out
            }
            Submitted::Coalesced { result, batch, led, waited } => {
                if led {
                    self.scheduler.note_batch(batch);
                }
                // The serial filtered path counts total/latency/errors but
                // not nprobe/ef — mirror that.
                self.account_coalesced("filtered_search", started, waited, None, &result);
                result
            }
        }
    }

    /// The serial (non-coalesced) filtered path, trace-sampled.
    #[allow(clippy::too_many_arguments)]
    fn filtered_search_serial(
        &self,
        field: &str,
        query: &[f32],
        attr: &str,
        lo: f64,
        hi: f64,
        params: &SearchParams,
    ) -> Result<Vec<SearchHit>> {
        let mut trace = obs::Trace::start("filtered_search", &self.trace_label);
        let result = self.filtered_search_traced(field, query, attr, lo, hi, params, &mut trace);
        trace.finish();
        result
    }

    /// [`Self::filtered_search`]'s serial path recording into a
    /// caller-supplied trace.
    #[allow(clippy::too_many_arguments)]
    pub fn filtered_search_traced(
        &self,
        field: &str,
        query: &[f32],
        attr: &str,
        lo: f64,
        hi: f64,
        params: &SearchParams,
        trace: &mut obs::Trace,
    ) -> Result<Vec<SearchHit>> {
        let _span = obs::span(obs::QUERY_LATENCY, &self.name);
        obs::counter(obs::QUERY_TOTAL, &self.name).inc();
        let result = self.filtered_search_core(field, query, attr, lo, hi, params, trace);
        if result.is_err() {
            obs::counter(obs::QUERY_ERRORS, &self.name).inc();
        }
        result
    }

    /// The uncounted filtered-search core (see [`Self::search_core`]).
    #[allow(clippy::too_many_arguments)]
    fn filtered_search_core(
        &self,
        field: &str,
        query: &[f32],
        attr: &str,
        lo: f64,
        hi: f64,
        params: &SearchParams,
        trace: &mut obs::Trace,
    ) -> Result<Vec<SearchHit>> {
        {
            let t = trace.begin();
            let metric = self.metric_of(field)?;
            let ai = self
                .schema
                .attribute_index(attr)
                .ok_or_else(|| MilvusError::NoSuchAttribute(attr.to_string()))?;
            trace.record(obs::SpanKind::Parse, t);
            let pred = RangePredicate::new(lo, hi);

            let t = trace.begin();
            let snap = self.engine.snapshot();
            let nsegs = snap.segments.len();
            trace.record_with(obs::SpanKind::Route, t, |sp| sp.rows_scanned = nsegs as u64);

            // Per-segment filter + scan, fanned out on the global pool; span
            // windows come back with each task and are recorded post-join in
            // segment order (same pattern as `search_traced`). The filter/
            // scan sub-windows are measured inside the task; the executor
            // queue wait comes from the timed fan-out so it never inflates
            // either stage.
            let trace_on = trace.enabled();
            let scans = traced_fan_out(nsegs, trace_on, |si| {
                let seg = &snap.segments[si];
                let f_start = trace_on.then(Instant::now);
                let column = &seg.data().attributes[ai];
                let passing = column.count_range(pred.lo, pred.hi);
                if passing == 0 {
                    return (seg.id, 0, f_start.zip(trace_on.then(Instant::now)), None);
                }
                let rows: std::collections::HashSet<i64> =
                    column.range_rows(pred.lo, pred.hi).into_iter().collect();
                let f_window = f_start.zip(trace_on.then(Instant::now));
                // Cost rule: highly selective predicate → exact scan of passers
                // (A); otherwise filtered index search (B).
                let s_start = trace_on.then(Instant::now);
                let mut scanned = passing as u64;
                let list = if passing <= params.k * 8 || seg.index(field).is_none() {
                    let mut heap = milvus_index::TopK::new(params.k.max(1));
                    for &id in &rows {
                        if seg.is_deleted(id) {
                            continue;
                        }
                        let row = seg
                            .data()
                            .row_ids
                            .binary_search(&id)
                            .expect("column ids exist in segment");
                        let v = seg.data().vectors[self
                            .schema
                            .vector_field_index(field)
                            .expect("checked by metric_of")]
                        .get(row);
                        heap.push(id, milvus_index::distance::distance(metric, query, v));
                    }
                    Ok(heap.into_sorted())
                } else {
                    seg.search_field_stats(
                        &self.schema,
                        field,
                        query,
                        params,
                        Some(&|id| rows.contains(&id)),
                    )
                    .map(|(list, stats)| {
                        scanned = stats.rows_scanned;
                        list
                    })
                };
                let s_window = s_start.zip(trace_on.then(Instant::now));
                (seg.id, passing, f_window, Some((list, scanned, s_window)))
            });
            let mut lists = Vec::with_capacity(nsegs);
            for ((seg_id, passing, f_window, scan), timing) in scans {
                if let Some(t) = timing {
                    trace.record_window(obs::SpanKind::QueueWait, t.enqueued, t.started, |sp| {
                        sp.segment_id = seg_id as i64;
                    });
                }
                if let Some((start, end)) = f_window {
                    trace.record_window(obs::SpanKind::Filter, start, end, |sp| {
                        sp.segment_id = seg_id as i64;
                        if passing > 0 {
                            sp.rows_scanned = passing as u64;
                        }
                    });
                }
                let Some((list, scanned, s_window)) = scan else { continue };
                let list = list?;
                if let Some((start, end)) = s_window {
                    trace.record_window(obs::SpanKind::SegmentScan, start, end, |sp| {
                        sp.segment_id = seg_id as i64;
                        sp.rows_scanned = scanned;
                    });
                }
                lists.push(list);
            }

            let t = trace.begin();
            let merged = merge_segment_results(&lists, params.k);
            trace.record(obs::SpanKind::HeapMerge, t);
            Ok(self.to_hits(metric, merged))
        }
    }

    /// Whether `field` exists and its vectors have exactly `len` dims.
    fn dim_matches(&self, field: &str, len: usize) -> bool {
        self.schema.vector_fields.iter().find(|f| f.name == field).map(|f| f.dim) == Some(len)
    }

    /// Per-caller accounting for a coalesced execution: the serial path
    /// counts these inside `search_traced`/`filtered_search_traced`; here
    /// the leader ran the shared core uncounted, so each caller records its
    /// own totals, its own end-to-end latency (including the coalesce wait)
    /// and a sampled trace carrying the wait as a `coalesce_wait` span.
    fn account_coalesced(
        &self,
        op: &'static str,
        started: Instant,
        waited: Duration,
        params: Option<&SearchParams>,
        result: &Result<Vec<SearchHit>>,
    ) {
        obs::histogram(obs::QUERY_LATENCY, &self.name)
            .observe_us(started.elapsed().as_micros() as u64);
        obs::counter(obs::QUERY_TOTAL, &self.name).inc();
        if let Some(p) = params {
            obs::counter(obs::QUERY_NPROBE_EFFECTIVE, &self.name).add(p.nprobe as u64);
            obs::counter(obs::QUERY_EF_EFFECTIVE, &self.name).add(p.ef as u64);
        }
        if result.is_err() {
            obs::counter(obs::QUERY_ERRORS, &self.name).inc();
        }
        let mut trace = obs::Trace::start(op, &self.trace_label);
        trace.record_window(obs::SpanKind::CoalesceWait, started, started + waited, |_| {});
        trace.finish();
    }

    /// Execute one coalesced batch (the leader's closure): partition into
    /// parameter-compatible groups, run each multi-query vector group as a
    /// batched segment sweep, everything else through the serial cores.
    /// Failures come back as values — one `Result` per query, in submit
    /// order — because a panic here would strand the followers.
    fn run_coalesced(&self, reqs: Vec<SearchRequest>) -> Vec<Result<Vec<SearchHit>>> {
        let mut out: Vec<Option<Result<Vec<SearchHit>>>> = reqs.iter().map(|_| None).collect();
        for group in group_batch(&reqs) {
            let batchable = group.len() > 1
                && matches!(reqs[group[0]], SearchRequest::Vector { .. });
            if batchable {
                self.run_vector_group(&reqs, &group, &mut out);
            } else {
                for &qi in &group {
                    out[qi] = Some(self.run_one_serial(&reqs[qi]));
                }
            }
        }
        out.into_iter().map(|o| o.expect("every coalesced query answered")).collect()
    }

    /// One request through its uncounted serial core (coalesced-path
    /// fallback for singleton groups, filtered queries, and error replay).
    fn run_one_serial(&self, req: &SearchRequest) -> Result<Vec<SearchHit>> {
        match req {
            SearchRequest::Vector { field, query, params } => {
                self.search_core(field, query, params, &mut obs::Trace::disabled())
            }
            SearchRequest::Filtered { field, query, attr, lo, hi, params } => self
                .filtered_search_core(
                    field,
                    query,
                    attr,
                    *lo,
                    *hi,
                    params,
                    &mut obs::Trace::disabled(),
                ),
        }
    }

    /// Run a group of parameter-compatible vector queries as one batched
    /// sweep: segment-major, each segment's rows/buckets streamed once for
    /// the whole group. `k` may differ within the group — exhaustive-scan
    /// engines run once at `max(k)` and each query's sorted list is
    /// truncated to its own `k` (exact: the top-j of a sorted top-k is the
    /// top-j). Results are bit-identical to the serial path.
    fn run_vector_group(
        &self,
        reqs: &[SearchRequest],
        idxs: &[usize],
        out: &mut [Option<Result<Vec<SearchHit>>>],
    ) {
        let SearchRequest::Vector { field, params, .. } = &reqs[idxs[0]] else {
            unreachable!("vector groups hold vector requests")
        };
        let Ok(metric) = self.metric_of(field) else {
            for &qi in idxs {
                out[qi] = Some(Err(MilvusError::NoSuchField(field.clone())));
            }
            return;
        };
        let fi = self.schema.vector_field_index(field).expect("checked by metric_of");
        let dim = self.schema.vector_fields[fi].dim;
        let queries: Vec<&[f32]> = idxs
            .iter()
            .map(|&qi| {
                let SearchRequest::Vector { query, .. } = &reqs[qi] else { unreachable!() };
                query.as_slice()
            })
            .collect();
        if queries.iter().any(|q| q.len() != dim) {
            // Mismatched dims replay serially for the exact legacy error.
            for &qi in idxs {
                out[qi] = Some(self.run_one_serial(&reqs[qi]));
            }
            return;
        }
        let ks: Vec<usize> = idxs.iter().map(|&qi| reqs[qi].params().k.max(1)).collect();
        let kmax = *ks.iter().max().expect("group is non-empty");
        let mut qs = VectorSet::new(dim);
        for q in &queries {
            qs.push(q);
        }
        let batch_params = SearchParams { k: kmax, ..params.clone() };

        let snap = self.engine.snapshot();
        let mut per_seg: Vec<Vec<Vec<Neighbor>>> = Vec::with_capacity(snap.segments.len());
        for seg in &snap.segments {
            match self.scan_segment_group(seg, field, fi, metric, &qs, &ks, &batch_params) {
                Ok(lists) => per_seg.push(lists),
                Err(_) => {
                    // Errors aren't Clone; replay serially so every caller
                    // gets its own exact error (or result).
                    for &qi in idxs {
                        out[qi] = Some(self.run_one_serial(&reqs[qi]));
                    }
                    return;
                }
            }
        }
        for (j, &qi) in idxs.iter().enumerate() {
            let lists: Vec<Vec<Neighbor>> =
                per_seg.iter_mut().map(|seg_lists| std::mem::take(&mut seg_lists[j])).collect();
            let merged = merge_segment_results(&lists, ks[j]);
            out[qi] = Some(Ok(self.to_hits(metric, merged)));
        }
    }

    /// One segment's contribution to a batched vector group, mirroring the
    /// serial dispatch in `Segment::search_field_stats` case by case so the
    /// per-query results stay bit-identical:
    ///
    /// * index + no tombstones — `VectorIndex::search_batch` (IVF overrides
    ///   with the bucket-major sweep; the default is the serial loop). A
    ///   heterogeneous-`k` group is safe at `max(k)` only for IVF's
    ///   exhaustive bucket scans, so graph/tree indexes fall back to
    ///   per-query calls at each query's own `k`.
    /// * no index + no tombstones + SIMD metric — the zero-copy cache-aware
    ///   batch engine over the segment's own columns.
    /// * anything else (tombstones, binary metrics) — the serial per-query
    ///   scan.
    #[allow(clippy::too_many_arguments)]
    fn scan_segment_group(
        &self,
        seg: &Segment,
        field: &str,
        fi: usize,
        metric: Metric,
        qs: &VectorSet,
        ks: &[usize],
        batch_params: &SearchParams,
    ) -> Result<Vec<Vec<Neighbor>>> {
        let m = qs.len();
        let delete_free = seg.deleted().is_empty();
        let per_query = |params: &SearchParams| -> Result<Vec<Vec<Neighbor>>> {
            (0..m)
                .map(|j| {
                    let p = SearchParams { k: ks[j], ..params.clone() };
                    let (list, _) =
                        seg.search_field_stats(&self.schema, field, qs.get(j), &p, None)?;
                    Ok(list)
                })
                .collect()
        };
        if let Some(index) = seg.index(field) {
            if !delete_free {
                return per_query(batch_params);
            }
            let uniform_k = ks.iter().all(|&k| k == ks[0]);
            if uniform_k || index.as_ivf().is_some() {
                // The serial path's scan-fault hook lives inside
                // `search_field_stats`; batched paths bypass it, so fire it
                // here once per segment.
                milvus_storage::segment::apply_scan_fault(seg.id);
                let p = SearchParams { k: if uniform_k { ks[0] } else { batch_params.k },
                    ..batch_params.clone() };
                let mut lists = index.search_batch(qs, &p)?;
                for (list, &k) in lists.iter_mut().zip(ks) {
                    list.truncate(k);
                }
                return Ok(lists);
            }
            return per_query(batch_params);
        }
        if delete_free && matches!(metric, Metric::L2 | Metric::InnerProduct | Metric::Cosine) {
            milvus_storage::segment::apply_scan_fault(seg.id);
            let opts = BatchOptions {
                metric,
                threads: Executor::global().threads(),
                ..Default::default()
            };
            let data = seg.data();
            return Ok(cache_aware_search_exec_hetk(
                Executor::global(),
                &data.vectors[fi],
                &data.row_ids,
                qs,
                ks,
                &opts,
            ));
        }
        per_query(batch_params)
    }

    /// Materialize one entity.
    pub fn get_entity(&self, id: i64) -> Option<EntityView> {
        let snap = self.engine.snapshot();
        let seg = snap.locate(id)?;
        let row = seg.data().row_ids.binary_search(&id).ok()?;
        let vectors = seg.data().vectors.iter().map(|col| col.get(row).to_vec()).collect();
        let attributes = seg
            .data()
            .attributes
            .iter()
            .map(|col| col.value_of(id).expect("attribute present for live row"))
            .collect();
        Some(EntityView { id, vectors, attributes })
    }

    /// Build an index of `index_type` on `field` for **every** segment
    /// ("users are allowed to manually build indexes for segments of any
    /// size", §2.3). Synchronous.
    pub fn build_index(&self, field: &str, index_type: &str) -> Result<usize> {
        self.metric_of(field)?;
        let snap = self.engine.snapshot();
        let mut built = 0;
        for seg in &snap.segments {
            if seg.index(field).is_none() && seg.live_rows() > 0 {
                let _span = obs::span(obs::INDEX_BUILD_LATENCY, &self.name);
                let next = seg.build_index(
                    &self.schema,
                    field,
                    index_type,
                    &self.registry,
                    &self.config.build_params,
                )?;
                if self.engine.replace_segment(Arc::new(next))? {
                    obs::counter(obs::INDEX_BUILDS, &self.name).inc();
                    built += 1;
                }
            }
        }
        Ok(built)
    }

    /// Build an index asynchronously (§5.1: "Milvus builds indexes
    /// asynchronously"); pair with [`Collection::wait_for_index_builds`].
    pub fn build_index_async(self: &Arc<Self>, field: String, index_type: String) {
        let this = Arc::clone(self);
        {
            let (count, _) = &*self.inflight_builds;
            *count.lock() += 1;
        }
        std::thread::spawn(move || {
            let _ = this.build_index(&field, &index_type);
            let (count, cv) = &*this.inflight_builds;
            *count.lock() -= 1;
            cv.notify_all();
        });
    }

    /// Block until no asynchronous index builds are in flight.
    pub fn wait_for_index_builds(&self) {
        let (count, cv) = &*self.inflight_builds;
        let mut guard = count.lock();
        while *guard > 0 {
            cv.wait(&mut guard);
        }
    }

    /// The §2.3 auto-index policy: index every vector field of segments
    /// whose payload is at least `index_threshold_bytes`.
    pub fn ensure_indexes(&self) -> Result<usize> {
        let Some(index_type) = self.config.auto_index_type.clone() else {
            return Ok(0);
        };
        let snap = self.engine.snapshot();
        let mut built = 0;
        for seg in &snap.segments {
            if seg.data().memory_bytes() < self.config.index_threshold_bytes
                || seg.live_rows() == 0
            {
                continue;
            }
            for vf in &self.schema.vector_fields {
                if seg.index(&vf.name).is_none() {
                    let _span = obs::span(obs::INDEX_BUILD_LATENCY, &self.name);
                    let next = seg.build_index(
                        &self.schema,
                        &vf.name,
                        &index_type,
                        &self.registry,
                        &self.config.build_params,
                    )?;
                    if self.engine.replace_segment(Arc::new(next))? {
                        obs::counter(obs::INDEX_BUILDS, &self.name).inc();
                        built += 1;
                    }
                }
            }
        }
        Ok(built)
    }

    /// Construct a multi-vector query engine (§4.2) over the current
    /// snapshot. `weights` aggregates per-field internal distances by
    /// weighted sum; `with_fusion` additionally builds the concatenated
    /// fusion index (decomposable metrics only).
    pub fn multivector_engine(
        &self,
        index_type: &str,
        weights: Vec<f32>,
        with_fusion: bool,
    ) -> Result<MultiVectorEngine> {
        let snap = self.engine.snapshot();
        let mut fields: Vec<VectorSet> =
            self.schema.vector_fields.iter().map(|f| VectorSet::new(f.dim)).collect();
        let mut ids = Vec::new();
        for seg in &snap.segments {
            for (row, &id) in seg.data().row_ids.iter().enumerate() {
                if seg.is_deleted(id) {
                    continue;
                }
                ids.push(id);
                for (field, col) in fields.iter_mut().zip(&seg.data().vectors) {
                    field.push(col.get(row));
                }
            }
        }
        let metric = self.schema.vector_fields[0].metric;
        Ok(MultiVectorEngine::build(
            metric,
            fields,
            ids,
            weights,
            index_type,
            &self.registry,
            &self.config.build_params,
            with_fusion,
        )?)
    }

    /// Run one search under a forced trace and render its per-stage
    /// breakdown as an `EXPLAIN ANALYZE`-style report. The trace bypasses
    /// the sampler and also feeds the query profiler.
    pub fn explain_analyze(
        &self,
        field: &str,
        query: &[f32],
        params: &SearchParams,
    ) -> Result<String> {
        let mut trace = obs::Trace::forced("search", &self.trace_label);
        let result = self.search_traced(field, query, params, &mut trace);
        let finished = trace.finish_always();
        result?;
        Ok(finished.map(|t| obs::explain_report(&t)).unwrap_or_default())
    }
}

/// Fan `f` out on the global executor, returning per-task timings only when
/// the query is traced — the untraced hot path stays clock-free.
fn traced_fan_out<R: Send>(
    n: usize,
    trace_on: bool,
    f: impl Fn(usize) -> R + Sync,
) -> Vec<(R, Option<milvus_exec::TaskTiming>)> {
    if trace_on {
        Executor::global()
            .scoped_map_timed(n, f)
            .into_iter()
            .map(|(r, t)| (r, Some(t)))
            .collect()
    } else {
        Executor::global().scoped_map(n, f).into_iter().map(|r| (r, None)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use milvus_storage::object_store::MemoryStore;

    fn collection(schema: Schema, config: CollectionConfig) -> Collection {
        Collection::open(
            "test".into(),
            schema,
            config,
            Arc::new(MemoryStore::new()),
            IndexRegistry::with_builtins(),
        )
        .unwrap()
    }

    fn single_schema() -> Schema {
        Schema::single("v", 2, Metric::L2).with_attribute("price")
    }

    fn batch(ids: Vec<i64>) -> InsertBatch {
        let mut vs = VectorSet::new(2);
        let mut attrs = Vec::new();
        for &id in &ids {
            vs.push(&[id as f32, 0.0]);
            attrs.push(id as f64 * 10.0);
        }
        InsertBatch { ids, vectors: vec![vs], attributes: vec![attrs] }
    }

    #[test]
    fn insert_flush_search() {
        let c = collection(single_schema(), CollectionConfig::for_tests());
        c.insert(batch((0..50).collect())).unwrap();
        assert_eq!(c.num_entities(), 0); // async visibility
        c.flush().unwrap();
        assert_eq!(c.num_entities(), 50);
        let hits = c.search("v", &[10.2, 0.0], &SearchParams::top_k(3)).unwrap();
        assert_eq!(hits[0].id, 10);
        assert!(hits[0].score >= 0.0);
    }

    #[test]
    fn delete_then_search_excludes() {
        let c = collection(single_schema(), CollectionConfig::for_tests());
        c.insert(batch((0..20).collect())).unwrap();
        c.flush().unwrap();
        c.delete(vec![5]).unwrap();
        c.flush().unwrap();
        let hits = c.search("v", &[5.0, 0.0], &SearchParams::top_k(1)).unwrap();
        assert_ne!(hits[0].id, 5);
        assert_eq!(c.num_entities(), 19);
    }

    #[test]
    fn filtered_search_honors_range() {
        let c = collection(single_schema(), CollectionConfig::for_tests());
        c.insert(batch((0..100).collect())).unwrap();
        c.flush().unwrap();
        // price = id*10; want price in [100, 300] → ids 10..=30.
        let hits = c
            .filtered_search("v", &[0.0, 0.0], "price", 100.0, 300.0, &SearchParams::top_k(5))
            .unwrap();
        assert!(!hits.is_empty());
        assert!(hits.iter().all(|h| (10..=30).contains(&h.id)), "{hits:?}");
        // Nearest passing entity to origin is id 10.
        assert_eq!(hits[0].id, 10);
    }

    #[test]
    fn filtered_search_unknown_attribute_errors() {
        let c = collection(single_schema(), CollectionConfig::for_tests());
        assert!(matches!(
            c.filtered_search("v", &[0.0, 0.0], "nope", 0.0, 1.0, &SearchParams::top_k(1)),
            Err(MilvusError::NoSuchAttribute(_))
        ));
    }

    #[test]
    fn get_entity_roundtrip() {
        let c = collection(single_schema(), CollectionConfig::for_tests());
        c.insert(batch(vec![7, 8])).unwrap();
        c.flush().unwrap();
        let e = c.get_entity(7).unwrap();
        assert_eq!(e.vectors[0], vec![7.0, 0.0]);
        assert_eq!(e.attributes[0], 70.0);
        assert!(c.get_entity(99).is_none());
    }

    #[test]
    fn manual_index_build_and_search() {
        let c = collection(single_schema(), CollectionConfig::for_tests());
        c.insert(batch((0..200).collect())).unwrap();
        c.flush().unwrap();
        let built = c.build_index("v", "IVF_FLAT").unwrap();
        assert_eq!(built, 1);
        assert_eq!(c.stats().indexed_segments, 1);
        let sp = SearchParams { k: 3, nprobe: 16, ..Default::default() };
        let hits = c.search("v", &[42.0, 0.0], &sp).unwrap();
        assert_eq!(hits[0].id, 42);
    }

    #[test]
    fn auto_index_policy_respects_threshold() {
        let mut cfg = CollectionConfig::for_tests();
        cfg.auto_index_type = Some("IVF_FLAT".into());
        cfg.index_threshold_bytes = 1; // everything qualifies
        let c = collection(single_schema(), cfg);
        c.insert(batch((0..100).collect())).unwrap();
        c.flush().unwrap();
        assert_eq!(c.stats().indexed_segments, 1);
    }

    #[test]
    fn async_index_build() {
        let c = Arc::new(collection(single_schema(), CollectionConfig::for_tests()));
        c.insert(batch((0..100).collect())).unwrap();
        c.flush().unwrap();
        c.build_index_async("v".into(), "HNSW".into());
        c.wait_for_index_builds();
        assert_eq!(c.stats().indexed_segments, 1);
    }

    #[test]
    fn multi_vector_collection_end_to_end() {
        let schema = Schema::single("text", 4, Metric::L2).with_vector_field("image", 3, Metric::L2);
        let c = collection(schema, CollectionConfig::for_tests());
        let n = 60usize;
        let mut text = VectorSet::new(4);
        let mut image = VectorSet::new(3);
        for i in 0..n {
            text.push(&[i as f32, 0.0, 0.0, 0.0]);
            image.push(&[0.0, i as f32, 0.0]);
        }
        let b = InsertBatch {
            ids: (0..n as i64).collect(),
            vectors: vec![text, image],
            attributes: vec![],
        };
        c.insert(b).unwrap();
        c.flush().unwrap();
        let engine = c.multivector_engine("FLAT", vec![0.5, 0.5], false).unwrap();
        let q0 = [30.0f32, 0.0, 0.0, 0.0];
        let q1 = [0.0f32, 30.0, 0.0];
        let res = engine.exact(&[&q0, &q1], 1).unwrap();
        assert_eq!(res[0].id, 30);
    }

    #[test]
    fn search_spans_multiple_segments() {
        let c = collection(single_schema(), CollectionConfig::for_tests());
        c.insert(batch((0..30).collect())).unwrap();
        c.flush().unwrap();
        c.insert(batch((30..60).collect())).unwrap();
        c.flush().unwrap();
        assert_eq!(c.stats().segments, 2);
        let hits = c.search("v", &[45.0, 0.0], &SearchParams::top_k(1)).unwrap();
        assert_eq!(hits[0].id, 45);
    }

    #[test]
    fn unknown_field_errors() {
        let c = collection(single_schema(), CollectionConfig::for_tests());
        assert!(matches!(
            c.search("missing", &[0.0, 0.0], &SearchParams::top_k(1)),
            Err(MilvusError::NoSuchField(_))
        ));
    }
}
