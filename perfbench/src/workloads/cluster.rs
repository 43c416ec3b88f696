//! `cluster_search`: `Cluster::new` over the direct transport with 4 shards
//! and 2 readers holds 25k×128 rows in unindexed segments; one closed-loop
//! client calls `Cluster::search_detailed`. Reader fan-out and the per-row
//! flat scan dominate. The direct transport is used because the simulated
//! network's virtual-time delays would measure the simulator. One client,
//! not two: with two, both queue in the one reader that holds every shard
//! and its coalescer made the median swing 6-11 ms between identical runs.
//! 25k rows, not 100k: every query streams all rows from the shared last-level
//! cache, and on a host shared with other tenants the 51 MB of 100k rows made
//! the median swing 2.7-7.1 ms between identical runs, against 0.69-0.93 ms
//! for the 13 MB of 25k rows in the same period.

use std::sync::Arc;
use std::time::{Duration, Instant};

use milvus_distributed::Cluster;
use milvus_index::traits::SearchParams;
use milvus_index::Metric;
use milvus_obs as obs;
use milvus_storage::object_store::MemoryStore;
use milvus_storage::segment::merge_segment_results;
use milvus_storage::{InsertBatch, LsmConfig, Schema};

use super::*;
use crate::check::{check_answer, Expect};
use crate::report::{Metric as M, Outcome};
use crate::span::{self_ns, Span, Tracer};

const ROWS: usize = 25_000;
const SHARDS: usize = 4;
const READERS: usize = 2;
const FLUSH_EVERY: usize = 25_000;
/// Unused by flat scans; sent so the parameters match the other workloads.
const NPROBE: usize = 8;
/// Rounds per timed run. Set-up is cheap, and the flat scan's speed drifts
/// with other tenants' memory traffic from one two-second window to the
/// next, so nine rounds.
const ROUNDS: usize = 9;
/// Requests replayed per pass of the traced run.
const TRACE_SAMPLE: usize = 32;

fn schema() -> Schema {
    Schema::single(FIELD, DIM, Metric::L2)
}

fn setup(data: &Dataset) -> (Cluster, LoadStats, Duration) {
    let batches: Vec<(usize, InsertBatch)> = batch_ranges(ROWS)
        .into_iter()
        .map(|r| {
            let mut b = data.batch(r);
            b.attributes.clear();
            (b.len(), b)
        })
        .collect();
    let start = Instant::now();
    let cluster = Cluster::new(
        schema(),
        SHARDS,
        READERS,
        Arc::new(MemoryStore::new()),
        LsmConfig::default(),
    )
    .expect("start cluster");
    let st = load(
        batches,
        FLUSH_EVERY,
        |b| cluster.insert(b),
        || cluster.flush(),
    );
    let took = start.elapsed();
    (cluster, st, took)
}

fn check_setup(cluster: &Cluster, out: &mut Outcome) {
    let live = cluster.live_rows();
    if live != ROWS || cluster.reader_count() != READERS {
        out.violation(format!(
            "set-up left {live} rows on {} readers",
            cluster.reader_count()
        ));
    }
}

/// Writer-side segments of every shard (the blobs readers load).
fn segments(cluster: &Cluster) -> Vec<Arc<milvus_storage::segment::Segment>> {
    let w = cluster.writer();
    (0..w.shards())
        .flat_map(|s| w.engine(s).snapshot().segments.clone())
        .collect()
}

fn search_once(
    cluster: &Cluster,
    data: &Dataset,
    truth: &[Vec<i64>],
    p: &SearchParams,
    qi: usize,
    t: &mut Tally,
) {
    let q = data.queries.get(qi);
    t.attempted += 1;
    let start = Instant::now();
    let res = cluster.search_detailed(FIELD, q, p);
    let us = start.elapsed().as_secs_f64() * 1e6;
    let report = match res {
        Ok(r) => r,
        Err(e) => return t.violation(format!("search: {e}")),
    };
    if !report.is_complete() {
        return t.violation(format!(
            "query {qi}: incomplete, shards {:?} uncovered",
            report.uncovered_shards
        ));
    }
    let hits = hits_of(&report.neighbors);
    let e = Expect {
        k: K,
        lens: &[K],
        data: &data.vectors,
        visible: ROWS,
        query: q,
        filter: None,
    };
    if let Err(m) = check_answer(&hits, &e) {
        return t.violation(format!("query {qi}: {m}"));
    }
    t.recall(&truth[qi], &hits);
    t.search_us.push(us);
}

fn shape() -> String {
    format!(
        "{ROWS}x{DIM} L2 clustered, {SHARDS} shards, {READERS} readers, direct transport, unindexed segments (flush every {FLUSH_EVERY}), k {K}, 1 closed-loop client"
    )
}

/// Run the workload.
pub fn run(cfg: &RunCfg) -> Outcome {
    let data = Dataset::generate(ROWS, cfg.seed);
    let truth = data.ground_truth(ROWS);
    let mut out = Outcome::new("cluster_search", shape());
    if cfg.trace {
        traced(cfg, &data, &truth, &mut out);
        return out;
    }
    let p = params(NPROBE);
    let rounds: Vec<Round> = (0..ROUNDS)
        .map(|round| {
            let (cluster, load, setup) = setup(&data);
            check_setup(&cluster, &mut out);
            let (searches, window, _) = closed_loop(
                1,
                cfg.seconds / ROUNDS as f64,
                |_| (),
                |_, rng, t| search_once(&cluster, &data, &truth, &p, Request::draw(rng, 0.0).qi, t),
                round_seed(cfg.seed, round),
            );
            let bytes: usize = segments(&cluster).iter().map(|s| s.memory_bytes()).sum();
            let mem_bytes_per_row = bytes as f64 / cluster.live_rows() as f64;
            Round {
                setup,
                load,
                searches,
                window,
                mem_bytes_per_row,
            }
        })
        .collect();
    e2e_metrics(&mut out, &rounds);
    out
}

fn traced(cfg: &RunCfg, data: &Dataset, truth: &[Vec<i64>], out: &mut Outcome) {
    let before = obs::registry().snapshot();
    let (cluster, load_st, _) = setup(data);
    check_setup(&cluster, out);
    storage_metrics(out, &before, &load_st);
    let segs = segments(&cluster);
    index_build_metric(out, &segs[0], &schema());

    let p = params(NPROBE);
    let mut rng = Rng::new(cfg.seed, 99);
    let sample: Vec<usize> = (0..TRACE_SAMPLE).map(|_| rng.below(QUERIES)).collect();

    // Two clients over the sample: reader utilisation and executor counts.
    cluster.reset_busy();
    let exec0 = obs::registry().snapshot();
    let (two, wall, _) = closed_loop(
        CLIENTS,
        cfg.seconds * 0.25,
        |c| c * TRACE_SAMPLE / CLIENTS,
        |i, _, t| {
            search_once(&cluster, data, truth, &p, sample[*i % TRACE_SAMPLE], t);
            *i += 1;
        },
        cfg.seed,
    );
    out.absorb(&two);
    exec_metrics(out, &exec0, two.attempted as usize);
    let busy: f64 = cluster
        .readers()
        .iter()
        .map(|r| r.busy_time().as_secs_f64())
        .sum();
    out.push(M::new(
        "reader.busy_frac",
        busy / (READERS as f64 * wall.as_secs_f64()),
        "ratio",
        READERS,
    ));

    // Traced replay: the entry call, then each reader's search in turn (as
    // `search_detailed` calls them) and the merge; then the segment layer
    // from the writer-side segments the readers load.
    let readers = cluster.readers();
    let mut tr = Tracer::new();
    let (mut covered, mut slowest_us, mut rows) = (Vec::new(), Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds * 0.6);
    let entry_us = replay(
        &mut tr,
        out,
        "cluster.search",
        &sample,
        || Instant::now() < deadline,
        |qi, t| search_once(&cluster, data, truth, &p, qi, t),
        |tr, req, root, qi| {
            let q = data.queries.get(qi);
            let now = Instant::now();
            let fan = tr.record("cluster.replay", req, Some(root), now, now);
            let mut lists = Vec::new();
            for r in &readers {
                if let (Ok(list), _) =
                    tr.span("reader.search", req, Some(fan), || r.search(FIELD, q, &p))
                {
                    lists.push(list);
                }
            }
            tr.span("segment.merge_results", req, Some(fan), || {
                merge_segment_results(&lists, K)
            });
            tr.close(fan);
            let rs = &tr.spans()[fan];
            let kids: Vec<&Span> = tr.children(fan).collect();
            covered.push((rs.dur_ns() - self_ns(rs, &kids)) as f64 / 1e3);
            let slowest = tr
                .children(fan)
                .filter(|s| s.name == "reader.search")
                .map(Span::dur_ns)
                .max();
            slowest_us.push(slowest.unwrap_or(0) as f64 / 1e3);

            let mut scanned = 0;
            for seg in &segs {
                if let (Ok((_, st)), _) = tr.span("segment.search", req, Some(root), || {
                    seg.search_field_stats(&schema(), FIELD, q, &p, None)
                }) {
                    scanned += st.rows_scanned;
                }
            }
            rows.push(scanned as f64);
        },
    );
    layer_metrics(out, &tr, &entry_us, &covered);
    let n = entry_us.len();
    out.push(M::new(
        "cluster.search_us",
        stats::median(&entry_us),
        "us",
        n,
    ));
    out.push(
        M::new("reader.search_us", stats::median(&slowest_us), "us", n)
            .note("slowest reader per request"),
    );
    let fanout_self: Vec<f64> = entry_us
        .iter()
        .zip(&slowest_us)
        .map(|(e, s)| e - s)
        .collect();
    out.push(M::new(
        "cluster.fanout_self_us",
        stats::median(&fanout_self),
        "us",
        n,
    ));
    let shards = readers
        .iter()
        .map(|r| r.assigned_shards().len())
        .max()
        .unwrap_or(0);
    out.push(M::new("reader.shards_max", shards as f64, "count", READERS));
    out.push(M::new("segment.fanout", segs.len() as f64, "count", 1));
    let seg_us = tr.durations_us("segment.search");
    out.push(M::new(
        "segment.search_us",
        stats::median(&seg_us),
        "us",
        seg_us.len(),
    ));
    let merge_us = tr.durations_us("segment.merge_results");
    out.push(M::new(
        "segment.merge_results_us",
        stats::median(&merge_us),
        "us",
        merge_us.len(),
    ));
    out.push(M::new(
        "kernel.rows_per_query",
        stats::mean(&rows),
        "rows",
        n,
    ));
    common_layer_metrics(cfg, out, data);
    out.tracer = Some(tr);
}
