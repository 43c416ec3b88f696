//! `ann_search`: two in-process clients call `Collection::search` and
//! `filtered_search` on 100k×128 rows auto-indexed IVF_FLAT in five sealed
//! segments. The IVF scan, the kernels, the segment fan-out and the
//! coalescing scheduler do nearly all the work; REST, the WAL and the
//! cluster do none.

use std::sync::Arc;
use std::time::{Duration, Instant};

use milvus_core::{Collection, CollectionConfig, Milvus};
use milvus_index::traits::SearchParams;
use milvus_index::Metric;
use milvus_obs as obs;
use milvus_storage::{InsertBatch, LsmConfig, Schema};

use super::*;
use crate::check::{check_answer, Expect};
use crate::report::{Metric as M, Outcome};
use crate::span::Tracer;

const ROWS: usize = 100_000;
/// Rows per sealed segment: the loader flushes after each.
const SEGMENT_ROWS: usize = 20_000;
/// Buckets probed per segment; with the data's 1024 clusters this keeps
/// recall@10 near 0.95.
const NPROBE: usize = 8;
/// Share of requests carrying an attribute filter.
const FILTERED_SHARE: f64 = 0.2;
/// Rounds per timed run: set-up (five IVF builds) is the costly part, and
/// each round still gets some 4000 searches.
const ROUNDS: usize = 4;
/// Requests replayed by the traced run.
const TRACE_SAMPLE: usize = 64;

/// Span names of the filtered searches, one per selectivity bucket.
const FILTERED_SPANS: [&str; 3] = [
    "collection.filtered_us.sel01",
    "collection.filtered_us.sel10",
    "collection.filtered_us.sel50",
];

fn schema() -> Schema {
    Schema::single(FIELD, DIM, Metric::L2).with_attribute(ATTR)
}

fn config() -> CollectionConfig {
    CollectionConfig {
        lsm: LsmConfig {
            auto_merge: false,
            ..Default::default()
        },
        // Only the loader's flush calls seal segments, so every run
        // searches the same five segments.
        flush_interval: Duration::from_secs(3600),
        ..Default::default()
    }
}

fn setup(data: &Dataset) -> (Arc<Collection>, LoadStats, Duration) {
    let batches: Vec<(usize, InsertBatch)> = batch_ranges(ROWS)
        .into_iter()
        .map(|r| (r.len(), data.batch(r)))
        .collect();
    let start = Instant::now();
    let milvus = Milvus::new();
    let col = milvus
        .create_collection("ann", schema(), config())
        .expect("create collection");
    let st = load(batches, SEGMENT_ROWS, |b| col.insert(b), || col.flush());
    let took = start.elapsed();
    (col, st, took)
}

fn check_setup(col: &Collection, out: &mut Outcome) {
    let st = col.stats();
    let want = ROWS / SEGMENT_ROWS;
    if st.live_rows != ROWS || st.segments != want || st.indexed_segments != want {
        out.violation(format!(
            "set-up left {st:?}, expected {ROWS} rows in {want} indexed segments"
        ));
    }
}

/// The answer checks shared by the timed and traced runs; returns the
/// latency of a correct answer.
fn search_once(
    col: &Collection,
    data: &Dataset,
    truth: &[Vec<i64>],
    p: &SearchParams,
    req: Request,
    t: &mut Tally,
) -> Option<f64> {
    let q = data.queries.get(req.qi);
    t.attempted += 1;
    let start = Instant::now();
    let res = match req.filter {
        Some((lo, hi, _)) => col.filtered_search(FIELD, q, ATTR, lo, hi, p),
        None => col.search(FIELD, q, p),
    };
    let us = start.elapsed().as_secs_f64() * 1e6;
    let hits = collection_hits(res, t)?;
    let attrs = &data.attrs;
    let pass = req
        .filter
        .map(|(lo, hi, _)| move |id: i64| (lo..=hi).contains(&attrs[id as usize]));
    let e = Expect {
        k: K,
        lens: &[K],
        data: &data.vectors,
        visible: ROWS,
        query: q,
        filter: pass.as_ref().map(|f| f as &dyn Fn(i64) -> bool),
    };
    if let Err(m) = check_answer(&hits, &e) {
        t.violation(format!("query {}: {m}", req.qi));
        return None;
    }
    if req.filter.is_some() {
        t.filtered_us.push(us);
    } else {
        t.recall(&truth[req.qi], &hits);
        t.search_us.push(us);
    }
    Some(us)
}

fn shape() -> String {
    format!(
        "{ROWS}x{DIM} L2 clustered, IVF_FLAT in {} segments, nprobe {NPROBE}, k {K}, {CLIENTS} closed-loop clients, {:.0}% filtered at selectivity {SELECTIVITIES:?}",
        ROWS / SEGMENT_ROWS,
        FILTERED_SHARE * 100.0
    )
}

/// Run the workload.
pub fn run(cfg: &RunCfg) -> Outcome {
    let data = Dataset::generate(ROWS, cfg.seed);
    let truth = data.ground_truth(ROWS);
    let mut out = Outcome::new("ann_search", shape());
    if cfg.trace {
        traced(cfg, &data, &truth, &mut out);
        return out;
    }
    let p = params(NPROBE);
    let sched0 = obs::registry().snapshot();
    let rounds: Vec<Round> = (0..ROUNDS)
        .map(|round| {
            let (col, load, setup) = setup(&data);
            check_setup(&col, &mut out);
            let (searches, window, _) = closed_loop(
                CLIENTS,
                cfg.seconds / ROUNDS as f64,
                |_| (),
                |_, rng, t| {
                    search_once(
                        &col,
                        &data,
                        &truth,
                        &p,
                        Request::draw(rng, FILTERED_SHARE),
                        t,
                    );
                },
                round_seed(cfg.seed, round),
            );
            let st = col.stats();
            let mem_bytes_per_row = st.memory_bytes as f64 / st.live_rows as f64;
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
    let queries = rounds.iter().map(|r| r.searches.attempted).sum();
    scheduler_metrics(&mut out, &sched0, queries);
    out
}

fn traced(cfg: &RunCfg, data: &Dataset, truth: &[Vec<i64>], out: &mut Outcome) {
    let before = obs::registry().snapshot();
    let (col, load_st, _) = setup(data);
    let col = &*col;
    check_setup(col, out);
    storage_metrics(out, &before, &load_st);
    index_build_metric(out, &col.snapshot().segments[0], col.schema());

    let p = params(NPROBE);
    let mut rng = Rng::new(cfg.seed, 99);
    let sample: Vec<usize> = (0..TRACE_SAMPLE).map(|_| rng.below(QUERIES)).collect();

    // Two clients over the same queries: the scheduler's cost.
    let before = obs::registry().snapshot();
    let (two, _, _) = closed_loop(
        CLIENTS,
        cfg.seconds * 0.25,
        |c| c * TRACE_SAMPLE / CLIENTS,
        |i, _, t| {
            let qi = sample[*i % TRACE_SAMPLE];
            *i += 1;
            search_once(col, data, truth, &p, Request { qi, filter: None }, t);
        },
        cfg.seed,
    );
    out.absorb(&two);
    scheduler_metrics(out, &before, two.attempted);
    exec_metrics(out, &before, two.attempted as usize);

    // Traced replay: unfiltered requests through the collection layers,
    // then filtered ones per selectivity bucket.
    let mut tr = Tracer::new();
    let mut layers = CollectionLayers::default();
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds * 0.45);
    let entry_us = replay(
        &mut tr,
        out,
        "collection.search",
        &sample,
        || Instant::now() < deadline,
        |qi, t| {
            search_once(col, data, truth, &p, Request { qi, filter: None }, t);
        },
        |tr, req, root, qi| {
            let q = data.queries.get(qi);
            replay_collection(col, q, &p, tr, req, root, &mut layers);
        },
    );
    layer_metrics(out, &tr, &entry_us, &layers.covered_us);
    let mut filtered_us = Vec::new();
    for (b, &s) in SELECTIVITIES.iter().enumerate() {
        let requests: Vec<Request> = (0..8)
            .map(|i| {
                let lo = (i as f64 / 8.0) * (1.0 - s);
                Request {
                    qi: sample[i],
                    filter: Some((lo, lo + s, b)),
                }
            })
            .collect();
        let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds * 0.05);
        filtered_us.push(replay(
            &mut tr,
            out,
            FILTERED_SPANS[b],
            &requests,
            || Instant::now() < deadline,
            |r, t| {
                search_once(col, data, truth, &p, r, t);
            },
            |_, _, _, _| {},
        ));
    }
    collection_metrics(out, &tr, &layers);
    out.push(M::new(
        "scheduler.overhead_us",
        stats::median(&two.search_us) - stats::median(&layers.serial_us),
        "us",
        two.search_us.len(),
    ));
    for (name, d) in FILTERED_SPANS.iter().zip(&filtered_us) {
        out.push(M::new(*name, stats::median(d), "us", d.len()));
    }
    common_layer_metrics(cfg, out, data);
    out.tracer = Some(tr);
}
