//! `ingest_search`: one writer inserts 500-row batches back to back into a
//! WAL-backed collection with the default auto-index and merge policy,
//! flushing every 10k rows, while one reader runs closed-loop top-10
//! searches. WAL encoding, ingest apply, memtable flush, merge and index
//! build do the work; searching beside the writes shows their interference.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use milvus_core::{Collection, CollectionConfig, Milvus};
use milvus_index::Metric;
use milvus_obs as obs;
use milvus_storage::Schema;

use super::*;
use crate::check::{check_answer, exact_topk, Expect};
use crate::report::{Metric as M, Outcome};
use crate::span::Tracer;

/// Rows loaded (and flushed) before the window opens.
const PRELOAD: usize = 20_000;
const FLUSH_EVERY: usize = 10_000;
/// Rows a round's writer inserts after the preload: three flushes, the
/// second of which merges four segments and rebuilds the merged index.
/// Fixed work gives every round the same flushes, merges and index builds,
/// whatever their timing.
const ROUND_ROWS: usize = 30_000;
/// About how long a round's writer runs on the reference 2-core host; a
/// timed run has one round per this many seconds of `--seconds`.
const ROUND_SECONDS: f64 = 3.6;
const NPROBE: usize = 8;
/// Answers per round whose recall is computed after the window (exact
/// top-k over the rows each answer could see).
const RECALL_SAMPLE: usize = 100;
/// Acknowledged rows read back with `get_entity` after the final flush.
const SPOT_CHECKS: usize = 50;
/// Requests replayed per pass of the traced run.
const TRACE_SAMPLE: usize = 64;

fn schema() -> Schema {
    Schema::single(FIELD, DIM, Metric::L2).with_attribute(ATTR)
}

struct Instance {
    col: Arc<Collection>,
    dir: PathBuf,
    wal: PathBuf,
}

impl Drop for Instance {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn setup(cfg: &RunCfg, data: &Dataset, rep: usize) -> (Instance, LoadStats, Duration) {
    let dir = cfg
        .out_dir
        .join(format!("ingest-{}-{rep}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create WAL directory");
    let wal = dir.join("wal.log");
    let batches: Vec<_> = batch_ranges(PRELOAD)
        .into_iter()
        .map(|r| (r.len(), data.batch(r)))
        .collect();
    let start = Instant::now();
    let milvus = Milvus::new();
    let config = CollectionConfig {
        wal_path: Some(wal.clone()),
        // Segments are cut by the writer's flush calls only, so their
        // boundaries (and the merges and index builds that follow) do not
        // depend on timing.
        flush_interval: Duration::from_secs(3600),
        ..Default::default()
    };
    let col = milvus
        .create_collection("ingest", schema(), config)
        .expect("create collection");
    let st = load(batches, FLUSH_EVERY, |b| col.insert(b), || col.flush());
    let took = start.elapsed();
    (Instance { col, dir, wal }, st, took)
}

fn file_len(p: &Path) -> u64 {
    std::fs::metadata(p).map_or(0, |m| m.len())
}

/// One search, checked against the rows visible before and after it.
/// Returns the answer's ids and the visible row count when that count did
/// not move during the call.
fn search_once(
    col: &Collection,
    data: &Dataset,
    qi: usize,
    t: &mut Tally,
) -> Option<(Vec<i64>, usize)> {
    let q = data.queries.get(qi);
    let p = params(NPROBE);
    t.attempted += 1;
    let before = col.num_entities();
    let start = Instant::now();
    let res = col.search(FIELD, q, &p);
    let us = start.elapsed().as_secs_f64() * 1e6;
    let after = col.num_entities();
    let hits = collection_hits(res, t)?;
    let lens = [K.min(before), K.min(after)];
    let e = Expect {
        k: K,
        lens: &lens,
        data: &data.vectors,
        visible: after,
        query: q,
        filter: None,
    };
    if let Err(m) = check_answer(&hits, &e) {
        t.violation(format!("query {qi}: {m}"));
        return None;
    }
    t.search_us.push(us);
    (before == after).then(|| (hits.iter().map(|h| h.id).collect(), after))
}

/// The writer: every row after `PRELOAD` in 500-row batches, a flush every
/// `FLUSH_EVERY` rows and once at the end; sets `done` when finished.
fn writer(col: &Collection, data: &Dataset, done: &AtomicBool) -> LoadStats {
    let batches = batch_ranges(data.vectors.len())
        .into_iter()
        .skip(PRELOAD / BATCH_ROWS)
        .map(|r| (r.len(), data.batch(r)));
    let st = load(batches, FLUSH_EVERY, |b| col.insert(b), || col.flush());
    done.store(true, Ordering::Release);
    st
}

/// A checked answer: query index, rows it could see, and its ids.
type Answer = (usize, usize, Vec<i64>);

/// Closed-loop searches by one reader until `done` is set; returns the
/// tally, the time it ran, and each answer's query, visible rows and ids.
fn reader(
    col: &Collection,
    data: &Dataset,
    seed: u64,
    done: &AtomicBool,
) -> (Tally, Duration, Vec<Answer>) {
    let mut rng = Rng::new(seed, 1);
    let (mut t, mut answers) = (Tally::default(), Vec::new());
    let start = Instant::now();
    while !done.load(Ordering::Acquire) {
        let qi = Request::draw(&mut rng, 0.0).qi;
        if let Some((ids, visible)) = search_once(col, data, qi, &mut t) {
            answers.push((qi, visible, ids));
        }
    }
    (t, start.elapsed(), answers)
}

/// After the final flush every acknowledged row is live and reads back
/// as written.
fn check_durable(col: &Collection, data: &Dataset, acked: usize, out: &mut Outcome) {
    let live = col.stats().live_rows;
    let want = PRELOAD + acked;
    if live != want {
        out.violation(format!(
            "{live} live rows after the final flush, {want} acknowledged"
        ));
    }
    for i in 0..SPOT_CHECKS {
        let id = (i * want / SPOT_CHECKS) as i64;
        match col.get_entity(id) {
            Some(e)
                if e.vectors[0] == data.vectors.get(id as usize)
                    && e.attributes[0] == data.attrs[id as usize] => {}
            Some(_) => out.violation(format!("entity {id} reads back different")),
            None => out.violation(format!("acknowledged entity {id} is missing")),
        }
    }
}

fn shape() -> String {
    format!(
        "{PRELOAD}x{DIM} preloaded, then per round 1 writer inserting {ROUND_ROWS} rows ({BATCH_ROWS}-row batches, flush every {FLUSH_EVERY}) while 1 closed-loop reader searches (k {K}, nprobe {NPROBE}); WAL on, default auto-index and merge policy, no timed flush"
    )
}

/// Run the workload.
pub fn run(cfg: &RunCfg) -> Outcome {
    let data = Dataset::generate(PRELOAD + ROUND_ROWS, cfg.seed);
    let mut out = Outcome::new("ingest_search", shape());
    if cfg.trace {
        traced(cfg, &data, &mut out);
        return out;
    }
    let n_rounds = ((cfg.seconds / ROUND_SECONDS).round() as usize).max(3);
    let (mut wal_bytes, mut wal_rows) = (0, 0);
    let rounds: Vec<Round> = (0..n_rounds)
        .map(|round| {
            let (inst, _, setup) = setup(cfg, &data, round);
            let col = &inst.col;
            let wal0 = file_len(&inst.wal);
            let done = AtomicBool::new(false);
            let (load, (mut searches, window, answers)) = std::thread::scope(|s| {
                let w = s.spawn(|| writer(col, &data, &done));
                let r = reader(col, &data, round_seed(cfg.seed, round), &done);
                (w.join().expect("writer panicked"), r)
            });
            check_durable(col, &data, load.rows, &mut out);
            recall_of_sample(&data, &answers, &mut searches);
            wal_bytes += file_len(&inst.wal).saturating_sub(wal0);
            wal_rows += load.rows;
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
    out.push(M::new(
        "wal_bytes_per_row",
        wal_bytes as f64 / wal_rows.max(1) as f64,
        "B/row",
        wal_rows,
    ));
    out
}

/// Recall of an evenly spaced sample of answers, each against the exact
/// top-k over the rows it could see (computed after the window).
fn recall_of_sample(data: &Dataset, answers: &[Answer], t: &mut Tally) {
    let step = answers.len().div_ceil(RECALL_SAMPLE).max(1);
    let sample: Vec<&Answer> = answers.iter().step_by(step).collect();
    let truths = Executor::global().scoped_map(sample.len(), |i| {
        let (qi, visible, _) = sample[i];
        exact_topk(&data.vectors, *visible, data.queries.get(*qi), K)
    });
    for ((_, _, ids), truth) in sample.iter().zip(&truths) {
        t.recall_sum += check::recall(truth, ids);
        t.recall_n += 1;
    }
}

fn traced(cfg: &RunCfg, data: &Dataset, out: &mut Outcome) {
    let (inst, _, _) = setup(cfg, data, 0);
    let before = obs::registry().snapshot();
    let col = &inst.col;
    let mut rng = Rng::new(cfg.seed, 99);
    let sample: Vec<usize> = (0..TRACE_SAMPLE).map(|_| rng.below(QUERIES)).collect();
    let p = params(NPROBE);
    let done = AtomicBool::new(false);
    let mut tr = Tracer::new();
    let mut layers = CollectionLayers::default();
    let (load_st, entry_us) = std::thread::scope(|s| {
        let w = s.spawn(|| writer(col, data, &done));
        let entry_us = replay(
            &mut tr,
            out,
            "collection.search",
            &sample,
            || !done.load(Ordering::Acquire),
            |qi, t| {
                search_once(col, data, qi, t);
            },
            |tr, req, root, qi| {
                let q = data.queries.get(qi);
                replay_collection(col, q, &p, tr, req, root, &mut layers);
            },
        );
        (w.join().expect("writer panicked"), entry_us)
    });
    check_durable(col, data, load_st.rows, out);
    storage_metrics(out, &before, &load_st);
    index_build_metric(out, &col.snapshot().segments[0], col.schema());
    layer_metrics(out, &tr, &entry_us, &layers.covered_us);
    collection_metrics(out, &tr, &layers);
    common_layer_metrics(cfg, out, data);
    out.tracer = Some(tr);
}
