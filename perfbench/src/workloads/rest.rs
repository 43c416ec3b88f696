//! `rest_search`: a 20k×128 collection is created, filled and flushed over
//! HTTP, then two connections run closed-loop `POST .../search` at k=10.
//! The front end (connection handling, JSON in and out) does most of the
//! work and the index little.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use milvus_core::rest::RestServer;
use milvus_core::{Collection, Milvus};
use milvus_obs as obs;
use serde_json::Value;

use super::*;
use crate::check::{check_answer, Expect};
use crate::http::{Client, Timing};
use crate::report::{Metric as M, Outcome};
use crate::span::Tracer;

const ROWS: usize = 20_000;
const FLUSH_EVERY: usize = 10_000;
/// The server's default nprobe, sent explicitly.
const NPROBE: usize = 8;
const NAME: &str = "rest";
/// Rounds per timed run; each gets some 2000 searches.
const ROUNDS: usize = 3;
/// Requests replayed by the traced run.
const TRACE_SAMPLE: usize = 64;

struct Instance {
    milvus: Arc<Milvus>,
    server: RestServer,
}

impl Instance {
    fn col(&self) -> Arc<Collection> {
        self.milvus
            .collection(NAME)
            .expect("collection created in set-up")
    }
}

fn floats(out: &mut String, v: &[f32]) {
    out.push('[');
    for (i, x) in v.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{x}");
    }
    out.push(']');
}

fn insert_body(data: &Dataset, range: std::ops::Range<usize>) -> String {
    let mut s = String::with_capacity(range.len() * DIM * 10);
    let ids: Vec<String> = range.clone().map(|i| i.to_string()).collect();
    let _ = write!(s, "{{\"ids\":[{}],\"vectors\":[", ids.join(","));
    for (n, i) in range.clone().enumerate() {
        if n > 0 {
            s.push(',');
        }
        floats(&mut s, data.vectors.get(i));
    }
    let attrs: Vec<String> = data.attrs[range].iter().map(|a| a.to_string()).collect();
    let _ = write!(s, "],\"attributes\":[[{}]]}}", attrs.join(","));
    s
}

fn search_body(q: &[f32]) -> Vec<u8> {
    let mut s = String::from("{\"vector\":");
    floats(&mut s, q);
    let _ = write!(s, ",\"k\":{K},\"nprobe\":{NPROBE}}}");
    s.into_bytes()
}

/// POST and demand `status`.
fn post(c: &mut Client, path: &str, body: &[u8], status: u16) -> Result<Timing, String> {
    let (resp, timing) = c
        .request("POST", path, body)
        .map_err(|e| format!("{path}: {e}"))?;
    if resp.status != status {
        let text = String::from_utf8_lossy(&resp.body);
        return Err(format!("{path}: status {} ({text})", resp.status));
    }
    Ok(timing)
}

fn setup(bodies: &[String]) -> (Instance, LoadStats, Duration) {
    let start = Instant::now();
    let milvus = Arc::new(Milvus::new());
    let server = RestServer::serve(Arc::clone(&milvus), "127.0.0.1:0").expect("bind REST server");
    let mut c = Client::new(server.addr());
    let create =
        format!(r#"{{"name":"{NAME}","dim":{DIM},"metric":"L2","attributes":["{ATTR}"]}}"#);
    let mut st = LoadStats::default();
    match post(&mut c, "/collections", create.as_bytes(), 201) {
        Ok(_) => {
            let entities = format!("/collections/{NAME}/entities");
            let flush = format!("/collections/{NAME}/flush");
            let c = std::cell::RefCell::new(c);
            st = load(
                bodies.iter().map(|b| (BATCH_ROWS, b.as_bytes())),
                FLUSH_EVERY,
                |b| post(&mut c.borrow_mut(), &entities, b, 202).map(drop),
                || post(&mut c.borrow_mut(), &flush, b"", 200).map(drop),
            );
        }
        Err(e) => st.errors.push(e),
    }
    let took = start.elapsed();
    (Instance { milvus, server }, st, took)
}

/// One search over `c`, checked; returns the client timing and response
/// size of a correct answer.
fn search_once(
    c: &mut Client,
    path: &str,
    body: &[u8],
    data: &Dataset,
    truth: &[Vec<i64>],
    qi: usize,
    t: &mut Tally,
) -> Option<(Timing, usize)> {
    t.attempted += 1;
    let start = Instant::now();
    let res = c.request("POST", path, body);
    let us = start.elapsed().as_secs_f64() * 1e6;
    let (resp, timing) = match res {
        Ok(r) => r,
        Err(e) => {
            t.violation(format!("search: {e}"));
            return None;
        }
    };
    if resp.is_shed() {
        t.shed();
        return None;
    }
    let hits = match parse_hits(resp.status, &resp.body) {
        Ok(h) => h,
        Err(e) => {
            t.violation(format!("query {qi}: {e}"));
            return None;
        }
    };
    let e = Expect {
        k: K,
        lens: &[K],
        data: &data.vectors,
        visible: ROWS,
        query: data.queries.get(qi),
        filter: None,
    };
    if let Err(m) = check_answer(&hits, &e) {
        t.violation(format!("query {qi}: {m}"));
        return None;
    }
    t.recall(&truth[qi], &hits);
    t.search_us.push(us);
    Some((timing, resp.wire_bytes))
}

fn parse_hits(status: u16, body: &[u8]) -> Result<Vec<Hit>, String> {
    if status != 200 {
        return Err(format!(
            "status {status}: {}",
            String::from_utf8_lossy(body)
        ));
    }
    let v: Value = serde_json::from_slice(body).map_err(|e| format!("bad JSON: {e}"))?;
    let hits = v
        .get("hits")
        .and_then(Value::as_array)
        .ok_or("no hits array")?;
    hits.iter()
        .map(|h| {
            let id = h.get("id").and_then(Value::as_i64);
            let score = h.get("score").and_then(Value::as_f64);
            match (id, score) {
                (Some(id), Some(s)) => Ok(Hit { id, dist: s as f32 }),
                _ => Err(format!("malformed hit {h:?}")),
            }
        })
        .collect()
}

fn shape() -> String {
    format!(
        "{ROWS}x{DIM} L2 clustered loaded over HTTP in {BATCH_ROWS}-row batches (flush every {FLUSH_EVERY}), default collection config, k {K}, nprobe {NPROBE}, {CLIENTS} closed-loop connections"
    )
}

fn check_setup(inst: &Instance, out: &mut Outcome) {
    let live = inst
        .milvus
        .collection(NAME)
        .map(|c| c.stats().live_rows)
        .unwrap_or(0);
    if live != ROWS {
        out.violation(format!("set-up left {live} live rows, expected {ROWS}"));
    }
}

/// Run the workload.
pub fn run(cfg: &RunCfg) -> Outcome {
    let data = Dataset::generate(ROWS, cfg.seed);
    let truth = data.ground_truth(ROWS);
    let bodies: Vec<String> = batch_ranges(ROWS)
        .into_iter()
        .map(|r| insert_body(&data, r))
        .collect();
    let queries: Vec<Vec<u8>> = (0..QUERIES)
        .map(|qi| search_body(data.queries.get(qi)))
        .collect();
    let path = format!("/collections/{NAME}/search");
    let mut out = Outcome::new("rest_search", shape());
    if cfg.trace {
        traced(cfg, &data, &truth, &bodies, &queries, &path, &mut out);
        return out;
    }
    let rounds: Vec<Round> = (0..ROUNDS)
        .map(|round| {
            let (inst, load, setup) = setup(&bodies);
            check_setup(&inst, &mut out);
            let addr = inst.server.addr();
            let (searches, window, _) = closed_loop(
                CLIENTS,
                cfg.seconds / ROUNDS as f64,
                |_| Client::new(addr),
                |c, rng, t| {
                    let qi = Request::draw(rng, 0.0).qi;
                    search_once(c, &path, &queries[qi], &data, &truth, qi, t);
                },
                round_seed(cfg.seed, round),
            );
            let st = inst.col().stats();
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
    out
}

fn traced(
    cfg: &RunCfg,
    data: &Dataset,
    truth: &[Vec<i64>],
    bodies: &[String],
    queries: &[Vec<u8>],
    path: &str,
    out: &mut Outcome,
) {
    let before = obs::registry().snapshot();
    let (inst, load_st, _) = setup(bodies);
    check_setup(&inst, out);
    storage_metrics(out, &before, &load_st);
    let col = inst.col();
    index_build_metric(out, &col.snapshot().segments[0], col.schema());

    let p = params(NPROBE);
    let mut rng = Rng::new(cfg.seed, 99);
    let sample: Vec<usize> = (0..TRACE_SAMPLE).map(|_| rng.below(QUERIES)).collect();
    let mut c = Client::new(inst.server.addr());
    let mut tr = Tracer::new();
    let mut layers = CollectionLayers::default();
    let mut covered = Vec::new();
    let (mut connect_us, mut ttfb_us, mut req_bytes, mut resp_bytes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds * 0.8);
    let entry_us = replay(
        &mut tr,
        out,
        "rest.search",
        &sample,
        || Instant::now() < deadline,
        |qi, t| {
            if let Some((tm, wire)) = search_once(&mut c, path, &queries[qi], data, truth, qi, t) {
                if !tm.connect.is_zero() {
                    connect_us.push(tm.connect.as_secs_f64() * 1e6);
                }
                ttfb_us.push(tm.ttfb.as_secs_f64() * 1e6);
                req_bytes.push(tm.req_bytes as f64);
                resp_bytes.push(wire as f64);
            }
        },
        |tr, req, root, qi| {
            let q = data.queries.get(qi);
            let (_, inner) = tr.span("collection.search", req, Some(root), || {
                col.search(FIELD, q, &p)
            });
            covered.push(tr.spans()[inner].dur_ns() as f64 / 1e3);
            replay_collection(&col, q, &p, tr, req, root, &mut layers);
        },
    );
    layer_metrics(out, &tr, &entry_us, &covered);
    collection_metrics(out, &tr, &layers);
    let n = entry_us.len();
    out.push(M::new(
        "rest.overhead_us",
        stats::median(&entry_us) - stats::median(&covered),
        "us",
        n,
    ));
    out.push(M::new(
        "rest.connect_us",
        stats::median(&connect_us),
        "us",
        connect_us.len(),
    ));
    out.push(M::new(
        "rest.ttfb_us",
        stats::median(&ttfb_us),
        "us",
        ttfb_us.len(),
    ));
    out.push(M::new(
        "rest.connects_per_request",
        c.connects as f64 / n as f64,
        "ratio",
        n,
    ));
    out.push(M::new(
        "rest.req_bytes",
        stats::median(&req_bytes),
        "B",
        req_bytes.len(),
    ));
    out.push(M::new(
        "rest.resp_bytes",
        stats::median(&resp_bytes),
        "B",
        resp_bytes.len(),
    ));
    common_layer_metrics(cfg, out, data);
    out.tracer = Some(tr);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_parse_from_the_server_shape() {
        let h = parse_hits(
            200,
            br#"{"hits":[{"id":3,"score":1.5},{"id":9,"score":2}]}"#,
        )
        .unwrap();
        assert_eq!(h, vec![Hit { id: 3, dist: 1.5 }, Hit { id: 9, dist: 2.0 }]);
        assert!(parse_hits(429, b"{}").is_err());
        assert!(parse_hits(200, br#"{"hits":[{"id":"x"}]}"#).is_err());
        assert!(parse_hits(200, b"not json").is_err());
    }
}
