//! Offline CI smoke test for the observability HTTP surface: boots the REST
//! server, generates a little traffic (including one guaranteed-slow query),
//! then asserts that `GET /metrics` and `GET /debug/slow_queries` answer 200
//! with well-formed payloads. Exits non-zero on any failure so CI can gate
//! on it without external services.
//!
//! Run with: `cargo run --release -p milvus-examples --bin rest_smoke`

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::process::exit;
use std::sync::Arc;

use milvus_core::config::TraceConfig;
use milvus_core::rest::RestServer;
use milvus_core::Milvus;

/// Minimal HTTP/1.1 client: returns (status code, body).
fn request(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: smoke\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let mut response = String::new();
    BufReader::new(stream).read_to_string(&mut response).expect("recv");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = response.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
    (status, body)
}

fn check(name: &str, ok: bool, detail: &str) {
    if ok {
        println!("  ok   {name}");
    } else {
        eprintln!("  FAIL {name}: {detail}");
        exit(1);
    }
}

fn expect_ok(name: &str, (status, body): (u16, String)) -> String {
    check(name, (200..300).contains(&status), &format!("status {status}, body: {body}"));
    body
}

fn parse(name: &str, body: &str) -> serde::Value {
    match serde::parse_value(body) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("  FAIL {name} is not valid JSON: {e} — body: {body}");
            exit(1);
        }
    }
}

fn main() {
    let milvus = Arc::new(Milvus::new());
    // Threshold 0 marks every sampled query as slow, so the ring buffer is
    // guaranteed to have an entry by the time we poll the debug endpoint.
    milvus.configure_tracing(TraceConfig {
        sample_rate: 1.0,
        slow_threshold_us: Some(0),
        ..Default::default()
    });

    let server = RestServer::serve(milvus, "127.0.0.1:0").expect("bind");
    let addr = server.addr();
    println!("smoke: REST server on http://{addr}");

    expect_ok(
        "POST /collections",
        request(addr, "POST", "/collections", r#"{"name":"smoke","dim":4,"metric":"L2"}"#),
    );
    expect_ok(
        "POST /collections/smoke/entities",
        request(
            addr,
            "POST",
            "/collections/smoke/entities",
            r#"{"ids":[1,2,3,4],
                "vectors":[[1.0,0.0,0.0,0.0],[0.0,1.0,0.0,0.0],
                           [0.0,0.0,1.0,0.0],[0.0,0.0,0.0,1.0]]}"#,
        ),
    );
    expect_ok(
        "POST /collections/smoke/flush",
        request(addr, "POST", "/collections/smoke/flush", ""),
    );
    expect_ok(
        "POST /collections/smoke/search",
        request(addr, "POST", "/collections/smoke/search", r#"{"vector":[0.9,0.1,0.0,0.0],"k":2}"#),
    );

    // --- POST /collections/smoke/search_batch: many vectors, one round
    // trip, one coalesced admission — results stay per-query.
    let body = expect_ok(
        "POST /collections/smoke/search_batch",
        request(
            addr,
            "POST",
            "/collections/smoke/search_batch",
            r#"{"vectors":[[0.9,0.1,0.0,0.0],[0.0,0.0,0.1,0.9]],"k":2}"#,
        ),
    );
    let json = parse("/collections/smoke/search_batch", &body);
    let results = json["results"].as_array();
    check(
        "search_batch returns one hit list per query vector",
        results.map(|r| r.len()) == Some(2),
        &body,
    );
    let (first, second) = (
        json["results"][0]["hits"][0]["id"].as_f64(),
        json["results"][1]["hits"][0]["id"].as_f64(),
    );
    check(
        "search_batch hit lists are per-query (1 then 4)",
        first == Some(1.0) && second == Some(4.0),
        &body,
    );
    let (status, body) =
        request(addr, "POST", "/collections/smoke/search_batch", r#"{"vectors":[[1.0]],"k":2}"#);
    check(
        "search_batch rejects mismatched dims with 400",
        status == 400 && body.contains("dim"),
        &format!("status {status}, body: {body}"),
    );

    // --- GET /metrics: must be 200 and carry the bufferpool + tracing +
    // executor + simulated-network families (declared at zero even before
    // any simulated traffic, so dashboards can pin them).
    let metrics = expect_ok("GET /metrics", request(addr, "GET", "/metrics", ""));
    for family in [
        "milvus_bufferpool_hits_total",
        "milvus_bufferpool_misses_total",
        "milvus_bufferpool_evictions_total",
        "milvus_bufferpool_resident_bytes",
        "milvus_slow_queries_total",
        "milvus_traces_sampled_total",
        "milvus_exec_queue_depth",
        "milvus_exec_steals_total",
        "milvus_exec_tasks_total",
        "milvus_exec_workers",
        "milvus_exec_workers_busy",
        "milvus_net_sent_total",
        "milvus_net_dropped_total",
        "milvus_net_delayed_total",
        "milvus_net_retries_total",
        "milvus_net_timeouts_total",
        "milvus_net_failovers_total",
        "milvus_search_degraded_total",
        "milvus_search_coverage_ratio",
        "milvus_sched_batch_size",
        "milvus_sched_coalesced_batches_total",
        "milvus_sched_coalesced_queries_total",
        "milvus_sched_inflight",
        "milvus_sched_passthrough_total",
        "milvus_sched_shed_total",
        "milvus_writer_up",
        "milvus_writer_failovers_total",
        "milvus_writer_replayed_records_total",
        "milvus_writer_deduped_ops_total",
        "milvus_writer_takeover_generation",
        "milvus_writer_takeover_replay_lsn",
    ] {
        check(
            &format!("/metrics declares {family}"),
            metrics.contains(&format!("# HELP {family}")),
            "HELP line missing",
        );
    }

    // --- GET /debug/slow_queries: must be 200 and valid JSON with our query.
    let body =
        expect_ok("GET /debug/slow_queries", request(addr, "GET", "/debug/slow_queries", ""));
    let json = match serde::parse_value(&body) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("  FAIL /debug/slow_queries is not valid JSON: {e} — body: {body}");
            exit(1);
        }
    };
    let count = json["count"].as_f64().unwrap_or(-1.0);
    check("/debug/slow_queries has count >= 1", count >= 1.0, &format!("count = {count}"));
    let entries = json["slow_queries"].as_array();
    let has_ours = entries
        .map(|arr| arr.iter().any(|t| t["collection"].as_str() == Some("smoke")))
        .unwrap_or(false);
    check("ring contains the smoke query", has_ours, &body);

    // --- Flight recorder: two explicit frames bracketing one search give
    // /debug/timeseries a closed window with a known counter delta.
    expect_ok(
        "POST /debug/timeseries/tick",
        request(addr, "POST", "/debug/timeseries/tick", ""),
    );
    expect_ok(
        "POST /collections/smoke/search (in window)",
        request(addr, "POST", "/collections/smoke/search", r#"{"vector":[0.1,0.9,0.0,0.0],"k":2}"#),
    );
    expect_ok(
        "POST /debug/timeseries/tick",
        request(addr, "POST", "/debug/timeseries/tick", ""),
    );
    let body = expect_ok("GET /debug/timeseries", request(addr, "GET", "/debug/timeseries", ""));
    let json = parse("/debug/timeseries", &body);
    check(
        "/debug/timeseries has >= 2 windows",
        json["windows"].as_f64().unwrap_or(0.0) >= 2.0,
        &body,
    );
    let delta = json["counters"]
        .as_array()
        .and_then(|arr| {
            arr.iter().find(|c| {
                c["name"].as_str() == Some("milvus_query_total")
                    && c["collection"].as_str() == Some("smoke")
            })
        })
        .and_then(|c| c["window_delta"].as_f64())
        .unwrap_or(-1.0);
    check("window delta counts the bracketed search", delta == 1.0, &format!("delta = {delta}"));

    // --- GET /debug/profile: the traced searches appear with stage rows.
    let body = expect_ok("GET /debug/profile", request(addr, "GET", "/debug/profile", ""));
    let json = parse("/debug/profile", &body);
    let has_op = json["ops"]
        .as_array()
        .map(|arr| {
            arr.iter().any(|o| {
                o["collection"].as_str() == Some("smoke")
                    && o["op"].as_str() == Some("search")
                    && o["stages"].as_array().is_some_and(|s| !s.is_empty())
            })
        })
        .unwrap_or(false);
    check("/debug/profile has a staged smoke/search entry", has_op, &body);

    // --- GET /health: a healthy single-node process answers ok with all
    // five components.
    let body = expect_ok("GET /health", request(addr, "GET", "/health", ""));
    let json = parse("/health", &body);
    check("/health is ok", json["status"].as_str() == Some("ok"), &body);
    check(
        "/health lists 5 components",
        json["components"].as_array().map(|c| c.len()) == Some(5),
        &body,
    );

    // --- POST /collections/smoke/explain: EXPLAIN ANALYZE round-trip.
    let body = expect_ok(
        "POST /collections/smoke/explain",
        request(addr, "POST", "/collections/smoke/explain", r#"{"vector":[0.9,0.1,0.0,0.0],"k":2}"#),
    );
    let json = parse("/collections/smoke/explain", &body);
    let report = json["report"].as_str().unwrap_or("");
    check(
        "explain report is well-formed",
        report.starts_with("EXPLAIN ANALYZE op=search") && report.contains("segment_scan"),
        report,
    );

    server.shutdown();
    println!("smoke: all checks passed ✓");
}
