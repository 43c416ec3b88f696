//! Integration tests for the per-query tracing subsystem: slow queries land
//! in the ring buffer with the expected span tree, sampling 0.0 records
//! nothing (verified with counters, not wall clock), the ring is bounded,
//! reader traces carry shard ids and cache outcomes, and the REST debug
//! endpoint serves the ring as JSON.
//!
//! Tracing configuration and the slow-query ring are process-global, so every
//! test that touches them serializes on [`guard`] and restores the prior
//! config before releasing it.

use std::io::{BufReader, Read as IoRead, Write as IoWrite};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use milvus_core::{CollectionConfig, Milvus};
use milvus_index::traits::SearchParams;
use milvus_index::{Metric, VectorSet};
use milvus_obs as obs;
use milvus_storage::{InsertBatch, Schema};

fn guard() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

/// Restores the previous trace config when dropped, so a failing test cannot
/// poison the config for the rest of the binary.
struct ConfigRestore(obs::TraceConfig);

impl ConfigRestore {
    fn set(cfg: obs::TraceConfig) -> Self {
        let prior = obs::trace_config();
        obs::set_trace_config(cfg);
        ConfigRestore(prior)
    }
}

impl Drop for ConfigRestore {
    fn drop(&mut self) {
        milvus_storage::clear_scan_delays();
        obs::set_trace_config(self.0.clone());
    }
}

fn batch(ids: std::ops::Range<i64>) -> InsertBatch {
    let mut vs = VectorSet::new(4);
    for id in ids.clone() {
        vs.push(&[id as f32, 0.0, 0.0, 0.0]);
    }
    InsertBatch::single(ids.collect(), vs)
}

/// A collection with two flushed segments.
fn two_segment_collection(m: &Milvus, name: &str) -> Arc<milvus_core::Collection> {
    let col = m
        .create_collection(name, Schema::single("v", 4, Metric::L2), CollectionConfig::for_tests())
        .unwrap();
    col.insert(batch(0..200)).unwrap();
    col.flush().unwrap();
    col.insert(batch(200..400)).unwrap();
    col.flush().unwrap();
    assert_eq!(col.stats().segments, 2);
    col
}

#[test]
fn slow_query_lands_in_ring_with_expected_span_tree() {
    let _g = guard();
    let _cfg = ConfigRestore::set(obs::TraceConfig {
        sample_rate: 1.0,
        slow_threshold_us: Some(5_000),
        ..obs::TraceConfig::default()
    });

    let m = Milvus::new();
    let col = two_segment_collection(&m, "trace_slow");
    let seg_ids: Vec<u64> = col.snapshot().segments.iter().map(|s| s.id).collect();
    let slow_seg = seg_ids[1];
    milvus_storage::inject_scan_delay(slow_seg, Duration::from_millis(20));

    col.search("v", &[42.0, 0.0, 0.0, 0.0], &SearchParams::top_k(3)).unwrap();
    milvus_storage::clear_scan_delays();

    let trace = m
        .slow_queries()
        .into_iter()
        .rev()
        .find(|t| t.collection == "trace_slow")
        .expect("delayed query must land in the slow-query log");
    assert_eq!(trace.op, "search");
    assert!(trace.total_us > 5_000, "total_us={}", trace.total_us);
    assert_eq!(trace.threshold_us, 5_000);
    assert_eq!(trace.dropped_spans, 0);

    let kinds: Vec<obs::SpanKind> = trace.spans.iter().map(|s| s.kind).collect();
    assert!(kinds.contains(&obs::SpanKind::Parse), "{kinds:?}");
    assert!(kinds.contains(&obs::SpanKind::Route), "{kinds:?}");
    assert!(kinds.contains(&obs::SpanKind::HeapMerge), "{kinds:?}");
    let scans: Vec<&obs::Span> =
        trace.spans.iter().filter(|s| s.kind == obs::SpanKind::SegmentScan).collect();
    assert_eq!(scans.len(), 2, "one scan span per segment: {:?}", trace.spans);
    assert!(scans.iter().all(|s| s.rows_scanned == 200), "{scans:?}");

    // The per-segment spans show exactly which segment consumed the time.
    let hottest = trace.hottest_span().unwrap();
    assert_eq!(hottest.kind, obs::SpanKind::SegmentScan);
    assert_eq!(hottest.segment_id, slow_seg as i64);
    assert!(hottest.dur_us >= 15_000, "dur_us={}", hottest.dur_us);
}

#[test]
fn sampling_zero_records_nothing_and_adds_no_counter_traffic() {
    let _g = guard();
    let _cfg = ConfigRestore::set(obs::TraceConfig {
        sample_rate: 0.0,
        slow_threshold_us: Some(0), // any sampled query would be "slow"
        ..obs::TraceConfig::default()
    });

    let m = Milvus::new();
    let col = two_segment_collection(&m, "trace_unsampled");

    let sampled_before = obs::registry().counter(obs::TRACES_SAMPLED, "").get();
    let spans_before = obs::registry().counter(obs::TRACE_SPANS, "").get();
    for i in 0..20 {
        col.search("v", &[i as f32, 0.0, 0.0, 0.0], &SearchParams::top_k(5)).unwrap();
    }
    assert_eq!(obs::registry().counter(obs::TRACES_SAMPLED, "").get(), sampled_before);
    assert_eq!(obs::registry().counter(obs::TRACE_SPANS, "").get(), spans_before);
    assert!(
        !m.slow_queries().iter().any(|t| t.collection == "trace_unsampled"),
        "unsampled queries must never reach the ring"
    );
}

#[test]
fn tracing_at_zero_sampling_is_free_in_the_batch_engine_hot_loop() {
    let _g = guard();
    let _cfg = ConfigRestore::set(obs::TraceConfig {
        sample_rate: 0.0,
        ..obs::TraceConfig::default()
    });

    let mut data = VectorSet::new(8);
    let mut queries = VectorSet::new(8);
    for i in 0..500 {
        data.push(&[i as f32, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
    }
    for i in 0..40 {
        queries.push(&[i as f32, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
    }
    let ids: Vec<i64> = (0..500).collect();
    let opts = milvus_index::batch::BatchOptions {
        k: 5,
        metric: Metric::L2,
        threads: 2,
        l3_cache_bytes: 1 << 20,
    };

    // Counter-based overhead assertion: TRACES_SAMPLED / TRACE_SPANS move
    // only for sampled traces, so if the hot loop did any tracing work at
    // sampling 0.0 these counters (or the span count) would move.
    let sampled_before = obs::registry().counter(obs::TRACES_SAMPLED, "").get();
    let spans_before = obs::registry().counter(obs::TRACE_SPANS, "").get();

    let label: Arc<str> = Arc::from("batch_overhead");
    let mut trace = obs::Trace::start("batch", &label);
    assert!(!trace.enabled(), "sampler must reject every admission at 0.0");
    let traced =
        milvus_index::batch::cache_aware_search_traced(&data, &ids, &queries, &opts, &mut trace);
    let plain = milvus_index::batch::cache_aware_search(&data, &ids, &queries, &opts);

    assert_eq!(traced, plain, "disabled tracing must not change results");
    assert_eq!(trace.span_count(), 0);
    assert!(trace.finish().is_none());
    assert_eq!(obs::registry().counter(obs::TRACES_SAMPLED, "").get(), sampled_before);
    assert_eq!(obs::registry().counter(obs::TRACE_SPANS, "").get(), spans_before);
}

#[test]
fn ring_buffer_is_bounded_end_to_end() {
    let _g = guard();
    let _cfg = ConfigRestore::set(obs::TraceConfig {
        sample_rate: 1.0,
        slow_threshold_us: Some(0),
        ring_capacity: 4,
        ..obs::TraceConfig::default()
    });

    let m = Milvus::new();
    let col = two_segment_collection(&m, "trace_ring");
    for i in 0..12 {
        col.search("v", &[i as f32, 0.0, 0.0, 0.0], &SearchParams::top_k(2)).unwrap();
    }
    let ring = m.slow_queries();
    assert!(ring.len() <= 4, "ring holds {} entries, capacity 4", ring.len());
    // Newest entries survive: the ring keeps the most recent slow queries.
    assert!(ring.iter().any(|t| t.collection == "trace_ring"));
}

#[test]
fn reader_traces_carry_shard_ids_and_cache_outcomes() {
    let _g = guard();
    let _cfg = ConfigRestore::set(obs::TraceConfig {
        sample_rate: 1.0,
        slow_threshold_us: Some(0),
        ..obs::TraceConfig::default()
    });

    use milvus_distributed::reader::ReaderNode;
    use milvus_distributed::writer::WriterNode;
    use milvus_distributed::Coordinator;
    use milvus_storage::object_store::{MemoryStore, ObjectStore};

    // One shard: per-shard LSM engines number segments independently, so a
    // multi-shard reader would alias distinct segments onto one id in the
    // per-segment stats.
    let coordinator = Coordinator::new(1);
    let shared: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
    let schema = Schema::single("v", 2, Metric::L2);
    let cfg = milvus_storage::LsmConfig { auto_merge: false, ..Default::default() };
    let writer =
        WriterNode::new(schema.clone(), cfg, Arc::clone(&shared), Arc::clone(&coordinator))
            .unwrap();
    let reader = ReaderNode::register(schema, coordinator, shared, 64 << 20);

    let ids: Vec<i64> = (0..80).collect();
    let mut vs = VectorSet::new(2);
    for &id in &ids {
        vs.push(&[id as f32, 0.0]);
    }
    writer.insert(InsertBatch::single(ids, vs)).unwrap();
    writer.flush().unwrap();
    reader.refresh().unwrap();

    let mut trace = obs::Trace::forced("reader_search", "reader_trace_test");
    reader.search_traced("v", &[7.0, 0.0], &SearchParams::top_k(3), &mut trace).unwrap();
    let finished = trace.finish().expect("threshold 0 makes any query slow");

    let scans: Vec<&obs::Span> =
        finished.spans.iter().filter(|s| s.kind == obs::SpanKind::SegmentScan).collect();
    assert!(!scans.is_empty(), "reader search must record segment scans");
    for s in &scans {
        assert!(s.shard >= 0, "reader scan spans must carry the shard id: {s:?}");
        assert!(s.segment_id >= 0);
        // The first refresh loaded every segment from shared storage.
        assert_eq!(s.cache, obs::CacheOutcome::Miss, "{s:?}");
    }

    // Per-segment bufferpool telemetry matches what the spans say.
    let per_seg = reader.segment_cache_stats();
    assert!(!per_seg.is_empty());
    for (_, st) in &per_seg {
        assert_eq!(st.misses, 1);
        assert!(st.resident_bytes > 0);
    }

    // Second refresh: same versions → hits, visible per segment.
    reader.refresh().unwrap();
    for (_, st) in reader.segment_cache_stats() {
        assert_eq!(st.hits, 1);
        assert_eq!(st.misses, 1);
    }
}

/// Minimal blocking HTTP client returning (status line, raw body).
fn http(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut response = String::new();
    BufReader::new(stream).read_to_string(&mut response).unwrap();
    let status = response.lines().next().unwrap_or("").to_string();
    let body = response.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
    (status, body)
}

#[test]
fn rest_debug_endpoint_serves_slow_queries_as_json() {
    let _g = guard();
    let _cfg = ConfigRestore::set(obs::TraceConfig {
        sample_rate: 1.0,
        slow_threshold_us: Some(1_000),
        ..obs::TraceConfig::default()
    });

    let m = Arc::new(Milvus::new());
    let server = milvus_core::rest::RestServer::serve(Arc::clone(&m), "127.0.0.1:0").unwrap();
    let addr = server.addr();

    let (status, _) = http(
        addr,
        "POST",
        "/collections",
        r#"{"name":"trace_rest","dim":2,"metric":"L2"}"#,
    );
    assert!(status.contains("201"), "{status}");
    http(
        addr,
        "POST",
        "/collections/trace_rest/entities",
        r#"{"ids":[1,2,3],"vectors":[[0.0,0.0],[1.0,0.0],[2.0,0.0]]}"#,
    );
    http(addr, "POST", "/collections/trace_rest/flush", "");

    // Make the one flushed segment pathologically slow, then query it.
    let seg_id = m.collection("trace_rest").unwrap().snapshot().segments[0].id;
    milvus_storage::inject_scan_delay(seg_id, Duration::from_millis(10));
    let (status, _) =
        http(addr, "POST", "/collections/trace_rest/search", r#"{"vector":[1.1,0.0],"k":1}"#);
    assert!(status.contains("200"), "{status}");
    milvus_storage::clear_scan_delays();

    let (status, body) = http(addr, "GET", "/debug/slow_queries", "");
    assert!(status.contains("200"), "{status}");
    let parsed = serde::parse_value(&body).expect("debug endpoint must serve valid JSON");
    let entries = parsed
        .get("slow_queries")
        .and_then(|v| v.as_array())
        .expect("slow_queries array");
    let entry = entries
        .iter()
        .rev()
        .find(|t| t.get("collection").and_then(|c| c.as_str()) == Some("trace_rest"))
        .expect("the delayed query must appear in /debug/slow_queries");
    let spans = entry.get("spans").and_then(|v| v.as_array()).expect("spans array");
    let slow_scan = spans
        .iter()
        .filter(|s| s.get("kind").and_then(|k| k.as_str()) == Some("segment_scan"))
        .max_by_key(|s| s.get("dur_us").and_then(|d| d.as_u64()).unwrap_or(0))
        .expect("per-segment scan spans present");
    assert_eq!(
        slow_scan.get("segment_id").and_then(|v| v.as_u64()),
        Some(seg_id),
        "the span tree must attribute the time to the delayed segment"
    );
    assert!(
        slow_scan.get("dur_us").and_then(|v| v.as_u64()).unwrap_or(0) >= 8_000,
        "{slow_scan:?}"
    );

    // The metrics endpoint declares the bufferpool families even with zero
    // observations (anti-flapping), alongside the tracing counters.
    let (status, metrics) = http(addr, "GET", "/metrics", "");
    assert!(status.contains("200"), "{status}");
    for family in [
        "milvus_bufferpool_hits_total",
        "milvus_bufferpool_misses_total",
        "milvus_bufferpool_evictions_total",
        "milvus_bufferpool_resident_bytes",
        "milvus_slow_queries_total",
        "milvus_traces_sampled_total",
    ] {
        assert!(metrics.contains(&format!("# HELP {family} ")), "missing HELP for {family}");
    }
    assert!(metrics.contains(r#"milvus_slow_queries_total{collection="trace_rest"}"#), "{metrics}");

    server.shutdown();
}
