//! RESTful API demo (paper §2.1: "Milvus also supports RESTful APIs for web
//! applications"): starts the HTTP server on an ephemeral port, then drives
//! it with raw HTTP requests like a web client would.
//!
//! Run with: `cargo run --release -p milvus-examples --bin rest_api`

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use milvus_core::rest::RestServer;
use milvus_core::Milvus;

fn request(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: demo\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let mut response = String::new();
    BufReader::new(stream).read_to_string(&mut response).expect("recv");
    response.split("\r\n\r\n").nth(1).unwrap_or("").to_string()
}

fn main() {
    let server = RestServer::serve(Arc::new(Milvus::new()), "127.0.0.1:0").expect("bind");
    let addr = server.addr();
    println!("Milvus REST API listening on http://{addr}");

    println!("\nPOST /collections");
    let r = request(
        addr,
        "POST",
        "/collections",
        r#"{"name":"docs","dim":4,"metric":"COSINE","attributes":["year"]}"#,
    );
    println!("  → {r}");

    println!("POST /collections/docs/entities");
    let r = request(
        addr,
        "POST",
        "/collections/docs/entities",
        r#"{"ids":[1,2,3],
            "vectors":[[1.0,0.0,0.0,0.0],[0.7,0.7,0.0,0.0],[0.0,0.0,1.0,0.0]],
            "attributes":[[1999.0,2015.0,2023.0]]}"#,
    );
    println!("  → {r}");

    println!("POST /collections/docs/flush");
    println!("  → {}", request(addr, "POST", "/collections/docs/flush", ""));

    println!("POST /collections/docs/search  (plain vector query)");
    let r = request(
        addr,
        "POST",
        "/collections/docs/search",
        r#"{"vector":[0.9,0.1,0.0,0.0],"k":2}"#,
    );
    println!("  → {r}");

    println!("POST /collections/docs/search  (filtered: year >= 2010)");
    let r = request(
        addr,
        "POST",
        "/collections/docs/search",
        r#"{"vector":[0.9,0.1,0.0,0.0],"k":2,
            "filter":{"attribute":"year","min":2010.0,"max":2100.0}}"#,
    );
    println!("  → {r}");

    println!("GET /collections/docs/stats");
    println!("  → {}", request(addr, "GET", "/collections/docs/stats", ""));

    server.shutdown();
    println!("\nserver shut down cleanly ✓");
}
