//! A minimal HTTP/1.1 client. It keeps its connection open across
//! requests unless a response says `Connection: close`, so a server that
//! starts honouring keep-alive is measured without editing the benchmark.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Largest response body the client accepts.
const MAX_BODY: usize = 64 << 20;

/// One parsed response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// The server asked to close the connection.
    pub close: bool,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Bytes read for the whole response (head and body).
    pub wire_bytes: usize,
}

impl Response {
    /// The admission controller shed the request.
    pub fn is_shed(&self) -> bool {
        self.status == 429
    }
}

/// Client-side timings of one request.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timing {
    /// Time spent opening a connection (zero when one was reused).
    pub connect: Duration,
    /// From the first request byte written to the first response byte.
    pub ttfb: Duration,
    /// Request bytes written.
    pub req_bytes: usize,
}

/// Read one response from `r`.
pub fn read_response(r: &mut impl BufRead) -> io::Result<Response> {
    let mut wire = 0;
    let mut line = String::new();
    wire += r.read_line(&mut line)?;
    let mut parts = line.split_whitespace();
    let version = parts.next().unwrap_or("");
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .filter(|_| version.starts_with("HTTP/1."))
        .ok_or_else(|| bad(format!("malformed status line {line:?}")))?;
    // HTTP/1.0 closes by default; 1.1 keeps alive unless told otherwise.
    let mut close = version == "HTTP/1.0";
    let mut length = None;
    loop {
        line.clear();
        let n = r.read_line(&mut line)?;
        if n == 0 {
            return Err(bad("connection closed inside the response head".into()));
        }
        wire += n;
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(bad(format!("malformed header {header:?}")));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let n: usize = value
                .parse()
                .map_err(|_| bad(format!("bad length {value:?}")))?;
            if n > MAX_BODY {
                return Err(bad(format!("body of {n} bytes exceeds {MAX_BODY}")));
            }
            length = Some(n);
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    let body = match length {
        Some(n) => {
            let mut body = vec![0; n];
            r.read_exact(&mut body)?;
            body
        }
        // No length: the body runs to the end of the connection.
        None => {
            let mut body = Vec::new();
            r.take(MAX_BODY as u64).read_to_end(&mut body)?;
            close = true;
            body
        }
    };
    wire += body.len();
    Ok(Response {
        status,
        close,
        body,
        wire_bytes: wire,
    })
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// A client bound to one server address, holding at most one connection.
pub struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
    /// Connections opened so far.
    pub connects: u64,
}

impl Client {
    /// A client for `addr`; it connects lazily.
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            conn: None,
            connects: 0,
        }
    }

    /// Send one request and read its response. A request is sent once: a
    /// failure, on a reused connection too, is returned (and the connection
    /// dropped) so the caller counts it, and a request the server may
    /// already have applied is never sent twice.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> io::Result<(Response, Timing)> {
        let mut timing = Timing::default();
        if self.conn.is_none() {
            let t = Instant::now();
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(60)))?;
            timing.connect = t.elapsed();
            self.connects += 1;
            self.conn = Some(BufReader::new(stream));
        }
        let conn = self.conn.as_mut().expect("connected above");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            self.addr,
            body.len()
        );
        timing.req_bytes = head.len() + body.len();
        let sent = Instant::now();
        let result = (|| {
            let stream = conn.get_mut();
            stream.write_all(head.as_bytes())?;
            stream.write_all(body)?;
            stream.flush()?;
            if conn.fill_buf()?.is_empty() {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "no response"));
            }
            timing.ttfb = sent.elapsed();
            read_response(conn)
        })();
        match result {
            Ok(resp) => {
                if resp.close {
                    self.conn = None;
                }
                Ok((resp, timing))
            }
            Err(e) => {
                self.conn = None;
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_close_and_keep_alive_responses() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}";
        let r = read_response(&mut Cursor::new(&raw[..])).unwrap();
        assert_eq!(
            (r.status, r.close, r.body.as_slice()),
            (200, true, &b"{}"[..])
        );
        assert_eq!(r.wire_bytes, raw.len());

        // Two pipelined keep-alive responses on one stream.
        let raw = b"HTTP/1.1 429 Too Many Requests\r\ncontent-length: 3\r\n\r\nabcHTTP/1.1 202 Accepted\r\nConnection: keep-alive\r\nContent-Length: 0\r\n\r\n";
        let mut cur = Cursor::new(&raw[..]);
        let first = read_response(&mut cur).unwrap();
        assert!(first.is_shed() && !first.close);
        assert_eq!(first.body, b"abc");
        let second = read_response(&mut cur).unwrap();
        assert_eq!(
            (second.status, second.close, second.body.len()),
            (202, false, 0)
        );
    }

    #[test]
    fn http10_and_unframed_bodies_close() {
        let r = read_response(&mut Cursor::new(
            &b"HTTP/1.0 200 OK\r\nContent-Length: 1\r\n\r\nx"[..],
        ))
        .unwrap();
        assert!(r.close);
        let r = read_response(&mut Cursor::new(&b"HTTP/1.1 200 OK\r\n\r\nrest"[..])).unwrap();
        assert!(r.close);
        assert_eq!(r.body, b"rest");
    }

    #[test]
    fn rejects_malformed_responses() {
        for raw in [
            &b"garbage\r\n\r\n"[..],
            b"HTTP/1.1 200 OK\r\nContent-Length: nope\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nno colon here\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nab",
            b"HTTP/1.1 200 OK\r\nContent-Length: 99999999999\r\n\r\n",
            b"HTTP/1.1 200 OK\r\n",
        ] {
            assert!(read_response(&mut Cursor::new(raw)).is_err(), "{raw:?}");
        }
    }

    #[test]
    fn client_reuses_a_kept_alive_connection() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            // One connection serving two requests, then a closing third.
            let (stream, _) = listener.accept().unwrap();
            let mut r = BufReader::new(stream.try_clone().unwrap());
            let mut w = stream;
            for (i, conn) in ["keep-alive", "keep-alive", "close"].iter().enumerate() {
                let mut len = 0;
                loop {
                    let mut line = String::new();
                    r.read_line(&mut line).unwrap();
                    if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                        len = v.trim().parse().unwrap();
                    }
                    if line.trim().is_empty() {
                        break;
                    }
                }
                let mut body = vec![0; len];
                r.read_exact(&mut body).unwrap();
                write!(
                    w,
                    "HTTP/1.1 200 OK\r\nConnection: {conn}\r\nContent-Length: 1\r\n\r\n{i}"
                )
                .unwrap();
            }
        });
        let mut c = Client::new(addr);
        for i in 0..3 {
            let (resp, timing) = c.request("POST", "/x", b"{}").unwrap();
            assert_eq!(resp.body, i.to_string().as_bytes());
            assert_eq!(timing.connect.is_zero(), i > 0);
        }
        assert_eq!(c.connects, 1);
        assert!(c.conn.is_none(), "closed after Connection: close");
        server.join().unwrap();
    }
}
