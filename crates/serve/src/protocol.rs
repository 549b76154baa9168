//! Wire protocol: length-prefixed request/response frames over TCP.
//!
//! One connection carries any number of requests. Each request is a
//! single header line followed by a length-prefixed payload:
//!
//! ```text
//! <id> <verb> <caps> <len>\n<payload: len bytes>
//! ```
//!
//! - `id` — a client-chosen `u64`, echoed on the response so pipelined
//!   requests can be matched up even when the server completes them out
//!   of order.
//! - `verb` — `QUERY` (RPQ over the property graph; the payload's first
//!   line is the operation — `pairs`, `starts` or `count K` — and the
//!   rest is the path expression), `CYPHER`, `SPARQL`, `STATS`, `PING`,
//!   `SHUTDOWN`, `ANALYZE` (run the static analyzer without executing;
//!   see [`Verb::Analyze`]), or the mutation verbs `INSERT`, `DELETE`
//!   and `FLUSH` (committed as one durable batch; see [`Verb::Insert`]).
//! - `caps` — the client's requested resource caps: `-` for none, or a
//!   comma list of `timeout=MS`, `steps=N`, `results=N`, `memory=BYTES`.
//!   The server intersects these with its own caps (componentwise min)
//!   before admission; a client can therefore only tighten its budget,
//!   never exceed the server's.
//! - `len` — payload byte length (the payload itself may contain tabs
//!   and newlines; no in-band escaping is needed).
//!
//! Responses mirror the shape:
//!
//! ```text
//! <id> OK <len>\n<body>
//! <id> ERR <len>\n<message>
//! ```
//!
//! A governed request that trips its budget is *not* an error: the body
//! is the exact answer prefix computed so far, terminated by the same
//! `# partial: REASON` trailer the CLI prints, so clients parse one
//! format everywhere.

use kgq_core::Budget;
use std::io::{BufRead, ErrorKind, IoSlice, Read, Write};
use std::time::Duration;

/// Request verbs understood by the server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verb {
    /// RPQ over the shared property graph.
    Query,
    /// Cypher query over the shared property graph.
    Cypher,
    /// SPARQL SELECT over the shared triple store.
    Sparql,
    /// Server counters (requests, trips, cache stats, latency).
    Stats,
    /// Liveness check; echoes the payload.
    Ping,
    /// Ask the server to shut down cleanly.
    Shutdown,
    /// Commit triple inserts and/or property-graph edges. The payload
    /// is one mutation per line: an N-Triples line (`<s> <p> <o> .`) or
    /// `edge SRC LABEL DST [SRC_LABEL [DST_LABEL]]`. The whole payload
    /// is one atomic batch: with a durable store attached it is WAL-
    /// logged and fsynced before it is applied or acknowledged.
    Insert,
    /// Commit triple deletes; the payload is N-Triples lines. Same
    /// atomic-batch and durability contract as `INSERT`.
    Delete,
    /// Compact the durable store: fold the delta overlay into a fresh
    /// immutable segment and truncate the write-ahead log.
    Flush,
    /// Run the static analyzer without executing. The payload's first
    /// line is the query kind — `query` (RPQ), `cypher`, `sparql` or
    /// `rules` — and the rest is the query/program text. The body is the
    /// analyzer's rendered report: diagnostics on the shared severity
    /// ladder plus the complexity/termination verdict.
    Analyze,
}

impl Verb {
    /// Wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Verb::Query => "QUERY",
            Verb::Cypher => "CYPHER",
            Verb::Sparql => "SPARQL",
            Verb::Stats => "STATS",
            Verb::Ping => "PING",
            Verb::Shutdown => "SHUTDOWN",
            Verb::Insert => "INSERT",
            Verb::Delete => "DELETE",
            Verb::Flush => "FLUSH",
            Verb::Analyze => "ANALYZE",
        }
    }

    /// Parses a wire spelling.
    pub fn parse(s: &str) -> Option<Verb> {
        Some(match s {
            "QUERY" => Verb::Query,
            "CYPHER" => Verb::Cypher,
            "SPARQL" => Verb::Sparql,
            "STATS" => Verb::Stats,
            "PING" => Verb::Ping,
            "SHUTDOWN" => Verb::Shutdown,
            "INSERT" => Verb::Insert,
            "DELETE" => Verb::Delete,
            "FLUSH" => Verb::Flush,
            "ANALYZE" => Verb::Analyze,
            _ => return None,
        })
    }
}

/// Client-requested resource caps, as carried on the request header.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Caps {
    /// Wall-clock limit in milliseconds.
    pub timeout_ms: Option<u64>,
    /// Step budget.
    pub max_steps: Option<u64>,
    /// Result budget.
    pub max_results: Option<u64>,
    /// Memory budget in bytes.
    pub max_memory: Option<u64>,
}

impl Caps {
    /// No caps requested.
    pub fn none() -> Caps {
        Caps::default()
    }

    /// Wire encoding (`-` when empty).
    pub fn encode(&self) -> String {
        let mut parts = Vec::new();
        if let Some(v) = self.timeout_ms {
            parts.push(format!("timeout={v}"));
        }
        if let Some(v) = self.max_steps {
            parts.push(format!("steps={v}"));
        }
        if let Some(v) = self.max_results {
            parts.push(format!("results={v}"));
        }
        if let Some(v) = self.max_memory {
            parts.push(format!("memory={v}"));
        }
        if parts.is_empty() {
            "-".into()
        } else {
            parts.join(",")
        }
    }

    /// Parses the wire encoding.
    pub fn parse(s: &str) -> Result<Caps, String> {
        let mut caps = Caps::default();
        if s == "-" {
            return Ok(caps);
        }
        for part in s.split(',') {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("malformed cap `{part}` (expected key=value)"))?;
            let n: u64 = value
                .parse()
                .map_err(|_| format!("cap `{key}` needs a number, got `{value}`"))?;
            match key {
                "timeout" => caps.timeout_ms = Some(n),
                "steps" => caps.max_steps = Some(n),
                "results" => caps.max_results = Some(n),
                "memory" => caps.max_memory = Some(n),
                other => return Err(format!("unknown cap `{other}`")),
            }
        }
        Ok(caps)
    }

    /// The caps as a [`Budget`] (no server intersection applied).
    pub fn to_budget(&self) -> Budget {
        let mut b = Budget::unlimited();
        if let Some(ms) = self.timeout_ms {
            b = b.with_deadline(Duration::from_millis(ms));
        }
        if let Some(n) = self.max_steps {
            b = b.with_max_steps(n);
        }
        if let Some(n) = self.max_results {
            b = b.with_max_results(n);
        }
        if let Some(n) = self.max_memory {
            b = b.with_max_memory(n);
        }
        b
    }
}

/// Componentwise minimum of the server's caps and the client's request:
/// the *effective* budget a request is admitted under. `None` means
/// unlimited on that axis, so `min(None, x) = x`.
pub fn effective_budget(server: &Budget, client: &Caps) -> Budget {
    fn min_opt<T: Ord>(a: Option<T>, b: Option<T>) -> Option<T> {
        match (a, b) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, None) => a,
            (None, b) => b,
        }
    }
    let c = client.to_budget();
    Budget {
        deadline: min_opt(server.deadline, c.deadline),
        max_steps: min_opt(server.max_steps, c.max_steps),
        max_memory_bytes: min_opt(server.max_memory_bytes, c.max_memory_bytes),
        max_results: min_opt(server.max_results, c.max_results),
    }
}

/// A parsed request frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen id, echoed on the response.
    pub id: u64,
    /// What to do.
    pub verb: Verb,
    /// Client-requested caps.
    pub caps: Caps,
    /// Verb-specific payload.
    pub payload: String,
}

/// A parsed response frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// Echo of the request id.
    pub id: u64,
    /// `OK` vs `ERR`.
    pub ok: bool,
    /// Result body (for `OK`) or error message (for `ERR`).
    pub body: String,
}

impl Response {
    /// True when the body carries a governed partial-result trailer.
    pub fn is_partial(&self) -> bool {
        self.body.lines().any(|l| l.starts_with("# partial: "))
    }
}

/// Payload size cap: a defensive bound so a garbage header cannot make
/// the server allocate unbounded memory.
pub const MAX_PAYLOAD: usize = 16 * 1024 * 1024;

/// Longest frame header line read, newline included. A header is four
/// short fields; without this cap a peer that never sends `\n` would grow
/// the line without bound.
pub const MAX_HEADER: usize = 4096;

/// Sends one frame, `header` then `body`, and flushes. Both go to one
/// `write_vectored` call, so a socket sees the whole frame in one
/// segment train instead of a small header write whose ACK the peer
/// may delay (Nagle). The body is not copied; a short write resumes
/// where it stopped.
fn write_frame(w: &mut impl Write, header: &[u8], body: &[u8]) -> std::io::Result<()> {
    let mut slices = [IoSlice::new(header), IoSlice::new(body)];
    let mut bufs = &mut slices[..];
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Writes one request frame.
pub fn write_request(w: &mut impl Write, req: &Request) -> std::io::Result<()> {
    let header = format!(
        "{} {} {} {}\n",
        req.id,
        req.verb.as_str(),
        req.caps.encode(),
        req.payload.len()
    );
    write_frame(w, header.as_bytes(), req.payload.as_bytes())
}

/// Reads one request frame. `Ok(None)` on clean EOF before a header.
pub fn read_request(r: &mut impl BufRead) -> std::io::Result<Option<Request>> {
    let Some(line) = read_header_line(r)? else {
        return Ok(None);
    };
    let bad = |m: String| std::io::Error::new(std::io::ErrorKind::InvalidData, m);
    let mut it = line.split_ascii_whitespace();
    let (Some(id), Some(verb), Some(caps), Some(len), None) =
        (it.next(), it.next(), it.next(), it.next(), it.next())
    else {
        return Err(bad(format!("malformed request header `{line}`")));
    };
    let id: u64 = id.parse().map_err(|_| bad(format!("bad id `{id}`")))?;
    let verb = Verb::parse(verb).ok_or_else(|| bad(format!("unknown verb `{verb}`")))?;
    let caps = Caps::parse(caps).map_err(bad)?;
    let payload = read_payload(r, len).map_err(|e| match e {
        PayloadError::Header(m) => bad(m),
        PayloadError::Io(e) => e,
    })?;
    Ok(Some(Request {
        id,
        verb,
        caps,
        payload,
    }))
}

/// Writes one response frame.
pub fn write_response(w: &mut impl Write, resp: &Response) -> std::io::Result<()> {
    let header = format!(
        "{} {} {}\n",
        resp.id,
        if resp.ok { "OK" } else { "ERR" },
        resp.body.len()
    );
    write_frame(w, header.as_bytes(), resp.body.as_bytes())
}

/// Reads one response frame. `Ok(None)` on clean EOF before a header.
pub fn read_response(r: &mut impl BufRead) -> std::io::Result<Option<Response>> {
    let Some(line) = read_header_line(r)? else {
        return Ok(None);
    };
    let bad = |m: String| std::io::Error::new(std::io::ErrorKind::InvalidData, m);
    let mut it = line.split_ascii_whitespace();
    let (Some(id), Some(status), Some(len), None) = (it.next(), it.next(), it.next(), it.next())
    else {
        return Err(bad(format!("malformed response header `{line}`")));
    };
    let id: u64 = id.parse().map_err(|_| bad(format!("bad id `{id}`")))?;
    let ok = match status {
        "OK" => true,
        "ERR" => false,
        other => return Err(bad(format!("bad status `{other}`"))),
    };
    let body = read_payload(r, len).map_err(|e| match e {
        PayloadError::Header(m) => bad(m),
        PayloadError::Io(e) => e,
    })?;
    Ok(Some(Response { id, ok, body }))
}

enum PayloadError {
    Header(String),
    Io(std::io::Error),
}

fn read_payload(r: &mut impl BufRead, len: &str) -> Result<String, PayloadError> {
    let len: usize = len
        .parse()
        .map_err(|_| PayloadError::Header(format!("bad length `{len}`")))?;
    if len > MAX_PAYLOAD {
        return Err(PayloadError::Header(format!(
            "payload of {len} bytes exceeds the {MAX_PAYLOAD}-byte cap"
        )));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf).map_err(PayloadError::Io)?;
    String::from_utf8(buf).map_err(|_| PayloadError::Header("payload is not UTF-8".into()))
}

/// Reads one `\n`-terminated header line; `None` on EOF at a frame
/// boundary (i.e. a clean close).
fn read_header_line(r: &mut impl BufRead) -> std::io::Result<Option<String>> {
    let mut line = String::new();
    let n = r.by_ref().take(MAX_HEADER as u64).read_line(&mut line)?;
    if n == 0 {
        return Ok(None);
    }
    if n == MAX_HEADER && !line.ends_with('\n') {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            format!("frame header longer than {MAX_HEADER} bytes"),
        ));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(Some(line))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn request_frames_round_trip() {
        let req = Request {
            id: 7,
            verb: Verb::Sparql,
            caps: Caps {
                timeout_ms: Some(250),
                max_steps: Some(1_000),
                max_results: None,
                max_memory: None,
            },
            payload: "SELECT ?x WHERE { ?x <knows> ?y . }\nwith a second line\tand tabs".into(),
        };
        let mut wire = Vec::new();
        write_request(&mut wire, &req).unwrap();
        let mut r = BufReader::new(&wire[..]);
        assert_eq!(read_request(&mut r).unwrap(), Some(req));
        assert_eq!(read_request(&mut r).unwrap(), None); // clean EOF
    }

    #[test]
    fn response_frames_round_trip_and_flag_partials() {
        let resp = Response {
            id: 9,
            ok: true,
            body: "a\tb\n# partial: step budget exhausted\n".into(),
        };
        let mut wire = Vec::new();
        write_response(&mut wire, &resp).unwrap();
        let mut r = BufReader::new(&wire[..]);
        let back = read_response(&mut r).unwrap().unwrap();
        assert_eq!(back, resp);
        assert!(back.is_partial());
        assert!(!Response {
            id: 0,
            ok: true,
            body: "a\tb\n".into()
        }
        .is_partial());
    }

    #[test]
    fn an_endless_header_line_is_a_framing_error() {
        let wire = vec![b'7'; 1 << 20];
        let mut r = BufReader::new(&wire[..]);
        let err = read_request(&mut r).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        assert!(err.to_string().contains("longer than"), "{err}");
        // One line that just fits is still read.
        let mut wire = format!("1 PING - 0{}\n", " ".repeat(MAX_HEADER - 11)).into_bytes();
        assert_eq!(wire.len(), MAX_HEADER);
        wire.extend_from_slice(b"2 PING - 0\n");
        let mut r = BufReader::new(&wire[..]);
        assert_eq!(read_request(&mut r).unwrap().unwrap().id, 1);
        assert_eq!(read_request(&mut r).unwrap().unwrap().id, 2);
    }

    /// A sink that records its bytes and counts `write`/`write_vectored`
    /// calls, each of which takes everything offered (as a socket with
    /// room in its send buffer does).
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        calls: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            for b in bufs {
                self.bytes.extend_from_slice(b);
            }
            Ok(bufs.iter().map(|b| b.len()).sum())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Each frame leaves in exactly one write call, in both directions,
    /// for a small and a 1 MB body, with the bytes the old single
    /// `write!` produced.
    #[test]
    fn each_frame_is_one_write_call_with_unchanged_bytes() {
        for body in ["pong".to_string(), "r\tw\n".repeat(1 << 18)] {
            let req = Request {
                id: 41,
                verb: Verb::Query,
                caps: Caps {
                    max_results: Some(5),
                    ..Caps::default()
                },
                payload: body.clone(),
            };
            let mut w = CountingWriter::default();
            write_request(&mut w, &req).unwrap();
            assert_eq!(w.calls, 1, "request with a {}-byte body", body.len());
            let want = format!("41 QUERY results=5 {}\n{}", body.len(), body);
            assert_eq!(w.bytes, want.as_bytes());

            let resp = Response {
                id: 41,
                ok: false,
                body: body.clone(),
            };
            let mut w = CountingWriter::default();
            write_response(&mut w, &resp).unwrap();
            assert_eq!(w.calls, 1, "response with a {}-byte body", body.len());
            let want = format!("41 ERR {}\n{}", body.len(), body);
            assert_eq!(w.bytes, want.as_bytes());
        }
    }

    /// A writer that takes at most 3 bytes per call and is interrupted
    /// every other call still receives the whole frame; one that
    /// accepts nothing is a `WriteZero` error, not a spin.
    #[test]
    fn short_and_interrupted_writes_resume_and_zero_writes_fail() {
        struct Trickle {
            bytes: Vec<u8>,
            calls: usize,
        }
        impl Write for Trickle {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.calls += 1;
                if self.calls.is_multiple_of(2) {
                    return Err(ErrorKind::Interrupted.into());
                }
                let n = buf.len().min(3);
                self.bytes.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let resp = Response {
            id: 3,
            ok: true,
            body: "a\tb\nc\td\n".into(),
        };
        let mut w = Trickle {
            bytes: Vec::new(),
            calls: 0,
        };
        write_response(&mut w, &resp).unwrap();
        let mut r = BufReader::new(&w.bytes[..]);
        assert_eq!(read_response(&mut r).unwrap(), Some(resp.clone()));

        struct Full;
        impl Write for Full {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let err = write_response(&mut Full, &resp).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::WriteZero);
    }

    #[test]
    fn caps_encode_parse_round_trip() {
        for caps in [
            Caps::none(),
            Caps {
                timeout_ms: Some(10),
                max_steps: Some(20),
                max_results: Some(30),
                max_memory: Some(40),
            },
            Caps {
                max_steps: Some(5),
                ..Caps::default()
            },
        ] {
            assert_eq!(Caps::parse(&caps.encode()).unwrap(), caps);
        }
        assert!(Caps::parse("steps=abc").is_err());
        assert!(Caps::parse("bogus=1").is_err());
        assert!(Caps::parse("steps").is_err());
    }

    #[test]
    fn effective_budget_is_componentwise_min() {
        let server = Budget::unlimited()
            .with_max_steps(1_000)
            .with_deadline(Duration::from_millis(500));
        // Client tightens steps, requests looser deadline, adds results.
        let client = Caps {
            max_steps: Some(10),
            timeout_ms: Some(60_000),
            max_results: Some(3),
            max_memory: None,
        };
        let eff = effective_budget(&server, &client);
        assert_eq!(eff.max_steps, Some(10)); // client tighter
        assert_eq!(eff.deadline, Some(Duration::from_millis(500))); // server tighter
        assert_eq!(eff.max_results, Some(3)); // only client
        assert_eq!(eff.max_memory_bytes, None); // neither
    }

    #[test]
    fn malformed_headers_are_io_errors_not_panics() {
        for wire in [
            "nonsense\nxx",
            "1 QUERY -\n",                       // missing length
            "1 BOGUS - 0\n",                     // unknown verb
            "x QUERY - 0\n",                     // bad id
            "1 QUERY steps=z 0\n",               // bad cap
            "1 QUERY - 999999999999999999999\n", // bad length
        ] {
            let mut r = BufReader::new(wire.as_bytes());
            assert!(read_request(&mut r).is_err(), "{wire:?}");
        }
    }

    #[test]
    fn oversized_payload_is_rejected() {
        let wire = format!("1 PING - {}\n", MAX_PAYLOAD + 1);
        let mut r = BufReader::new(wire.as_bytes());
        assert!(read_request(&mut r).is_err());
    }
}
