//! Minimal HTTP/1.1 framing over blocking TCP — request heads, bodies and
//! responses, hand-rolled on `std::io` (the offline dependency set has no
//! HTTP crate, and the server speaks a five-route JSON dialect that does
//! not need one).
//!
//! Supported surface: request line + headers + `Content-Length` bodies,
//! keep-alive (HTTP/1.1 default, `Connection: close` honored),
//! `Expect: 100-continue`. Chunked transfer encoding is intentionally
//! rejected — every client of this server (the CLI load generator, the
//! replay checker, curl with `-d`) sends sized bodies.

use std::io::{BufRead, Write};

/// Hard cap on the request line + headers, independent of the body cap.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed request head (everything before the body).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Head {
    /// Request method, uppercase as received (`GET`, `POST`, …).
    pub method: String,
    /// Request target path (query strings are kept verbatim; the router
    /// does not use them).
    pub path: String,
    /// Declared body length (0 when absent).
    pub content_length: usize,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
    /// Whether the client asked for `100 Continue` before sending the body.
    pub expect_continue: bool,
    /// The raw `x-ses-trace-id` header value, if the client sent one (the
    /// server validates and either honors or replaces it).
    pub trace: Option<String>,
}

/// Why reading a request failed.
#[derive(Debug)]
pub enum RecvError {
    /// Clean end of stream between requests — the peer hung up.
    Closed,
    /// The read timed out with no request bytes consumed — the connection
    /// is idle, not broken; the caller may poll again.
    Idle,
    /// The head or body violated the HTTP subset (bad request line,
    /// oversized head, non-UTF-8 body, chunked encoding, …).
    Malformed(String),
    /// Transport error (including timeouts mid-request).
    Io(std::io::Error),
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Closed => write!(f, "connection closed"),
            RecvError::Idle => write!(f, "connection idle"),
            RecvError::Malformed(m) => write!(f, "malformed request: {m}"),
            RecvError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// How many socket read-timeouts a *started* head may ride out before the
/// connection is dropped: once the first byte of a request has arrived,
/// the caller's short idle-poll timeout stops being a deadline for the
/// peer and becomes a retry tick (≈10 s total at the server's 250 ms
/// poll), mirroring the generous in-request deadline bodies get.
const HEAD_RETRY_TICKS: u32 = 40;

/// Reads one `\n`-terminated line of raw bytes, never consuming (or
/// buffering) more than `budget + 1` bytes — the cap holds even when the
/// peer streams an endless newline-less line, which a plain `read_line`
/// would happily accumulate into an unbounded allocation. Returns the
/// bytes consumed, or `None` once the line exceeds `budget`. Read timeouts
/// are retried while `*ticks > 0` (decrementing it), so partial lines
/// survive a slow link instead of killing the connection. Bytes, not a
/// `String`: encoding is checked by the caller on whole lines, so bad
/// UTF-8 is told apart from an oversized line.
fn read_line_capped<R: BufRead>(
    reader: &mut R,
    budget: usize,
    line: &mut Vec<u8>,
    ticks: &mut u32,
) -> std::io::Result<Option<usize>> {
    let start = line.len();
    loop {
        let remaining = budget + 1 - (line.len() - start);
        // UFCS so `take` binds to the `impl Read for &mut R` (method-call
        // syntax would auto-deref and try to move `R` itself).
        let mut limited = std::io::Read::take(&mut *reader, remaining as u64);
        match limited.read_until(b'\n', line) {
            Ok(_) => {
                let consumed = line.len() - start;
                return Ok((consumed <= budget).then_some(consumed));
            }
            Err(e) if is_timeout(&e) && *ticks > 0 => *ticks -= 1,
            Err(e) => return Err(e),
        }
    }
}

fn head_str(line: &[u8]) -> Result<&str, RecvError> {
    std::str::from_utf8(line)
        .map_err(|_| RecvError::Malformed("request head is not valid UTF-8".into()))
}

/// Reads one request head. [`RecvError::Idle`] is returned only when the
/// very first read timed out with nothing consumed, so callers can keep
/// polling a keep-alive connection and re-check their shutdown flag; once
/// any head byte has arrived, timeouts are instead retried (for
/// `HEAD_RETRY_TICKS` socket-timeout ticks, ≈10 s at the server's 250 ms
/// poll) so a slow peer's request is not silently dropped. Consumes at
/// most `MAX_HEAD_BYTES + 1` bytes.
pub fn read_head<R: BufRead>(reader: &mut R) -> Result<Head, RecvError> {
    let oversized = || RecvError::Malformed(format!("request head exceeds {MAX_HEAD_BYTES} bytes"));
    let mut line = Vec::new();
    // No retry budget until the request has started: the first timeout on
    // an empty line is the caller's idle tick, not a slow peer.
    let mut ticks = 0u32;
    let mut granted = false;
    let first = loop {
        match read_line_capped(reader, MAX_HEAD_BYTES, &mut line, &mut ticks) {
            Ok(Some(n)) => break n,
            Ok(None) => return Err(oversized()),
            Err(e) if is_timeout(&e) && !granted => {
                if line.is_empty() {
                    return Err(RecvError::Idle);
                }
                // The head has started; grant the slow-peer budget once.
                granted = true;
                ticks = HEAD_RETRY_TICKS;
            }
            Err(e) => return Err(RecvError::Io(e)),
        }
    };
    if first == 0 {
        return Err(RecvError::Closed);
    }
    let line = head_str(&line)?;
    let mut parts = line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) => (m.to_owned(), p.to_owned(), v.to_owned()),
        _ => return Err(RecvError::Malformed(format!("bad request line {line:?}"))),
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(RecvError::Malformed(format!(
            "unsupported version {version}"
        )));
    }

    let mut head = Head {
        method,
        path,
        content_length: 0,
        keep_alive: version == "HTTP/1.1",
        expect_continue: false,
        trace: None,
    };
    // Headers are part of a started request: give them the slow-peer
    // budget up front (if the request line already consumed some of it,
    // whatever remains is shared).
    if !granted {
        ticks = HEAD_RETRY_TICKS;
    }
    let mut budget = MAX_HEAD_BYTES.saturating_sub(first);
    loop {
        if budget == 0 {
            return Err(oversized());
        }
        let mut line = Vec::new();
        match read_line_capped(reader, budget, &mut line, &mut ticks) {
            Ok(Some(0)) => return Err(RecvError::Malformed("eof inside headers".into())),
            Ok(Some(n)) => budget -= n,
            Ok(None) => return Err(oversized()),
            Err(e) => return Err(RecvError::Io(e)),
        }
        let line = head_str(&line)?.trim_end();
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(RecvError::Malformed(format!("bad header line {line:?}")));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => {
                head.content_length = value
                    .parse()
                    .map_err(|_| RecvError::Malformed(format!("bad content-length {value:?}")))?;
            }
            "connection" => {
                let v = value.to_ascii_lowercase();
                if v.contains("close") {
                    head.keep_alive = false;
                } else if v.contains("keep-alive") {
                    head.keep_alive = true;
                }
            }
            "expect" if value.to_ascii_lowercase().contains("100-continue") => {
                head.expect_continue = true;
            }
            "x-ses-trace-id" => {
                head.trace = Some(value.to_owned());
            }
            "transfer-encoding" => {
                return Err(RecvError::Malformed(
                    "chunked transfer encoding is not supported; send Content-Length".into(),
                ));
            }
            _ => {}
        }
    }
    Ok(head)
}

/// Reads a `Content-Length`-sized UTF-8 body.
pub fn read_body<R: BufRead>(reader: &mut R, len: usize) -> Result<String, RecvError> {
    let mut buf = vec![0u8; len];
    reader.read_exact(&mut buf).map_err(RecvError::Io)?;
    String::from_utf8(buf).map_err(|_| RecvError::Malformed("body is not valid UTF-8".into()))
}

/// The reason phrase of the status codes this server emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        100 => "Continue",
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes one JSON response (the only content type this server speaks).
pub fn write_response<W: Write>(
    writer: &mut W,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    write_response_ex(writer, status, body, keep_alive, &[], false)
}

/// [`write_response`] with extra response headers and an optional
/// headers-only mode: a `HEAD` answer advertises the `Content-Length` the
/// matching `GET` would carry but sends no body bytes (RFC 9110 §9.3.2).
///
/// The whole response is built in memory and handed to `writer` in one
/// `write_all`: the server's sockets set `TCP_NODELAY`, so every separate
/// write would leave as its own segment.
pub fn write_response_ex<W: Write>(
    writer: &mut W,
    status: u16,
    body: &str,
    keep_alive: bool,
    extra_headers: &[(&str, &str)],
    head_only: bool,
) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut out = String::with_capacity(160 + body.len());
    // Writing into a `String` cannot fail.
    let _ = write!(
        out,
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
        status_text(status),
        body.len(),
    );
    for (name, value) in extra_headers {
        let _ = write!(out, "{name}: {value}\r\n");
    }
    out.push_str("\r\n");
    if !head_only {
        out.push_str(body);
    }
    writer.write_all(out.as_bytes())?;
    writer.flush()
}

/// Writes the interim `100 Continue` response.
pub fn write_continue<W: Write>(writer: &mut W) -> std::io::Result<()> {
    writer.write_all(b"HTTP/1.1 100 Continue\r\n\r\n")?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::BufReader;

    fn head_of(raw: &str) -> Result<Head, RecvError> {
        read_head(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_a_post_with_body() {
        let raw = "POST /solve HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody";
        let mut reader = BufReader::new(raw.as_bytes());
        let head = read_head(&mut reader).unwrap();
        assert_eq!(head.method, "POST");
        assert_eq!(head.path, "/solve");
        assert_eq!(head.content_length, 4);
        assert!(head.keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert_eq!(read_body(&mut reader, head.content_length).unwrap(), "body");
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let head = head_of("GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!head.keep_alive);
        let head = head_of("GET /healthz HTTP/1.0\r\n\r\n").unwrap();
        assert!(!head.keep_alive);
        let head = head_of("GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(head.keep_alive);
    }

    #[test]
    fn expect_continue_is_flagged() {
        let head =
            head_of("POST /eval HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\n{}")
                .unwrap();
        assert!(head.expect_continue);
    }

    #[test]
    fn malformed_heads_are_rejected() {
        assert!(matches!(
            head_of("GARBAGE\r\n\r\n"),
            Err(RecvError::Malformed(_))
        ));
        assert!(matches!(
            head_of("GET / HTTP/2\r\n\r\n"),
            Err(RecvError::Malformed(_))
        ));
        assert!(matches!(
            head_of("POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n"),
            Err(RecvError::Malformed(_))
        ));
        assert!(matches!(
            head_of("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(RecvError::Malformed(_))
        ));
        assert!(matches!(head_of(""), Err(RecvError::Closed)));
    }

    #[test]
    fn oversized_heads_are_rejected() {
        let raw = format!(
            "GET / HTTP/1.1\r\nX-Padding: {}\r\n\r\n",
            "a".repeat(MAX_HEAD_BYTES)
        );
        assert!(matches!(head_of(&raw), Err(RecvError::Malformed(_))));
    }

    #[test]
    fn endless_newline_less_lines_are_capped_not_accumulated() {
        // A peer streaming bytes with no '\n' must be cut off at the head
        // budget — both on the request line and inside headers — instead
        // of growing an unbounded String.
        let flood = "A".repeat(4 * MAX_HEAD_BYTES);
        assert!(matches!(head_of(&flood), Err(RecvError::Malformed(_))));
        let raw = format!("GET / HTTP/1.1\r\nX-Flood: {flood}");
        assert!(matches!(head_of(&raw), Err(RecvError::Malformed(_))));
    }

    #[test]
    fn non_utf8_heads_are_malformed_not_oversized() {
        let bad_utf8 = |raw: &[u8]| match read_head(&mut &raw[..]) {
            Err(RecvError::Malformed(m)) => m == "request head is not valid UTF-8",
            _ => false,
        };
        assert!(bad_utf8(b"GET /\xff HTTP/1.1\r\n\r\n"));
        assert!(bad_utf8(b"GET / HTTP/1.1\r\nX-Name: \xc3\x28\r\n\r\n"));
        // Valid multi-byte UTF-8 still parses.
        let head = head_of("GET /caf\u{e9} HTTP/1.1\r\nX-Name: \u{e9}\r\n\r\n").unwrap();
        assert_eq!(head.path, "/caf\u{e9}");
    }

    /// Hands out one chunk per read; `None` is a read timeout.
    struct Stutter(std::collections::VecDeque<Option<&'static [u8]>>);

    impl std::io::Read for Stutter {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.0.pop_front() {
                Some(Some(chunk)) => {
                    buf[..chunk.len()].copy_from_slice(chunk);
                    Ok(chunk.len())
                }
                Some(None) => Err(std::io::ErrorKind::WouldBlock.into()),
                None => Ok(0),
            }
        }
    }

    #[test]
    fn a_character_split_by_a_read_timeout_survives() {
        // A slow peer's "é" arrives in two reads with a timeout between.
        let chunks = [
            Some(&b"GET /caf\xc3"[..]),
            None,
            Some(&b"\xa9 HTTP/1.1\r\n\r\n"[..]),
        ];
        let mut reader = BufReader::new(Stutter(chunks.into()));
        assert_eq!(read_head(&mut reader).unwrap().path, "/caf\u{e9}");
    }

    /// Request heads the server accepts, to mutate one byte at a time.
    fn valid_head(variant: usize, padding: usize) -> Vec<u8> {
        let heads = [
            "GET /healthz HTTP/1.1\r\n\r\n",
            "POST /solve HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}",
            "POST /eval HTTP/1.0\r\nExpect: 100-continue\r\nConnection: keep-alive\r\nContent-Length: 4\r\n\r\nbody",
            "GET /metrics HTTP/1.1\r\nx-ses-trace-id: 00000000000000ff\r\nConnection: close\r\n\r\n",
        ];
        let (line, rest) = heads[variant % heads.len()].split_once("\r\n").unwrap();
        format!("{line}\r\nX-Pad: {}\r\n{rest}", "p".repeat(padding)).into_bytes()
    }

    /// Parses `raw` as the server does — head, then a body of the declared
    /// length when it is within the server's default cap — and checks
    /// that nothing panics and the head read stays within its byte cap.
    fn parse_bounded(raw: &[u8]) {
        let mut rest = raw;
        let head = read_head(&mut rest);
        let head_bytes = raw.len() - rest.len();
        assert!(
            head_bytes <= MAX_HEAD_BYTES + 1,
            "{head_bytes} head bytes read"
        );
        if let Ok(head) = head {
            if head.content_length <= 1 << 20 {
                let before = rest.len();
                match read_body(&mut rest, head.content_length) {
                    Ok(_) | Err(RecvError::Io(_) | RecvError::Malformed(_)) => {}
                    Err(e) => panic!("unexpected body error {e}"),
                }
                assert!(before - rest.len() <= head.content_length);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn arbitrary_bytes_parse_or_fail_typed(
            mut raw in prop::collection::vec(any::<u8>(), 0..2 * MAX_HEAD_BYTES),
            newlines in prop::bool::ANY,
        ) {
            // Without newlines the input is one endless line, which must
            // still be cut off at the head budget.
            if !newlines {
                raw.retain(|&b| b != b'\n');
            }
            parse_bounded(&raw);
        }

        #[test]
        fn mutated_heads_parse_or_fail_typed(
            variant in 0usize..4,
            near_budget in prop::bool::ANY,
            pad in any::<usize>(),
            at in any::<usize>(),
            byte in any::<u8>(),
        ) {
            // Small heads put most mutations on structural bytes; padded
            // ones straddle the head budget.
            let padding = if near_budget {
                MAX_HEAD_BYTES - 256 + pad % 320
            } else {
                pad % 64
            };
            let mut raw = valid_head(variant, padding);
            let at = at % raw.len();
            raw[at] = byte;
            parse_bounded(&raw);
        }
    }

    #[test]
    fn responses_are_framed_with_length() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "{\"ok\":true}", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("{\"ok\":true}"));
    }

    /// Keeps every byte and counts the `write` calls that delivered them.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_is_one_write_with_unchanged_bytes() {
        // Writes one 200 and checks it arrived whole, in one write call.
        let check = |body: &str, keep_alive, headers: &[(&str, &str)], head_only, expected| {
            let mut out = CountingWriter::default();
            write_response_ex(&mut out, 200, body, keep_alive, headers, head_only).unwrap();
            assert_eq!(String::from_utf8(out.bytes).unwrap(), expected);
            assert_eq!(out.writes, 1, "{expected:?} took {} writes", out.writes);
        };
        let trace = ("x-ses-trace-id", "00000000000000ff");
        check(
            "{\"ok\":true}",
            true,
            &[trace],
            false,
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 11\r\n\
             Connection: keep-alive\r\nx-ses-trace-id: 00000000000000ff\r\n\r\n{\"ok\":true}",
        );
        // HEAD: the GET's Content-Length, no body bytes.
        check(
            "{\"ok\":true}",
            false,
            &[trace],
            true,
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 11\r\n\
             Connection: close\r\nx-ses-trace-id: 00000000000000ff\r\n\r\n",
        );
        check(
            "{\"allow\":\"GET, HEAD, OPTIONS\"}",
            true,
            &[trace, ("Allow", "GET, HEAD, OPTIONS")],
            false,
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 30\r\n\
             Connection: keep-alive\r\nx-ses-trace-id: 00000000000000ff\r\n\
             Allow: GET, HEAD, OPTIONS\r\n\r\n{\"allow\":\"GET, HEAD, OPTIONS\"}",
        );
    }
}
