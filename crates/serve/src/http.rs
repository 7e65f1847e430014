//! A deliberately small HTTP/1.1 subset: enough for a loopback control
//! plane, nothing more.
//!
//! The workspace carries no external dependencies, so requests are parsed
//! by hand. The subset is strict where it keeps the server simple:
//!
//! * HTTP/1.1 keep-alive with pipelining (`Connection` negotiation per
//!   request; HTTP/1.0 defaults to close);
//! * bodies require `Content-Length` (no chunked transfer encoding);
//! * exactly one `Content-Length` header — duplicates, even agreeing
//!   ones, are rejected as a request-smuggling vector;
//! * the head is capped at 16 KiB and bodies at 1 MiB — a plan
//!   submission is a few hundred bytes, so anything larger is a client
//!   bug, rejected with a typed [`HttpError`] before buffering it.
//!
//! Parsing is incremental: [`RequestParser`] consumes complete requests
//! from a caller-owned byte buffer and leaves pipelined leftovers in
//! place, for the readiness loop's per-connection state machine (see
//! `conn`).

use std::io::{self, Write};

/// Maximum bytes in the request line + headers.
const MAX_HEAD: usize = 16 * 1024;
/// Maximum bytes in a request body.
const MAX_BODY: usize = 1024 * 1024;

/// A parse-level rejection, mapped to `400 Bad Request` by the server.
#[derive(Debug)]
pub enum HttpError {
    /// The bytes were not a well-formed HTTP/1.1 request.
    Malformed(&'static str),
    /// The head or body exceeded its size cap.
    TooLarge,
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(what) => write!(f, "malformed request: {what}"),
            HttpError::TooLarge => write!(f, "request exceeds size limits"),
        }
    }
}

impl std::error::Error for HttpError {}

/// A parsed request: method, path, version, headers, and body.
#[derive(Clone, Debug)]
pub struct Request {
    /// Request method (`GET`, `POST`, …), as sent.
    pub method: String,
    /// Request path, as sent (no query-string splitting — the API has
    /// no query parameters).
    pub path: String,
    /// Protocol version, as sent (`HTTP/1.1` or `HTTP/1.0`).
    pub version: String,
    /// Header `(name, value)` pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (empty without `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8, or `None` if it is not valid UTF-8.
    pub fn body_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }

    /// The connection this request negotiates: `true` to keep the
    /// connection open for the next request.
    ///
    /// HTTP/1.1 defaults to keep-alive unless the client sends
    /// `Connection: close`; HTTP/1.0 defaults to close unless the
    /// client asks for `Connection: keep-alive`.
    pub fn wants_keep_alive(&self) -> bool {
        match self.header("connection").map(str::to_ascii_lowercase) {
            Some(v) if v.split(',').any(|t| t.trim() == "close") => false,
            Some(v) if v.split(',').any(|t| t.trim() == "keep-alive") => true,
            _ => self.version != "HTTP/1.0",
        }
    }
}

/// Incremental single-request parser over a caller-owned buffer.
///
/// `try_parse` either consumes one complete request from the front of
/// the buffer (leaving any pipelined bytes after it in place — nothing
/// is ever discarded), reports that more bytes are needed, or rejects
/// the prefix as malformed. The parser remembers how far the
/// `\r\n\r\n` head scan got, so feeding a head in N chunks costs O(head)
/// total, not O(head·N).
#[derive(Default, Debug)]
pub struct RequestParser {
    /// Resume offset for the head-terminator scan: everything before it
    /// is known not to start `\r\n\r\n`.
    scan_from: usize,
    /// Head length (offset of `\r\n\r\n`) once found, so body
    /// accumulation does not rescan.
    head_end: Option<usize>,
}

impl RequestParser {
    /// A fresh parser (equivalent to `Default`).
    pub fn new() -> Self {
        Self::default()
    }

    /// True when a request prefix is buffered but incomplete — the
    /// distinction between an idle connection and one that died
    /// mid-request.
    pub fn mid_request(&self, buf: &[u8]) -> bool {
        !buf.is_empty() || self.head_end.is_some()
    }

    /// Tries to parse one complete request from the front of `buf`.
    ///
    /// On success the request's bytes are drained from `buf` (pipelined
    /// followers stay) and the parser resets for the next request.
    /// `Ok(None)` means the buffer holds only a request prefix.
    ///
    /// # Errors
    ///
    /// [`HttpError::Malformed`] on syntax errors (including duplicate
    /// `Content-Length` headers), [`HttpError::TooLarge`] when a size
    /// cap is exceeded — both before buffering past the cap.
    pub fn try_parse(&mut self, buf: &mut Vec<u8>) -> Result<Option<Request>, HttpError> {
        let head_end = match self.head_end {
            Some(pos) => pos,
            None => {
                let from = self.scan_from;
                match buf[from..].windows(4).position(|w| w == b"\r\n\r\n") {
                    Some(rel) => {
                        let pos = from + rel;
                        if pos > MAX_HEAD {
                            return Err(HttpError::TooLarge);
                        }
                        self.head_end = Some(pos);
                        pos
                    }
                    None => {
                        // A head this long can never terminate legally,
                        // so fail before buffering any further.
                        if buf.len() >= MAX_HEAD {
                            return Err(HttpError::TooLarge);
                        }
                        // The last 3 bytes may be a partial terminator.
                        self.scan_from = buf.len().saturating_sub(3);
                        return Ok(None);
                    }
                }
            }
        };

        let (request, content_length) = parse_head(&buf[..head_end])?;
        if content_length > MAX_BODY {
            return Err(HttpError::TooLarge);
        }
        let body_start = head_end + 4;
        if buf.len() < body_start + content_length {
            return Ok(None); // body still arriving
        }
        let mut request = request;
        request.body = buf[body_start..body_start + content_length].to_vec();
        // Drain exactly this request; pipelined bytes after it carry
        // over to the next try_parse.
        buf.drain(..body_start + content_length);
        self.scan_from = 0;
        self.head_end = None;
        Ok(Some(request))
    }
}

/// Parses the request line and headers (everything before `\r\n\r\n`),
/// returning the body length separately.
fn parse_head(head: &[u8]) -> Result<(Request, usize), HttpError> {
    let head = std::str::from_utf8(head).map_err(|_| HttpError::Malformed("head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or(HttpError::Malformed("empty request line"))?
        .to_string();
    let path = parts
        .next()
        .ok_or(HttpError::Malformed("request line has no path"))?
        .to_string();
    let version = match parts.next() {
        Some(v) if v.starts_with("HTTP/1.") => v.to_string(),
        _ => return Err(HttpError::Malformed("not an HTTP/1.x request")),
    };

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::Malformed("header without a colon"))?;
        headers.push((name.trim().to_string(), value.trim().to_string()));
    }

    // Exactly one Content-Length (or none). Accepting duplicates —
    // even matching ones — is how request smuggling starts once
    // responses share a connection.
    let mut content_length = None;
    for (k, v) in &headers {
        if k.eq_ignore_ascii_case("content-length") {
            if content_length.is_some() {
                return Err(HttpError::Malformed("duplicate Content-Length header"));
            }
            content_length = Some(
                v.parse::<usize>()
                    .map_err(|_| HttpError::Malformed("unparsable Content-Length"))?,
            );
        }
    }

    Ok((
        Request {
            method,
            path,
            version,
            headers,
            body: Vec::new(),
        },
        content_length.unwrap_or(0),
    ))
}

/// A JSON response under construction.
///
/// The `Connection` header is decided at serialization time: the
/// connection layer negotiates keep-alive per request and passes the
/// verdict to [`write_connection`](Response::write_connection);
/// [`write_to`](Response::write_to) is the one-shot flavor that always
/// closes (accept-time shedding).
#[derive(Clone, Debug)]
pub struct Response {
    /// Status code (200, 400, 429, …).
    pub status: u16,
    /// Extra headers beyond the always-present content/connection set.
    pub headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with the given status and body.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// A JSON error body `{"error": …}` with the given status.
    pub fn error(status: u16, message: &str) -> Self {
        let obj = swip_report::Json::Obj(vec![(
            "error".to_string(),
            swip_report::Json::Str(message.to_string()),
        )]);
        Response::json(status, obj.render())
    }

    /// Adds a header (e.g. `Retry-After` on a 429).
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Serializes the response into `out` with the negotiated
    /// `Connection` header (`keep_alive = false` emits `close`).
    pub fn write_connection(&self, out: &mut Vec<u8>, keep_alive: bool) {
        let connection = if keep_alive { "keep-alive" } else { "close" };
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            reason(self.status),
            self.body.len(),
            connection,
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        out.extend_from_slice(head.as_bytes());
        out.extend_from_slice(&self.body);
    }

    /// Serializes the response to `stream` with `Connection: close` —
    /// the one-shot flavor for contexts without a connection state
    /// machine (shedding, tests).
    ///
    /// # Errors
    ///
    /// Propagates socket write failures (the caller logs and drops them —
    /// a client that hung up mid-response is not a server error).
    pub fn write_to(&self, stream: &mut impl Write) -> io::Result<()> {
        let mut bytes = Vec::with_capacity(128 + self.body.len());
        self.write_connection(&mut bytes, false);
        stream.write_all(&bytes)?;
        stream.flush()
    }
}

/// The reason phrase for every status the router produces.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `bytes` as one complete request, as a connection does with
    /// its read buffer.
    fn parse(bytes: &[u8]) -> Result<Request, HttpError> {
        let mut buf = bytes.to_vec();
        let parsed = RequestParser::new().try_parse(&mut buf)?;
        Ok(parsed.expect("the bytes hold a complete request"))
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse(
            b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\n{\"a\":\"b\"}xx",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/jobs");
        assert_eq!(req.version, "HTTP/1.1");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body_str(), Some("{\"a\":\"b\"}xx"));
    }

    #[test]
    fn parses_a_bodyless_get() {
        let req = parse(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            parse(b"nonsense\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"GET /x HTTP/1.1\r\nContent-Length: zero\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"GET /x HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n"),
            Err(HttpError::TooLarge)
        ));
    }

    #[test]
    fn rejects_duplicate_content_length() {
        // Agreeing duplicates are rejected too: the smuggling vector is
        // two parsers disagreeing about which one counts.
        for second in ["3", "5"] {
            let raw = format!(
                "POST /v1/jobs HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: {second}\r\n\r\nabcde"
            );
            let err = parse(raw.as_bytes()).unwrap_err();
            assert!(
                matches!(err, HttpError::Malformed(m) if m.contains("duplicate Content-Length")),
                "{err}"
            );
        }
    }

    #[test]
    fn pipelined_bytes_carry_over() {
        // Two requests in one burst: the bytes past the first body must
        // stay in the buffer and parse as the second request.
        let mut buf =
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiGET /healthz HTTP/1.1\r\n\r\n"
                .to_vec();
        let mut parser = RequestParser::new();
        let first = parser.try_parse(&mut buf).unwrap().unwrap();
        assert_eq!(first.method, "POST");
        assert_eq!(first.body_str(), Some("hi"));
        assert!(!buf.is_empty(), "pipelined bytes were destroyed");
        let second = parser.try_parse(&mut buf).unwrap().unwrap();
        assert_eq!(second.method, "GET");
        assert_eq!(second.path, "/healthz");
        assert!(buf.is_empty());
    }

    #[test]
    fn incremental_parser_resumes_without_rescanning() {
        let raw: &[u8] = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
        let mut parser = RequestParser::new();
        let mut buf = Vec::new();
        for (i, &b) in raw.iter().enumerate() {
            buf.push(b);
            let parsed = parser.try_parse(&mut buf).unwrap();
            if i + 1 < raw.len() {
                assert!(parsed.is_none(), "parsed early at byte {i}");
                assert!(parser.mid_request(&buf));
                // The scan cursor must track the buffer, never rescan
                // from zero (the O(n²) regression).
                assert!(parser.scan_from + 3 >= buf.len().min(raw.len() - 4));
            } else {
                let req = parsed.expect("complete request must parse");
                assert_eq!(req.path, "/healthz");
            }
        }
        assert!(buf.is_empty());
        assert!(!parser.mid_request(&buf));
    }

    #[test]
    fn oversized_head_fails_before_buffering_past_the_cap() {
        let mut parser = RequestParser::new();
        let mut buf = b"GET /x HTTP/1.1\r\n".to_vec();
        buf.resize(MAX_HEAD, b'a'); // no terminator in sight
        assert!(matches!(
            parser.try_parse(&mut buf),
            Err(HttpError::TooLarge)
        ));
        assert!(buf.len() <= MAX_HEAD, "buffered past the head cap");
    }

    #[test]
    fn keep_alive_negotiation_follows_version_defaults() {
        let req = parse(b"GET /x HTTP/1.1\r\n\r\n").unwrap();
        assert!(req.wants_keep_alive(), "1.1 defaults to keep-alive");
        let req = parse(b"GET /x HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!req.wants_keep_alive());
        let req = parse(b"GET /x HTTP/1.0\r\n\r\n").unwrap();
        assert!(!req.wants_keep_alive(), "1.0 defaults to close");
        let req = parse(b"GET /x HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(req.wants_keep_alive());
    }

    #[test]
    fn responses_carry_length_and_negotiated_connection() {
        let mut out = Vec::new();
        Response::json(200, "{}")
            .with_header("Retry-After", "1")
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));

        let mut kept = Vec::new();
        Response::json(200, "{}").write_connection(&mut kept, true);
        assert!(String::from_utf8(kept)
            .unwrap()
            .contains("Connection: keep-alive\r\n"));
    }
}
