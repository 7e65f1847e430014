//! A tiny std-only HTTP client, good for exactly one thing: talking to
//! `swip serve` over loopback from tests, the `serve_probe` binary, and
//! scripts.
//!
//! Two flavors: the one-shot [`request`] (sends `Connection: close`,
//! reads to EOF) and the keep-alive [`Connection`], which holds one
//! socket open across requests and frames responses by
//! `Content-Length` — the client-side mirror of the server's
//! readiness-loop connection model.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Sends one request on a fresh connection and returns `(status, body)`.
///
/// # Errors
///
/// I/O errors from the socket, plus `InvalidData` when the peer's
/// response is not parseable HTTP.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;

    let body = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let (status, _, body) = parse_response(&raw)?;
    Ok((status, body))
}

/// A kept-alive connection: many requests, one socket.
///
/// Requests are sent without `Connection: close`, so an HTTP/1.1 server
/// keeps the socket open; responses are framed by their
/// `Content-Length` rather than EOF. Dropping the `Connection` closes
/// the socket.
pub struct Connection {
    stream: TcpStream,
    /// Bytes read past the previous response (the server may flush
    /// pipelined responses in one burst).
    carry: Vec<u8>,
}

impl Connection {
    /// Connects to `addr` with 30-second socket timeouts.
    ///
    /// # Errors
    ///
    /// Propagates connect/configure failures.
    pub fn connect(addr: &str) -> io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        Ok(Connection {
            stream,
            carry: Vec::new(),
        })
    }

    /// Sends one request on the kept-alive socket and returns
    /// `(status, body)`.
    ///
    /// # Errors
    ///
    /// Socket I/O errors, plus `InvalidData` for unparseable responses.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<(u16, String)> {
        let raw = self.request_raw(method, path, body)?;
        let (status, _, body) = parse_response(&raw)?;
        Ok((status, body))
    }

    /// Sends one request and returns the complete raw response bytes
    /// (head + body), for byte-identity assertions in tests.
    ///
    /// # Errors
    ///
    /// Socket I/O errors, plus `InvalidData` for unframeable responses.
    pub fn request_raw(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<Vec<u8>> {
        let body = body.unwrap_or("");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: swip-serve\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body.as_bytes())?;
        self.stream.flush()?;
        self.read_framed_response()
    }

    /// Writes raw bytes to the socket without awaiting a response
    /// (pipelining aid for tests).
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)?;
        self.stream.flush()
    }

    /// Reads the next complete response off the socket (head to the
    /// end of its `Content-Length` body) and returns its raw bytes.
    ///
    /// # Errors
    ///
    /// Socket I/O errors, plus `InvalidData` when the response has no
    /// parseable head or length.
    pub fn read_framed_response(&mut self) -> io::Result<Vec<u8>> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let mut chunk = [0u8; 4096];
        // Head: accumulate to the blank line.
        let head_end = loop {
            if let Some(pos) = self.carry.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("connection closed mid-response-head"));
            }
            self.carry.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.carry[..head_end])
            .map_err(|_| bad("response head is not UTF-8"))?;
        let content_length = head
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.trim()
                    .eq_ignore_ascii_case("content-length")
                    .then(|| v.trim().parse::<usize>().ok())?
            })
            .ok_or_else(|| bad("response has no Content-Length"))?;
        let total = head_end + 4 + content_length;
        while self.carry.len() < total {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("connection closed mid-response-body"));
            }
            self.carry.extend_from_slice(&chunk[..n]);
        }
        let response = self.carry[..total].to_vec();
        self.carry.drain(..total);
        Ok(response)
    }
}

/// Splits raw response bytes into `(status, head, body)`.
fn parse_response(raw: &[u8]) -> io::Result<(u16, String, String)> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let text = std::str::from_utf8(raw).map_err(|_| bad("response is not UTF-8"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| bad("response has no head/body separator"))?;
    let status_line = head.lines().next().unwrap_or("");
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("response status line is unparsable"))?;
    Ok((status, head.to_string(), body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_response() {
        let (status, head, body) =
            parse_response(b"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 1\r\n\r\n{\"e\":1}")
                .unwrap();
        assert_eq!(status, 429);
        assert!(head.contains("Retry-After: 1"));
        assert_eq!(body, "{\"e\":1}");
    }

    #[test]
    fn rejects_non_http_bytes() {
        assert!(parse_response(b"ceci n'est pas une reponse").is_err());
    }
}
