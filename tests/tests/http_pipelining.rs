//! Byte-split property test for the HTTP request parser: a pipelined
//! two-request corpus must parse identically no matter how the bytes
//! are fragmented across socket reads.
//!
//! Each fragment is appended to one buffer and every complete request is
//! drained from it with [`swip_serve::RequestParser::try_parse`], the way
//! a server connection services each read. The corpus is cut at every
//! single split point and at every pair of split points, and both
//! requests must come out byte-for-byte intact each time: the bytes past
//! the first body are the second request and must never be discarded.

use swip_serve::{Request, RequestParser};

/// The pipelined corpus: two POSTs back to back in one byte stream,
/// with bodies that contain `\r\n\r\n`-free JSON so every split lands
/// either mid-head, mid-body, or on the request boundary.
fn corpus() -> Vec<u8> {
    let b1 = r#"{"configs": ["ftq2_fdp"], "tag": "first"}"#;
    let b2 = r#"{"configs": ["ftq24_mana"], "tag": "second"}"#;
    let mut bytes = Vec::new();
    bytes.extend_from_slice(
        format!(
            "POST /v1/jobs HTTP/1.1\r\nHost: a\r\nContent-Length: {}\r\n\r\n{b1}",
            b1.len()
        )
        .as_bytes(),
    );
    bytes.extend_from_slice(
        format!(
            "POST /v1/jobs HTTP/1.1\r\nHost: b\r\nContent-Length: {}\r\n\r\n{b2}",
            b2.len()
        )
        .as_bytes(),
    );
    bytes
}

/// Appends each fragment to one buffer, as a connection appends each
/// socket read, and drains every complete request after each append.
fn parse_both(fragments: &[&[u8]]) -> (Request, Request) {
    let mut parser = RequestParser::new();
    let mut buf = Vec::new();
    let mut requests = Vec::new();
    for fragment in fragments {
        buf.extend_from_slice(fragment);
        while let Some(request) = parser
            .try_parse(&mut buf)
            .expect("the corpus is well-formed")
        {
            requests.push(request);
        }
    }
    assert!(
        !parser.mid_request(&buf),
        "no bytes may linger after the last request"
    );
    let [first, second]: [Request; 2] = requests.try_into().expect("exactly two requests");
    (first, second)
}

fn assert_matches_reference(tag: &str, got: &(Request, Request), want: &(Request, Request)) {
    for (which, (g, w)) in [(&got.0, &want.0), (&got.1, &want.1)].iter().enumerate() {
        assert_eq!(g.method, w.method, "{tag}: request {which} method");
        assert_eq!(g.path, w.path, "{tag}: request {which} path");
        assert_eq!(g.version, w.version, "{tag}: request {which} version");
        assert_eq!(g.headers, w.headers, "{tag}: request {which} headers");
        assert_eq!(g.body, w.body, "{tag}: request {which} body");
    }
}

#[test]
fn every_single_split_point_parses_identically() {
    let bytes = corpus();
    let reference = parse_both(&[&bytes]);
    for i in 0..=bytes.len() {
        let got = parse_both(&[&bytes[..i], &bytes[i..]]);
        assert_matches_reference(&format!("split at {i}"), &got, &reference);
    }
}

#[test]
fn every_pair_of_split_points_parses_identically() {
    let bytes = corpus();
    let reference = parse_both(&[&bytes]);
    for i in 0..=bytes.len() {
        for j in i..=bytes.len() {
            let got = parse_both(&[&bytes[..i], &bytes[i..j], &bytes[j..]]);
            assert_matches_reference(&format!("splits at {i},{j}"), &got, &reference);
        }
    }
}

#[test]
fn single_byte_trickle_parses_identically() {
    let bytes = corpus();
    let reference = parse_both(&[&bytes]);
    let bytes: Vec<&[u8]> = bytes.chunks(1).collect();
    let got = parse_both(&bytes);
    assert_matches_reference("one byte per read", &got, &reference);
}
