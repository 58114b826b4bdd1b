//! Hardening of the HTTP front end against hostile or careless clients.
//!
//! The event loop feeds [`RequestParser`] whatever byte chunks the kernel
//! hands it — attacker-controlled content, split at arbitrary boundaries.
//! The properties pin the parser's safety contract: no panics on any
//! input, only the documented status codes on rejection, size bounds
//! enforced *before* body allocation, and chunking-invariant parses of
//! valid requests. An end-to-end test pins the event loop's per-connection
//! backpressure against a client that pipelines without reading.

use bf_serve::http::{Request, RequestParser, MAX_BODY_BYTES, MAX_HEAD_BYTES};
use proptest::prelude::*;

/// Statuses the parser is allowed to produce; anything else is a bug.
const PARSER_STATUSES: &[u16] = &[400, 413, 431, 501, 505];

/// Drives a parser over `bytes` split into `chunk`-sized pieces, collecting
/// complete requests until exhaustion or the first error.
fn drive(bytes: &[u8], chunk: usize) -> Result<Vec<Request>, u16> {
    let mut parser = RequestParser::new();
    let mut out = Vec::new();
    for piece in bytes.chunks(chunk.max(1)) {
        parser.push(piece);
        loop {
            match parser.next_request() {
                Ok(Some(req)) => out.push(req),
                Ok(None) => break,
                Err(e) => return Err(e.status),
            }
        }
    }
    Ok(out)
}

/// Renders a well-formed request from generated parts.
fn render(path_seed: &[u8], body: &[u8], extra_header: bool) -> Vec<u8> {
    // Path charset restricted to bytes that survive the request-line split.
    let path: String = path_seed
        .iter()
        .map(|b| char::from(b'a' + (b % 26)))
        .collect();
    let mut raw = format!("POST /{path} HTTP/1.1\r\nHost: t\r\n");
    if extra_header {
        raw.push_str("X-Extra: v\r\n");
    }
    raw.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    let mut bytes = raw.into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes at arbitrary chunkings never panic, and any
    /// rejection uses one of the documented status codes.
    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in prop::collection::vec(any::<u8>(), 0..768),
        chunk in 1usize..96,
    ) {
        match drive(&bytes, chunk) {
            Ok(_) => {}
            Err(status) => prop_assert!(
                PARSER_STATUSES.contains(&status),
                "undocumented status {status}"
            ),
        }
    }

    /// A valid request parses identically no matter where the reads split,
    /// and pipelining a second request behind it yields both.
    #[test]
    fn valid_requests_parse_under_any_split(
        path_seed in prop::collection::vec(any::<u8>(), 1..24),
        body in prop::collection::vec(any::<u8>(), 0..200),
        extra in any::<u8>(),
        chunk in 1usize..64,
    ) {
        let mut bytes = render(&path_seed, &body, extra.is_multiple_of(2));
        bytes.extend_from_slice(b"GET /healthz HTTP/1.1\r\n\r\n");
        let got = drive(&bytes, chunk).expect("valid request rejected");
        prop_assert_eq!(got.len(), 2);
        prop_assert_eq!(&got[0].method, "POST");
        prop_assert_eq!(&got[0].body, &body);
        prop_assert_eq!(&got[1].path, "/healthz");
    }

    /// Truncating a valid request anywhere short of its end yields no
    /// request and no error — just "need more bytes" and a partial flag.
    #[test]
    fn truncated_requests_stay_pending(
        path_seed in prop::collection::vec(any::<u8>(), 1..16),
        body in prop::collection::vec(any::<u8>(), 1..120),
        cut_seed in any::<u64>(),
    ) {
        let bytes = render(&path_seed, &body, false);
        let cut = 1 + (cut_seed as usize) % (bytes.len() - 1);
        let mut parser = RequestParser::new();
        parser.push(&bytes[..cut]);
        let r = parser.next_request();
        prop_assert!(matches!(r, Ok(None)), "truncated parse produced {r:?}");
        prop_assert!(parser.has_partial());
        // Feeding the rest completes it.
        parser.push(&bytes[cut..]);
        let req = parser.next_request().unwrap().expect("completion failed");
        prop_assert_eq!(&req.body, &body);
        prop_assert!(!parser.has_partial());
    }

    /// Oversized declared bodies are rejected with 413 as soon as the head
    /// completes — regardless of chunking, and before any body bytes arrive
    /// (the declared length is never allocated).
    #[test]
    fn oversized_content_length_is_413_before_body_bytes(
        excess in 1usize..(1 << 20),
        chunk in 1usize..64,
    ) {
        let head = format!(
            "POST /p HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + excess
        );
        prop_assert!(matches!(drive(head.as_bytes(), chunk), Err(413)));
    }

    /// Heads that never terminate are cut off with 431 once past the cap.
    #[test]
    fn unterminated_heads_are_431(
        filler in prop::collection::vec(97u8..123, 64..256),
        chunk in 7usize..64,
    ) {
        let mut bytes = b"GET /x HTTP/1.1\r\n".to_vec();
        while bytes.len() <= MAX_HEAD_BYTES + 1 {
            bytes.extend_from_slice(&filler);
            bytes.extend_from_slice(b": v\r\n"); // valid headers, no blank line
        }
        prop_assert!(matches!(drive(&bytes, chunk), Err(431)));
    }

    /// Header lines without a colon are 400 under any chunking.
    #[test]
    fn malformed_header_lines_are_400(
        junk in prop::collection::vec(97u8..123, 1..32),
        chunk in 1usize..32,
    ) {
        let mut bytes = b"GET /x HTTP/1.1\r\n".to_vec();
        bytes.extend_from_slice(&junk); // letters only: no ':' possible
        bytes.extend_from_slice(b"\r\n\r\n");
        prop_assert!(matches!(drive(&bytes, chunk), Err(400)));
    }
}

/// A client that pipelines requests and never reads the replies is
/// throttled by its own send buffer: the server stops reading from a
/// connection it owes too many response bytes instead of buffering
/// responses without bound. Once the client reads, every response
/// arrives, in request order.
#[cfg(target_os = "linux")]
#[test]
fn unread_pipelined_replies_block_the_client_not_the_server() {
    use bf_serve::{ModelBundle, PredictServer, ServeConfig};
    use blackforest::{BlackForest, ModelConfig, Workload};
    use gpu_sim::GpuConfig;
    use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    /// Far beyond the socket buffers plus the server's per-connection cap;
    /// a server that keeps reading accepts this much without stalling.
    const WRITE_LIMIT: usize = 48 << 20;
    /// Write progress paused this long means the client is blocked.
    const STALL: Duration = Duration::from_millis(500);

    let gpu = GpuConfig::gtx580();
    let sizes: Vec<usize> = (12..=15).map(|e| 1usize << e).collect();
    let report = BlackForest::new(gpu.clone())
        .with_config(ModelConfig::quick(7))
        .analyze(
            Workload::Reduce(bf_kernels::reduce::ReduceVariant::Reduce1),
            &sizes,
        )
        .expect("train quick reduce sweep");
    let bundle = ModelBundle::from_report(&report, &gpu, &sizes, false);
    let server = PredictServer::bind("127.0.0.1:0", bundle, ServeConfig::default()).expect("bind");
    let (handle, join) = server.spawn();

    // Fixed-width paths: request `i` ends at byte `(i + 1) * len`, and its
    // 404 body names the path, so response order is checkable.
    let request = |i: usize| format!("GET /order/{i:010} HTTP/1.1\r\nHost: t\r\n\r\n");
    let len = request(0).len();
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_nonblocking(true).unwrap();
    let mut batch = Vec::new();
    let mut batch_pos = 0;
    let mut written = 0usize;
    let mut stalled_since: Option<Instant> = None;
    loop {
        if batch_pos == batch.len() {
            let first = written / len;
            batch = (first..first + 256)
                .flat_map(|i| request(i).into_bytes())
                .collect();
            batch_pos = 0;
        }
        match (&stream).write(&batch[batch_pos..]) {
            Ok(n) => {
                batch_pos += n;
                written += n;
                stalled_since = None;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if stalled_since.get_or_insert_with(Instant::now).elapsed() > STALL {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("write failed after {written} bytes: {e}"),
        }
        assert!(
            written < WRITE_LIMIT,
            "the server kept reading {written} bytes of pipelined requests whose \
             replies were never read"
        );
    }

    // Finish the request cut by the blocked write while a reader drains
    // the replies (the server resumes once its backlog flushes).
    let expected = written.div_ceil(len);
    stream.set_nonblocking(false).unwrap();
    let reader = {
        let stream = stream.try_clone().unwrap();
        std::thread::spawn(move || {
            let mut reader = BufReader::new(stream);
            for i in 0..expected {
                let mut status = String::new();
                reader.read_line(&mut status).expect("status line");
                assert!(status.starts_with("HTTP/1.1 404"), "reply {i}: {status:?}");
                let mut body_len = 0usize;
                loop {
                    let mut line = String::new();
                    reader.read_line(&mut line).expect("header line");
                    if line == "\r\n" {
                        break;
                    }
                    if let Some(v) = line.strip_prefix("Content-Length: ") {
                        body_len = v.trim().parse().unwrap();
                    }
                }
                let mut body = vec![0u8; body_len];
                reader.read_exact(&mut body).expect("body");
                let body = String::from_utf8(body).unwrap();
                let path = format!("/order/{i:010}");
                assert!(body.contains(&path), "reply {i} out of order: {body}");
            }
        })
    };
    let rest = (len - written % len) % len;
    let tail = request(written / len).into_bytes();
    (&stream)
        .write_all(&tail[len - rest..])
        .expect("finish the cut request");
    reader.join().expect("every reply arrives in order");

    handle.stop();
    join.join().unwrap();
}
